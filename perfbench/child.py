"""One repetition: run one config through reachgeom.cli in this fresh process.

Usage: python3 perfbench/child.py CONFIG [--trace SPANS_JSON]

Prints one JSON line: set-up and run wall times, exit status, the process's
own peak RSS, and, when traced, per-layer self times and counts (the spans go
to SPANS_JSON).  ``setup_s`` covers importing the package and ``load_config``;
``run_s`` covers ``cli.run``, which also writes the reports.  An exception
from ``cli.run`` is reported, not raised, so the caller can count it.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("config")
    ap.add_argument("--trace", metavar="SPANS_JSON")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from reachgeom import cli

    tracer = None
    if args.trace:
        from tracer import Tracer, install

        t_install = time.perf_counter()
        tracer = Tracer()
        install(tracer)
        install_s = time.perf_counter() - t_install
    config = cli.load_config(args.config)
    t1 = time.perf_counter()
    out = {"setup_s": t1 - T0, "status": None, "error": None}
    try:
        out["status"], _ = cli.run(config)
    except Exception:  # a crashed run is a result to count, not a benchmark failure
        out["error"] = traceback.format_exc(limit=3)
    t2 = time.perf_counter()
    out["run_s"] = t2 - t1
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["setup_s"] -= install_s  # keep set-up comparable with a plain repetition
        out["self_s"] = tracer.self_times("cli.run")
        out["load_config_s"] = tracer.total("cli.load_config")
        out["counts"] = dict(tracer.counts)
        tracer.dump(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
