"""reachgeom benchmark: seeded configs run end to end through reachgeom.cli.

Usage (from the repository root):

    python3 perfbench/run.py --workload polytope-fan --seed 1 --seconds 40 --trace 0

The seed generates one config (perfbench/workloads.py); the program sees only
that config.  Each repetition runs it in a fresh process (perfbench/child.py):
closed loop, one client, ``threads = 1``, with OpenBLAS capped at two
threads.  Fresh processes keep the package's id()-keyed bundle and solver
caches from handing one repetition's objects to the next.  Repetitions start
until the next one would end past ``--seconds`` (at least three plain ones).

``--trace 0`` reports the end-to-end metrics of plain repetitions.
``--trace 1`` alternates plain and traced repetitions and reports per-layer
self times and counts from the traced ones (perfbench/tracer.py), with the
tracing overhead as traced against plain ``run_s``.

Every repetition is checked: exit status 0, each check passing as expected,
``summary.json`` byte-identical across all repetitions of the run (plain and
traced), the closed-form reference within tolerance, and traced counts equal
across repetitions.  A repetition that crashes counts all its checks as
failed.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import COUNTS, LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK = ".perfbench-work"  # relative to ROOT; listed in .gitignore
DEADLINE_S = 170.0  # a run must end within 180 s
MIN_PLAIN = 3
MIN_TRACED = 2
MAX_CRASHES = 3


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "2"
    return env


def run_child(argv: list, timeout: float):
    """(parsed JSON line or None, diagnostic text) of one child process."""
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=child_env(), capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(lines[-1]), ""


def median(xs):
    return statistics.median(xs) if xs else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "reachgeom" / "__init__.py").is_file():
        print(f"no reachgeom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = ROOT / WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reports = work / "reports"
    gen = wl.generate(args.seed, f"{WORK}/{args.workload}/reports")
    cfg_path = work / "config.cfg"
    cfg_path.write_text(gen.text, encoding="utf-8")

    t_start = time.perf_counter()
    # compile the package's bytecode and warm the file cache, untimed: a CLI
    # user pays that once, not per run
    warm, why = run_child(["-c", "import sys; sys.path.insert(0, 'src'); import reachgeom; print(1)"],
                          DEADLINE_S)
    if warm is None:
        print(f"cannot import reachgeom: {why}", file=sys.stderr)
        return 1

    plain, traced = [], []
    attempted = failed = 0
    problems = []
    digest = None
    accuracy = tol_share = None
    report_bytes = None
    rep_wall = []
    crashes = 0
    while crashes < MAX_CRASHES:
        elapsed = time.perf_counter() - t_start
        need_more = len(plain) < MIN_PLAIN or (args.trace and len(traced) < MIN_TRACED)
        if not need_more and elapsed + median(rep_wall) > args.seconds:
            break
        if elapsed > DEADLINE_S - 2 * max(rep_wall, default=0.0):
            break
        trace_this = bool(args.trace) and len(traced) < len(plain)
        argv = [str(HERE / "child.py"), str(cfg_path)]
        if trace_this:
            argv += ["--trace", str(work / f"spans-{len(traced)}.json")]
        shutil.rmtree(reports, ignore_errors=True)
        t0 = time.perf_counter()
        rep, why = run_child(argv, max(10.0, DEADLINE_S - elapsed))
        rep_wall.append(time.perf_counter() - t0)
        attempted += len(gen.checks)
        if rep is None or rep["error"]:
            crashes += 1
            failed += len(gen.checks)
            problems.append(f"repetition crashed: {(why or rep['error']).strip().splitlines()[-1]}")
            continue
        (traced if trace_this else plain).append(rep)
        summary_bytes = (reports / "summary.json").read_bytes()
        summary = json.loads(summary_bytes)
        if rep["status"] != 0:
            problems.append(f"cli.run exit status {rep['status']}")
        by_name = {c["name"]: c for c in summary["checks"]}
        for name in gen.checks:
            c = by_name.get(name)
            if c is None or c["passed"] != (c["expect"] == "pass"):
                failed += 1
                problems.append(f"check {name} did not end as expected")
        h = hashlib.sha256(summary_bytes).hexdigest()
        if digest is None:
            digest = h
            accuracy, tol_share = wl.accuracy(gen, summary, reports)
            if not tol_share <= 1.0:
                problems.append(f"{wl.accuracy_metric} = {accuracy!r} misses its reference")
            report_bytes = sum(p.stat().st_size for p in reports.iterdir())
        elif h != digest:
            problems.append("summary.json differs between repetitions of one seed")

    if not plain:
        problems.append("no repetition completed")
    if args.trace and not traced:
        problems.append("no traced repetition completed")
    if args.trace and any(t["counts"] != traced[0]["counts"] for t in traced):
        problems.append("per-layer counts differ between traced repetitions")

    section = "per_layer" if args.trace else "end_to_end"
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench[section]}
    if args.trace:
        metrics = per_layer(plain, traced, report_bytes)
        for w in WORKLOADS.values():
            metrics[w.accuracy_metric] = accuracy if w is wl and digest else 0.0
    else:
        metrics = {
            "run_s": median([r["run_s"] for r in plain]),
            "setup_s": median([r["setup_s"] for r in plain]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
            "pass_share": 1.0 - failed / attempted,
            # the share of the reference tolerance that the error leaves unused
            "tolerance_margin": 1.0 - tol_share if digest else 0.0,
        }
    for name, value in metrics.items():
        if not math.isfinite(value):
            problems.append(f"{name} is not finite")
            metrics[name] = 0.0
    if set(metrics) != set(units):
        raise SystemExit(f"metrics and BENCHMARK.json {section} disagree: "
                         f"{sorted(set(metrics) ^ set(units))}")

    print(f"# {args.workload} seed={args.seed} a={gen.a!r} summary_sha256={digest}")
    for kind, reps in (("plain", plain), ("traced", traced)):
        if reps:
            print(f"# {kind} run_s per repetition ({len(reps)}): "
                  + " ".join(f"{r['run_s']:.3f}" for r in reps))
    if accuracy is not None:
        print(f"# {wl.accuracy_metric} = {accuracy!r}, {tol_share:.4f} of its tolerance")
    for name, value in metrics.items():
        print(f"{name:42s} {value:.6g} {units[name]}")
    for p in sorted(set(problems)):
        print(f"# problem: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def per_layer(plain: list, traced: list, report_bytes) -> dict:
    """Medians over traced repetitions of self times; counts from the first."""
    out = {}
    for layer in LAYERS:
        name = "cli.run.self_s" if layer == "cli.run" else f"{layer}_s"
        out[name] = median([t["self_s"].get(layer, 0.0) for t in traced])
    out["cli.load_config_s"] = median([t["load_config_s"] for t in traced])
    counts = traced[0]["counts"] if traced else {}
    for c in COUNTS:
        if c != "curvature.bundle_sample.ambiguous":
            out[c] = counts.get(c, 0)
    rows = counts.get("curvature.bundle_sample.rows", 0)
    out["curvature.ambiguous_share"] = (
        counts.get("curvature.bundle_sample.ambiguous", 0) / rows if rows else 0.0
    )
    out["cli.report_bytes"] = report_bytes or 0
    plain_run = median([r["run_s"] for r in plain])
    traced_run = median([t["run_s"] for t in traced])
    out["trace.plain_run_s"] = plain_run
    out["trace.traced_run_s"] = traced_run
    out["trace.overhead_ratio"] = traced_run / plain_run if plain_run else 0.0
    # the traced run's time that no layer's self time accounts for
    out["trace.unattributed_s"] = median([t["run_s"] - sum(t["self_s"].values()) for t in traced])
    return out


if __name__ == "__main__":
    sys.exit(main())
