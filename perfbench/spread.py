"""Run-to-run spread of the end-to-end metrics, the way their bounds are judged.

Usage (from the repository root):

    python3 perfbench/spread.py --workload polytope-fan --seeds 1-10 [--out runs.jsonl]

Runs BENCHMARK.json's command once per seed with ``--trace 0`` and its
``run_seconds``, then prints for each end-to-end metric the median, the
quartiles (statistics.quantiles, n=4), the spread (Q3 - Q1) / median and that
spread as a share of the metric's bound.  ``--out`` appends each run's result
line, tagged with workload and seed, as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--out")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for k in values:
            values[k].append(result["metrics"][k]["value"])
        if args.out:
            with open(args.out, "a", encoding="utf-8") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
    for m in bench["end_to_end"]:
        xs = values[m["name"]]
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        med = statistics.median(xs)
        spread = (q3 - q1) / med
        print(f"{m['name']:16s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"spread={spread:.4f} bound={m['bound']} spread/bound={spread / m['bound']:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
