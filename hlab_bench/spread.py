"""Run the benchmark over several seeds and summarize each metric.

    python3 hlab_bench/spread.py [--workloads verify-mc,operator-mc] [--seeds 0-9] [--seconds 40]

For every workload and end-to-end metric it prints the median, the quartiles
(as ``statistics.quantiles(values, n=4)`` gives them) and the spread
(Q3 - Q1) / median, plus the share of failed operations; these are the
figures a change is compared on.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(runs: dict[str, list[dict]]) -> None:
    for workload, results in runs.items():
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in results})
        print(f"{workload}: {len(results)} runs, failed {failed}/{attempted}, "
              f"per run {', '.join(shares)}, correct {all(r['correct'] for r in results)}")
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            unit = results[0]["metrics"][name]["unit"]
            print(f"  {name:14s} median {med:.6g} {unit}  Q1 {q1:.6g}  Q3 {q3:.6g}  "
                  f"spread {(q3 - q1) / med:.3f}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="verify-mc,operator-mc")
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=int, default=40)
    args = ap.parse_args()

    runs: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            last = proc.stdout.strip().splitlines()[-1]
            runs.setdefault(workload, []).append(json.loads(last))
            print(f"{workload} seed {seed}: {last}", flush=True)
    summarize(runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
