"""Reference figure: operator-mc Monte Carlo samples/s at McEngine workers 1 and 2.

    python3 hlab_bench/threads.py [--rounds 3]

Runs the operator-mc round with ``workers=1`` and ``workers=2`` in turn and
prints the median samples/s of each.  It is not a benchmark workload: the
timed workloads run single-threaded so that on a small machine they measure
hlab and not the scheduler.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import OPERATOR_SAMPLES, OperatorMc  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args()

    runs = {workers: OperatorMc(0, "", workers) for workers in (1, 2)}
    runs[1].run(runs[1].warmup_case)
    rates: dict[int, list[float]] = {1: [], 2: []}
    for _ in range(args.rounds):
        for workers, wl in runs.items():
            cases = wl.cases
            t0 = time.perf_counter()
            for case in cases:
                wl.run(case)
            rates[workers].append(len(cases) * OPERATOR_SAMPLES / (time.perf_counter() - t0))
    for workers, values in rates.items():
        print(f"workers={workers}: median {statistics.median(values):.4g} samples/s "
              f"over {len(values)} rounds ({', '.join(f'{r:.4g}' for r in values)}); "
              f"{os.cpu_count()} CPUs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
