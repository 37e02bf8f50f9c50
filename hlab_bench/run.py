"""Benchmark entry point.

    python3 hlab_bench/run.py --workload {verify-mc,operator-mc}
                              --seed N --seconds S --trace {0,1}

Run from the root of a checkout; hlab is imported from its ``src``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones:

* ``setup_s``: median wall time of fresh interpreters that import hlab and
  build the workload's inputs (the start-up every ``hlab`` command pays);
* ``checks_per_s``: checks per second of timed rounds, after a warm-up;
* ``peak_rss_mb``: peak resident set of the process that ran the workload.

With ``--trace 1`` they are the per-layer figures of a traced run and its
tracing overhead.  Exits 2 without a result when the checkout has no hlab
sources, and 3 when the benchmark itself cannot complete.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_STARTS = 9
# the worker needs at most run length + one round + warm-up; this bounds a hang
WORKER_TIMEOUT_S = 150

sys.path.insert(0, HERE)

import test_reference  # noqa: E402

# spelled out, not imported: this entry point must run (and refuse) without hlab
WORKLOADS = ("verify-mc", "operator-mc")


def _worker(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, WORKER] + args,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )


def _setup_s(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        proc = _worker(["--workload", workload, "--seed", str(seed), "--setup-only"])
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    return statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "hlab", "__init__.py")):
        print(f"no hlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    bad = test_reference.run_all()
    if bad:
        print(f"reference self-checks failed: {', '.join(bad)}", file=sys.stderr)
        return 3

    try:
        setup = None if args.trace else _setup_s(args.workload, args.seed)
        proc = _worker(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"worker exited {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
        return 3
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    print(f"workload {res['workload']} seed {res['seed']}: {res['rounds']} rounds of "
          f"{res['ops_per_round']} operations, round times {[round(t, 3) for t in res['round_s']]}")
    for line in res["failures"]:
        print(f"failed: {line}")
    for line in res["problems"]:
        print(f"problem: {line}")

    metrics = res["metrics"]
    if setup is not None:
        metrics = {"setup_s": {"value": setup, "unit": "s"}, **metrics}
    zero = sorted(name for name, m in metrics.items() if m["value"] == 0)
    if zero:
        print("no work in this workload (or hook not found): " + ", ".join(zero))
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
