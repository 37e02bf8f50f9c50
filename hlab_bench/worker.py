"""Runs one workload in a process of its own and prints one JSON line.

    python3 hlab_bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 hlab_bench/worker.py --workload NAME --seed N --setup-only

``--setup-only`` imports hlab, builds the workload's inputs and exits; the
parent times it from a fresh interpreter.  Otherwise the worker runs an
untimed warm-up, then whole rounds until ``--seconds`` have elapsed, then
untimed checks that need the timed outputs (after reading peak RSS).  With
``--trace 1`` it alternates untraced and traced rounds: the traced rounds
give the per-layer figures, and their time against the untraced rounds
gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import hlab  # noqa: E402

if not os.path.abspath(hlab.__file__).startswith(SRC + os.sep):
    sys.exit(f"hlab was imported from {hlab.__file__}, not from {SRC}")

from workloads import WORKLOADS  # noqa: E402


@dataclass(frozen=True)
class Raised:
    """An operation that raised instead of returning: a fault in hlab."""

    text: str


def attempt(wl, case: tuple) -> object:
    """The operation's output, or ``Raised`` when hlab raised: such a fault
    counts as a failed check and the run goes on."""
    try:
        return wl.run(case)
    except Exception as exc:
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return Raised(f"raised {type(exc).__name__}: {exc} "
                      f"(at {os.path.basename(where.filename)}:{where.lineno})")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if not args.setup_only and args.seconds is None:
        ap.error("--seconds is required unless --setup-only")

    os.makedirs(OUT, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl = WORKLOADS[args.workload](args.seed, outdir)
        if args.setup_only:
            return 0
        attempt(wl, wl.warmup_case)
        problems: list[str] = []

        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
        plain_s: list[float] = []
        traced_s: list[float] = []
        outputs: dict[tuple, object] = {}
        attempted = 0
        failures: list[str] = []  # one line per failed operation

        def run_round(traced: bool) -> None:
            nonlocal attempted
            undo = spans.install(tracer) if traced else None
            t0 = time.perf_counter()
            try:
                results = []
                for case in wl.cases:
                    if traced:
                        tracer.request += 1
                    results.append(attempt(wl, case))
            finally:
                if undo:
                    undo()
            (traced_s if traced else plain_s).append(time.perf_counter() - t0)
            for case, result in zip(wl.cases, results):
                found = (result.text,) if isinstance(result, Raised) else wl.check(case, result)
                attempted += 1
                if found:
                    failures.append(wl.label(case) + ": " + "; ".join(found))
                if outputs.setdefault(case, result) != result:
                    problems.append(f"{wl.label(case)}: a repeat gave other output")

        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            run_round(traced=False)
            if tracer is not None:
                run_round(traced=True)  # same inputs, so the pair gives the overhead

        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # after the peak is read: a check may start threads, whose arenas vary
        try:
            problems += wl.final_checks(outputs)
        except Exception as exc:  # a fault in hlab: reported, not fatal
            problems.append(f"final check raised {type(exc).__name__}: {exc}")
        out = {
            "workload": args.workload,
            "seed": args.seed,
            "rounds": len(plain_s) + len(traced_s),
            "round_s": plain_s + traced_s,
            "attempted": attempted,
            "failed": len(failures),
            "failures": sorted(set(failures)),
            "ops_per_round": len(wl.cases),
            "problems": problems,
        }
        if tracer is None:
            metrics = {
                "checks_per_s": (attempted / sum(plain_s), "1/s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        else:
            metrics = spans.layer_metrics(tracer, len(traced_s))
            metrics["trace.overhead_pct"] = (100.0 * (sum(traced_s) / sum(plain_s) - 1.0), "%")
            tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl"))
        out["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
