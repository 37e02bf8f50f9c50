"""Command-line front end.

Commands
--------
constants      evaluate a closed-form sharp constant
verify         closed form vs. quadrature and Monte Carlo oracles
extremal       check that extremal powers attain the constant
search         random modulated tuples vs. the norm upper bound
geometry       ball volume / sphere measure plus a Monte Carlo check
discrepancies  the convention/typo findings report

Exit codes: 0 all checks passed, 1 a verification failed or was
inconclusive, 2 usage or validation error.  The default seed comes from
``HLAB_SEED`` and is overridden by ``--seed``.  JSON output is
byte-identical for identical configurations (including seed); all
run-dependent timing lives under the ``metadata`` key.
"""

from __future__ import annotations

import argparse
import csv
import enum
import functools
import io
import json
import math
import os
import sys
import time
from datetime import datetime, timezone

from .hgroup import Convention, GroupDim, unit_ball_volume
from .integrate import EstimationError, QuadratureError, SeededStream, rejection_volume_estimate
from .operators import OPERATORS, OperatorKind, OperatorSpec
from .specfun import AlphaProfile, DivergentConstantError
from .verify import (
    VerificationReport,
    discrepancy_report,
    oracle_record,
    spec_record,
    upper_bound_search,
    verify_constant,
    verify_extremal,
)

__all__ = ["Format", "main", "run"]

# the largest --samples: 10^9 samples already keep the Cartesian oracle busy
# for minutes, and a mistyped count should fail at once, not after hours
_MAX_SAMPLES = 10**9

# the operator kinds that have a closed form to compute and verify
_OPERATORS = sorted(kind.value for kind, op in OPERATORS.items() if op.closed_form is not None)


class Format(enum.Enum):
    JSON = "json"
    CSV = "csv"
    TEXT = "text"


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"{flag}: expected a comma-separated list of numbers")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process:
    parsing leaves no state in it, so ``run`` can be called again."""
    parser = argparse.ArgumentParser(
        prog="hlab",
        description="Sharp-constant computations and verification for m-linear "
        "integral operators in gauge geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, spec_args: bool = True) -> None:
        if spec_args:
            p.add_argument("--operator", choices=_OPERATORS, default="hardy")
            p.add_argument("--n", type=int, default=1, help="group index n (Q = 2n + 2)")
            p.add_argument("--m", type=int, default=1, help="operator arity")
            p.add_argument(
                "--alphas",
                type=lambda s: _parse_floats(s, "--alphas"),
                default=None,
                help="comma-separated exponents alpha_1..alpha_m",
            )
        p.add_argument("--convention", choices=[c.value for c in Convention], default="geometric")
        p.add_argument("--seed", type=int, default=None, help="default from HLAB_SEED, else 0")
        p.add_argument(
            "--samples",
            type=int,
            default=1_000_000,
            help=f"Monte Carlo samples, from 2 to {_MAX_SAMPLES:,} (default %(default)s)",
        )
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--format", choices=[f.value for f in Format], default="text")
        p.add_argument("--output", dest="output_path", default=None)

    p = sub.add_parser("constants", help="evaluate a closed-form sharp constant")
    add_common(p)

    p = sub.add_parser("verify", help="closed form vs. quadrature + Monte Carlo oracles")
    add_common(p)
    p.add_argument(
        "--convergence",
        dest="convergence_path",
        default=None,
        help="write a CSV convergence curve (n_samples,estimate,std_error,closed_form)",
    )

    p = sub.add_parser("extremal", help="extremal attainment across gauges")
    add_common(p)
    p.add_argument(
        "--gauges", type=lambda s: _parse_floats(s, "--gauges"), default=(0.5, 1.0, 2.0, 10.0)
    )

    p = sub.add_parser("search", help="random modulated tuples vs. the norm upper bound")
    add_common(p)
    p.add_argument("--trials", type=int, default=100)

    p = sub.add_parser("geometry", help="ball volume and sphere measure with an MC check")
    add_common(p, spec_args=False)
    p.add_argument("--n", type=int, default=1)

    p = sub.add_parser("discrepancies", help="convention/typo findings report")
    add_common(p, spec_args=False)
    p.add_argument(
        "--n-values",
        dest="n_values",
        type=lambda s: tuple(int(x) for x in s.split(",")),
        default=(1, 2),
    )
    return parser


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("HLAB_SEED", "")
    try:
        return int(env) if env else 0
    except ValueError:
        raise ValueError(f"HLAB_SEED must be an integer, got {env!r}") from None


def _make_spec(args: argparse.Namespace) -> OperatorSpec:
    if len(args.alphas) != args.m:
        raise DivergentConstantError(
            f"--alphas must list exactly m={args.m} exponents, got {len(args.alphas)}"
        )
    return OperatorSpec(
        OperatorKind(args.operator),
        GroupDim(args.n),
        AlphaProfile(args.alphas),
        args.convention,
    )


def _base_report(args: argparse.Namespace, spec_rec: dict) -> dict:
    return {
        "command": args.command,
        "spec": spec_rec,
        "convention": args.convention.value,
        "closed_form": None,
        "oracles": [],
        "pass": None,
        "seed": args.seed,
        "findings": [],
    }


def _verification_report(args: argparse.Namespace, vr: VerificationReport, finding: str) -> dict:
    rec = vr.to_record()
    details = rec.pop("details")
    return {"command": args.command, **rec, "findings": [{"id": finding, **details}]}


def _dispatch(args: argparse.Namespace) -> dict:
    if args.command == "constants":
        spec = _make_spec(args)
        result = spec.constant()
        report = _base_report(args, spec_record(spec))
        report["closed_form"] = result.value
        report["pass"] = True
        return report

    if args.command == "verify":
        spec = _make_spec(args)
        vr = verify_constant(
            spec, n_samples=args.samples, seed=args.seed, tol=args.tol, workers=args.workers
        )
        if args.convergence_path:
            with open(args.convergence_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["n_samples", "estimate", "std_error", "closed_form"])
                writer.writerows([n, *map(repr, rest)] for n, *rest in vr.convergence)
        return _verification_report(args, vr, "tolerances")

    if args.command == "extremal":
        spec = _make_spec(args)
        vr = verify_extremal(
            spec,
            gauges=args.gauges,
            seed=args.seed,
            tol=args.tol if args.tol is not None else 1e-6,
        )
        return _verification_report(args, vr, "attainment")

    if args.command == "search":
        spec = _make_spec(args)
        sr = upper_bound_search(
            spec, trials=args.trials, seed=args.seed, tol=args.tol if args.tol is not None else 1e-3
        )
        rec = sr.to_record()
        report = _base_report(args, spec_record(spec))
        report["closed_form"] = rec["bound"]
        report["pass"] = rec["pass"]
        report["findings"] = [
            {
                "id": "upper-bound-search",
                "trials": rec["trials"],
                "max_ratio": rec["max_ratio"],
                "violations": rec["violations"],
                "attaining_description": rec["attaining_description"],
            }
        ]
        return report

    if args.command == "geometry":
        dim = GroupDim(args.n)
        est = rejection_volume_estimate(dim, args.samples, SeededStream(args.seed), args.workers)
        geom = unit_ball_volume(dim, Convention.GEOMETRIC)
        tab = unit_ball_volume(dim, Convention.PAPER_FORMULA)
        sigma = (est.value - geom) / est.std_error if est.std_error else 0.0
        report = _base_report(
            args, {"operator": "geometry", "n": args.n, "m": 0, "alphas": []}
        )
        report["closed_form"] = geom if args.convention is Convention.GEOMETRIC else tab
        report["oracles"] = [oracle_record(est, sigma_distance=sigma)]
        report["pass"] = abs(sigma) <= 3.0
        report["findings"] = [
            {
                "id": "geometry",
                "Q": dim.Q,
                "geometric_volume": geom,
                "tabulated_volume": tab,
                "sphere_measure_geometric": dim.Q * geom,
                "sphere_measure_tabulated": dim.Q * tab,
            }
        ]
        return report

    if args.command == "discrepancies":
        rep = discrepancy_report(
            args.n_values, n_samples=args.samples, seed=args.seed, workers=args.workers
        )
        report = _base_report(
            args, {"operator": "discrepancies", "n": args.n_values[0], "m": 0, "alphas": []}
        )
        report["pass"] = all(f.get("pass", True) for f in rep.findings)
        report["findings"] = rep.findings
        report["details_text"] = rep.text
        return report

    raise ValueError(f"unknown command {args.command!r}")


def _render(report: dict, fmt: Format, runtime_ms: int) -> str:
    doc = dict(report)
    doc["metadata"] = {
        "runtime_ms": runtime_ms,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if fmt is Format.JSON:
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if fmt is Format.CSV:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["key", "value"])
        for key in sorted(report):
            writer.writerow([key, json.dumps(report[key], sort_keys=True)])
        return buf.getvalue()
    lines = [f"command: {report['command']}"]
    lines.append(f"spec: {json.dumps(report['spec'], sort_keys=True)}")
    lines.append(f"convention: {report['convention']}")
    if report["closed_form"] is not None:
        lines.append(f"closed form: {report['closed_form']:.12g}")
    for oracle in report["oracles"]:
        extra = ""
        if oracle.get("rel_err") is not None:
            extra = f"  rel_err={oracle['rel_err']:.3e}"
        if oracle.get("sigma_distance") is not None:
            extra += f"  sigma={oracle['sigma_distance']:+.2f}"
        if oracle.get("resolution") is not None:
            extra += f"  resolution={oracle['resolution']:.3g}"
        lines.append(
            f"oracle[{oracle['method']}]: {oracle['value']:.12g} "
            f"+/- {oracle['std_error']:.3g} (N={oracle['n_samples']}){extra}"
        )
    for finding in report["findings"]:
        lines.append(f"finding: {json.dumps(finding, sort_keys=True, default=str)}")
    if "details_text" in report:
        lines.append(report["details_text"])
    if report["pass"] is not None:
        lines.append(f"pass: {report['pass']}")
    return "\n".join(lines) + "\n"


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, dispatch, and write the report.

    Returns 0 when all checks pass, 1 when a verification fails, 2 on
    usage or validation errors.
    """
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.workers < 1:
            parser.error(f"--workers must be at least 1, got {args.workers}")
        if not 2 <= args.samples <= _MAX_SAMPLES:
            parser.error(f"--samples must be between 2 and {_MAX_SAMPLES:,}, got {args.samples}")
        # inputs that would pass vacuously or write a non-JSON number
        if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0.0):
            parser.error(f"--tol must be finite and at least 0, got {args.tol}")
        if args.command == "search" and args.trials < 1:
            parser.error(f"--trials must be at least 1, got {args.trials}")
        if args.command == "extremal" and not (
            args.gauges and all(math.isfinite(g) and g > 0.0 for g in args.gauges)
        ):
            parser.error(f"--gauges must list finite gauges above 0, got {list(args.gauges)}")
    except SystemExit as exc:
        return int(exc.code or 0)

    start = time.perf_counter()
    try:
        args.seed = _resolve_seed(args.seed)
        if getattr(args, "alphas", ()) is None:
            args.alphas = (1.0,) * args.m
        args.convention = Convention(args.convention)
        args.format = Format(args.format)
        report = _dispatch(args)
    except DivergentConstantError as exc:
        print(f"hlab {args.command}: --alphas: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"hlab {args.command}: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, EstimationError) as exc:
        print(f"hlab {args.command}: numerical failure: {exc}", file=sys.stderr)
        return 2
    runtime_ms = int((time.perf_counter() - start) * 1000)

    text = _render(report, args.format, runtime_ms)
    if args.output_path:
        with open(args.output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if (report["pass"] is None or report["pass"]) else 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
