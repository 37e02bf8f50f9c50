"""Command-line front end.

``_COMMANDS`` lists each command with the flags it reads.  ``_FLAGS`` declares
each flag once, with its check in its argparse ``type``: a command rejects a
flag it would ignore, and a value that fails its check exits 2 naming the flag.

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
from typing import Sequence

from .hgroup import Convention, GroupDim, unit_ball_volume
from .integrate import MAX_BOX_N, Estimate, EstimationError, QuadratureError, SeededStream
from .operators import OPERATORS, OperatorKind, OperatorSpec, QuadEngine
from .specfun import AlphaProfile, DivergentConstantError
from .verify import (
    GaugeRangeError,
    discrepancy_report,
    unit_ball_check,
    upper_bound_search,
    verify_constant,
    verify_extremal,
)

__all__ = ["Format", "main", "run"]

# the largest --samples: 10^9 samples already keep the Cartesian oracle busy
# for minutes, and a mistyped count should fail at once, not after hours
_MAX_SAMPLES = 10**9
# the largest --workers: each worker is a thread with its own chunk arrays
_MAX_WORKERS = 32
# the largest --m (a worker keeps a chunk of uniforms per factor) and
# --trials (a trial of hilbert at m = 3 takes about 0.5 s)
_MAX_ARITY, _MAX_TRIALS = 32, 10_000


def _max_trials(m: int) -> int:
    """The largest --trials at arity m: ``_MAX_TRIALS`` up to m = 3, then
    ``_MAX_TRIALS * 3/m``, since a trial of hlp at m = 32 takes about 3 s."""
    return _MAX_TRIALS if m <= 3 else _MAX_TRIALS * 3 // m


# the operator kinds that have a closed form to compute and verify
_OPERATORS = sorted(kind.value for kind, op in OPERATORS.items() if op.closed_form is not None)


class Format(enum.Enum):
    JSON = "json"
    CSV = "csv"
    TEXT = "text"


def _checked(parse, must: str, ok=lambda value: True):
    """An argparse ``type``: the value ``parse`` reads from the text, if ``ok``
    accepts it; otherwise argparse exits 2 with ``argument <flag>: must be
    <must>, got <text>``."""

    def convert(text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {must}, got {text!r}")

    return convert


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip() != "")


def _choice(default: enum.Enum) -> dict:
    """A flag whose value is a member of ``default``'s enum, given by its value."""
    values = [member.value for member in type(default)]
    parse = _checked(type(default), "one of " + ", ".join(values))
    return {"type": parse, "default": default, "metavar": "{" + ",".join(values) + "}"}


def _int_range(lo: int, hi: int, why: str = ""):
    return _checked(int, f"from {lo:,} to {hi:,}{why}", lambda k: lo <= k <= hi)


_POSITIVE = _checked(int, "a positive integer", lambda k: k >= 1)

# each flag once, with its check; a default of SUPPRESS leaves it to the library function
_FLAGS = {
    "--operator": {"choices": _OPERATORS, "default": "hardy"},
    "--n": {"type": _POSITIVE, "default": 1, "help": "group index n (Q = 2n + 2)"},
    "--m": {
        "type": _int_range(1, _MAX_ARITY),
        "default": 1,
        "help": f"operator arity, 1 to {_MAX_ARITY} (extremal and search: hlp only past "
        f"{QuadEngine.GENERAL_M})",
    },
    "--alphas": {
        "type": _checked(_floats, "a comma-separated list of numbers"),
        "help": "comma-separated exponents alpha_1..alpha_m (default all 1)",
    },
    "--convention": _choice(Convention.GEOMETRIC),
    "--seed": {"type": int, "help": "default from HLAB_SEED, else 0"},
    "--samples": {
        "type": _int_range(2, _MAX_SAMPLES),
        "default": 1_000_000,
        "help": f"Monte Carlo samples, from 2 to {_MAX_SAMPLES:,} (default %(default)s)",
    },
    # a negative or non-finite tolerance would pass vacuously or write a non-JSON number
    "--tol": {
        "type": _checked(float, "finite and at least 0", lambda t: math.isfinite(t) and t >= 0.0),
        "default": argparse.SUPPRESS,
    },
    "--workers": {"type": _int_range(1, _MAX_WORKERS), "default": 1},
    "--convergence": {
        "dest": "convergence_path",
        "help": "write a CSV convergence curve (n_samples,estimate,std_error,closed_form)",
    },
    "--gauges": {
        "type": _checked(
            _floats,
            "a non-empty list of finite gauges above 0",
            lambda gs: gs and all(math.isfinite(g) and g > 0.0 for g in gs),
        ),
        "default": argparse.SUPPRESS,
    },
    "--trials": {
        "type": _int_range(1, _MAX_TRIALS),
        "default": argparse.SUPPRESS,
        "help": f"trials, from 1 to {_MAX_TRIALS:,}; past m = 3, to {_MAX_TRIALS:,} x 3/m",
    },
    "--n-values": {
        "dest": "n_values",
        "type": _checked(
            lambda text: tuple(int(n) for n in text.split(",")),
            f"a comma-separated list of integers from 1 to {MAX_BOX_N}",
            lambda ns: all(1 <= n <= MAX_BOX_N for n in ns),
        ),
        "default": (1, 2),
    },
    "--format": _choice(Format.TEXT),
    "--output": {"dest": "output_path"},
}
# geometry's box sampler, like discrepancies', takes n up to MAX_BOX_N
_BOX_N = {"--n": {**_FLAGS["--n"], "type": _int_range(1, MAX_BOX_N, " (the box sampler's limit)")}}


def _reads(*flags: str) -> dict[str, dict]:
    return {flag: _FLAGS[flag] for flag in (*flags, "--seed", "--format", "--output")}


_SPEC = ("--operator", "--n", "--m", "--alphas")
# for each command, its help and the flags it reads; _reads adds --seed, --format and --output
_COMMANDS = {
    "constants": ("evaluate a closed-form sharp constant", _reads(*_SPEC, "--convention")),
    "verify": (
        "closed form vs. quadrature + Monte Carlo oracles",
        _reads(*_SPEC, "--samples", "--tol", "--workers", "--convergence"),
    ),
    "extremal": (
        "extremal attainment across gauges",
        _reads(*_SPEC, "--convention", "--tol", "--gauges"),
    ),
    "search": (
        "random modulated tuples vs. the norm upper bound",
        _reads(*_SPEC, "--convention", "--tol", "--trials"),
    ),
    "geometry": (
        "ball volume and sphere measure with an MC check",
        _reads("--n", "--convention", "--samples", "--workers") | _BOX_N,
    ),
    "discrepancies": (
        "convention/typo findings report",
        _reads("--n-values", "--samples", "--workers"),
    ),
}


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: it reports the flags it does not take itself,
    with its own usage, where argparse would hand them to the top-level
    parser."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        # --trials' bound falls with --m
        if "trials" in namespace and namespace.trials > _max_trials(namespace.m):
            self.error(
                f"argument --trials: must be from 1 to {_max_trials(namespace.m):,} "
                f"at --m {namespace.m}, got {namespace.trials!r}"
            )
        return namespace, extras


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process:
    parsing leaves no state in it, so ``run`` can be called again."""
    parser = argparse.ArgumentParser(
        prog="hlab",
        description="Sharp-constant computations and verification for m-linear "
        "integral operators in gauge geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for command, (help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag, options in flags.items():
            p.add_argument(flag, **options)
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
    alphas = (1.0,) * args.m if args.alphas is None else args.alphas
    if len(alphas) != args.m:
        raise DivergentConstantError(f"must list exactly m={args.m} exponents, got {len(alphas)}")
    kind, dim, profile = OperatorKind(args.operator), GroupDim(args.n), AlphaProfile(alphas)
    return OperatorSpec(kind, dim, profile, **_given(args, "convention"))


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The named flags that were given; the library owns the others' defaults."""
    return {name: getattr(args, name) for name in names if name in args}


def _report(
    args: argparse.Namespace,
    spec: OperatorSpec | int,
    convention: Convention | None = None,
    *,
    passed: bool,
    closed_form: float | None = None,
    oracles: Sequence[tuple[Estimate | None, dict]] = (),
    findings: Sequence[dict] = (),
    **extra,
) -> dict:
    """Every command's report: the fields ``report.schema.json`` requires but
    ``metadata``, which ``_render`` adds, then ``extra``.

    ``spec`` is the operator spec, whose convention the report names;
    geometry and discrepancies evaluate no operator and pass the n of their
    header and a ``convention``.  Each oracle is an estimate, or None where
    that oracle did not run, and the comparison figures its record adds.
    """
    if isinstance(spec, OperatorSpec):
        convention, alphas = spec.convention, list(spec.profile.alphas)
        record = {"operator": spec.kind.value, "n": spec.dim.n, "m": spec.m, "alphas": alphas}
    else:
        record = {"operator": args.command, "n": spec, "m": 0, "alphas": []}
    return {
        "command": args.command,
        "spec": record,
        "convention": convention.value,
        "closed_form": closed_form,
        "oracles": [
            {**vars(est), "method": est.method.value, **figures}
            for est, figures in oracles
            if est is not None
        ],
        "pass": passed,
        "seed": args.seed,
        "findings": list(findings),
        **extra,
    }


def _dispatch(args: argparse.Namespace) -> dict:
    if args.command == "geometry":
        dim = GroupDim(args.n)
        est, sigma, ok = unit_ball_check(dim, args.samples, SeededStream(args.seed), args.workers)
        geom = unit_ball_volume(dim, Convention.GEOMETRIC)
        tab = unit_ball_volume(dim, Convention.PAPER_FORMULA)
        finding = {"id": "geometry", "Q": dim.Q, "geometric_volume": geom, "tabulated_volume": tab}
        finding["sphere_measure_geometric"] = dim.Q * geom
        finding["sphere_measure_tabulated"] = dim.Q * tab
        return _report(
            args,
            args.n,
            args.convention,
            passed=ok,
            closed_form=geom if args.convention is Convention.GEOMETRIC else tab,
            oracles=[(est, {"sigma_distance": sigma})],
            findings=[finding],
        )

    if args.command == "discrepancies":
        rep = discrepancy_report(
            args.n_values, n_samples=args.samples, seed=args.seed, workers=args.workers
        )
        # the report weighs both conventions; its header names the geometric one
        return _report(
            args,
            args.n_values[0],
            Convention.GEOMETRIC,
            passed=all(f.get("pass", True) for f in rep.findings),
            findings=rep.findings,
            details_text=rep.text,
        )

    spec = _make_spec(args)
    if args.command == "constants":
        return _report(args, spec, passed=True, closed_form=spec.constant())
    # extremal and search evaluate on the quadrature engine alone
    if args.command in ("extremal", "search") and not QuadEngine.reaches(spec):
        limit = f"m <= {QuadEngine.GENERAL_M}, got {spec.m}"
        raise ValueError(f"--m: the {spec.kind.value} quadrature takes {limit}")

    if args.command in ("verify", "extremal"):
        if args.command == "verify":
            vr = verify_constant(
                spec, args.samples, seed=args.seed, workers=args.workers, **_given(args, "tol")
            )
            if args.convergence_path:
                buf = io.StringIO()
                writer = csv.writer(buf)
                writer.writerow(["n_samples", "estimate", "std_error", "closed_form"])
                writer.writerows([n, *map(repr, rest)] for n, *rest in vr.convergence)
                _write("--convergence", args.convergence_path, buf.getvalue())
            finding = "tolerances"
        else:
            vr = verify_extremal(spec, seed=args.seed, **_given(args, "gauges", "tol"))
            finding = "attainment"
        mc = {"sigma_distance": vr.sigma_distance_mc, "resolution": vr.resolution}
        return _report(
            args,
            vr.spec,
            passed=vr.passed,
            closed_form=vr.closed_form,
            oracles=[(vr.oracle_quad, {"rel_err": vr.rel_err_quad}), (vr.oracle_mc, mc)],
            findings=[{"id": finding, **vr.details}],
        )

    sr = upper_bound_search(spec, seed=args.seed, **_given(args, "trials", "tol"))
    keys = ("trials", "max_ratio", "violations", "attaining_description")
    finding = {"id": "upper-bound-search", **{key: getattr(sr, key) for key in keys}, **sr.details}
    return _report(args, spec, passed=sr.violations == 0, closed_form=sr.bound, findings=[finding])


def _write(flag: str, path: str, text: str) -> None:
    """Write ``text`` to the file ``path`` given by ``flag``; a path that
    cannot be written is a ``ValueError`` naming the flag."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"{flag}: {exc}") from exc


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
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    start = time.perf_counter()
    try:
        args.seed = _resolve_seed(args.seed)
        report = _dispatch(args)
        text = _render(report, args.format, int((time.perf_counter() - start) * 1000))
        if args.output_path:
            _write("--output", args.output_path, text)
    except DivergentConstantError as exc:
        print(f"hlab {args.command}: --alphas: {exc}", file=sys.stderr)
        return 2
    except GaugeRangeError as exc:
        print(f"hlab {args.command}: --gauges: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"hlab {args.command}: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, EstimationError) as exc:
        print(f"hlab {args.command}: numerical failure: {exc}", file=sys.stderr)
        return 2
    if not args.output_path:
        sys.stdout.write(text)
    return 0 if (report["pass"] is None or report["pass"]) else 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
