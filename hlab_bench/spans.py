"""Spans around hlab's layer boundaries, recorded from outside the package.

Each hooked function is replaced, in the namespace of the module that calls
it, by a wrapper that opens a span for the callee's layer.  So a span sits
where one layer calls the next (benchmark -> ``cli`` -> ``verify`` ->
``operators`` -> ``specfun`` / ``integrate`` -> ``hgroup``), and time is
charged to the layer whose code ran: a span's self time is its duration
minus the time of the spans it encloses.  Integrands that ``operators``
hands to ``integrate`` are wrapped too, because nested quadrature runs
operator code inside ``quad_1d``, which would otherwise be charged to
``integrate``.  Code that no hook can reach from outside (private helpers
called inside one module) counts in its caller's self time.

Spans are aggregated as they close; the first ``KEEP_SPANS`` are also kept whole
and written out by ``write``.  ``install`` returns a function that undoes
every hook, so one process can run untraced and traced rounds in turn.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from hlab import cli, integrate, operators, verify

_perf = time.perf_counter


KEEP_SPANS = 20_000


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.request = 0  # set by the caller; spans of one operation share it
        self.stack: list[list] = []  # open spans: [span_id, start, child_s, mode]
        self.next_id = 0
        self.incl: dict[str, float] = defaultdict(float)
        self.own: dict[tuple[str, str | None], float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def self_s(self, layer: str, mode: str | None = None) -> float:
        """Self time of ``layer``; with ``mode``, only under 'quad' or 'mc' evaluations."""
        return sum(v for (lay, md), v in self.own.items() if lay == layer and mode in (None, md))

    def wrap(self, key: str, layer: str, fn, mode: str | None = None):
        """``fn`` inside a span named ``key``; spans opened under it inherit ``mode``."""
        stack, incl, own, spans = self.stack, self.incl, self.own, self.spans

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            md = mode if mode is not None or parent is None else parent[3]
            self.next_id += 1
            frame = [self.next_id, _perf(), 0.0, md]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                dur = end - frame[1]
                incl[key] += dur
                own[(layer, md)] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if len(spans) < KEEP_SPANS:
                    spans.append((frame[0], parent[0] if parent else 0, self.request, key, frame[1], end))
                else:
                    self.dropped += 1

        return traced

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, req, key, start, end in self.spans:
                rec = {"id": sid, "parent": parent, "request": req, "name": key, "start": start, "end": end}
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"dropped_spans": self.dropped}) + "\n")


def install(tr: Tracer):
    """Hook every layer boundary the workloads cross; returns the undo function."""
    saved: list[tuple[object, str, object]] = []
    counts = tr.counts

    def patch(owner, attr: str, wrapper_of) -> None:
        is_dict = isinstance(owner, dict)
        orig = owner.get(attr) if is_dict else getattr(owner, attr, None)
        if orig is None:
            return  # moved by a refactor: its metrics read as unmeasured (0)
        saved.append((owner, attr, orig))
        if is_dict:
            owner[attr] = wrapper_of(orig)
        else:
            setattr(owner, attr, wrapper_of(orig))

    def plain(layer: str, name: str):
        return lambda fn: tr.wrap(f"{layer}.{name}", layer, fn)

    def gauge_rows(caller: str):
        from_caller = f"hgroup.gauge_rows.from_{caller}"

        def wrapper_of(fn):
            inner = tr.wrap("hgroup.gauge_array", "hgroup", fn)

            def traced(coords, n):
                rows = coords.size // coords.shape[-1] if coords.ndim else 1
                counts["hgroup.gauge_rows"] += rows
                counts[from_caller] += rows
                return inner(coords, n)

            return traced

        return wrapper_of

    def operator_eval(name: str):
        engine_at = 4 if name == "eval_kernel_op" else 3

        def wrapper_of(fn):
            by_mode = {md: tr.wrap(f"operators.{name}", "operators", fn, md) for md in ("quad", "mc")}

            def traced(*args, **kwargs):
                engine = kwargs.get("engine", args[engine_at] if len(args) > engine_at else None)
                md = "mc" if isinstance(engine, operators.McEngine) else "quad"
                t0 = _perf()
                est = by_mode[md](*args, **kwargs)
                counts[f"operators.{md}_s"] += _perf() - t0
                counts[f"operators.{md}_samples"] += est.n_samples
                return est

            return traced

        return wrapper_of

    def integrand(f):
        """An operators integrand, called back from integrate."""
        return tr.wrap("operators.integrand", "operators", f)

    open_quad_1d = [0]

    def quad_1d_hook(fn):
        inner = tr.wrap("integrate.quad_1d", "integrate", fn)

        def traced(f, *args, **kwargs):
            t0 = _perf()
            open_quad_1d[0] += 1
            try:
                est = inner(f, *args, **kwargs)
            finally:
                open_quad_1d[0] -= 1
            if not open_quad_1d[0]:
                counts["integrate.quad_1d_outer_s"] += _perf() - t0
            counts["integrate.quad_1d_calls"] += 1
            counts["integrate.quad_1d_panels"] += est.n_samples // 15  # 15-node Kronrod panels
            return est

        return traced

    def from_operators(hook):
        """As ``hook``, with the integrand argument traced as operator code."""

        def wrapper_of(fn):
            inner = hook(fn)
            return lambda f, *args, **kwargs: inner(integrand(f), *args, **kwargs)

        return wrapper_of

    def mc_integrate_hook(fn):
        inner = tr.wrap("integrate.mc_integrate", "integrate", fn)

        def traced(f, dim, m, sampler, n_samples, *args, **kwargs):
            kind = "tuple_ball" if isinstance(sampler, integrate.TupleBall) else "heavy_tail"
            t0 = _perf()
            est = inner(integrand(f), dim, m, sampler, n_samples, *args, **kwargs)
            counts[f"integrate.mc_s.{kind}"] += _perf() - t0
            counts[f"integrate.mc_samples.{kind}"] += n_samples
            return est

        return traced

    def cartesian_hook(fn):
        inner = tr.wrap("verify.cartesian_mc", "verify", fn)

        def traced(spec, n_samples, *args, **kwargs):
            t0 = _perf()
            est = inner(spec, n_samples, *args, **kwargs)
            counts["verify.oracle_s"] += _perf() - t0
            counts["verify.oracle_samples"] += n_samples
            return est

        return traced

    # benchmark -> cli and benchmark -> operators (workloads look these up at call time)
    patch(cli, "run", plain("cli", "run"))
    for name in ("eval_hardy", "eval_hlp", "eval_hilbert", "eval_kernel_op"):
        patch(operators, name, operator_eval(name))
    # cli -> verify
    for name in ("verify_constant", "upper_bound_search"):
        patch(cli, name, plain("verify", name))
    # verify -> operators (the evaluator table holds the functions themselves)
    evaluators = getattr(verify, "_EVALUATORS", {})
    for kind in list(evaluators):
        patch(evaluators, kind, operator_eval(evaluators[kind].__name__))
    patch(verify, "weighted_norm", plain("operators", "weighted_norm"))
    # inside verify: the Cartesian oracle, timed for its sample rate
    patch(verify, "_cartesian_mc", cartesian_hook)
    patch(verify, "gauge_array", gauge_rows("verify"))
    # operators -> specfun, integrate, hgroup
    for name in ("hardy_constant", "hlp_constant", "hilbert_constant"):
        patch(operators, name, plain("specfun", name))
    patch(operators, "quad_1d", from_operators(quad_1d_hook))
    patch(operators, "quad_tensor", from_operators(plain("integrate", "quad_tensor")))
    patch(operators, "mc_integrate", mc_integrate_hook)
    patch(operators, "gauge_array", gauge_rows("operators"))
    # integrate -> integrate (quad_tensor's nested levels) and integrate -> hgroup
    patch(integrate, "quad_1d", quad_1d_hook)
    patch(integrate, "gauge_array", gauge_rows("integrate"))

    def undo() -> None:
        for owner, attr, orig in reversed(saved):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    return undo


def layer_metrics(tr: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures, per traced round except the rates; 0 where the
    workload does no work in that layer."""
    c, incl = tr.counts, tr.incl

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    constants = sum(incl[f"specfun.{k}_constant"] for k in ("hardy", "hlp", "hilbert"))
    mc_samples = c["integrate.mc_samples.tuple_ball"] + c["integrate.mc_samples.heavy_tail"]
    return {
        "cli.self_s": (tr.self_s("cli") / rounds, "s"),
        "verify.self_s": (tr.self_s("verify") / rounds, "s"),
        "verify.oracle_samples_per_s": (rate(c["verify.oracle_samples"], c["verify.oracle_s"]), "1/s"),
        "operators.quad_s": (c["operators.quad_s"] / rounds, "s"),
        "operators.quad_self_s": (tr.self_s("operators", "quad") / rounds, "s"),
        "operators.quad_evals": (c["operators.quad_samples"] / rounds, "count"),
        "operators.mc_s": (c["operators.mc_s"] / rounds, "s"),
        "operators.mc_samples_per_s": (rate(c["operators.mc_samples"], c["operators.mc_s"]), "1/s"),
        "operators.norm_s": (incl["operators.weighted_norm"] / rounds, "s"),
        "integrate.quad_1d_calls": (c["integrate.quad_1d_calls"] / rounds, "count"),
        "integrate.quad_1d_panels": (c["integrate.quad_1d_panels"] / rounds, "count"),
        "integrate.quad_1d_s": (c["integrate.quad_1d_outer_s"] / rounds, "s"),
        "integrate.quad_tensor_s": (incl["integrate.quad_tensor"] / rounds, "s"),
        "integrate.panels_per_s": (
            rate(c["integrate.quad_1d_panels"], c["integrate.quad_1d_outer_s"]), "1/s"),
        "integrate.mc_samples_per_s.tuple_ball": (
            rate(c["integrate.mc_samples.tuple_ball"], c["integrate.mc_s.tuple_ball"]), "1/s"),
        "integrate.mc_samples_per_s.heavy_tail": (
            rate(c["integrate.mc_samples.heavy_tail"], c["integrate.mc_s.heavy_tail"]), "1/s"),
        "integrate.gauge_rows_per_sample": (
            rate(c["hgroup.gauge_rows.from_integrate"], mc_samples), "ratio"),
        "hgroup.gauge_rows_per_s": (rate(c["hgroup.gauge_rows"], incl["hgroup.gauge_array"]), "1/s"),
        "specfun.constant_s": (constants / rounds, "s"),
    }
