"""Evaluation of the m-linear integral operators and weighted-type norms.

Four operators are evaluated at gauge-radial test functions: a general
nonnegative homogeneous-kernel operator, the averaging (Hardy-type)
operator over the tuple ball, the max-kernel (Hardy-Littlewood-Polya type)
operator, and the sum-kernel (Hilbert-type) operator.

Each kind has one record in ``OPERATORS``: its kernel profile, its closed
form and, for hlp only, a radial quadrature path that takes any m.  One
evaluator, ``evaluate``, serves them all through the dilation identity: the
value at ``x`` is an integral over tuples at base gauge 1 against
``f_i(delta_{|x|_h} .)``, read per factor through the test function's one
formula, ``TestFunction.log_weight``, at its tilt.  The general-kernel
quadrature path and the Monte Carlo engine take one log integrand, built
once: the kernel's ``log_profile`` plus those terms, exponentiated once per
node or sample; the max kernel's cells take the terms themselves.  The
quadrature engine performs the polar radial reduction (one radial variable
per factor): every kind but the max kernel runs the general-kernel path on
its kernel, over one geometry, the positive orthant in axes relative to the
gauges before them, which a kernel's ``simplex_support`` only cuts short.
Each quadrature path carries its polar constants in its log integrand, so
``QuadSpec.rel_tol`` bounds the relative error of the returned value on
every path.  The Monte Carlo engine runs ``integrate.tilted_values``, the
block of the verifier's Cartesian oracle, on the gauges of tuples (no
directions) at the polar constant of both quadrature paths, with tilts
from the operator's exponent profile.  The law keeps to the tuple ball
(``KernelSpec.compact``) when the kernel's support lies there.  A kernel is
its log profile and a test function its log weight, read in no other form.

Convention handling: the volume convention applies jointly to the
normalizing ball volume and to every polar surface constant, so the
Hardy-type value is convention-independent while max-kernel and sum-kernel
values scale by 2^m between conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
from typing import Callable, ClassVar, Sequence

import numpy as np

from .hgroup import (
    Convention,
    GroupDim,
    HPoint,
    gauge,
    log_sphere_measure,
    log_unit_ball_volume,
)
from .integrate import (
    Axis,
    Estimate,
    EstimationError,
    Method,
    QuadSpec,
    SeededStream,
    mc_chunk_partials,
    quad_nested,
    reduce_partials,
    tilted_values,
)
from .specfun import AlphaProfile, hardy_constant, hilbert_constant, hlp_constant

__all__ = [
    "KernelHomogeneityError",
    "KernelSpec",
    "McEngine",
    "OPERATORS",
    "Operator",
    "OperatorKind",
    "OperatorSpec",
    "QuadEngine",
    "TestFunction",
    "eval_hardy",
    "eval_hilbert",
    "eval_hlp",
    "eval_kernel_op",
    "evaluate",
    "hardy_kernel",
    "hilbert_kernel",
    "hlp_kernel",
    "kernel_constant",
    "weighted_norm",
]

_LOG_NORM_GRID = np.linspace(-6.0, 6.0, 10_000) * math.log(10.0)


class OperatorKind(Enum):
    KERNEL = "kernel"
    HARDY = "hardy"
    HLP = "hlp"
    HILBERT = "hilbert"


class KernelHomogeneityError(ValueError):
    """A kernel failed its homogeneity probe."""


@dataclass(frozen=True)
class KernelSpec:
    """A nonnegative gauge-radial kernel of homogeneity degree -mQ.

    ``log_profile(l0, l1, ..., lm)`` gives the log of the kernel as a
    function of the log gauges of its m + 1 arguments, ``-inf`` where the
    kernel vanishes, numpy-vectorized.  It is the kernel's one form: the
    general-kernel quadrature path and the Monte Carlo paths add their log
    weights to it and exponentiate once per node or sample, and the
    homogeneity probe compares it across a dilation, which also measures its
    degree.  A kernel known at gauges, ``K(r0, r1, ..., rm)``, is written at
    log gauges as ``log K(exp(l0), ..., exp(lm))``, best with the powers
    taken in logs, as ``hlp_kernel`` and ``hilbert_kernel`` do.

    ``simplex_support`` ``s`` (positive and finite) declares that the kernel
    vanishes outside the tuple ball ``sum r_i^2 < s^2 r0^2``: its log profile
    must be ``-inf`` there, since no engine tests a tuple against the ball.
    The quadrature path gives each radial axis a finite upper limit where the
    gauges before it fill the ball; for a ``compact`` kernel the Monte Carlo
    engine draws its gauges below 1.
    """

    log_profile: Callable[..., np.ndarray]
    simplex_support: float | None = None

    def __post_init__(self) -> None:
        s = self.simplex_support
        if s is not None and not (math.isfinite(s) and s > 0.0):
            raise ValueError(f"simplex_support must be positive and finite, got {s!r}")

    @property
    def compact(self) -> bool:
        """Whether the support lies in the tuple ball ``sum r_i^2 < r0^2``,
        where the Monte Carlo gauge law drops its outer piece."""
        return self.simplex_support is not None and self.simplex_support <= 1.0


@dataclass(frozen=True)
class TestFunction:
    """Gauge-radial test function ``|x|_h^{-alpha_j} * modulation(|x|_h)``.

    ``modulation`` is a bounded function of the gauge into (0, 1]; ``None``
    means the extremal power itself.  ``breakpoints`` lists gauges where the
    modulation is non-smooth so quadrature can split there.  ``log_weight``
    is its one formula, at log gauges: no engine evaluates it at a point.
    """

    alpha_j: float
    modulation: Callable[[np.ndarray], np.ndarray] | None = None
    breakpoints: tuple[float, ...] = ()
    description: str = "extremal power"

    __test__ = False  # keep pytest from collecting this as a test class

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha_j) and self.alpha_j > 0.0):
            raise ValueError(f"alpha_j must be positive, got {self.alpha_j!r}")

    @property
    def is_extremal(self) -> bool:
        return self.modulation is None

    @staticmethod
    def extremal(alpha_j: float) -> "TestFunction":
        return TestFunction(alpha_j)

    @staticmethod
    def modulated(
        alpha_j: float,
        modulation: Callable[[np.ndarray], np.ndarray],
        breakpoints: Sequence[float] = (),
        description: str = "modulated power",
    ) -> "TestFunction":
        return TestFunction(alpha_j, modulation, tuple(breakpoints), description)

    @staticmethod
    def step(alpha_j: float, edges: Sequence[float], values: Sequence[float]) -> "TestFunction":
        """Step-function modulation: ``values[k]`` on ``(edges[k-1], edges[k]]``."""
        e = np.asarray(tuple(edges), dtype=float)
        v = np.asarray(tuple(values), dtype=float)
        if v.size != e.size + 1:
            raise ValueError("need len(values) == len(edges) + 1")
        if not ((v > 0.0) & (v <= 1.0)).all():
            raise ValueError("step values must lie in (0, 1]")
        # searchsorted reads the edges as sorted
        if not (np.isfinite(e).all() and (e > 0.0).all() and (np.diff(e) > 0.0).all()):
            raise ValueError(f"step edges must be finite, positive and increasing: {e.tolist()}")

        def modulation(s: np.ndarray) -> np.ndarray:
            return v[np.searchsorted(e, s, side="left")]

        return TestFunction(
            alpha_j, modulation, tuple(float(x) for x in e), f"step modulation ({e.size} edges)"
        )

    def log_weight(self, tilt: float, log_s: np.ndarray) -> np.ndarray:
        """``log(s^tilt f(s)) = (tilt - alpha_j) log s + log modulation(s)``
        at log gauges (vectorized), ``-inf`` where the modulation vanishes:
        the weighted norm and both engines read only this."""
        out = (tilt - self.alpha_j) * np.asarray(log_s, dtype=float)
        if self.modulation is not None:
            with np.errstate(over="ignore"):
                s = np.exp(log_s)
            with np.errstate(divide="ignore"):
                out = out + np.log(self.modulation(s))
        return out


@dataclass(frozen=True)
class OperatorSpec:
    """Which operator, on which group, with which exponent profile."""

    kind: OperatorKind
    dim: GroupDim
    profile: AlphaProfile
    convention: Convention = Convention.GEOMETRIC
    kernel: KernelSpec | None = None

    def __post_init__(self) -> None:
        self.profile.validate_for(self.dim)
        if self.kind is OperatorKind.KERNEL and self.kernel is None:
            raise ValueError("kind=KERNEL requires a KernelSpec")

    @property
    def m(self) -> int:
        return self.profile.m

    def constant(self) -> float:
        """Closed-form sharp constant for the named operator kinds."""
        closed_form = OPERATORS[self.kind].closed_form
        if closed_form is None:
            raise ValueError("general kernels have no closed form; use kernel_constant")
        return closed_form(self)


@dataclass(frozen=True)
class QuadEngine:
    """Deterministic engine on gauge-radial inputs, for the specs it ``reaches``."""

    GENERAL_M: ClassVar[int] = 3
    quad: QuadSpec = field(default_factory=QuadSpec)

    @staticmethod
    def reaches(spec: OperatorSpec) -> bool:
        """Whether quadrature takes ``spec``: at every m on a kind's own radial
        path (hlp's cells, linear in m), else at m <= ``GENERAL_M``, since the
        general-kernel path's m nested levels cost a power of m."""
        return OPERATORS[spec.kind].quad is not None or spec.m <= QuadEngine.GENERAL_M


@dataclass(frozen=True)
class McEngine:
    """Stochastic engine; works for any m, on gauge-radial ``TestFunction`` inputs only."""

    n_samples: int = 1_000_000
    stream: SeededStream = field(default_factory=lambda: SeededStream(0))
    workers: int = 1


Engine = QuadEngine | McEngine


def weighted_norm(f: TestFunction, alpha: float) -> float:
    """Weighted-type norm ``ess sup |x|_h^alpha |f(x)|``, on any H^n.

    The ``exp`` of the largest ``f.log_weight(alpha, .)`` on a log-spaced
    gauge grid of 10^4 points from 1e-6 to 1e6: exact for an extremal power
    at its own exponent (= 1) and for step modulations with plateaus wider
    than the grid spacing, otherwise a lower bound.
    """
    if not alpha > 0.0:
        raise ValueError(f"norm exponent must be positive, got {alpha!r}")
    return float(np.exp(f.log_weight(alpha, _LOG_NORM_GRID).max()))


def _of_kind(spec: OperatorSpec, kind: OperatorKind) -> OperatorSpec:
    if spec.kind is not kind:
        raise ValueError(f"spec is for {spec.kind.value!r}, evaluator is {kind.value!r}")
    return spec


def _term(tf: TestFunction, tilt: float, log_c: float, log_g: np.ndarray) -> np.ndarray:
    return tf.log_weight(tilt, log_c + log_g)


def eval_hardy(
    fs: Sequence[TestFunction], x: HPoint, spec: OperatorSpec, engine: Engine = QuadEngine()
) -> Estimate:
    """Averaging operator over the tuple ball of radius ``|x|_h``.

    Value: ``1/(Omega^m |x|^{mQ}) * int_{|(y_1..y_m)|_h < |x|_h} prod f_i``.
    Convention-independent because the normalizer and the polar constant
    shift together.
    """
    return evaluate(_of_kind(spec, OperatorKind.HARDY), fs, x, engine)


def eval_hlp(
    fs: Sequence[TestFunction], x: HPoint, spec: OperatorSpec, engine: Engine = QuadEngine()
) -> Estimate:
    """Max-kernel operator ``int prod f_i(y_i) / max(|x|^Q, |y_i|^Q...)^m``."""
    return evaluate(_of_kind(spec, OperatorKind.HLP), fs, x, engine)


def eval_hilbert(
    fs: Sequence[TestFunction], x: HPoint, spec: OperatorSpec, engine: Engine = QuadEngine()
) -> Estimate:
    """Sum-kernel operator ``int prod f_i(y_i) / (|x|^Q + sum |y_i|^Q)^m``."""
    return evaluate(_of_kind(spec, OperatorKind.HILBERT), fs, x, engine)


def eval_kernel_op(
    kernel: KernelSpec,
    fs: Sequence[TestFunction],
    x: HPoint,
    spec: OperatorSpec,
    engine: Engine = QuadEngine(),
) -> Estimate:
    """General-kernel operator via the dilation identity.

    ``T(x) = int K(e_1, y_1..y_m) prod f_i(delta_{|x|_h} y_i) dy``; the kernel
    is probed for homogeneity -mQ before any evaluation.
    """
    return evaluate(replace(spec, kind=OperatorKind.KERNEL, kernel=kernel), fs, x, engine)


def kernel_constant(
    kernel: KernelSpec,
    dim: GroupDim,
    profile: AlphaProfile,
    engine: Engine = QuadEngine(),
    convention: Convention = Convention.GEOMETRIC,
) -> Estimate:
    """Numeric sharp constant ``H_m = int K(e_1, y) prod |y_i|^{-alpha_i} dy``.

    Exponents outside (0, Q) make the integral diverge and are rejected up
    front, naming every offending index.
    """
    spec = OperatorSpec(OperatorKind.KERNEL, dim, profile, convention, kernel)
    fs = [TestFunction.extremal(a) for a in profile.alphas]
    e1 = HPoint.of(dim, [1.0] + [0.0] * (dim.ambient - 1))
    return eval_kernel_op(kernel, fs, e1, spec, engine)


def evaluate(
    spec: OperatorSpec, fs: Sequence[TestFunction], x: HPoint, engine: Engine
) -> Estimate:
    """The operator of ``spec``, of any kind, at ``x``, through the dilation
    identity: the value at ``x`` integrates the kernel at base gauge 1
    against ``f_i(delta_{|x|_h} .)``.

    Both engines integrate in log space, so that a power too large for a
    float meets a kernel too small for one before the one ``exp`` per node
    or sample.  Quadrature runs the max kernel's cells (hlp) or the
    general-kernel path on the kind's kernel (every other kind), each with
    its polar constants in its log integrand, so that no constant
    underflows before it is used and the relative error control of
    ``QuadSpec`` applies to the returned value.

    At the log gauges ``g_i`` of a tuple at base gauge 1, factor ``i``
    carries a weight ``g_i^{t_i}`` (tilts from the exponent profile: the
    Monte Carlo law's density, quadrature's node weight) and a term
    ``f_i.log_weight(t_i, log c + g_i)``, skipped where it is 0.  One
    scalar, ``log_scale = -sum_i t_i log c``, takes back the terms'
    ``c^{t_i}``.  Quadrature splits at each factor's edges, computed once as
    log gauges at base gauge 1.

    Monte Carlo runs ``tilted_values`` at ``log_sphere_measure``, as
    quadrature does, and samples tuples inside the tuple ball when the
    kernel's support lies there and over all of H^{nm} otherwise.  Nothing
    but the kernel bounds the tuple ball: its log profile is ``-inf``
    outside its support.
    """
    if len(fs) != spec.m:
        raise ValueError(f"need {spec.m} test functions, got {len(fs)}")
    if x.dim != spec.dim:
        raise ValueError("evaluation point lives on a different group")
    c = gauge(x)
    if c == 0.0:
        raise ValueError("operators are defined away from the origin; got x = 0")
    op = OPERATORS[spec.kind]
    kernel = op.kernel(spec)
    if spec.kind is OperatorKind.KERNEL:
        _probe_homogeneity(kernel, spec.dim, spec.m)
    log_c = math.log(c)
    tilts = spec.profile.alphas
    terms = [
        None if tf.is_extremal and t == tf.alpha_j else partial(_term, tf, t, log_c)
        for t, tf in zip(tilts, fs)
    ]
    log_scale = -log_c * spec.profile.total

    def log_f(log_gauges: np.ndarray | list[np.ndarray]) -> np.ndarray:
        out = kernel.log_profile(0.0, *log_gauges)
        for term, lg in zip(terms, log_gauges):
            if term is not None:
                out = out + term(lg)
        return out

    if isinstance(engine, QuadEngine):
        if not engine.reaches(spec):
            limit = f"m <= {engine.GENERAL_M}, got {spec.m}"
            raise ValueError(f"the {spec.kind.value} quadrature takes {limit}; use the MC engine")
        log_edges = [np.log([b / c for b in tf.breakpoints if b > 0.0]) for tf in fs]
        # an integrand past the float range is a QuadratureError, not a warning
        with np.errstate(over="ignore"):
            if op.quad:
                return op.quad(spec, terms, log_edges, log_scale, engine.quad)
            return _kernel_quad(
                log_f, kernel.simplex_support, spec, log_edges, log_scale, engine.quad
            )

    log_polar = log_sphere_measure(spec.dim, spec.convention)
    values_fn = tilted_values(
        log_f, spec.dim.Q, tilts, compact=kernel.compact, log_scale=log_scale, log_polar=log_polar
    )
    partials = mc_chunk_partials(values_fn, engine.n_samples, engine.stream, engine.workers)
    estimate, positive = reduce_partials(partials)
    if positive == 0:
        raise EstimationError("zero accepted samples; cannot form an estimate")
    return estimate


_PROBE_SEED = 0x9E3779B97F4A7C15


def _probe_homogeneity(kernel: KernelSpec, dim: GroupDim, m: int) -> None:
    """Check degree -mQ on 10 random probes, in one call of the log profile
    at the probes and one at their dilations, so that no power of a
    dilation leaves the float range; report the worst ratio.  A kernel
    declares no degree: one built for another m fails here."""
    expected = -float(m * dim.Q)
    # row k is probe k's (r0, r_1, ..., r_m, t)
    probes = SeededStream(_PROBE_SEED).generator().uniform(0.5, 2.0, (10, m + 2))
    logs = np.log(probes)
    log_t = logs[:, -1]
    base = kernel.log_profile(*logs[:, :-1].T)
    scaled = kernel.log_profile(*(logs[:, :-1] + log_t[:, None]).T)
    vanishes = np.isneginf(base)
    odd = vanishes != np.isneginf(scaled)
    if odd.any():
        r0, *rs, t = probes[np.argmax(odd)].tolist()
        raise KernelHomogeneityError(
            f"kernel support is not dilation-invariant (probe r0={r0}, rs={rs}, t={t})"
        )
    live = ~vanishes
    with np.errstate(invalid="ignore", over="ignore"):
        # scaled / (t^expected base) - 1: nan or inf, which fail, where a
        # profile is nan or +inf or the ratio overflows
        deviation = np.expm1(scaled[live] - base[live] - expected * log_t[live])
    worst = float(np.abs(deviation).max(initial=0.0))
    if not worst <= 1e-10:
        raise KernelHomogeneityError(
            f"kernel is not homogeneous of degree {expected}: worst probe ratio "
            f"deviates by {worst:.3e}"
        )


def _hlp_quad(
    spec: OperatorSpec, terms: list, log_edges: list, log_scale: float, qspec: QuadSpec
) -> Estimate:
    """Max-kernel quadrature of ``evaluate``'s terms: the radial orthant
    splits into the m + 1 cells induced by which argument realizes the max;
    each cell collapses to an outer 1-D integral times inner 1-D factors.

    Factor ``i`` carries ``g^{Q-1-t_i}`` at gauge ``g``, as in
    ``_kernel_quad``, and ``log omega_Q + log_scale / m``.  In cell ``j``
    the max ``r = r_j`` runs over (1, inf) and factor ``i != j`` over ``g =
    r v``, ``v`` in (0, 1), which leaves ``r^{-1-a}`` (``a = sum t``) times
    its term outside.  The ``t/(1-t)`` map would make that an endpoint power
    no rule resolves when ``a < 1``, so the outer variable is ``u = r^{-a}``
    on (0, 1), where an extremal integrand is constant.  One ``exp`` per
    node; the cells pass ``log r`` to their inner levels."""
    Q, m, a = spec.dim.Q, spec.m, spec.profile.total
    log_each = log_sphere_measure(spec.dim, spec.convention) + log_scale / m

    def unit_factor(i: int, log_r: np.ndarray) -> Axis:
        # int_0^1 omega_Q v^{Q-1-t_i} exp(term_i(log r + log v)) dv per owner
        term, power = terms[i], Q - 1 - spec.profile.alphas[i]
        pts = np.exp(log_edges[i][None, :] - log_r[:, None])

        def f(v: np.ndarray, own: np.ndarray) -> np.ndarray:
            log_v = np.log(v)
            out = power * log_v + log_each
            if term is not None:
                out += term(log_r[own] + log_v)
            return np.exp(out, out=out)

        return (f, 0.0, 1.0, pts)

    # factor j jumps at its own edges past r = 1; a factor inside has a
    # kink in r where one of its edges meets the end of its range
    edges = np.concatenate(log_edges)
    pts = np.exp(-a * edges[edges > 0.0])

    def cell(j: int) -> Callable[[int, tuple], list[Axis]]:
        term, log_outer = terms[j], log_each - math.log(a)

        def outer(u: np.ndarray, own: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # r = u^{-1/a}, r^{-1-a} dr = du / a
            log_r = np.log(u) / -a
            out = np.full_like(u, log_outer) if term is None else term(log_r) + log_outer
            return np.exp(out, out=out), log_r

        axis = (outer, 0.0, 1.0, pts)
        return lambda depth, prefix: (
            [axis] if depth == 0 else [unit_factor(i, prefix[0]) for i in range(m) if i != j]
        )

    # the cell where |x| realizes the max is the inner factors at r = 1
    at_x = lambda depth, prefix: [unit_factor(i, np.zeros(1)) for i in range(m)]  # noqa: E731
    ests = [quad_nested(at_x, 1, qspec)] + [quad_nested(cell(j), 2, qspec) for j in range(m)]
    return Estimate(sum(e.value for e in ests), 0.0, sum(e.n_samples for e in ests), Method.QUAD)


def _kernel_quad(
    log_f: Callable[[np.ndarray | list[np.ndarray]], np.ndarray],
    s: float | None,
    spec: OperatorSpec,
    log_edges: Sequence[np.ndarray],
    log_scale: float,
    qspec: QuadSpec,
) -> Estimate:
    """General-kernel quadrature of the log integrand ``log_f`` at the log
    gauges over the positive orthant, exponentiated once per node.  The
    node's weight carries the rest: ``log_scale`` and the polar constants
    ``m log omega_Q`` from the start, and per axis ``d`` the Jacobian of
    its map and ``(Q - 1 - t_d) log r_d``, where ``t_d`` is the tilt
    ``evaluate``'s term for factor ``d`` holds.  Axis ``d`` splits at
    ``r = 1`` and at its factor's edges ``log_edges[d]``.

    The outer gauge decays as ``r^{-1-a}``, ``a = sum t``, whatever the
    kernel (by its homogeneity), and the ``t/(1-t)`` map of an infinite
    range turns that into ``(1-t)^{a-1}``, an endpoint power no rule
    resolves when ``a < 1``.  There axis 0 is ``v = r^a`` past ``r = 1``
    instead, whose integrand decays as ``v^{-2}``, as ``_hlp_quad``
    integrates its outer gauge in a power of ``r``.  It also splits at
    ``r = 2^(2^k)``, k = 0..5: ``v`` squeezes the kernel's approach to its
    power tail, over ``r`` from 1 to about 2^32, into ``v < 2^(32 a)``
    (1.023 at ``a`` = 0.001), where the first panels' sums agree on a curve
    they both miss.  Below ``r = 1`` it stays
    ``v = r``: there ``r^a`` would turn the integrand's ``r^{Q-1-a}`` into
    ``v^{Q/a-2}`` (``v^{3018}`` for hilbert at n = 150, ``a`` = 0.1), a
    spike at ``v = 1`` that the first panel's Kronrod and Gauss sums both
    miss.  Inner axis ``d > 0`` is relative, ``x = r_d / rho_d`` with
    ``rho_d = max(1, r_0, ..., r_{d-1})``: a homogeneous kernel's mass and
    kinks in ``r_d`` sit at the scale of the gauges before it, which
    ``t/(1-t)`` cannot reach once they are far from 1.  An axis's
    breakpoints and upper limit go through its map.

    A kernel with a ``simplex_support`` ``s`` vanishes outside the tuple ball
    ``sum r_i^2 < s^2``, so axis ``d`` ends where the gauges before it leave
    no room, at ``sqrt(s^2 - sum_{j<d} r_j^2) / rho_d`` in ``r_d / rho_d``
    (0 once they fill the ball), not at infinity; the kernel's ``-inf`` does
    the rest.  On the ball with ``s <= 1``, ``rho_d = 1`` and the axes are
    the gauges themselves."""
    Q, m, a = spec.dim.Q, spec.m, spec.profile.total
    log_omega = log_sphere_measure(spec.dim, spec.convention)
    # the breakpoints of each axis as log gauges: r = 1, and its factor's edges
    log_breaks = [np.concatenate(([0.0], edges)) for edges in log_edges]
    if a < 1.0:
        log_breaks[0] = np.concatenate((log_breaks[0], math.log(2.0) * 2.0 ** np.arange(6)))

    def level(depth: int, prefix: tuple) -> list[Axis]:
        # row k of prefix[j] holds (log r_j, log of the polar constants,
        # Jacobians and r^{Q-1} factors of axes 0..j, sum of r_i^2 over
        # axes 0..j) of owner k; r_d = rho y, or r_0 = y^{1/p} past y = 1
        p = min(a, 1.0) if depth == 0 else 1.0

        def warp(x: np.ndarray, e: float) -> np.ndarray:
            # x^e past 1, where axis 0 runs in r^p; x below 1 and elsewhere
            return x if p == 1.0 else np.where(x > 1.0, x**e, x)

        log_rs = [pre[:, 0] for pre in prefix]
        log_w = prefix[-1][:, 1] if prefix else np.full(1, m * log_omega + log_scale)
        # the term of factor d carries r^{t_d} of the node's r^{Q-1}
        power = Q - spec.profile.alphas[depth]
        log_rho = np.maximum.reduce([np.zeros_like(log_w), *log_rs])
        # y = 1 is r = rho, where a max kernel has its kink
        pts = warp(np.exp(log_breaks[depth][None, :] - log_rho[:, None]), p)
        pts = np.column_stack((np.ones_like(log_rho), pts))
        hi = math.inf
        if s is not None:
            sq = prefix[-1][:, 2] if prefix else np.zeros(1)
            rho = np.exp(log_rho)
            hi = warp(np.sqrt(np.maximum(s * s - sq, 0.0)) / rho, p)

        def node(y: np.ndarray, own: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # r^{Q-1} dr = r^Q / (q y) dy, q = p where y = r^p and 1 where
            # y = r / rho, formed in the gathered arrays, less r^{t_d}
            log_y = np.log(y)
            log_r = log_rho[own]
            log_jac = log_w[own]
            if p == 1.0:
                log_r += log_y
            else:
                past = log_y > 0.0
                log_r += np.where(past, log_y / p, log_y)
                log_jac -= np.where(past, math.log(p), 0.0)
            log_jac += power * log_r
            log_jac -= log_y
            return log_r, log_jac

        if depth < m - 1:

            def inner(y: np.ndarray, own: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                columns = node(y, own)
                if s is not None:
                    # the gauges' squares so far, for the next axis' limit
                    r = rho[own] * warp(y, 1.0 / p)
                    columns += (sq[own] + r * r,)
                return np.ones_like(y), np.column_stack(columns)

            return [(inner, 0.0, hi, pts)]

        def leaf(y: np.ndarray, own: np.ndarray) -> np.ndarray:
            log_r, log_jac = node(y, own)
            log_jac += log_f([lr[own] for lr in log_rs] + [log_r])
            return np.exp(log_jac, out=log_jac)

        return [(leaf, 0.0, hi, pts)]

    return quad_nested(level, m, qspec)


def hardy_kernel(
    dim: GroupDim, m: int, convention: Convention = Convention.GEOMETRIC
) -> KernelSpec:
    """Kernel profile of the averaging operator:
    ``chi(sum r_i^2 < r0^2) / (Omega^m r0^{mQ})``."""
    log_norm = -m * log_unit_ball_volume(dim, convention)
    mQ = float(m * dim.Q)

    def log_profile(l0: np.ndarray, *ls: np.ndarray) -> np.ndarray:
        # both engines pass the scalar 0.0 (base gauge 1), where lr - l0 is lr
        rel = ls if isinstance(l0, float) and l0 == 0.0 else [lr - l0 for lr in ls]
        ss = sum(np.exp(2.0 * lr) for lr in rel)
        return np.where(ss < 1.0, log_norm - mQ * l0, -np.inf)

    return KernelSpec(log_profile, simplex_support=1.0)


def hlp_kernel(dim: GroupDim, m: int) -> KernelSpec:
    """Max-kernel profile ``max(r0, r_1, ..., r_m)^{-mQ}``."""
    mQ = float(m * dim.Q)

    def log_profile(l0: np.ndarray, *ls: np.ndarray) -> np.ndarray:
        top = l0
        for lr in ls:
            top = np.maximum(top, lr)
        return top * -mQ

    return KernelSpec(log_profile)


def hilbert_kernel(dim: GroupDim, m: int) -> KernelSpec:
    """Sum-kernel profile ``(r0^Q + sum r_i^Q)^{-m}``, in log form
    ``-m logsumexp(Q l0, Q l1, ...)`` shifted by its largest term so that no
    power overflows.

    The log profile runs in place on arrays of its own, never on its
    arguments, which may be Python floats or 0-d arrays."""
    Q = dim.Q

    def log_profile(l0: np.ndarray, *ls: np.ndarray) -> np.ndarray:
        shape = np.broadcast_shapes(*(np.shape(lr) for lr in (l0, *ls)))
        terms = [np.multiply(lr, Q, out=np.empty(np.shape(lr))) for lr in (l0, *ls)]
        top = np.maximum(terms[0], terms[1], out=np.empty(shape))
        for t in terms[2:]:
            np.maximum(top, t, out=top)
        total = None
        for t in terms:
            # exp(t - top), in t's own array where it has the full shape
            e = np.subtract(t, top, out=t if t.shape == shape else np.empty(shape))
            np.exp(e, out=e)
            total = e if total is None else np.add(total, e, out=total)
        np.log(total, out=total)
        total += top
        total *= -float(m)
        return total

    return KernelSpec(log_profile)


@dataclass(frozen=True)
class Operator:
    """Everything that is particular to one operator kind.

    ``kernel(spec)`` gives its kernel profile, which the general-kernel
    quadrature path and the Monte Carlo engine integrate.  The named kinds
    also carry ``closed_form(spec)``, their sharp constant.  ``quad``, held by
    hlp alone, is a radial quadrature path on ``evaluate``'s terms: its m + 1
    cells beat the general-kernel path on the max kernel, at every m.
    """

    kernel: Callable[[OperatorSpec], KernelSpec]
    closed_form: Callable[[OperatorSpec], float] | None = None
    quad: Callable[..., Estimate] | None = None


OPERATORS: dict[OperatorKind, Operator] = {
    OperatorKind.KERNEL: Operator(lambda spec: spec.kernel),
    OperatorKind.HARDY: Operator(
        lambda spec: hardy_kernel(spec.dim, spec.m, spec.convention),
        lambda spec: hardy_constant(spec.dim, spec.profile, spec.convention),
    ),
    OperatorKind.HLP: Operator(
        lambda spec: hlp_kernel(spec.dim, spec.m),
        lambda spec: hlp_constant(spec.dim, spec.profile, spec.convention),
        _hlp_quad,
    ),
    OperatorKind.HILBERT: Operator(
        lambda spec: hilbert_kernel(spec.dim, spec.m),
        lambda spec: hilbert_constant(spec.dim, spec.profile, spec.convention),
    ),
}
