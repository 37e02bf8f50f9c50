"""Evaluation of the m-linear integral operators and weighted-type norms.

Four operators are evaluated at gauge-radial test functions: a general
nonnegative homogeneous-kernel operator, the averaging (Hardy-type)
operator over the tuple ball, the max-kernel (Hardy-Littlewood-Polya type)
operator, and the sum-kernel (Hilbert-type) operator.

Each kind has one record in ``OPERATORS``: its kernel profile, its closed
form and, for the max-kernel kind only, a radial quadrature fast path.  One
evaluator, ``evaluate``, serves them all through the dilation identity: the
value at ``x`` is an integral over tuples at base gauge 1 against
``f_i(delta_{|x|_h} .)``, and the general-kernel quadrature path and the
Monte Carlo engine take one log integrand, built once: the kernel's
``log_profile`` plus, per factor, the test function's power past its tilt
and its log modulation, exponentiated once per node or sample.  The quadrature
engine performs the polar radial reduction (one radial variable per
factor): every kind but the max kernel runs the general-kernel path on its
kernel, over one geometry, the positive orthant in axes relative to the
gauges before them, which a kernel's ``simplex_support`` only cuts short.
Each quadrature path carries its polar constants in its log integrand, so
``QuadSpec.rel_tol`` bounds the relative error of the returned value on
every path.  The Monte Carlo engine samples the gauges of tuples
(``mc_integrate_tilted``, which draws no directions) from the gauge law the
verifier's Cartesian oracle also uses, with importance tilts taken from the
operator's exponent profile.  The law keeps to the tuple ball
(``KernelSpec.compact``) when the kernel's support lies there.  The named
kernels are written once, in log form, and are read in no other form.

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
from typing import Callable, Sequence

import numpy as np

from .hgroup import (
    Convention,
    GroupDim,
    HPoint,
    gauge,
    gauge_array,
    log_unit_ball_volume,
)
from .integrate import (
    Axis,
    Estimate,
    Method,
    QuadSpec,
    SeededStream,
    mc_integrate_tilted,
    quad_nested,
)
from .specfun import AlphaProfile, ConstantResult, hardy_constant, hilbert_constant, hlp_constant

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

_NORM_GRID = np.logspace(-6.0, 6.0, 10_000)


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
    kernel vanishes, numpy-vectorized.  It is the one form every reader
    takes: the general-kernel quadrature path and the Monte Carlo paths add
    their log weights to it and exponentiate once per node or sample, and
    the homogeneity probes compare it across a dilation.  The named kernels
    are written in log form and have no ``radial_profile``.  A user kernel
    may be given instead as ``radial_profile(r0, r1, ..., rm)``, the kernel
    itself at the gauges (vectorized), from which ``log_profile`` is
    derived as ``log . radial_profile . exp``.

    ``simplex_support`` ``s`` declares that the kernel vanishes outside the
    tuple ball ``sum r_i^2 < s^2 r0^2``: its log profile must be ``-inf``
    there, since no engine tests a tuple against the ball.  The quadrature
    path gives each radial axis a finite upper limit where the gauges before
    it fill the ball, instead of chasing the jump out to infinity; for a
    ``compact`` kernel the Monte Carlo engine draws its gauges below 1.
    """

    radial_profile: Callable[..., np.ndarray] | None
    homogeneity_degree: float
    simplex_support: float | None = None
    log_profile: Callable[..., np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.log_profile is None:
            if self.radial_profile is None:
                raise ValueError("a kernel needs a radial_profile or a log_profile")
            object.__setattr__(self, "log_profile", partial(_log_of_radial, self.radial_profile))

    @property
    def compact(self) -> bool:
        """Whether the support lies in the tuple ball ``sum r_i^2 < r0^2``,
        where the Monte Carlo gauge law drops its outer piece."""
        return self.simplex_support is not None and self.simplex_support <= 1.0


def _log_of_radial(
    radial_profile: Callable[..., np.ndarray], *log_gauges: np.ndarray
) -> np.ndarray:
    # far in a tail a gauge overflows to inf and a kernel value can vanish
    with np.errstate(over="ignore"):
        gauges = [np.exp(np.asarray(lg, dtype=float)) for lg in log_gauges]
    values = radial_profile(*gauges)
    with np.errstate(divide="ignore"):
        return np.log(values)


@dataclass(frozen=True)
class TestFunction:
    """Gauge-radial test function ``|x|_h^{-alpha_j} * modulation(|x|_h)``.

    ``modulation`` is a bounded function of the gauge into (0, 1]; ``None``
    means the extremal power itself.  ``breakpoints`` lists gauges where the
    modulation is non-smooth so quadrature can split there.  The value at the
    origin is 0 by convention.
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

    def radial(self, s: np.ndarray) -> np.ndarray:
        """Radial profile at positive gauges (vectorized)."""
        s = np.asarray(s, dtype=float)
        out = s ** (-self.alpha_j)
        if self.modulation is not None:
            out = out * self.modulation(s)
        return out

    def log_radial(self, log_s: np.ndarray) -> np.ndarray:
        """Log of the radial profile at log gauges (vectorized), ``-inf``
        where the modulation vanishes."""
        out = log_s * -self.alpha_j
        if self.modulation is not None:
            out = out + self._log_modulation(log_s)
        return out

    def _log_modulation(self, log_s: np.ndarray) -> np.ndarray:
        """Log of the modulation at log gauges (vectorized), ``-inf`` where
        it vanishes."""
        with np.errstate(over="ignore"):
            s = np.exp(log_s)
        with np.errstate(divide="ignore"):
            return np.log(self.modulation(s))

    def __call__(self, point: HPoint | np.ndarray, n: int | None = None) -> float | np.ndarray:
        if isinstance(point, HPoint):
            g = gauge(point)
            return 0.0 if g == 0.0 else float(self.radial(np.asarray(g)))
        if n is None:
            raise ValueError("coordinate-array evaluation needs the group index n")
        g = gauge_array(point, n)
        out = np.zeros_like(g)
        pos = g > 0.0
        out[pos] = self.radial(g[pos])
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

    def constant(self) -> ConstantResult:
        """Closed-form sharp constant for the named operator kinds."""
        closed_form = OPERATORS[self.kind].closed_form
        if closed_form is None:
            raise ValueError("general kernels have no closed form; use kernel_constant")
        return closed_form(self)


@dataclass(frozen=True)
class QuadEngine:
    """Deterministic engine; requires gauge-radial inputs and m <= 3."""

    quad: QuadSpec = field(default_factory=QuadSpec)


@dataclass(frozen=True)
class McEngine:
    """Stochastic engine; works for any m, on gauge-radial ``TestFunction`` inputs only."""

    n_samples: int = 1_000_000
    stream: SeededStream = field(default_factory=lambda: SeededStream(0))
    workers: int = 1


Engine = QuadEngine | McEngine


def weighted_norm(f: TestFunction, alpha: float, dim: GroupDim) -> float:
    """Weighted-type norm ``ess sup |x|_h^alpha |f(x)|``.

    Exact (= 1) for an extremal power measured at its own exponent.  For
    modulated powers the supremum is taken over a deterministic log-spaced
    gauge grid of 10^4 points between 1e-6 and 1e6; for step modulations with
    plateaus wider than the grid spacing this is exact, otherwise it is a
    lower bound.
    """
    if not alpha > 0.0:
        raise ValueError(f"norm exponent must be positive, got {alpha!r}")
    if f.is_extremal and alpha == f.alpha_j:
        return 1.0
    vals = _NORM_GRID ** (alpha - f.alpha_j)
    if f.modulation is not None:
        vals = vals * f.modulation(_NORM_GRID)
    return float(vals.max())


def _of_kind(spec: OperatorSpec, kind: OperatorKind) -> OperatorSpec:
    if spec.kind is not kind:
        raise ValueError(f"spec is for {spec.kind.value!r}, evaluator is {kind.value!r}")
    return spec


def _log_omega(spec: OperatorSpec) -> float:
    """``log omega_Q``, one factor's polar constant, at the spec's convention."""
    return math.log(spec.dim.Q) + log_unit_ball_volume(spec.dim, spec.convention)


def _radial_breaks(f: TestFunction, c: float, lo: float, hi: float) -> list[float]:
    return [b / c for b in f.breakpoints if lo < b / c < hi]


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

    The general-kernel quadrature path and Monte Carlo take one log
    integrand at the log gauges ``g_i`` of a tuple.  Each factor carries a
    weight ``g_i^{t_i}``, with tilts ``t_i`` from the exponent profile: the
    Monte Carlo law's density, quadrature's node Jacobian.  It cancels each
    test function's power ``-a_i (log c + log g_i)`` down to ``-a_i log c``,
    so the integrand is the kernel's log profile plus, per factor, ``(t_i -
    a_i) log g_i`` only where the test function's exponent ``a_i`` differs
    from its tilt, and the log modulation at ``c g_i`` only for a modulated
    one.  ``log_scale = -sum_i a_i log c`` is one scalar per call, which
    each engine adds to its own polar constants.

    Monte Carlo samples tuples inside the tuple ball when the kernel's
    support lies there and over all of H^{nm} otherwise.  Nothing but the
    kernel bounds the tuple ball: its log profile is ``-inf`` outside its
    support.
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
    steps = [(tilt - tf.alpha_j, tf) for tilt, tf in zip(tilts, fs)]
    log_scale = -log_c * math.fsum(tf.alpha_j for tf in fs)

    def log_f(log_gauges: list[np.ndarray]) -> np.ndarray:
        out = kernel.log_profile(0.0, *log_gauges)
        for (step, tf), lg in zip(steps, log_gauges):
            if step != 0.0:
                out = out + step * lg
            if tf.modulation is not None:
                out = out + tf._log_modulation(log_c + lg)
        return out

    if isinstance(engine, QuadEngine):
        if spec.m > 3:
            raise ValueError("quadrature engine supports m <= 3; use the MC engine")
        if op.quad:
            return op.quad(spec, fs, c, engine.quad)
        return _kernel_quad(log_f, log_scale, kernel, spec, fs, c, engine.quad)

    # mc_integrate_tilted's polar constants are geometric: the convention
    # scales each factor's by Omega_convention / Omega_geometric
    log_conv = log_unit_ball_volume(spec.dim, spec.convention) - log_unit_ball_volume(spec.dim)
    return mc_integrate_tilted(
        log_f,
        spec.dim,
        tilts,
        engine.n_samples,
        engine.stream,
        engine.workers,
        compact=kernel.compact,
        log_scale=spec.m * log_conv + log_scale,
    )


_PROBE_SEED = 0x9E3779B97F4A7C15


def _probe_homogeneity(kernel: KernelSpec, dim: GroupDim, m: int) -> None:
    """Check degree -mQ on 10 random probes, in one call of the log profile
    at the probes and one at their dilations, so that no power of a
    dilation leaves the float range; report the worst ratio."""
    expected = -float(m * dim.Q)
    if kernel.homogeneity_degree != expected:
        raise KernelHomogeneityError(
            f"kernel declares degree {kernel.homogeneity_degree}, "
            f"but -mQ = {expected} is required"
        )
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
    spec: OperatorSpec, fs: Sequence[TestFunction], c: float, qspec: QuadSpec
) -> Estimate:
    """Max-kernel quadrature: the radial orthant splits into the m + 1 cells
    induced by which argument realizes the max; each cell collapses to an
    outer 1-D integral times inner 1-D factors.

    A cell's outer integrand over ``r in (1, inf)`` decays as ``r^{-1-a}``
    with ``a = sum alpha``, which the ``t/(1-t)`` map of an infinite range
    turns into an endpoint power no rule resolves when ``a < 1``.  So the
    outer variable is ``u = r^{-a}`` on (0, 1), which makes the extremal
    integrand constant.  Each factor is read through its log profile, one
    ``exp`` per node, and the cells pass ``log r`` to their inner levels.
    Each factor's integrand carries its polar constant."""
    Q, a = spec.dim.Q, spec.profile.total
    log_c, log_omega = math.log(c), _log_omega(spec)
    # the outer factor's polar constant and the 1/a of its map
    log_outer = log_omega - math.log(a)

    def unit_factor(tf: TestFunction, log_scale: np.ndarray) -> Axis:
        # omega_Q int_0^1 g(scale * v) v^{Q-1} dv, one scale per owner
        pts = np.asarray(tf.breakpoints, dtype=float) * np.exp(-log_scale)[:, None]

        def f(v: np.ndarray, own: np.ndarray) -> np.ndarray:
            log_v = np.log(v)
            return np.exp(tf.log_radial(log_scale[own] + log_v) + (Q - 1) * log_v + log_omega)

        return (f, 0.0, 1.0, pts)

    def cell(tfj: TestFunction, others: list[TestFunction]) -> Callable[[int, tuple], list[Axis]]:
        def outer(u: np.ndarray, own: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # r = u^{-1/a}, dr = r du / (a u)
            log_u = np.log(u)
            log_r = log_u / -a
            return np.exp(tfj.log_radial(log_c + log_r) + log_outer - log_u), log_r

        # tfj jumps at its own edges; a factor inside has a kink in r where
        # one of its edges b meets the end of its range, r = b / c
        pts = [r ** -a for tf in fs for r in _radial_breaks(tf, c, 1.0, math.inf)]
        axis = (outer, 0.0, 1.0, pts)
        return lambda depth, prefix: (
            [axis] if depth == 0 else [unit_factor(tf, log_c + prefix[0]) for tf in others]
        )

    # the cell where |x| realizes the max is the inner factors at r = 1
    at_x = lambda depth, prefix: [unit_factor(tf, np.array([log_c])) for tf in fs]  # noqa: E731
    ests = [quad_nested(at_x, 1, qspec)]
    for j, tfj in enumerate(fs):
        others = [tf for i, tf in enumerate(fs) if i != j]
        ests.append(quad_nested(cell(tfj, others), 2, qspec))
    value = sum(e.value for e in ests)
    return Estimate(value, 0.0, sum(e.n_samples for e in ests), Method.QUAD)


def _kernel_quad(
    log_f: Callable[[list[np.ndarray]], np.ndarray],
    log_scale: float,
    kernel: KernelSpec,
    spec: OperatorSpec,
    fs: Sequence[TestFunction],
    c: float,
    qspec: QuadSpec,
) -> Estimate:
    """General-kernel quadrature of the log integrand ``log_f`` at the log
    gauges over the positive orthant, exponentiated once per node.  The
    node's weight carries the rest: ``log_scale`` and the polar constants
    ``m log omega_Q`` from the start, and per axis ``d`` the Jacobian of
    its map and ``(Q - 1 - t_d) log r_d``, where ``t_d`` is the tilt
    ``evaluate`` folded into ``log_f``.

    The outer gauge decays as ``r^{-1-a}``, ``a = sum alpha``, whatever the
    kernel (by its homogeneity), and the ``t/(1-t)`` map of an infinite
    range turns that into ``(1-t)^{a-1}``, an endpoint power no rule
    resolves when ``a < 1``.  There axis 0 is ``v = r^a`` past ``r = 1``
    instead, whose integrand decays as ``v^{-2}``, as ``_hlp_quad``
    integrates its outer gauge in a power of ``r``.  Below ``r = 1`` it stays
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
    Q, m, s = spec.dim.Q, spec.m, kernel.simplex_support
    a = math.fsum(tf.alpha_j for tf in fs)
    # the breakpoints of each axis as log gauges: r = 1, and the edges
    # of its factor read at gauge c r
    log_breaks = [np.log([1.0] + [b / c for b in tf.breakpoints if b > 0.0]) for tf in fs]

    def level(depth: int, prefix: tuple) -> list[Axis]:
        # row k of prefix[j] holds (log r_j, log of the polar constants,
        # Jacobians and r^{Q-1} factors of axes 0..j, sum of r_i^2 over
        # axes 0..j) of owner k; r_d = rho y, or r_0 = y^{1/p} past y = 1
        p = min(a, 1.0) if depth == 0 else 1.0

        def warp(x: np.ndarray, e: float) -> np.ndarray:
            # x^e past 1, where axis 0 runs in r^p; x below 1 and elsewhere
            return x if p == 1.0 else np.where(x > 1.0, x**e, x)

        log_rs = [pre[:, 0] for pre in prefix]
        log_w = prefix[-1][:, 1] if prefix else np.full(1, m * _log_omega(spec) + log_scale)
        # log_f carries r^{t_d} of the node's r^{Q-1}
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

    return KernelSpec(None, -mQ, simplex_support=1.0, log_profile=log_profile)


def hlp_kernel(dim: GroupDim, m: int) -> KernelSpec:
    """Max-kernel profile ``max(r0, r_1, ..., r_m)^{-mQ}``."""
    mQ = float(m * dim.Q)

    def log_profile(l0: np.ndarray, *ls: np.ndarray) -> np.ndarray:
        top = l0
        for lr in ls:
            top = np.maximum(top, lr)
        return top * -mQ

    return KernelSpec(None, -mQ, log_profile=log_profile)


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

    return KernelSpec(None, -float(m * Q), log_profile=log_profile)


@dataclass(frozen=True)
class Operator:
    """Everything that is particular to one operator kind.

    ``kernel(spec)`` gives its kernel profile, which the general-kernel
    quadrature path and the Monte Carlo engine integrate.  The named kinds
    also carry ``closed_form(spec)``, their sharp constant.  ``quad(spec,
    fs, c, qspec)``, held by hlp alone, is a radial quadrature fast path at
    an evaluation point of gauge ``c``: its m + 1 cells beat the
    general-kernel path on the max kernel.  Every other kind runs the
    general-kernel path.
    """

    kernel: Callable[[OperatorSpec], KernelSpec]
    closed_form: Callable[[OperatorSpec], ConstantResult] | None = None
    quad: Callable[[OperatorSpec, Sequence[TestFunction], float, QuadSpec], Estimate] | None = None


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
