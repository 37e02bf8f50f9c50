"""Evaluation of the m-linear integral operators and weighted-type norms.

Four operators are evaluated at gauge-radial test functions: a general
nonnegative homogeneous-kernel operator, the averaging (Hardy-type)
operator over the tuple ball, the max-kernel (Hardy-Littlewood-Polya type)
operator, and the sum-kernel (Hilbert-type) operator.

Each kind has one record in ``OPERATORS``: its kernel profile, its closed
form and, for the max-kernel and sum-kernel kinds only, a radial quadrature
fast path.  One evaluator serves them all through the dilation identity:
the value at ``x`` is an integral over tuples at base gauge 1 against
``f_i(delta_{|x|_h} .)``.  The quadrature engine performs the polar radial
reduction (one radial variable per factor): the averaging operator and
general kernels share the general-kernel path on their kernel, and
``QuadSpec.abs_tol`` bounds the error of the returned value on every path.
The Monte Carlo engine samples the gauges of tuples
(``mc_integrate_radial``, which draws no directions) from the gauge law the
verifier's Cartesian oracle also uses, with importance tilts taken from the
operator's exponent profile, and weights them by the kernel.  The law keeps
to the tuple ball (``compact``) when the kernel's support lies there.

Convention handling: the volume convention applies jointly to the
normalizing ball volume and to every polar surface constant, so the
Hardy-type value is convention-independent while max-kernel and sum-kernel
values scale by 2^m between conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .hgroup import (
    Convention,
    GroupDim,
    HPoint,
    gauge,
    gauge_array,
    sphere_measure,
    unit_ball_volume,
)
from .integrate import (
    Axis,
    Domain,
    Estimate,
    Method,
    QuadSpec,
    SeededStream,
    mc_integrate_radial,
    quad_dirichlet,
    quad_nested,
    quad_tensor,
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

    ``radial_profile(r0, r1, ..., rm)`` gives the kernel as a function of the
    gauges of its m + 1 arguments and must be numpy-vectorized.  When
    ``simplex_support`` is set the profile vanishes outside
    ``sum r_i^2 < simplex_support^2 * r0^2``, which lets the quadrature
    engine integrate over the exact support instead of chasing a jump.
    """

    radial_profile: Callable[..., np.ndarray]
    homogeneity_degree: float
    base_gauge: float = 1.0
    simplex_support: float | None = None


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

    def power_weighted(self, c: float, r: np.ndarray, exponent: float) -> np.ndarray:
        """``(c r)^{-alpha_j} * modulation(c r) * r^exponent`` with the powers
        of ``r`` combined, so exponents close to -Q cannot overflow through an
        intermediate factor near r = 0."""
        r = np.asarray(r, dtype=float)
        out = c**-self.alpha_j * r ** (exponent - self.alpha_j)
        if self.modulation is not None:
            out = out * self.modulation(c * r)
        return out

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
    """Stochastic engine; works for any m and any measurable inputs."""

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


def _conv_factor(spec: OperatorSpec) -> float:
    """(Omega_convention / Omega_geometric)^m, the joint-convention scaling."""
    if spec.convention is Convention.GEOMETRIC:
        return 1.0
    ratio = unit_ball_volume(spec.dim, spec.convention) / unit_ball_volume(spec.dim)
    return ratio**spec.m


# a quadrature path at one evaluation point: the factor that scales its
# integral to the operator's value, and that integral under a QuadSpec
QuadPath = tuple[float, Callable[[QuadSpec], Estimate]]


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
    return _evaluate(_of_kind(spec, OperatorKind.HARDY), fs, x, engine)


def eval_hlp(
    fs: Sequence[TestFunction], x: HPoint, spec: OperatorSpec, engine: Engine = QuadEngine()
) -> Estimate:
    """Max-kernel operator ``int prod f_i(y_i) / max(|x|^Q, |y_i|^Q...)^m``."""
    return _evaluate(_of_kind(spec, OperatorKind.HLP), fs, x, engine)


def eval_hilbert(
    fs: Sequence[TestFunction], x: HPoint, spec: OperatorSpec, engine: Engine = QuadEngine()
) -> Estimate:
    """Sum-kernel operator ``int prod f_i(y_i) / (|x|^Q + sum |y_i|^Q)^m``."""
    return _evaluate(_of_kind(spec, OperatorKind.HILBERT), fs, x, engine)


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
    return _evaluate(replace(spec, kind=OperatorKind.KERNEL, kernel=kernel), fs, x, engine)


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


def _evaluate(
    spec: OperatorSpec, fs: Sequence[TestFunction], x: HPoint, engine: Engine
) -> Estimate:
    """Every operator kind through the dilation identity: the value at ``x``
    integrates the kernel at base gauge 1 against ``f_i(delta_{|x|_h} .)``.

    Quadrature runs the kind's radial fast path (hlp and hilbert) or the
    general-kernel path on the kind's kernel (hardy and general kernels),
    with ``abs_tol`` divided by the path's final factor, so that it bounds
    the error of the returned value on every path.  Monte Carlo samples
    tuples with tilts from the exponent profile, inside the tuple ball when
    the kernel's support lies there and over all of H^{nm} otherwise, and
    weights each tuple by the kernel at its gauges.
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
    if isinstance(engine, QuadEngine):
        if spec.m > 3:
            raise ValueError("quadrature engine supports m <= 3; use the MC engine")
        scale, run = op.quad(spec, fs, c) if op.quad else _kernel_quad(kernel, spec, fs, c)
        # a factor that underflows to 0 leaves no error to control
        abs_tol = engine.quad.abs_tol / scale if scale > 0.0 else math.inf
        return run(replace(engine.quad, abs_tol=abs_tol)).scaled(scale)

    base = kernel.base_gauge

    def f(gauges: list[np.ndarray]) -> np.ndarray:
        out = np.full(gauges[0].shape[0], 1.0)
        for tf, g in zip(fs, gauges):
            out = out * tf.radial(c * g)
        return out * kernel.radial_profile(base, *gauges)

    compact = kernel.simplex_support is not None and kernel.simplex_support * base <= 1.0
    raw = mc_integrate_radial(
        f,
        spec.dim,
        spec.profile.alphas,
        engine.n_samples,
        engine.stream,
        engine.workers,
        compact=compact,
    )
    return raw.scaled(_conv_factor(spec))


_PROBE_SEED = 0x9E3779B97F4A7C15


def _probe_homogeneity(kernel: KernelSpec, dim: GroupDim, m: int) -> None:
    """Check degree -mQ on 10 random probes; report the worst ratio."""
    expected = -float(m * dim.Q)
    if kernel.homogeneity_degree != expected:
        raise KernelHomogeneityError(
            f"kernel declares degree {kernel.homogeneity_degree}, "
            f"but -mQ = {expected} is required"
        )
    gen = SeededStream(_PROBE_SEED).generator()
    worst = 0.0
    for _ in range(10):
        r0 = float(gen.uniform(0.5, 2.0))
        rs = gen.uniform(0.5, 2.0, m)
        t = float(gen.uniform(0.5, 2.0))
        base = float(np.asarray(kernel.radial_profile(r0, *rs)))
        scaled = float(np.asarray(kernel.radial_profile(t * r0, *(t * rs))))
        if base == 0.0 and scaled == 0.0:
            continue
        if base == 0.0 or scaled == 0.0:
            raise KernelHomogeneityError(
                "kernel support is not dilation-invariant "
                f"(probe r0={r0}, rs={rs.tolist()}, t={t})"
            )
        worst = max(worst, abs(scaled / (t**expected * base) - 1.0))
    if worst > 1e-10:
        raise KernelHomogeneityError(
            f"kernel is not homogeneous of degree {expected}: worst probe ratio "
            f"deviates by {worst:.3e}"
        )


def _hlp_quad(spec: OperatorSpec, fs: Sequence[TestFunction], c: float) -> QuadPath:
    """Max-kernel quadrature: the radial orthant splits into the m + 1 cells
    induced by which argument realizes the max; each cell collapses to an
    outer 1-D integral times inner 1-D factors.

    A cell's outer integrand over ``r in (1, inf)`` decays as ``r^{-1-a}``
    with ``a = sum alpha``, which the ``t/(1-t)`` map of an infinite range
    turns into an endpoint power no rule resolves when ``a < 1``.  So the
    outer variable is ``u = r^{-a}`` on (0, 1), which makes the extremal
    integrand constant."""
    Q, m, a = spec.dim.Q, spec.m, spec.profile.total

    def unit_factor(tf: TestFunction, scale: np.ndarray) -> Axis:
        # int_0^1 g(scale * v) v^{Q-1} dv, one scale per owner
        pts = np.asarray(tf.breakpoints, dtype=float) / scale[:, None]
        return (lambda v, own: tf.power_weighted(scale[own], v, Q - 1), 0.0, 1.0, pts)

    def cell(tfj: TestFunction, others: list[TestFunction]) -> Callable[[int, tuple], list[Axis]]:
        def outer(u: np.ndarray, own: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # r = u^{-1/a}, dr = r du / (a u)
            r = u ** (-1.0 / a)
            return tfj.power_weighted(c, r, 0.0) / (a * u), r

        # tfj jumps at its own edges; a factor inside has a kink in r where
        # one of its edges b meets the end of its range, r = b / c
        pts = [r ** -a for tf in fs for r in _radial_breaks(tf, c, 1.0, math.inf)]
        axis = (outer, 0.0, 1.0, pts)
        return lambda depth, prefix: (
            [axis] if depth == 0 else [unit_factor(tf, c * prefix[0]) for tf in others]
        )

    # the cell where |x| realizes the max is the inner factors at r = 1
    at_x = lambda depth, prefix: [unit_factor(tf, np.array([c])) for tf in fs]  # noqa: E731

    def run(qspec: QuadSpec) -> Estimate:
        ests = [quad_nested(at_x, 1, qspec.at_depth(1))]
        for j, tfj in enumerate(fs):
            others = [tf for i, tf in enumerate(fs) if i != j]
            ests.append(quad_nested(cell(tfj, others), 2, qspec))
        value = sum(e.value for e in ests)
        return Estimate(value, 0.0, sum(e.n_samples for e in ests), Method.QUAD)

    return _conv_factor(spec) * sphere_measure(spec.dim) ** m, run


def _hilbert_quad(spec: OperatorSpec, fs: Sequence[TestFunction], c: float) -> QuadPath:
    """Sum-kernel quadrature of the radial integral
    ``int prod g_i(c t_i^{1/Q}) (1 + sum t)^{-m} dt`` (``t_i = r_i^Q``), the
    Dirichlet-type integral with ``beta_i = alpha_i / Q`` and the
    modulations read at gauge ``c t_i^{1/Q}``."""
    Q, m, alphas = spec.dim.Q, spec.m, spec.profile.alphas
    mods = [
        None if tf.modulation is None else (lambda t, mod=tf.modulation: mod(c * t ** (1.0 / Q)))
        for tf in fs
    ]
    break_ts = [[(b / c) ** Q for b in tf.breakpoints if b > 0.0] for tf in fs]
    betas = [a / Q for a in alphas]
    scale = _conv_factor(spec) * (sphere_measure(spec.dim) / Q) ** m * c ** -math.fsum(alphas)
    return scale, lambda qspec: quad_dirichlet(m, betas, qspec, modulations=mods, points=break_ts)


def _kernel_quad(
    kernel: KernelSpec, spec: OperatorSpec, fs: Sequence[TestFunction], c: float
) -> QuadPath:
    """General-kernel quadrature over the simplex ball scaled to the kernel's
    support when it has one, else over the positive orthant.

    On the orthant the outer gauge decays as ``r^{-1-a}``, ``a = sum alpha``,
    whatever the kernel (by its homogeneity), and the orthant's ``t/(1-t)``
    map turns that into ``(1-t)^{a-1}``, an endpoint power no rule resolves
    when ``a < 1``.  There the outer axis is ``v = b (r / b)^a`` instead
    (``b`` the base gauge), whose integrand decays as ``v^{-2}``, as
    ``_hlp_quad`` integrates its outer gauge in a power of ``r``."""
    Q, m = spec.dim.Q, spec.m
    base = kernel.base_gauge
    s = 1.0 if kernel.simplex_support is None else kernel.simplex_support * base
    a = math.fsum(tf.alpha_j for tf in fs)
    stretch = kernel.simplex_support is None and a < 1.0

    def integrand(*us: np.ndarray) -> np.ndarray:
        rs = [s * u for u in us]
        jac = 1.0
        if stretch:
            # r = b (v / b)^{1/a}, dr = r dv / (a v)
            rs[0] = base * (us[0] / base) ** (1.0 / a)
            jac = rs[0] / (a * us[0])
        out = kernel.radial_profile(base, *rs) * jac
        for tf, r in zip(fs, rs):
            out = out * tf.power_weighted(c, r, Q - 1)
        return out * s**m

    if kernel.simplex_support is None:
        domain = Domain.POSITIVE_ORTHANT
        pts = [[base] + _radial_breaks(tf, c, 0.0, math.inf) for tf in fs]
        if stretch:
            pts[0] = [base * (r / base) ** a for r in pts[0]]
    else:
        domain = Domain.SIMPLEX_BALL
        pts = [_radial_breaks(tf, c * s, 0.0, 1.0) for tf in fs]
    scale = _conv_factor(spec) * sphere_measure(spec.dim) ** m
    return scale, lambda qspec: quad_tensor(integrand, m, domain, qspec, points=pts)


def hardy_kernel(
    dim: GroupDim, m: int, convention: Convention = Convention.GEOMETRIC
) -> KernelSpec:
    """Kernel profile of the averaging operator:
    ``chi(sum r_i^2 < r0^2) / (Omega^m r0^{mQ})``."""
    om = unit_ball_volume(dim, convention) ** m
    Q = dim.Q

    def profile(r0: np.ndarray, *rs: np.ndarray) -> np.ndarray:
        r0 = np.asarray(r0, dtype=float)
        ss = sum(np.asarray(r, dtype=float) ** 2 for r in rs)
        return np.where(ss < r0**2, 1.0 / (om * r0 ** (m * Q)), 0.0)

    return KernelSpec(profile, -float(m * Q), simplex_support=1.0)


def hlp_kernel(dim: GroupDim, m: int) -> KernelSpec:
    """Max-kernel profile ``max(r0, r_1, ..., r_m)^{-mQ}``."""
    Q = dim.Q

    def profile(r0: np.ndarray, *rs: np.ndarray) -> np.ndarray:
        gmax = np.asarray(r0, dtype=float)
        for r in rs:
            gmax = np.maximum(gmax, np.asarray(r, dtype=float))
        return gmax ** (-float(m * Q))

    return KernelSpec(profile, -float(m * Q))


def hilbert_kernel(dim: GroupDim, m: int) -> KernelSpec:
    """Sum-kernel profile ``(r0^Q + sum r_i^Q)^{-m}``."""
    Q = dim.Q

    def profile(r0: np.ndarray, *rs: np.ndarray) -> np.ndarray:
        denom = np.asarray(r0, dtype=float) ** Q
        for r in rs:
            denom = denom + np.asarray(r, dtype=float) ** Q
        return denom ** (-float(m))

    return KernelSpec(profile, -float(m * Q))


@dataclass(frozen=True)
class Operator:
    """Everything that is particular to one operator kind.

    ``kernel(spec)`` gives its kernel profile, which the general-kernel
    quadrature path and the Monte Carlo engine integrate.  The named kinds
    also carry ``closed_form(spec)``, their sharp constant, and
    ``evaluator``, their public ``eval_*`` function.  ``quad(spec, fs, c)``,
    held by hlp and hilbert only, is a radial quadrature fast path at an
    evaluation point of gauge ``c``; hardy and general kernels have none.
    """

    kernel: Callable[[OperatorSpec], KernelSpec]
    closed_form: Callable[[OperatorSpec], ConstantResult] | None = None
    evaluator: Callable[..., Estimate] | None = None
    quad: Callable[[OperatorSpec, Sequence[TestFunction], float], QuadPath] | None = None


OPERATORS: dict[OperatorKind, Operator] = {
    OperatorKind.KERNEL: Operator(lambda spec: spec.kernel),
    OperatorKind.HARDY: Operator(
        lambda spec: hardy_kernel(spec.dim, spec.m, spec.convention),
        lambda spec: hardy_constant(spec.dim, spec.profile, spec.convention),
        eval_hardy,
    ),
    OperatorKind.HLP: Operator(
        lambda spec: hlp_kernel(spec.dim, spec.m),
        lambda spec: hlp_constant(spec.dim, spec.profile, spec.convention),
        eval_hlp,
        _hlp_quad,
    ),
    OperatorKind.HILBERT: Operator(
        lambda spec: hilbert_kernel(spec.dim, spec.m),
        lambda spec: hilbert_constant(spec.dim, spec.profile, spec.convention),
        eval_hilbert,
        _hilbert_quad,
    ),
}
