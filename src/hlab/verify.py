"""Verification harness.

Compares every closed-form sharp constant against two independent numeric
oracles, checks that the extremal power functions attain the operator norm
(one point per gauge: the evaluators see a point only through its gauge),
searches for violations of the norm upper bound over random modulated test
tuples, and assembles the convention-discrepancy report.

Oracle independence: the Monte Carlo oracle samples each factor of the
m-tuple in gauge-polar coordinates, from a proposal built only of 1-D
power-law masses and the Euclidean sphere constant |S^{2n-1}| = 2 pi^n /
Gamma(n).  It shares no ball-volume or Heisenberg sphere constant with the
closed forms it checks, which is what arbitrates the volume-convention
question.

The oracle runs on ``integrate.tilted_values``, the block of the
operators' Monte Carlo engine, which draws every factor's gauge g and, at
n > 2, its angle, all m factors of a chunk in one draw, and maps them by
one two-piece law over the (m, size) stack.  A unit vector omega would
complete the point (g cos^{1/2}(theta) omega, g^2 sin theta), whose gauge
is g whatever omega is; every integrand the oracle sees depends on a point
only through its gauge, so no omega is drawn.  The coordinate density follows from
rho^{2n-1} d rho dt = g^{Q-1} cos^{n-1}(theta) dg dtheta.  At n = 1,
cos^0(theta) = 1 and theta, uniform on (-pi/2, pi/2), is not drawn.  At
n >= 2 the angle is s = sin theta, uniform on (-1, 1), and the factor is
(1 - s^2)^{(n-2)/2} ds: the block's angle exponent (n - 2)/2, or at n = 2
no angle at all.  The Heisenberg factor int cos^{n-1}(theta) dtheta is
estimated by the sampler, never used as a number; it enters the polar
constant L |S^{2n-1}| of a factor only as the length L of the angle's
range, pi at n = 1 and 2 at n >= 2.

At n <= 2, m = 1 the hlp and averaging weights are constant, and their
variance cancels to 0; ``reduce_partials`` floors it at its own rounding,
so their std error is about 1.5e-11 relative at 10^6 samples, not 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .hgroup import (
    Convention,
    GroupDim,
    HPoint,
    dilate,
    sphere_measure,
    unit_ball_volume,
)
from .integrate import (
    ChunkBuffers,
    ChunkPartial,
    Estimate,
    Method,
    QuadSpec,
    SeededStream,
    mc_chunk_partials,
    reduce_partials,
    rejection_volume_estimate,
    tilted_values,
)
from .operators import (
    OPERATORS,
    OperatorSpec,
    QuadEngine,
    TestFunction,
    evaluate,
    hardy_kernel,
    hilbert_kernel,
    kernel_constant,
    weighted_norm,
)
from .specfun import AlphaProfile, i_m_closed, i_m_recursive

__all__ = [
    "DiscrepancyReport",
    "GaugeRangeError",
    "SearchReport",
    "VerificationReport",
    "discrepancy_report",
    "unit_ball_check",
    "upper_bound_search",
    "verify_constant",
    "verify_extremal",
]

class GaugeRangeError(ValueError):
    """An extremal-attainment gauge outside the floating-point range of the
    values there."""


@dataclass(frozen=True)
class VerificationReport:
    """Closed form vs. oracle(s) for one operator spec."""

    spec: OperatorSpec
    closed_form: float
    oracle_quad: Estimate | None
    oracle_mc: Estimate | None
    rel_err_quad: float | None
    sigma_distance_mc: float | None
    passed: bool
    seed: int
    details: dict = field(default_factory=dict)
    # verify_constant's Monte Carlo oracle reduced over its first 1, 2, 4, ... chunks
    convergence: list[tuple[int, float, float, float]] = field(default_factory=list, repr=False)

    @property
    def resolution(self) -> float | None:
        """3 Monte Carlo standard errors relative to the closed form: the
        smallest relative error the oracle can detect; None without a sigma
        distance."""
        if self.sigma_distance_mc is None:
            return None
        return 3.0 * self.oracle_mc.std_error / abs(self.closed_form)


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a random search for norm-bound violations."""

    spec: OperatorSpec
    trials: int
    max_ratio: float
    attaining_description: str
    bound: float
    violations: int
    seed: int
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DiscrepancyReport:
    text: str
    findings: list[dict]


# ----------------------------------------------------------------------------
# Raw Cartesian Monte Carlo oracle
# ----------------------------------------------------------------------------


def _cartesian_values_fn(
    spec: OperatorSpec,
) -> Callable[[np.random.Generator, int, ChunkBuffers], np.ndarray]:
    """Weighted samples of the constant-defining integral
    ``int K(e_1, y) prod |y_i|^{-alpha_i} dy`` with the kernel taken under
    ``spec``'s convention; the oracle's callers pass the GEOMETRIC one.

    ``integrate.tilted_values`` at the exponents as tilts, so that each
    law's ``g_i^{alpha_i}`` cancels ``|y_i|^{-alpha_i}`` and the log
    integrand is the kernel's log profile at base gauge 1.  A factor's
    polar constant is ``L |S^{2n-1}|``, and its angle exponent
    ``(n - 2)/2`` at n > 2 (module docstring).
    """
    n = spec.dim.n
    kernel = OPERATORS[spec.kind].kernel(spec)
    # L |S^{2n-1}| = L 2 pi^n / Gamma(n), with L = pi at n = 1 and 2 at n >= 2
    span = math.pi if n == 1 else 2.0
    log_polar = math.log(2.0 * span) + n * math.log(math.pi) - math.lgamma(n)
    return tilted_values(
        lambda log_gauges: kernel.log_profile(0.0, *log_gauges),
        spec.dim.Q,
        spec.profile.alphas,
        # tuple-ball kernels vanish unless every gauge is below 1
        compact=kernel.compact,
        log_polar=log_polar,
        angle=max(0.5 * (n - 2), 0.0),
    )


def _cartesian_mc(
    spec: OperatorSpec, n_samples: int, stream: SeededStream, workers: int = 1
) -> list[ChunkPartial]:
    """The oracle's chunk partials; ``reduce_partials`` turns them into its
    estimate."""
    return mc_chunk_partials(_cartesian_values_fn(spec), n_samples, stream, workers)


def _prefix_rows(
    chunks: Sequence[ChunkPartial], closed: float
) -> list[tuple[int, float, float, float]]:
    """Rows ``(n_samples, estimate, std_error, closed_form)`` of the oracle
    reduced over its first 1, 2, 4, ... chunks and over all of them."""
    counts = [1 << k for k in range((len(chunks) - 1).bit_length())] + [len(chunks)]
    rows = []
    for k in counts:
        est = reduce_partials(chunks[:k])[0]
        rows.append((est.n_samples, est.value, est.std_error, closed))
    return rows


# ----------------------------------------------------------------------------
# Constant and extremal verification
# ----------------------------------------------------------------------------


def _sigma_distance(est: Estimate, target: float) -> float | None:
    """How many standard errors a Monte Carlo estimate lies from ``target``;
    None at a std error of 0: an oracle that kept no sample (every value 0),
    or whose every square underflows, measured nothing."""
    return (est.value - target) / est.std_error if est.std_error > 0.0 else None


def unit_ball_check(
    dim: GroupDim, n_samples: int, stream: SeededStream, workers: int = 1
) -> tuple[Estimate, float | None, bool]:
    """The box-normalized Monte Carlo volume of the unit gauge ball, its
    sigma distance from the geometric volume (None when no sample fell in
    the ball) and whether it passes: within 3 sigma, never without one."""
    est = rejection_volume_estimate(dim, n_samples, stream, workers)
    sigma = _sigma_distance(est, unit_ball_volume(dim, Convention.GEOMETRIC))
    return est, sigma, sigma is not None and abs(sigma) <= 3.0


def _e1(dim: GroupDim) -> HPoint:
    """The point ``(1, 0, ..., 0)``, of gauge 1."""
    return HPoint.of(dim, [1.0] + [0.0] * (dim.ambient - 1))


# The quadrature oracle's error control at m = 1 and above, and the
# search's: a relative tolerance on every level (``QuadSpec``).
_UNARY_ORACLE_QUAD = QuadSpec(1e-12)
_ORACLE_QUAD = QuadSpec(1e-9)
_SEARCH_QUAD = QuadSpec(1e-7)


def _verdict_tol(quad: QuadSpec) -> float:
    """The relative error a quadrature verdict allows: every operator
    integrand is nonnegative, so m levels or factors that each meet
    ``_oracle_quad(quad, m)`` leave the value within about 3 ``rel_tol``,
    and 10 ``rel_tol`` is that bound with a margin."""
    return 10.0 * quad.rel_tol


def _oracle_quad(quad: QuadSpec, m: int) -> QuadSpec:
    """``quad`` with ``rel_tol`` times ``min(1, 3/m)``: m such errors make 3 of ``quad``'s."""
    return replace(quad, rel_tol=quad.rel_tol * min(1.0, 3.0 / m))


def verify_constant(
    spec: OperatorSpec,
    n_samples: int = 1_000_000,
    seed: int = 0,
    tol: float | None = None,
    workers: int = 1,
) -> VerificationReport:
    """Compare the closed-form constant against both numeric oracles.

    Quadrature (radial reduction, wherever ``QuadEngine.reaches`` the spec)
    must match within ``tol``, by default 10 times its ``rel_tol`` (1e-11 at
    m = 1, 1e-8 above); Cartesian Monte Carlo must land within 3 standard
    errors.  Both oracles and the closed form are taken under the GEOMETRIC
    convention, since the Monte Carlo oracle measures true Lebesgue integrals.

    ``details["verdict"]`` is ``"pass"``, ``"fail"`` or, when the oracles
    agree but 3 Monte Carlo standard errors span the gap between the
    geometric and the paper-convention constant (a factor 2^m for hlp and
    hilbert, none for hardy), ``"inconclusive"``: such an oracle cannot tell
    the two conventions apart, so its agreement is no pass.  A Monte Carlo
    oracle that kept no sample (every value 0, as when no tuple the
    averaging oracle draws falls in the tuple ball), or whose std error is
    0 (every square below the float range, as for hlp at n = 40, m = 6),
    has no sigma distance and no resolution; unless the quadrature oracle
    fails, the verdict is ``"inconclusive"``.
    """
    spec = replace(spec, convention=Convention.GEOMETRIC)
    quad = _UNARY_ORACLE_QUAD if spec.m == 1 else _ORACLE_QUAD
    tol = _verdict_tol(quad) if tol is None else tol
    closed = spec.constant()

    oracle_quad = None
    rel_err = None
    if QuadEngine.reaches(spec):
        engine = QuadEngine(_oracle_quad(quad, spec.m))
        fs = [TestFunction.extremal(a) for a in spec.profile.alphas]
        oracle_quad = evaluate(spec, fs, _e1(spec.dim), engine)
        rel_err = abs(oracle_quad.value - closed) / abs(closed)

    mc_chunks = _cartesian_mc(spec, n_samples, SeededStream(seed), workers)
    oracle_mc = reduce_partials(mc_chunks)[0]
    sigma = _sigma_distance(oracle_mc, closed)

    paper = replace(spec, convention=Convention.PAPER_FORMULA).constant()
    gap = abs(paper - closed)
    if not ((rel_err is None or rel_err <= tol) and (sigma is None or abs(sigma) <= 3.0)):
        verdict = "fail"
    elif sigma is None or (gap > 0.0 and 3.0 * oracle_mc.std_error >= gap):
        verdict = "inconclusive"
    else:
        verdict = "pass"
    return VerificationReport(
        spec=spec,
        closed_form=closed,
        oracle_quad=oracle_quad,
        oracle_mc=oracle_mc,
        rel_err_quad=rel_err,
        sigma_distance_mc=sigma,
        passed=verdict == "pass",
        seed=seed,
        details={"tol": tol, "verdict": verdict},
        convergence=_prefix_rows(mc_chunks, closed),
    )


def verify_extremal(
    spec: OperatorSpec,
    gauges: Sequence[float] = (0.5, 1.0, 2.0, 10.0),
    seed: int = 0,
    tol: float | None = None,
) -> VerificationReport:
    """Check that the extremal powers attain the closed-form constant.

    Evaluates ``gauge(x)^alpha * T(extremals)(x)`` by the quadrature
    oracle's engine once per gauge ``g``, at ``x = delta_g(e_1)``, whose
    gauge is exactly ``g``.  The evaluators see ``x`` only through its gauge
    (the dilation identity), so other points of the same gauge would repeat
    the same integral; ``spread`` measures dilation invariance.
    Passes when the spread and the relative error of the mean from the
    constant are both at most ``tol``, by default 10 times the engine's
    ``rel_tol`` (1e-8).  The report carries the mean as its one quadrature
    oracle.  ``seed`` draws nothing: it is the seed the report records.

    No gauge at all, then a spec beyond the quadrature engine's reach
    (``QuadEngine.reaches``), raise ``ValueError`` first.  A gauge ``g`` raises
    ``GaugeRangeError`` before anything is evaluated when ``g^alpha`` is
    outside the square root of the floating-point range (about 1e-154 to
    1e154), or the value there, ``closed * g^-alpha``, is not a normal float.
    """
    if len(gauges) == 0:
        raise ValueError("gauges must hold at least one gauge, got none")
    if not QuadEngine.reaches(spec):
        raise ValueError(
            "verify_extremal runs on the quadrature engine, which supports "
            f"m <= {QuadEngine.GENERAL_M}; got m = {spec.m}"
        )
    closed = spec.constant()
    alpha = spec.profile.total
    # an evaluation's nodes carry g^-alpha, so g^alpha keeps within the
    # square root of the float range, and the value there is a normal float
    half = 0.5 * math.log(sys.float_info.max)
    lo, hi = math.log(sys.float_info.min), math.log(sys.float_info.max)
    for g in map(float, gauges):
        power = alpha * math.log(g) if g > 0.0 else math.nan
        if not (abs(power) <= half and lo <= math.log(closed) - power <= hi):
            raise GaugeRangeError(
                f"at gauge {g!r}, g^{alpha:g} is outside the square root of the "
                f"floating-point range, or the value there, {closed:.6g} g^-{alpha:g}, "
                "is not a normal float"
            )
    fs = [TestFunction.extremal(a) for a in spec.profile.alphas]
    engine = QuadEngine(_oracle_quad(_ORACLE_QUAD, spec.m))
    tol = _verdict_tol(_ORACLE_QUAD) if tol is None else tol

    e1 = _e1(spec.dim)
    values = []
    n_total = 0
    for g in map(float, gauges):
        est = evaluate(spec, fs, dilate(g, e1), engine)
        values.append(g**alpha * est.value)
        n_total += est.n_samples
    values = np.asarray(values)
    mean = float(values.mean())
    spread = float((values.max() - values.min()) / abs(closed))
    rel_err = abs(mean - closed) / abs(closed)
    return VerificationReport(
        spec=spec,
        closed_form=closed,
        oracle_quad=Estimate(mean, 0.0, n_total, Method.QUAD),
        oracle_mc=None,
        rel_err_quad=rel_err,
        sigma_distance_mc=None,
        passed=spread <= tol and rel_err <= tol,
        seed=seed,
        details={
            "tol": tol,
            "spread": spread,
            "gauges": list(map(float, gauges)),
        },
    )


# ----------------------------------------------------------------------------
# Upper-bound search
# ----------------------------------------------------------------------------

_EDGE_LATTICE = np.logspace(-3.0, 3.0, 61)


def _random_step_function(gen: np.random.Generator, alpha_j: float) -> TestFunction:
    k = int(gen.integers(1, 5))
    edges = np.sort(gen.choice(_EDGE_LATTICE, size=k, replace=False))
    values = gen.uniform(0.05, 1.0, k + 1)
    return TestFunction.step(alpha_j, edges, values)


def upper_bound_search(
    spec: OperatorSpec,
    trials: int = 100,
    seed: int = 0,
    tol: float = 1e-3,
) -> SearchReport:
    """Search for violations of ``value <= constant * prod norms``.

    Trial 0 is always the constant-1 modulation (the attainment case); the
    remaining trials draw random step-function modulations with plateau
    edges on a coarse lattice, so their weighted norms are exact maxima of
    finitely many plateau values.  ``trials`` below 1 raises ``ValueError``.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    bound = spec.constant()
    alpha = spec.profile.total
    engine = QuadEngine(_SEARCH_QUAD)
    gen = SeededStream(seed).generator()

    max_ratio = -math.inf
    attaining = ""
    violations = 0
    for trial in range(trials):
        if trial == 0:
            fs = [TestFunction.extremal(a) for a in spec.profile.alphas]
            g = 1.0
        else:
            fs = [_random_step_function(gen, a) for a in spec.profile.alphas]
            g = float(gen.choice([0.5, 1.0, 2.0]))
        value = evaluate(spec, fs, dilate(g, _e1(spec.dim)), engine).value
        norms = math.prod(weighted_norm(f, a) for f, a in zip(fs, spec.profile.alphas))
        ratio = g**alpha * value / norms
        if ratio > max_ratio:
            max_ratio = ratio
            attaining = " * ".join(f.description for f in fs) + f" at gauge {g}"
        if ratio > bound * (1.0 + tol):
            violations += 1
    return SearchReport(
        spec=spec,
        trials=trials,
        max_ratio=max_ratio,
        attaining_description=attaining,
        bound=bound,
        violations=violations,
        seed=seed,
        details={"tol": tol},
    )


# ----------------------------------------------------------------------------
# Discrepancy report
# ----------------------------------------------------------------------------


def discrepancy_report(
    n_values: Sequence[int] = (1, 2),
    n_samples: int = 1_000_000,
    seed: int = 0,
    workers: int = 1,
) -> DiscrepancyReport:
    """Collect the numeric findings where the implemented formulas deviate
    from the tabulated ones.

    * unit-ball volume: the tabulated closed form is exactly twice the
      measured Lebesgue volume (checked by box-normalized Monte Carlo);
    * the product-integral closed form: the printed expression carries an
      unresolved symbol and a product where the recursion forces a sum; the
      corrected form agrees with both the recursion and quadrature;
    * kernel homogeneity: the averaging kernel scales with degree -mQ, not
      -mn.
    """
    findings: list[dict] = []
    lines: list[str] = []

    for idx, n in enumerate(n_values):
        dim = GroupDim(int(n))
        est, sigma, ok = unit_ball_check(dim, n_samples, SeededStream(seed, idx), workers)
        geom = unit_ball_volume(dim, Convention.GEOMETRIC)
        tab = unit_ball_volume(dim, Convention.PAPER_FORMULA)
        findings.append(
            {
                "id": "unit-ball-volume-factor-2",
                "n": int(n),
                "mc_volume": est.value,
                "mc_std_error": est.std_error,
                "mc_samples": est.n_samples,
                "geometric_volume": geom,
                "tabulated_volume": tab,
                "ratio_tabulated_over_geometric": tab / geom,
                "ratio_tabulated_over_mc": None if sigma is None else tab / est.value,
                "sigma_mc_vs_geometric": sigma,
                "sigma_mc_vs_half_tabulated": _sigma_distance(est, 0.5 * tab),
                "pass": ok,
            }
        )
        measured = (
            "measured nothing: no sample fell in the ball"
            if sigma is None
            else f"matches geometric {geom:.6f} ({sigma:+.2f} sigma)"
        )
        lines.append(
            f"n={n}: MC unit-ball volume {est.value:.6f} +/- {est.std_error:.2e} "
            f"{measured}; tabulated {tab:.6f} is {tab / geom:.3f}x the geometric "
            "value -> factor-2 flagged"
        )

    probe_alpha, probe_betas = 2.0, (0.5, 0.5)
    closed = i_m_closed(probe_alpha, probe_betas)
    recur = i_m_recursive(probe_alpha, probe_betas)
    # the sum-kernel constant on H^1 (Q = 4) at alpha = (2, 2) is
    # (omega_Q / Q)^2 I_2(2; 1/2, 1/2): t_i = r_i^Q, beta_i = alpha_i / Q
    dim = GroupDim(1)
    quad_value = kernel_constant(
        hilbert_kernel(dim, 2),
        dim,
        AlphaProfile.of(2.0, 2.0),
        QuadEngine(_ORACLE_QUAD),
    ).value / (sphere_measure(dim) / dim.Q) ** 2
    agree = abs(closed - recur) <= 1e-12 * abs(closed) and abs(
        closed - quad_value
    ) <= _verdict_tol(_ORACLE_QUAD) * abs(closed)
    findings.append(
        {
            "id": "product-integral-closed-form",
            "probe": {"alpha": probe_alpha, "betas": list(probe_betas)},
            "printed_form": "Gamma(alpha - k + prod beta_i): symbol k undefined; "
            "product where the recursion forces a sum",
            "corrected_form": "Gamma(alpha - m + sum beta_i)",
            "corrected_value": closed,
            "recursion_value": recur,
            "quadrature_value": quad_value,
            "pass": agree,
        }
    )
    lines.append(
        f"I_2(alpha=2, beta=1/2,1/2): corrected closed form {closed:.12f} matches "
        f"recursion {recur:.12f} and quadrature {quad_value:.12f}; the printed "
        "closed form is not evaluable (undefined symbol, product instead of sum)"
    )

    m = 2
    kern = hardy_kernel(dim, m)
    gen = SeededStream(seed, 999).generator()
    probes = []
    for _ in range(5):
        r0 = float(gen.uniform(0.8, 1.6))
        rs = gen.uniform(0.1, 0.5, m)
        t = float(gen.uniform(0.5, 2.0))
        logs = np.log([r0, *rs])
        log_t = math.log(t)
        # log K(t r) - log K(r), from which each degree's ratio is one exp
        log_ratio = float(kern.log_profile(*(logs + log_t)) - kern.log_profile(*logs))
        probes.append(
            {
                "t": t,
                "ratio_under_mQ": math.exp(log_ratio + m * dim.Q * log_t),
                "ratio_under_mn": math.exp(log_ratio + m * dim.n * log_t),
            }
        )
    ok = all(abs(p["ratio_under_mQ"] - 1.0) <= 1e-10 for p in probes)
    findings.append(
        {
            "id": "kernel-homogeneity-degree",
            "printed_degree": -m * dim.n,
            "required_degree": -m * dim.Q,
            "probes": probes,
            "pass": ok,
        }
    )
    lines.append(
        f"averaging-kernel homogeneity: probes scale exactly with degree -mQ={-m * dim.Q} "
        f"(printed -mn={-m * dim.n} fails by t^(m(Q-n)))"
    )

    return DiscrepancyReport(text="\n".join(lines), findings=findings)
