"""Verification harness.

Compares every closed-form sharp constant against two independent numeric
oracles, checks that the extremal power functions attain the operator norm,
searches for violations of the norm upper bound over random modulated test
tuples, and assembles the convention-discrepancy report.

Oracle independence: the Monte Carlo oracle samples each factor of the
m-tuple in gauge-polar coordinates, from a proposal built only of 1-D
power-law masses and the Euclidean sphere constant |S^{2n-1}| = 2 pi^n /
Gamma(n).  It shares no ball-volume or Heisenberg sphere constant with the
closed forms it checks, which is what arbitrates the volume-convention
question.

Each factor draws a gauge g from a two-piece power law (density
proportional to g^{Q-1-alpha} below 1 and g^{-1-alpha} above;
``integrate.two_piece_gauges``, the law the operators' Monte Carlo engine
draws from too) and an angle theta uniform on (-pi/2, pi/2).  A unit
vector omega would complete the point (g cos^{1/2}(theta) omega, g^2 sin
theta), whose gauge is g whatever omega is; since every integrand the
oracle sees depends on a point only through its gauge, no omega is drawn.
The coordinate density follows from rho^{2n-1} d rho dt = g^{Q-1}
cos^{n-1}(theta) dg dtheta; the Heisenberg factor int cos^{n-1}(theta)
dtheta is estimated by the sampler, never used as a number.  The weight is formed in log space and
exponentiated once per sample, kernel included.

At n = m = 1 the hlp and averaging weights are constant, and their
variance cancels to 0; ``reduce_partials`` floors it at its own rounding,
so their std error is about 1.5e-11 relative at 10^6 samples, not 0.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .hgroup import (
    Convention,
    GroupDim,
    HPoint,
    dilate,
    unit_ball_volume,
)
from .integrate import (
    ChunkPartial,
    Estimate,
    Method,
    QuadSpec,
    SeededStream,
    mc_chunk_partials,
    quad_dirichlet,
    reduce_partials,
    rejection_volume_estimate,
    row_blocks,
    sample_sphere_direction,
    two_piece_gauges,
)
from .operators import (
    OPERATORS,
    Engine,
    OperatorSpec,
    QuadEngine,
    TestFunction,
    hardy_kernel,
    weighted_norm,
)
from .specfun import i_m_closed, i_m_recursive

__all__ = [
    "DiscrepancyReport",
    "SearchReport",
    "VerificationReport",
    "discrepancy_report",
    "oracle_record",
    "spec_record",
    "upper_bound_search",
    "verify_constant",
    "verify_extremal",
]

_EVALUATORS = {kind: op.evaluator for kind, op in OPERATORS.items() if op.evaluator is not None}


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
    wall_time_s: float
    details: dict = field(default_factory=dict)
    # verify_constant's Monte Carlo oracle reduced over its first 1, 2, 4, ... chunks
    convergence: list[tuple[int, float, float, float]] = field(default_factory=list, repr=False)

    def to_record(self) -> dict:
        oracles = []
        if self.oracle_quad is not None:
            oracles.append(oracle_record(self.oracle_quad, rel_err=self.rel_err_quad))
        if self.oracle_mc is not None:
            # 3 sigma relative to the closed form: the smallest relative
            # error this oracle can detect
            resolution = 3.0 * self.oracle_mc.std_error / abs(self.closed_form)
            oracles.append(
                oracle_record(
                    self.oracle_mc, sigma_distance=self.sigma_distance_mc, resolution=resolution
                )
            )
        return {
            "spec": spec_record(self.spec),
            "convention": self.spec.convention.value,
            "closed_form": self.closed_form,
            "oracles": oracles,
            "pass": self.passed,
            "seed": self.seed,
            "details": self.details,
        }


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

    def to_record(self) -> dict:
        return {
            "spec": spec_record(self.spec),
            "convention": self.spec.convention.value,
            "bound": self.bound,
            "trials": self.trials,
            "max_ratio": self.max_ratio,
            "attaining_description": self.attaining_description,
            "violations": self.violations,
            "pass": self.violations == 0,
            "seed": self.seed,
            "details": self.details,
        }


@dataclass(frozen=True)
class DiscrepancyReport:
    text: str
    findings: list[dict]


def oracle_record(est: Estimate, **extra: float | None) -> dict:
    """Report record of one oracle estimate, with its comparison figures."""
    return {
        "method": est.method.value,
        "value": est.value,
        "std_error": est.std_error,
        "n_samples": est.n_samples,
        **extra,
    }


def spec_record(spec: OperatorSpec) -> dict:
    return {
        "operator": spec.kind.value,
        "n": spec.dim.n,
        "m": spec.m,
        "alphas": list(spec.profile.alphas),
    }


# ----------------------------------------------------------------------------
# Raw Cartesian Monte Carlo oracle
# ----------------------------------------------------------------------------


def _gauge_polar(
    u: np.ndarray, alpha: float, n: int, compact: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Gauges and log weights of one factor, from its uniforms ``u`` of
    shape (rows, 2).

    Column 0 gives the gauge ``g`` through ``integrate.two_piece_gauges``,
    the gauge law of the operators' Monte Carlo engine: density
    ``g^{Q-1-alpha} / M`` below 1 and ``g^{-1-alpha} / M`` above, whose
    outer piece ``compact`` drops.

    Column 1 gives ``theta = pi (x - 1/2)``, uniform on (-pi/2, pi/2); only
    ``cos theta = sin(pi x)`` is used.  With ``omega`` uniform on S^{2n-1},
    the point ``(g cos^{1/2}(theta) omega, g^2 sin theta)`` has gauge ``g``
    and, since ``rho^{2n-1} d rho dt = g^{Q-1} cos^{n-1}(theta) dg dtheta``,
    coordinate density ``q = p(g) / (pi |S^{2n-1}| g^{Q-1} cos^{n-1} theta)``.
    The log weight returned is ``log(g^{-alpha} / q)``:
    ``log(pi |S^{2n-1}| M cos^{n-1} theta)``, plus ``Q log g`` on the outer
    piece.  No ``omega`` is drawn: the integrands see a point only through
    its gauge.
    """
    log_g, log_w, mass = two_piece_gauges(u[:, 0], alpha, 2 * n + 2, compact)
    # log(pi |S^{2n-1}| M), with |S^{2n-1}| = 2 pi^n / Gamma(n)
    log_w += math.log(2.0 * mass) + (n + 1) * math.log(math.pi) - math.lgamma(n)
    if n > 1:
        # cos theta = sin(pi w), w = min(x, 1 - x), as 2 tau / (1 + tau^2)
        # with tau = tan(pi w / 2): tan on [0, pi/4] keeps full relative
        # precision and is far cheaper than sin on [0, pi]
        tau = np.minimum(u[:, 1], 1.0 - u[:, 1])
        tau *= 0.5 * math.pi
        np.tan(tau, out=tau)
        cos = tau * tau
        cos += 1.0
        np.divide(tau, cos, out=cos)
        cos *= 2.0
        with np.errstate(divide="ignore"):
            log_w += (n - 1) * np.log(cos, out=cos)
    return np.exp(log_g, out=log_g), log_w


def _cartesian_values_fn(
    spec: OperatorSpec,
) -> Callable[[np.random.Generator, int], np.ndarray]:
    """Weighted samples of the constant-defining integral
    ``int K(e_1, y) prod |y_i|^{-alpha_i} dy`` with the kernel taken under
    ``spec``'s convention; the oracle's callers pass the GEOMETRIC one.

    Each factor makes one draw, ``gen.random((size, 2))``, in factor order:
    its gauge and its angle theta, turned into the factor's gauge and log
    weight by ``_gauge_polar``.  The chunk's draws all come first; the
    arithmetic then runs in row blocks (``row_blocks``).  The weight
    ``K(1, g_1..g_m) prod_i g_i^{-alpha_i} / q_i`` is formed in log space
    and exponentiated once per sample.
    """
    n = spec.dim.n
    alphas = spec.profile.alphas
    kernel = OPERATORS[spec.kind].kernel(spec)
    # tuple-ball integrands vanish unless every gauge is below 1, so their
    # proposal takes no outer piece
    compact = kernel.simplex_support is not None

    def values_fn(gen: np.random.Generator, size: int) -> np.ndarray:
        uniforms = [gen.random((size, 2)) for _ in alphas]

        def block(rows: slice) -> np.ndarray:
            log_w = np.zeros(rows.stop - rows.start)
            gauges = []
            for a, u in zip(alphas, uniforms):
                g, log_wi = _gauge_polar(u[rows], a, n, compact)
                log_w += log_wi
                gauges.append(g)
            # the kernel folded into the one exponential: a weight that
            # overflows where the kernel underflows to 0 then gives 0, not
            # inf * 0; far in the tail the kernel's own powers overflow on
            # the way to that 0
            with np.errstate(divide="ignore", over="ignore"):
                log_w += np.log(kernel.radial_profile(1.0, *gauges))
            return np.exp(log_w, out=log_w)

        return row_blocks(size, block)

    return values_fn


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


def _default_tol(m: int) -> float:
    return 1e-10 if m == 1 else 1e-6


def verify_constant(
    spec: OperatorSpec,
    n_samples: int = 1_000_000,
    seed: int = 0,
    tol: float | None = None,
    workers: int = 1,
    quad: QuadSpec | None = None,
) -> VerificationReport:
    """Compare the closed-form constant against both numeric oracles.

    Quadrature (radial reduction, m <= 2) must match within ``tol``;
    Cartesian Monte Carlo must land within 3 standard errors.  Both oracles
    and the closed form are taken under the GEOMETRIC convention, since the
    Monte Carlo oracle measures true Lebesgue integrals.

    ``details["verdict"]`` is ``"pass"``, ``"fail"`` or, when the oracles
    agree but 3 Monte Carlo standard errors span the gap between the
    geometric and the paper-convention constant (a factor 2^m for hlp and
    hilbert, none for hardy), ``"inconclusive"``: such an oracle cannot tell
    the two conventions apart, so its agreement is no pass.
    """
    start = time.perf_counter()
    spec = replace(spec, convention=Convention.GEOMETRIC)
    tol = _default_tol(spec.m) if tol is None else tol
    closed = spec.constant().value

    oracle_quad = None
    rel_err = None
    if spec.m <= 2:
        quad_spec = quad or QuadSpec(rel_tol=1e-12 if spec.m == 1 else 1e-9, abs_tol=1e-14)
        fs = [TestFunction.extremal(a) for a in spec.profile.alphas]
        e1 = HPoint.of(spec.dim, [1.0] + [0.0] * (spec.dim.ambient - 1))
        oracle_quad = _EVALUATORS[spec.kind](fs, e1, spec, QuadEngine(quad_spec))
        rel_err = abs(oracle_quad.value - closed) / abs(closed)

    mc_chunks = _cartesian_mc(spec, n_samples, SeededStream(seed), workers)
    oracle_mc = reduce_partials(mc_chunks)[0]
    if oracle_mc.std_error > 0.0:
        sigma = (oracle_mc.value - closed) / oracle_mc.std_error
    else:
        sigma = 0.0 if oracle_mc.value == closed else math.inf

    paper = replace(spec, convention=Convention.PAPER_FORMULA).constant().value
    gap = abs(paper - closed)
    if not ((rel_err is None or rel_err <= tol) and abs(sigma) <= 3.0):
        verdict = "fail"
    elif gap > 0.0 and 3.0 * oracle_mc.std_error >= gap:
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
        wall_time_s=time.perf_counter() - start,
        details={"tol": tol, "mc_sampler": "gauge-polar", "verdict": verdict},
        convergence=_prefix_rows(mc_chunks, closed),
    )


def verify_extremal(
    spec: OperatorSpec,
    gauges: Sequence[float] = (0.5, 1.0, 2.0, 10.0),
    directions: int = 5,
    seed: int = 0,
    tol: float = 1e-6,
    engine: Engine | None = None,
) -> VerificationReport:
    """Check that the extremal powers attain the closed-form constant.

    Evaluates ``gauge(x)^alpha * T(extremals)(x)`` on a grid of gauges times
    random sphere directions; passes when the spread is at most ``tol`` and
    the mean matches the constant (within ``tol`` for quadrature, 3 sigma
    for Monte Carlo).
    """
    start = time.perf_counter()
    closed = spec.constant().value
    alpha = spec.profile.total
    fs = [TestFunction.extremal(a) for a in spec.profile.alphas]
    engine = engine or QuadEngine(QuadSpec(rel_tol=1e-9, abs_tol=1e-13))
    evaluator = _EVALUATORS[spec.kind]

    dirs = sample_sphere_direction(spec.dim, SeededStream(seed), size=directions)
    values = []
    errors = []
    n_total = 0
    for k in range(directions):
        theta = HPoint.of(spec.dim, dirs[k])
        for g in gauges:
            x = dilate(float(g), theta)
            est = evaluator(fs, x, spec, engine)
            values.append(float(g) ** alpha * est.value)
            errors.append(float(g) ** alpha * est.std_error)
            n_total += est.n_samples
    values = np.asarray(values)
    mean = float(values.mean())
    spread = float((values.max() - values.min()) / abs(closed))
    rel_err = abs(mean - closed) / abs(closed)

    if isinstance(engine, QuadEngine):
        oracle = Estimate(mean, 0.0, n_total, Method.QUAD)
        sigma = None
        passed = spread <= tol and rel_err <= tol
        report_rel = rel_err
    else:
        # every evaluation draws the same engine stream, so their errors are
        # fully correlated: averaging them does not shrink the error
        pooled = float(np.mean(errors))
        oracle = Estimate(mean, pooled, n_total, Method.MC)
        sigma = (mean - closed) / pooled if pooled > 0 else 0.0
        passed = spread <= tol and abs(sigma) <= 3.0
        report_rel = None
    return VerificationReport(
        spec=spec,
        closed_form=closed,
        oracle_quad=oracle if isinstance(engine, QuadEngine) else None,
        oracle_mc=None if isinstance(engine, QuadEngine) else oracle,
        rel_err_quad=report_rel,
        sigma_distance_mc=sigma,
        passed=passed,
        seed=seed,
        wall_time_s=time.perf_counter() - start,
        details={
            "tol": tol,
            "spread": spread,
            "gauges": list(map(float, gauges)),
            "directions": directions,
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
    quad: QuadSpec | None = None,
) -> SearchReport:
    """Search for violations of ``value <= constant * prod norms``.

    Trial 0 is always the constant-1 modulation (the attainment case); the
    remaining trials draw random step-function modulations with plateau
    edges on a coarse lattice, so their weighted norms are exact maxima of
    finitely many plateau values.
    """
    bound = spec.constant().value
    alpha = spec.profile.total
    quad = quad or QuadSpec(rel_tol=1e-7, abs_tol=1e-12)
    engine = QuadEngine(quad)
    evaluator = _EVALUATORS[spec.kind]
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
        theta = HPoint.of(spec.dim, [1.0] + [0.0] * (spec.dim.ambient - 1))
        x = dilate(g, theta)
        value = evaluator(fs, x, spec, engine).value
        norms = math.prod(weighted_norm(f, a, spec.dim) for f, a in zip(fs, spec.profile.alphas))
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
        est = rejection_volume_estimate(dim, n_samples, SeededStream(seed, idx), workers)
        geom = unit_ball_volume(dim, Convention.GEOMETRIC)
        tab = unit_ball_volume(dim, Convention.PAPER_FORMULA)
        sigma_geom = (est.value - geom) / est.std_error if est.std_error else 0.0
        ratio_mc = tab / est.value
        sigma_ratio = (est.value - 0.5 * tab) / est.std_error if est.std_error else 0.0
        ok = abs(sigma_geom) <= 3.0
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
                "ratio_tabulated_over_mc": ratio_mc,
                "sigma_mc_vs_geometric": sigma_geom,
                "sigma_mc_vs_half_tabulated": sigma_ratio,
                "pass": ok,
            }
        )
        lines.append(
            f"n={n}: MC unit-ball volume {est.value:.6f} +/- {est.std_error:.2e} "
            f"matches geometric {geom:.6f} ({sigma_geom:+.2f} sigma); tabulated "
            f"{tab:.6f} is {tab / geom:.3f}x the geometric value -> factor-2 flagged"
        )

    probe_alpha, probe_betas = 2.0, (0.5, 0.5)
    closed = i_m_closed(probe_alpha, probe_betas)
    recur = i_m_recursive(probe_alpha, probe_betas)
    quad_spec = QuadSpec(rel_tol=1e-9, abs_tol=1e-13)
    quad_value = quad_dirichlet(probe_alpha, probe_betas, quad_spec).value
    agree = abs(closed - recur) <= 1e-12 * abs(closed) and abs(
        closed - quad_value
    ) <= 1e-6 * abs(closed)
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

    dim = GroupDim(1)
    m = 2
    kern = hardy_kernel(dim, m)
    gen = SeededStream(seed, 999).generator()
    probes = []
    for _ in range(5):
        r0 = float(gen.uniform(0.8, 1.6))
        rs = gen.uniform(0.1, 0.5, m)
        t = float(gen.uniform(0.5, 2.0))
        base = float(np.asarray(kern.radial_profile(r0, *rs)))
        scaled = float(np.asarray(kern.radial_profile(t * r0, *(t * rs))))
        probes.append(
            {
                "t": t,
                "ratio_under_mQ": scaled * t ** (m * dim.Q) / base,
                "ratio_under_mn": scaled * t ** (m * dim.n) / base,
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
