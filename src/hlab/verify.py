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

Each factor draws a gauge g from a two-piece power law (density
proportional to g^{Q-1-alpha} below 1 and g^{-1-alpha} above;
``integrate.two_piece_gauges``, the law the operators' Monte Carlo engine
draws from too) and an angle.  A unit vector omega would complete the point
(g cos^{1/2}(theta) omega, g^2 sin theta), whose gauge is g whatever omega
is; since every integrand the oracle sees depends on a point only through
its gauge, no omega is drawn.  The coordinate density follows from
rho^{2n-1} d rho dt = g^{Q-1} cos^{n-1}(theta) dg dtheta.  At n = 1,
cos^0(theta) = 1, theta would be uniform on (-pi/2, pi/2) and is not drawn.
At n >= 2 the angle is s = sin theta, uniform on (-1, 1), and the factor is
(1 - s^2)^{(n-2)/2} ds: 1 at n = 2, where s is not drawn either.  The
Heisenberg factor int cos^{n-1}(theta) dtheta is estimated by the sampler,
never used as a number; where no angle is drawn, it enters only as the
length of the angle's range, pi at n = 1 and 2 at n = 2.  The weight is
formed in log space, the kernel's log profile at the log gauges included,
and exponentiated once per sample.

At n <= 2, m = 1 the hlp and averaging weights are constant, and their
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
    row_blocks,
    two_piece_gauges,
)
from .operators import (
    OPERATORS,
    Engine,
    OperatorSpec,
    QuadEngine,
    TestFunction,
    hardy_kernel,
    hilbert_kernel,
    kernel_constant,
    weighted_norm,
)
from .specfun import AlphaProfile, i_m_closed, i_m_recursive

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
) -> tuple[np.ndarray, np.ndarray | float]:
    """Log gauges and log weights of one factor, from its uniforms ``u`` of
    shape (rows, 2), or (rows, 1) at n <= 2.

    Column 0 gives the gauge ``g`` through ``integrate.two_piece_gauges``,
    the gauge law of the operators' Monte Carlo engine: density
    ``g^{Q-1-alpha} / M`` below 1 and ``g^{-1-alpha} / M`` above, whose
    outer piece ``compact`` drops.

    With ``omega`` uniform on S^{2n-1}, the point ``(g cos^{1/2}(theta)
    omega, g^2 sin theta)`` has gauge ``g``, and ``rho^{2n-1} d rho dt =
    g^{Q-1} cos^{n-1}(theta) dg dtheta``.  At n = 1, ``theta`` is uniform on
    (-pi/2, pi/2) and ``cos^0 theta = 1``, so it is not drawn.  At n >= 2
    the angle is ``s = sin theta``, uniform on (-1, 1): since ``ds = cos
    theta dtheta``, the Jacobian is ``g^{Q-1} (1 - s^2)^{(n-2)/2} dg ds``.
    Column 1 gives ``s = 2x - 1``, so ``1 - s^2 = 4x(1 - x)``; at n = 2 the
    factor is 1 and there is no column 1.  The coordinate density is ``q =
    p(g) / (L |S^{2n-1}| g^{Q-1} J)``, with ``L`` the length of the angle's
    range (``pi``, or 2 for ``s``) and ``J`` the angular factor above, and
    the log weight returned is ``log(g^{-alpha} / q)``: ``log(L |S^{2n-1}|
    M J)``, plus ``Q log g`` on the outer piece.  It is a float where it is
    the same for every row: on the compact law at n <= 2.  No ``omega`` is
    drawn: the integrands see a point only through its gauge.
    """
    log_g, log_q, mass = two_piece_gauges(u[:, 0], alpha, 2 * n + 2, compact)
    # |S^{2n-1}| = 2 pi^n / Gamma(n)
    if n == 1:
        log_c = math.log(2.0 * mass) + 2.0 * math.log(math.pi)
    else:
        # log(2 |S^{2n-1}| M), and (n - 2) log 2 of (n - 2)/2 log(4x(1 - x))
        log_c = (
            math.log(4.0 * mass) + n * math.log(math.pi) - math.lgamma(n) + (n - 2) * math.log(2.0)
        )
    # the compact law has no outer powers: at n <= 2 its weight is log_c alone
    log_w = log_c if log_q is None else np.add(log_q, log_c, out=log_q)
    if n > 2:
        # 1 - x is exact where x is near 1, so x(1 - x) keeps its relative
        # precision at both ends
        j = 1.0 - u[:, 1]
        j *= u[:, 1]
        with np.errstate(divide="ignore"):
            np.log(j, out=j)
        j *= 0.5 * (n - 2)
        log_w = np.add(log_w, j, out=j)
    return log_g, log_w


def _cartesian_values_fn(
    spec: OperatorSpec,
) -> Callable[[np.random.Generator, int, ChunkBuffers], np.ndarray]:
    """Weighted samples of the constant-defining integral
    ``int K(e_1, y) prod |y_i|^{-alpha_i} dy`` with the kernel taken under
    ``spec``'s convention; the oracle's callers pass the GEOMETRIC one.

    Each factor makes one draw in factor order: ``(size, 2)`` uniforms, its
    gauge and its angle ``s``, or at n <= 2, where the angle does not enter
    the weight, ``(size, 1)``, its gauge alone.  They are drawn into the
    chunk's ``ChunkBuffers``; ``_gauge_polar`` turns them into the factor's
    log gauge and log weight.  The chunk's draws all come first; the
    arithmetic then runs in row blocks (``row_blocks``).  The weight
    ``K(1, g_1..g_m) prod_i g_i^{-alpha_i} / q_i`` is the exponential of the
    factors' log weights plus the kernel's ``log_profile`` at the log
    gauges, one ``exp`` per sample: a factor's weight beyond the float range
    meets a kernel below it only in log space.
    """
    n = spec.dim.n
    alphas = spec.profile.alphas
    kernel = OPERATORS[spec.kind].kernel(spec)
    # tuple-ball integrands vanish unless every gauge is below 1, so their
    # proposal takes no outer piece
    compact = kernel.compact
    columns = 2 if n > 2 else 1

    def values_fn(gen: np.random.Generator, size: int, buffers: ChunkBuffers) -> np.ndarray:
        uniforms = [buffers.random(gen, (size, columns)) for _ in alphas]
        values = buffers.empty((size,))

        def block(rows: slice) -> np.ndarray:
            log_gauges, log_ws = zip(
                *(_gauge_polar(u[rows], a, n, compact) for a, u in zip(alphas, uniforms))
            )
            # the first factor's own weight starts the sum, in place; the
            # compact law's constant weights at n <= 2 add as floats
            log_w = log_ws[0]
            for log_wi in log_ws[1:]:
                log_w += log_wi
            # the rows' own slice of the output: row_blocks copies nothing
            log_w = np.add(log_w, kernel.log_profile(0.0, *log_gauges), out=values[rows])
            return np.exp(log_w, out=log_w)

        return row_blocks(values, block)

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


def _e1(dim: GroupDim) -> HPoint:
    """The point ``(1, 0, ..., 0)``, of gauge 1."""
    return HPoint.of(dim, [1.0] + [0.0] * (dim.ambient - 1))


def _default_tol(m: int) -> float:
    if m == 1:
        return 1e-10
    # at m = 3, 10x the quadrature oracle's rel_tol: hardy, hlp and hilbert
    # at n <= 6 all land within 5e-13 of their closed forms
    return 1e-8 if m == 3 else 1e-6


def verify_constant(
    spec: OperatorSpec,
    n_samples: int = 1_000_000,
    seed: int = 0,
    tol: float | None = None,
    workers: int = 1,
    quad: QuadSpec | None = None,
) -> VerificationReport:
    """Compare the closed-form constant against both numeric oracles.

    Quadrature (radial reduction, m <= 3) must match within ``tol``;
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
    # wherever the quadrature engine runs
    if spec.m <= 3:
        quad_spec = quad or QuadSpec(rel_tol=1e-12 if spec.m == 1 else 1e-9, abs_tol=1e-14)
        fs = [TestFunction.extremal(a) for a in spec.profile.alphas]
        oracle_quad = _EVALUATORS[spec.kind](fs, _e1(spec.dim), spec, QuadEngine(quad_spec))
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
    seed: int = 0,
    tol: float = 1e-6,
    engine: Engine | None = None,
) -> VerificationReport:
    """Check that the extremal powers attain the closed-form constant.

    Evaluates ``gauge(x)^alpha * T(extremals)(x)`` once per gauge ``g``, at
    ``x = delta_g(e_1)``, whose gauge is exactly ``g``.  The evaluators see
    ``x`` only through its gauge (the dilation identity), so other points
    of the same gauge would repeat the same integral; ``spread`` measures
    dilation invariance.  Passes when the spread is at most ``tol`` and the
    mean matches the constant (within ``tol`` for quadrature, 3 sigma for
    Monte Carlo).  ``seed`` draws nothing: it is the seed the report
    records.
    """
    start = time.perf_counter()
    closed = spec.constant().value
    alpha = spec.profile.total
    fs = [TestFunction.extremal(a) for a in spec.profile.alphas]
    engine = engine or QuadEngine(QuadSpec(rel_tol=1e-9, abs_tol=1e-13))
    evaluator = _EVALUATORS[spec.kind]

    e1 = _e1(spec.dim)
    values = []
    errors = []
    n_total = 0
    for g in map(float, gauges):
        est = evaluator(fs, dilate(g, e1), spec, engine)
        values.append(g**alpha * est.value)
        errors.append(g**alpha * est.std_error)
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
        value = evaluator(fs, dilate(g, _e1(spec.dim)), spec, engine).value
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
    # the sum-kernel constant on H^1 (Q = 4) at alpha = (2, 2) is
    # (omega_Q / Q)^2 I_2(2; 1/2, 1/2): t_i = r_i^Q, beta_i = alpha_i / Q
    dim = GroupDim(1)
    quad_value = kernel_constant(
        hilbert_kernel(dim, 2),
        dim,
        AlphaProfile.of(2.0, 2.0),
        QuadEngine(QuadSpec(rel_tol=1e-9, abs_tol=1e-13)),
    ).value / (sphere_measure(dim) / dim.Q) ** 2
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
