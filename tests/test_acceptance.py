"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import math

import numpy as np

from hlab.hgroup import (
    Convention,
    GroupDim,
    HPoint,
    distance,
    group_inv,
    group_mul,
    log_unit_ball_volume,
    origin,
    unit_ball_volume,
)
from hlab.integrate import (
    Axis,
    QuadSpec,
    SeededStream,
    mc_chunk_partials,
    quad_1d,
    quad_nested,
    reduce_partials,
    rejection_volume_estimate,
    tilted_values,
)
from hlab.operators import (
    McEngine,
    OperatorKind,
    OperatorSpec,
    QuadEngine,
    TestFunction,
    eval_hardy,
    eval_hilbert,
    eval_hlp,
    eval_kernel_op,
    hardy_kernel,
    hilbert_kernel,
    hlp_kernel,
)
from hlab.specfun import (
    AlphaProfile,
    beta_integral,
    hardy_constant,
    hilbert_constant,
    hlp_constant,
    hlp_region_values,
    i_m_closed,
    i_m_recursive,
)
from hlab.verify import (
    discrepancy_report,
    upper_bound_search,
    verify_constant,
    verify_extremal,
)

DIM1 = GroupDim(1)
E1 = HPoint.of(1, (1.0, 0.0, 0.0))


def criterion(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_group_axioms():
    worst_assoc = worst_inv = worst_tri = worst_left = 0.0
    for n in (1, 2, 3):
        dim = GroupDim(n)
        rng = np.random.default_rng(1000 + n)
        for _ in range(10_000):
            a, b, c = (HPoint.of(dim, rng.uniform(-10, 10, dim.ambient)) for _ in range(3))
            left = group_mul(group_mul(a, b), c)
            right = group_mul(a, group_mul(b, c))
            worst_assoc = max(
                worst_assoc, max(abs(x - y) for x, y in zip(left.coords, right.coords))
            )
            assert group_mul(a, origin(dim)) == a and group_mul(origin(dim), a) == a
            prod = group_mul(a, group_inv(a))
            worst_inv = max(worst_inv, max(abs(x) for x in prod.coords))
            worst_tri = max(worst_tri, distance(a, c) - distance(a, b) - distance(b, c))
            worst_left = max(
                worst_left,
                abs(distance(group_mul(c, a), group_mul(c, b)) - distance(a, b)),
            )
    ok = (
        worst_assoc <= 1e-9
        and worst_inv <= 1e-9
        and worst_tri <= 1e-10
        and worst_left <= 1e-10
    )
    criterion(
        1,
        ok,
        f"assoc {worst_assoc:.2e}, inverse {worst_inv:.2e}, "
        f"triangle {worst_tri:.2e}, left-invariance {worst_left:.2e} "
        f"over 10^4 triples per n in {{1,2,3}}",
    )


def test_criterion_2_geometry():
    est = rejection_volume_estimate(DIM1, 1_000_000, SeededStream(2026))
    geom = math.pi**2 / 2
    tab = unit_ball_volume(DIM1, Convention.PAPER_FORMULA)
    sigma_vol = abs(est.value - geom) / est.std_error
    sigma_ratio = abs(est.value - 0.5 * tab) / est.std_error
    rep = discrepancy_report(n_values=(1,), n_samples=200_000, seed=2)
    flagged = (
        rep.findings[0]["id"] == "unit-ball-volume-factor-2"
        and math.isclose(rep.findings[0]["ratio_tabulated_over_geometric"], 2.0, rel_tol=1e-12)
        and rep.findings[0]["pass"]
    )
    ok = sigma_vol <= 3.0 and sigma_ratio <= 3.0 and flagged
    criterion(
        2,
        ok,
        f"MC volume {est.value:.6f} vs pi^2/2 ({sigma_vol:.2f} sigma); "
        f"ratio to tabulated value 0.5 ({sigma_ratio:.2f} sigma); factor-2 flagged",
    )


def test_criterion_3_hardy_constants():
    quad = QuadEngine(QuadSpec(rel_tol=1e-12))
    checks = []

    closed1 = hardy_constant(1, AlphaProfile.of(1.0))
    est1 = eval_hardy(
        [TestFunction.extremal(1.0)], E1, OperatorSpec(OperatorKind.HARDY, DIM1, AlphaProfile.of(1.0)), quad
    )
    rel1 = abs(est1.value - closed1) / closed1
    checks.append(("m=1 rel", rel1 <= 1e-10, f"{rel1:.2e}"))
    checks.append(("m=1 value", math.isclose(closed1, 4.0 / 3.0, rel_tol=1e-14), "4/3"))

    prof2 = AlphaProfile.of(1.0, 1.0)
    closed2 = hardy_constant(1, prof2)
    est2 = eval_hardy(
        [TestFunction.extremal(1.0)] * 2, E1, OperatorSpec(OperatorKind.HARDY, DIM1, prof2), quad
    )
    rel2 = abs(est2.value - closed2) / closed2
    checks.append(("m=2 rel", rel2 <= 1e-6, f"{rel2:.2e}"))
    checks.append(("m=2 value", math.isclose(closed2, math.pi / 6, rel_tol=1e-14), "pi/6"))

    prof3 = AlphaProfile.of(0.5, 0.5, 0.5)
    closed3 = hardy_constant(1, prof3)
    mc3 = eval_hardy(
        [TestFunction.extremal(0.5)] * 3,
        E1,
        OperatorSpec(OperatorKind.HARDY, DIM1, prof3),
        McEngine(1_000_000, SeededStream(33)),
    )
    sigma3 = abs(mc3.value - closed3) / mc3.std_error
    checks.append(("m=3 MC", sigma3 <= 3.0, f"{sigma3:.2f} sigma"))

    bit_equal = all(
        hardy_constant(1, p, Convention.GEOMETRIC)
        == hardy_constant(1, p, Convention.PAPER_FORMULA)
        for p in (AlphaProfile.of(1.0), prof2, prof3)
    )
    checks.append(("convention bit-equal", bit_equal, "geometric == tabulated"))

    ok = all(c[1] for c in checks)
    criterion(3, ok, "; ".join(f"{name}: {note}" for name, _, note in checks))


def test_criterion_4_hlp_constants():
    rng = np.random.default_rng(44)
    worst_identity = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        Q = 2 * n + 2
        prof = AlphaProfile.of(*(rng.uniform(0.05, 0.95, m) * Q))
        total = math.fsum(hlp_region_values(n, prof))
        closed = hlp_constant(n, prof)
        worst_identity = max(worst_identity, abs(total - closed) / closed)

    quad = QuadEngine(QuadSpec(rel_tol=1e-11))
    prof1 = AlphaProfile.of(1.0)
    closed1 = hlp_constant(1, prof1)
    est1 = eval_hlp(
        [TestFunction.extremal(1.0)], E1, OperatorSpec(OperatorKind.HLP, DIM1, prof1), quad
    )
    rel1 = abs(est1.value - closed1) / closed1
    vr = verify_constant(
        OperatorSpec(OperatorKind.HLP, DIM1, prof1), n_samples=1_000_000, seed=4
    )
    sigma1 = abs(vr.sigma_distance_mc)

    prof2 = AlphaProfile.of(1.0, 1.0)
    closed2 = hlp_constant(1, prof2)
    est2 = eval_hlp(
        [TestFunction.extremal(1.0)] * 2, E1, OperatorSpec(OperatorKind.HLP, DIM1, prof2), quad
    )
    rel2 = abs(est2.value - closed2) / closed2

    ok = (
        worst_identity <= 1e-13
        and math.isclose(closed1, 8 * math.pi**2 / 3, rel_tol=1e-14)
        and rel1 <= 1e-8
        and sigma1 <= 3.0
        and rel2 <= 1e-6
    )
    criterion(
        4,
        ok,
        f"region-sum identity {worst_identity:.2e} over 50 specs; m=1: 8pi^2/3 "
        f"quad rel {rel1:.2e}, Cartesian MC {sigma1:.2f} sigma; m=2 rel {rel2:.2e}",
    )


def _beta_integral_quad(a: float, b: float) -> float:
    """Quadrature oracle for ``int_0^inf (1+t)^-a t^-b dt``.

    The map ``t = u/(1-u)`` gives ``int_0^1 u^-b (1-u)^{a+b-2} du``; power
    substitutions at each endpoint flatten both singularities exactly, so
    the adaptive rule sees smooth integrands only.
    """
    c = a + b - 2.0
    tight = QuadSpec(rel_tol=1e-12)
    p = 1.0 / (1.0 - b)
    left = p * quad_1d(
        lambda xi: (1.0 - np.asarray(xi) ** p) ** c, 0.0, 0.5 ** (1.0 / p), tight
    ).value
    q = 1.0 / (1.0 + c)
    right = q * quad_1d(
        lambda z: (1.0 - np.asarray(z) ** q) ** -b, 0.0, 0.5 ** (1.0 / q), tight
    ).value
    return left + right


def _product_integral_quad(alpha: float, betas: tuple[float, ...], rel: float = 1e-6) -> float:
    """Nested-quadrature oracle for the product power integral.

    Simplex map ``t_i = s_i/(1 - sum s)`` plus per-axis power substitutions;
    independent of the Gamma-function algebra it checks.
    """
    m = len(betas)
    ps = [1.0 / (1.0 - b) for b in betas]
    expo = alpha + math.fsum(betas) - m - 1.0
    taus = [expo + 1.0 + math.fsum(1.0 - b for b in betas[d + 1 :]) for d in range(m)]

    def level(depth: int, prefix: tuple) -> list[Axis]:
        # the nodes handed down from the level above are its remainders
        rest = prefix[-1] if prefix else np.ones(1)
        p, tau = ps[depth], taus[depth]
        ub = rest ** (1.0 - betas[depth])

        def pieces(xi, own):
            eta = xi ** (1.0 / tau)
            remainder = rest[own] * -np.expm1(p * np.log1p(-eta))
            jac = (ub[own] / tau) * xi ** (1.0 / tau - 1.0)
            return remainder, jac

        if depth == m - 1:

            def f(xi, own):
                remainder, jac = pieces(xi, own)
                ok = remainder > 0.0
                return np.where(ok, remainder, 1.0) ** expo * ok * jac

        else:

            def f(xi, own):
                remainder, jac = pieces(xi, own)
                return jac, remainder

        return [(f, 0.0, np.where(rest > 0.0, 1.0, 0.0), ())]

    return math.prod(ps) * quad_nested(level, m, QuadSpec(rel, max_subdivisions=8192)).value


def test_criterion_5_hilbert_constants():
    quad = QuadEngine(QuadSpec(rel_tol=1e-11))
    prof = AlphaProfile.of(2.0)
    closed = hilbert_constant(1, prof)
    est = eval_hilbert(
        [TestFunction.extremal(2.0)], E1, OperatorSpec(OperatorKind.HILBERT, DIM1, prof), quad
    )
    rel = abs(est.value - closed) / closed

    worst_beta = 0.0
    for a in np.linspace(1.2, 3.8, 5):
        for b in np.linspace(0.1, 0.9, 5):
            oracle = _beta_integral_quad(float(a), float(b))
            worst_beta = max(worst_beta, abs(beta_integral(a, b) - oracle) / oracle)

    worst_pair = worst_quad = 0.0
    probes = [(2.0, (0.5,)), (2.0, (0.5, 0.5)), (3.0, (0.5, 0.5, 0.5))]
    for a, bs in probes:
        closed_i = i_m_closed(a, bs)
        recur_i = i_m_recursive(a, bs)
        worst_pair = max(worst_pair, abs(closed_i - recur_i) / closed_i)
        oracle_i = _product_integral_quad(a, bs)
        worst_quad = max(worst_quad, abs(closed_i - oracle_i) / closed_i)

    ok = (
        math.isclose(closed, math.pi**3 / 2, rel_tol=1e-14)
        and rel <= 1e-8
        and worst_beta <= 1e-8
        and worst_pair <= 1e-12
        and worst_quad <= 1e-6
    )
    criterion(
        5,
        ok,
        f"pi^3/2 quad rel {rel:.2e}; Beta identity on 5x5 grid {worst_beta:.2e}; "
        f"closed vs recursive {worst_pair:.2e}; vs nested quadrature {worst_quad:.2e} "
        f"for m in {{1,2,3}}",
    )


def test_criterion_6_extremal_attainment():
    details = []
    ok = True
    for kind in (OperatorKind.HARDY, OperatorKind.HLP, OperatorKind.HILBERT):
        for prof in (AlphaProfile.of(1.0), AlphaProfile.of(1.0, 1.0)):
            spec = OperatorSpec(kind, DIM1, prof)
            vr = verify_extremal(spec, gauges=(0.5, 1.0, 2.0, 10.0), seed=6, tol=1e-6)
            ok = ok and vr.passed and vr.details["spread"] <= 1e-6
            details.append(f"{kind.value} m={prof.m}: {vr.details['spread']:.1e}")
    criterion(6, ok, "spreads " + ", ".join(details))


def test_criterion_7_upper_bound():
    details = []
    ok = True
    for kind in (OperatorKind.HARDY, OperatorKind.HLP, OperatorKind.HILBERT):
        spec = OperatorSpec(kind, DIM1, AlphaProfile.of(1.0, 1.0))
        sr = upper_bound_search(spec, trials=100, seed=7, tol=1e-3)
        attained = sr.max_ratio >= 0.999 * sr.bound
        ok = ok and sr.violations == 0 and attained
        details.append(
            f"{kind.value}: 0/{sr.trials} violations"
            if sr.violations == 0
            else f"{kind.value}: {sr.violations} VIOLATIONS"
        )
        details[-1] += f", max ratio {sr.max_ratio / sr.bound:.6f}x bound"
    criterion(7, ok, "; ".join(details))


def test_criterion_8_kernel_specialization():
    quad = QuadEngine(QuadSpec(rel_tol=1e-8))
    cases = [
        (OperatorKind.HARDY, eval_hardy, hardy_kernel, AlphaProfile.of(1.0)),
        (OperatorKind.HARDY, eval_hardy, hardy_kernel, AlphaProfile.of(1.0, 1.0)),
        (OperatorKind.HLP, eval_hlp, hlp_kernel, AlphaProfile.of(1.0)),
        (OperatorKind.HLP, eval_hlp, hlp_kernel, AlphaProfile.of(1.0, 1.0)),
        (OperatorKind.HILBERT, eval_hilbert, hilbert_kernel, AlphaProfile.of(2.0)),
        (OperatorKind.HILBERT, eval_hilbert, hilbert_kernel, AlphaProfile.of(1.0, 1.0)),
    ]
    ok = True
    worst_rel = 0.0
    worst_sigma = 0.0
    for kind, evaluator, factory, prof in cases:
        fs = [TestFunction.extremal(a) for a in prof.alphas]
        named = evaluator(fs, E1, OperatorSpec(kind, DIM1, prof), quad)
        kern = factory(DIM1, prof.m)
        kspec = OperatorSpec(OperatorKind.KERNEL, DIM1, prof, kernel=kern)
        generic = eval_kernel_op(kern, fs, E1, kspec, quad)
        rel = abs(generic.value - named.value) / named.value
        worst_rel = max(worst_rel, rel)
        mc = eval_kernel_op(kern, fs, E1, kspec, McEngine(300_000, SeededStream(8)))
        sigma = abs(mc.value - named.value) / mc.std_error
        worst_sigma = max(worst_sigma, sigma)
        ok = ok and rel <= 1e-6 and sigma <= 3.0
    criterion(
        8,
        ok,
        f"worst quad rel {worst_rel:.2e} (<= 1e-6), worst MC {worst_sigma:.2f} sigma "
        f"over 3 kernels x m in {{1,2}}",
    )


def test_criterion_9_determinism(tmp_path):
    from hlab.cli import run

    argv = [
        "verify",
        "--operator",
        "hardy",
        "--n",
        "3",
        "--m",
        "1",
        "--alphas",
        "1",
        "--samples",
        "262144",
        "--seed",
        "12",
        "--format",
        "json",
    ]
    rendered = []
    for tag, workers in (("a", "1"), ("b", "8"), ("c", "1")):
        path = tmp_path / f"{tag}.json"
        code = run(argv + ["--workers", workers, "--output", str(path)])
        assert code == 0
        doc = json.loads(path.read_text())
        doc.pop("metadata")
        rendered.append(json.dumps(doc, sort_keys=True))
    ok = rendered[0] == rendered[1] == rendered[2]
    criterion(
        9, ok, "verify JSON byte-identical across reruns and worker counts {1, 8}"
    )


def test_criterion_10_mc_statistics():
    def log_ball(log_gauges):
        # the indicator of the tuple ball at tilt 0: 0 inside, -inf outside
        inside = sum(np.exp(2.0 * lg) for lg in log_gauges) < 1.0
        return np.where(inside, 0.0, -np.inf)

    # the tuple-ball volume of H^1 x H^1 at each factor's polar constant
    log_polar = math.log(DIM1.Q) + log_unit_ball_volume(DIM1)
    values_fn = tilted_values(log_ball, DIM1.Q, (0.0, 0.0), compact=True, log_polar=log_polar)
    base = 250_000
    small, big = (
        reduce_partials(mc_chunk_partials(values_fn, n, SeededStream(10)))[0]
        for n in (base, 4 * base)
    )
    ratio = big.std_error / small.std_error
    ok = 0.4 <= ratio <= 0.6
    criterion(
        10,
        ok,
        f"std_error ratio {ratio:.3f} in [0.4, 0.6] when samples x4 "
        f"(volume integrand, N={base})",
    )
