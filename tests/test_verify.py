import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from hlab import cli, verify
from hlab.hgroup import (
    Convention,
    GroupDim,
    HPoint,
    gauge,
    gauge_array,
    unit_ball_volume,
)
from hlab.integrate import (
    ChunkBuffers,
    EstimationError,
    Method,
    QuadSpec,
    SeededStream,
    mc_chunk_partials,
    reduce_partials,
    rejection_volume_estimate,
    tilted_values,
)
from hlab.operators import (
    OPERATORS,
    McEngine,
    OperatorKind,
    OperatorSpec,
    QuadEngine,
    TestFunction,
    eval_hardy,
    weighted_norm,
)
from hlab.specfun import AlphaProfile
from hlab.verify import (
    discrepancy_report,
    upper_bound_search,
    verify_constant,
    verify_extremal,
)

DIM1 = GroupDim(1)


def spec_of(kind, *alphas):
    return OperatorSpec(kind, DIM1, AlphaProfile.of(*alphas))


class TestVerifyConstant:
    def test_hardy_m1(self):
        vr = verify_constant(spec_of(OperatorKind.HARDY, 1.0), n_samples=100_000, seed=42)
        assert vr.passed
        assert vr.rel_err_quad <= 1e-10
        assert abs(vr.sigma_distance_mc) <= 3.0
        assert math.isclose(vr.closed_form, 4.0 / 3.0, rel_tol=1e-14)
        assert vr.oracle_quad.std_error == 0.0
        assert vr.oracle_mc.n_samples == 100_000

    def test_hilbert_m1(self):
        vr = verify_constant(spec_of(OperatorKind.HILBERT, 2.0), n_samples=100_000, seed=1)
        assert vr.passed
        assert vr.rel_err_quad <= 1e-8
        assert math.isclose(vr.closed_form, math.pi**3 / 2, rel_tol=1e-14)

    def test_m3_runs_quadrature(self):
        vr = verify_constant(
            spec_of(OperatorKind.HARDY, 0.5, 0.5, 0.5), n_samples=100_000, seed=2
        )
        assert vr.oracle_quad is not None and vr.rel_err_quad <= vr.details["tol"]
        assert vr.passed

    def test_m4_skips_quadrature(self):
        # past m = 3 the quadrature engine reaches hlp only: on hardy only
        # the Monte Carlo oracle runs
        vr = verify_constant(
            spec_of(OperatorKind.HARDY, 0.5, 0.5, 0.5, 0.5), n_samples=100_000, seed=2
        )
        assert vr.oracle_quad is None and vr.rel_err_quad is None
        assert vr.oracle_mc is not None

    def test_hlp_past_three_runs_quadrature(self):
        # at 10^6 samples the Monte Carlo oracle fails this correct constant
        # at -9.88 sigma; the max kernel's cells show that it is right
        spec = OperatorSpec(OperatorKind.HLP, GroupDim(10), AlphaProfile((1.0,) * 6))
        vr = verify_constant(spec, n_samples=20_000, seed=2)
        assert vr.details["tol"] == 1e-8
        assert vr.oracle_quad is not None and vr.rel_err_quad <= vr.details["tol"]

    def test_oracle_tightens_past_three_levels(self):
        # m levels or factors of rel_tol 3/m each leave 3 rel_tol, as 3 do
        quad = verify._ORACLE_QUAD
        assert all(verify._oracle_quad(quad, m) == quad for m in (1, 2, 3))
        assert verify._oracle_quad(quad, 6) == QuadSpec(quad.rel_tol / 2.0)

    def test_forces_geometric_convention(self):
        spec = OperatorSpec(
            OperatorKind.HLP, DIM1, AlphaProfile.of(1.0), Convention.PAPER_FORMULA
        )
        vr = verify_constant(spec, n_samples=100_000, seed=3)
        assert vr.spec.convention is Convention.GEOMETRIC
        assert math.isclose(vr.closed_form, 8 * math.pi**2 / 3, rel_tol=1e-14)

    # at n <= 2, m = 1 the hlp and hardy oracle weights are constant, so
    # these run at n = 3, where they vary
    def test_reproducible_given_seed(self):
        spec = OperatorSpec(OperatorKind.HLP, GroupDim(3), AlphaProfile.of(1.0))
        a = verify_constant(spec, n_samples=80_000, seed=7)
        b = verify_constant(spec, n_samples=80_000, seed=7)
        assert a.oracle_mc == b.oracle_mc
        assert a == b
        c = verify_constant(spec, n_samples=80_000, seed=8)
        assert c.oracle_mc != a.oracle_mc

    def test_workers_do_not_change_bits(self):
        spec = OperatorSpec(OperatorKind.HARDY, GroupDim(3), AlphaProfile.of(1.0))
        a = verify_constant(spec, n_samples=150_000, seed=9)
        b = verify_constant(spec, n_samples=150_000, seed=9, workers=8)
        assert a.oracle_mc == b.oracle_mc

    def test_record_shape(self, tmp_path):
        # the command line builds the report of verify_constant
        path = tmp_path / "report.json"
        argv = ["verify", "--operator", "hardy", "--samples", "50000", "--seed", "0"]
        assert cli.run(argv + ["--format", "json", "--output", str(path)]) == 0
        rec = json.loads(path.read_text())
        assert rec["spec"]["operator"] == "hardy"
        assert {o["method"] for o in rec["oracles"]} == {"quad", "mc"}
        assert rec["pass"] is True


class TestPowerGate:
    """hlp and hilbert verdicts are inconclusive when 3 sigma spans the gap
    to the paper-convention constant, (2^m - 1) times the closed form."""

    HLP3 = OperatorSpec(OperatorKind.HLP, GroupDim(3), AlphaProfile.of(1.0))

    def test_few_samples_are_inconclusive(self):
        # two samples at n = 4 leave a resolution of 1.53 against a gap of 1
        spec = OperatorSpec(OperatorKind.HLP, GroupDim(4), AlphaProfile.of(1.0))
        vr = verify_constant(spec, n_samples=2, seed=0)
        assert abs(vr.sigma_distance_mc) <= 3.0
        assert vr.resolution == 3.0 * vr.oracle_mc.std_error / vr.closed_form
        assert vr.resolution >= 2**1 - 1
        assert vr.details["verdict"] == "inconclusive"
        assert not vr.passed

    def test_hlp_n3_resolves_the_convention(self):
        vr = verify_constant(self.HLP3, n_samples=1_000_000, seed=0)
        assert vr.passed and vr.details["verdict"] == "pass"
        assert vr.resolution < 0.01

    def test_hardy_has_no_convention_gap(self):
        spec = OperatorSpec(OperatorKind.HARDY, GroupDim(3), AlphaProfile.of(1.0))
        vr = verify_constant(spec, n_samples=4, seed=0)
        assert vr.details["verdict"] != "inconclusive"

    def test_oracle_that_kept_no_sample_is_inconclusive(self):
        # no tuple the averaging oracle draws at n = 6, m = 3 falls in the
        # tuple ball: every value is 0, which measures nothing
        spec = OperatorSpec(OperatorKind.HARDY, GroupDim(6), AlphaProfile.of(1.0, 1.0, 1.0))
        vr = verify_constant(spec, n_samples=200_000, seed=0)
        assert vr.oracle_mc.value == 0.0 and vr.oracle_mc.std_error == 0.0
        assert vr.rel_err_quad <= vr.details["tol"]
        assert vr.sigma_distance_mc is None and vr.resolution is None
        assert vr.details["verdict"] == "inconclusive"
        assert not vr.passed

    def test_oracle_whose_squares_underflow_is_inconclusive(self):
        # hlp at n = 40, m = 6: the values are positive but so small that
        # every square underflows to 0, and a std error of 0 measures nothing
        vr = verify_constant(HLP40, n_samples=20_000, seed=0)
        assert vr.oracle_mc.value > 0.0 and vr.oracle_mc.std_error == 0.0
        # the quadrature oracle agrees, but alone it does not pass
        assert vr.rel_err_quad <= vr.details["tol"]
        assert vr.sigma_distance_mc is None and vr.resolution is None
        assert vr.details["verdict"] == "inconclusive"
        assert not vr.passed


# every square of its Monte Carlo values underflows
HLP40 = OperatorSpec(OperatorKind.HLP, GroupDim(40), AlphaProfile((1.0,) * 6))


class TestVerifyExtremal:
    def test_hardy_m1_attains(self):
        vr = verify_extremal(spec_of(OperatorKind.HARDY, 1.0), seed=4, tol=1e-8)
        assert vr.passed
        assert vr.details["spread"] <= 1e-10
        assert math.isclose(vr.oracle_quad.value, 4.0 / 3.0, rel_tol=1e-9)

    def test_single_gauge_zero_spread(self):
        vr = verify_extremal(spec_of(OperatorKind.HARDY, 1.0), gauges=(1.0,), seed=5)
        assert vr.details["spread"] == 0.0

    def test_hlp_m2(self):
        vr = verify_extremal(spec_of(OperatorKind.HLP, 1.0, 1.0), seed=6, tol=1e-6)
        assert vr.passed
        assert vr.rel_err_quad <= 1e-6

    def test_hlp_m6(self):
        # the cells serve every m, at a cost linear in m
        vr = verify_extremal(OperatorSpec(OperatorKind.HLP, GroupDim(10), AlphaProfile((1.0,) * 6)))
        assert vr.passed
        assert vr.oracle_quad.n_samples <= 140_000

    def test_one_evaluation_per_gauge(self, monkeypatch):
        # the evaluators see x only through its gauge: one point per gauge
        spec = spec_of(OperatorKind.HLP, 1.0, 1.0)
        evaluate = verify.evaluate
        seen = []

        def counting(spec, fs, x, engine):
            seen.append(gauge(x))
            return evaluate(spec, fs, x, engine)

        monkeypatch.setattr(verify, "evaluate", counting)
        gauges = (0.5, 1.0, 2.0, 10.0)
        vr = verify_extremal(spec, gauges=gauges, seed=3)
        assert len(seen) == len(gauges)
        assert seen == pytest.approx(gauges, rel=1e-15)
        assert "directions" not in vr.details
        assert vr.details["spread"] <= 1e-6

    def test_hlp_cells_attain_within_their_budget(self):
        # the max kernel's m + 1 cells take 150,840 evaluations over the four
        # gauges; the general-kernel path on hlp_kernel takes 295,532,340,
        # which is why hlp keeps its own quadrature path
        spec = OperatorSpec(OperatorKind.HLP, GroupDim(1), AlphaProfile.of(2.5, 2.5, 2.5))
        vr = verify_extremal(spec)
        assert vr.passed
        assert vr.oracle_quad.n_samples <= 160_000

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kind", [OperatorKind.HARDY, OperatorKind.HLP, OperatorKind.HILBERT])
    def test_attains_past_h1(self, kind, n):
        vr = verify_extremal(OperatorSpec(kind, GroupDim(n), AlphaProfile.of(1.0, 1.0)))
        assert vr.passed
        assert vr.rel_err_quad <= vr.details["tol"] == 1e-8
        # dilation invariance holds to rounding
        assert vr.details["spread"] <= 1e-12
        assert vr.oracle_mc is None and vr.oracle_quad.method is Method.QUAD


class TestQuadratureRule:
    """Every nested level refines to its spec's rel_tol, and every quadrature
    verdict allows 10 times the rel_tol of the spec it ran."""

    @pytest.mark.parametrize(
        "kind,alphas",
        [
            (OperatorKind.HARDY, (1.0, 1.0)),
            (OperatorKind.HILBERT, (1.0,)),
            (OperatorKind.HILBERT, (1.0, 1.0)),
        ],
    )
    def test_oracle_within_tol_at_n30(self, kind, alphas):
        # constants of 4e-18 to 9e-17: an absolute tolerance of 1e-14 would
        # stop refinement 2% and 1.4e-5 off
        spec = OperatorSpec(kind, GroupDim(30), AlphaProfile(alphas))
        vr = verify_constant(spec, n_samples=1000, seed=0)
        assert vr.details["tol"] == (1e-11 if len(alphas) == 1 else 1e-8)
        assert vr.rel_err_quad <= vr.details["tol"]

    def test_extremal_hilbert_n30(self):
        spec = OperatorSpec(OperatorKind.HILBERT, GroupDim(30), AlphaProfile.of(1.0))
        vr = verify_extremal(spec)
        assert vr.details["tol"] == 1e-8
        assert vr.passed

    def test_hilbert_tail_map_keeps_the_oracle_cheap(self):
        # only the tail of each infinite axis, past its breakpoint r = 1, is
        # mapped to a finite range: 8,655 evaluations, against 17,775 when
        # the whole axis is
        vr = verify_constant(spec_of(OperatorKind.HILBERT, 1.0, 1.0), n_samples=1000, seed=0)
        assert vr.rel_err_quad <= vr.details["tol"]
        assert vr.oracle_quad.n_samples <= 9000

    def test_oracle_specs_control_relative_error_only(self):
        # a QuadSpec holds no absolute tolerance: its rel_tol is all it sets
        for quad, rel_tol in (
            (verify._UNARY_ORACLE_QUAD, 1e-12),
            (verify._ORACLE_QUAD, 1e-9),
            (verify._SEARCH_QUAD, 1e-7),
        ):
            assert quad == QuadSpec(rel_tol)

    @pytest.mark.parametrize("n", [200, 335])
    def test_hardy_where_the_volume_leaves_the_float_range(self, n):
        # the unit ball's volume is 6e-277 at n = 200 and 0.0 at n = 335;
        # the constants, 4.9e-120 and 3.3e-201, are normal floats
        spec = OperatorSpec(OperatorKind.HARDY, GroupDim(n), AlphaProfile.of(1.0, 1.0))
        vr = verify_constant(spec, n_samples=1000, seed=0)
        assert vr.rel_err_quad <= vr.details["tol"] == 1e-8
        # the tuple ball holds none of the Monte Carlo oracle's samples
        assert vr.details["verdict"] == "inconclusive"
        e1 = HPoint.of(spec.dim, [1.0] + [0.0] * (spec.dim.ambient - 1))
        fs = [TestFunction.extremal(1.0)] * 2
        with pytest.raises(EstimationError, match="zero accepted samples"):
            eval_hardy(fs, e1, spec, McEngine(1000, SeededStream(0)))


class TestExtremalGauges:
    def test_every_gauge_in_range_is_evaluated(self):
        # delta_g(e_1) keeps its gauge where g^4 leaves the float range
        vr = verify_extremal(spec_of(OperatorKind.HARDY, 1.0), gauges=(1e-100, 1e100))
        assert vr.passed

    @pytest.mark.parametrize("g", [1e300, 1e-300, 1e40, 0.0])
    def test_gauge_out_of_range_raises(self, g):
        spec = spec_of(OperatorKind.HILBERT, 2.0, 2.0)
        with pytest.raises(verify.GaugeRangeError, match=re.escape(f"at gauge {g!r},")):
            verify_extremal(spec, gauges=(1.0, g))

    def test_arity_past_quadrature_raises_first(self):
        # m = 4 is past the quadrature engine, named before any gauge check
        spec = spec_of(OperatorKind.HARDY, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match=r"verify_extremal .* m <= 3; got m = 4$") as info:
            verify_extremal(spec, gauges=(1.0, 0.0))
        assert not isinstance(info.value, verify.GaugeRangeError)

    def test_no_gauges_raises_before_any_work(self, monkeypatch):
        # with no gauge the spread and the mean would be of an empty array
        monkeypatch.setattr(verify, "evaluate", None)
        with pytest.raises(ValueError, match="^gauges must hold at least one gauge, got none$"):
            verify_extremal(spec_of(OperatorKind.HARDY, 1.0), gauges=())


class TestUpperBoundSearch:
    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_raises_before_any_work(self, trials, monkeypatch):
        # no trial would leave max_ratio at -inf and the search a pass
        monkeypatch.setattr(verify, "evaluate", None)
        with pytest.raises(ValueError, match=f"^trials must be at least 1, got {trials}$"):
            upper_bound_search(spec_of(OperatorKind.HARDY, 1.0), trials=trials)

    def test_no_violations_and_attainment(self):
        sr = upper_bound_search(spec_of(OperatorKind.HARDY, 1.0), trials=20, seed=11)
        assert sr.violations == 0
        # the constant-1 trial attains the bound; numerics may not exceed it
        # beyond the stated tolerance
        assert 0.999 * sr.bound <= sr.max_ratio <= sr.bound * (1 + 1e-3)
        assert sr.attaining_description

    def test_hilbert_beyond_h1_converges(self):
        # step edges far from gauge 1 put the inner mass of the sum kernel
        # where an absolute inner axis exhausts max_subdivisions
        spec = OperatorSpec(OperatorKind.HILBERT, GroupDim(3), AlphaProfile.of(1.0, 1.0))
        sr = upper_bound_search(spec, trials=20, seed=0)
        assert sr.violations == 0
        assert abs(sr.max_ratio - sr.bound) <= 1e-6 * sr.bound

    def test_constant_half_modulation_ratio_equals_bound(self):
        from hlab.hgroup import HPoint

        spec = spec_of(OperatorKind.HARDY, 1.0, 1.0)
        half = TestFunction.modulated(
            1.0, lambda s: np.full_like(np.asarray(s, float), 0.5)
        )
        e1 = HPoint.of(1, (1.0, 0.0, 0.0))
        est = eval_hardy([half, half], e1, spec, QuadEngine())
        norms = weighted_norm(half, 1.0) ** 2
        ratio = est.value / norms
        assert math.isclose(ratio, spec.constant(), rel_tol=1e-8)


class TestDiscrepancyReport:
    def test_findings(self):
        rep = discrepancy_report(n_values=(1,), n_samples=150_000, seed=13)
        ids = [f["id"] for f in rep.findings]
        assert ids == [
            "unit-ball-volume-factor-2",
            "product-integral-closed-form",
            "kernel-homogeneity-degree",
        ]
        vol = rep.findings[0]
        assert math.isclose(vol["ratio_tabulated_over_geometric"], 2.0, rel_tol=1e-13)
        assert abs(vol["sigma_mc_vs_geometric"]) <= 3.0
        assert abs(vol["sigma_mc_vs_half_tabulated"]) <= 3.0
        assert vol["pass"]

        prod = rep.findings[1]
        assert math.isclose(prod["corrected_value"], math.pi, rel_tol=1e-12)
        assert math.isclose(prod["recursion_value"], math.pi, rel_tol=1e-12)
        assert abs(prod["quadrature_value"] - math.pi) / math.pi <= 1e-6
        assert "k" in prod["printed_form"]

        hom = rep.findings[2]
        assert hom["required_degree"] == -8
        assert hom["printed_degree"] == -2
        assert all(abs(p["ratio_under_mQ"] - 1.0) <= 1e-10 for p in hom["probes"])
        assert all(abs(p["ratio_under_mn"] - 1.0) > 1e-3 for p in hom["probes"])

    def test_text_mentions_factor_two(self):
        rep = discrepancy_report(n_values=(1,), n_samples=50_000, seed=14)
        assert "factor-2" in rep.text


class TestConvergence:
    def test_rows(self):
        rows = verify_constant(
            spec_of(OperatorKind.HARDY, 1.0), n_samples=140_000, seed=15
        ).convergence
        assert rows[-1][0] == 140_000
        counts = [r[0] for r in rows]
        assert counts == sorted(counts)
        closed = rows[0][3]
        assert math.isclose(closed, 4.0 / 3.0, rel_tol=1e-14)
        # non-increasing std errors within factor-1.5 noise
        ses = [r[2] for r in rows]
        for a, b in zip(ses[:-1], ses[1:]):
            assert b <= 1.5 * a
        # final estimate consistent with the closed form
        assert abs(rows[-1][1] - closed) <= 3 * rows[-1][2]

    def test_bit_stable(self):
        spec = spec_of(OperatorKind.HARDY, 1.0)
        a = verify_constant(spec, n_samples=100_000, seed=16).convergence
        b = verify_constant(spec, n_samples=100_000, seed=16).convergence
        assert a == b


# exponents in proportion to Q, so that the tuple ball of hardy at n = 3,
# m = 2 still receives tens of the 4096 samples
ORACLE_SPECS = [
    OperatorSpec(kind, GroupDim(n), AlphaProfile(tuple(f * (2 * n + 2) for f in fractions)))
    for kind in (OperatorKind.HARDY, OperatorKind.HLP, OperatorKind.HILBERT)
    for n in (1, 2, 3)
    for fractions in ((0.375,), (0.5, 0.375))
]


def direct_oracle_values(spec, uniforms, angle_gen, omega_gen):
    """The Cartesian oracle's weights from coordinates.  Each factor's point
    is (g (1 - s^2)^{1/4} omega, g^2 s), with g inverted from the two-piece
    power law by powers, omega a normalized Gaussian and s = sin theta: at
    n = 1, theta uniform on (-pi/2, pi/2); at n >= 2, s uniform on (-1, 1),
    2u - 1.  At n <= 2, where the oracle draws no angle, the angle comes
    from ``angle_gen``.  Its gauge comes from gauge_array, and its weight is
    g^{-alpha} / q(z, t), with q = p(g) / (pi |S^{2n-1}| g^{Q-1} cos^{n-1}
    theta) at n = 1 and p(g) / (2 |S^{2n-1}| g^{Q-1} cos^{n-2} theta) at
    n >= 2, where cos theta = |z|^2 / g^2 is read off the point."""
    dim = spec.dim
    n, Q = dim.n, dim.Q
    kernel = OPERATORS[spec.kind].kernel(spec)
    compact = kernel.simplex_support is not None
    sphere = 2.0 * math.pi**n / math.gamma(n)
    tiny = 2.0**-53
    weight = 1.0
    gauges = []
    for a, u in zip(spec.profile.alphas, uniforms):
        size = u.shape[0]
        inner_mass = 1.0 / (Q - a)
        mass = inner_mass + (0.0 if compact else 1.0 / a)
        p = inner_mass / mass
        g = np.clip(u[:, 0] / p, tiny, 1.0) ** inner_mass
        if not compact:
            outer = np.clip((1.0 - u[:, 0]) / (1.0 - p), tiny, 1.0) ** (-1.0 / a)
            g = np.where(u[:, 0] < p, g, outer)
        if n == 1:
            span, power = math.pi, n - 1
            s = np.sin(math.pi * (angle_gen.random(size) - 0.5))
        else:
            span, power = 2.0, n - 2
            s = 2.0 * (u[:, 1] if n > 2 else angle_gen.random(size)) - 1.0
        omega = omega_gen.standard_normal((size, 2 * n))
        omega /= np.linalg.norm(omega, axis=1)[:, None]
        z = (g * (1.0 - s * s) ** 0.25)[:, None] * omega
        t = g**2 * s
        g = gauge_array(np.column_stack([z, t]), n)
        cos_at_point = np.einsum("ij,ij->i", z, z) / g**2
        density = np.where(g < 1.0, g ** (Q - 1 - a), g ** (-1 - a)) / mass
        q = density / (span * sphere * g ** (Q - 1) * cos_at_point**power)
        weight = weight * g**-a / q
        gauges.append(g)
    return weight * np.exp(kernel.log_profile(0.0, *(np.log(g) for g in gauges)))


def is_constant_weight(spec):
    """hlp and hardy at n <= 2, m = 1: every oracle weight is the same
    number, pi |S^1| M at n = 1 and 2 |S^3| M at n = 2, so the oracle
    reduces to an identity among Euclidean constants."""
    return spec.kind in (OperatorKind.HARDY, OperatorKind.HLP) and spec.dim.n <= 2 and spec.m == 1


# Calibration grid: n = 1..4 x m in {1, 2} x the three kinds, 20 seeds each,
# one chunk of samples per run.  The bounds below were fixed before the
# first run from N(0, 1), for the 440 z-scores of the 22 specs whose weights
# varied then: max |z| < 5 (P ~ 2.5e-4), at most 5 beyond 3 sigma (expected
# 1.2), pooled mean within 0.2 (4.2 of its standard errors) and pooled sd
# within [0.85, 1.15]; for each spec's 20, mean within 1.0 (4.5 standard
# errors) and sd within [0.4, 1.7].  Since the angle is drawn as s = sin
# theta, the weights of hlp and hardy at n = 2, m = 1 are constant too, so
# 20 specs (400 z-scores) are pooled under the same bounds.  Five m = 3
# specs (hlp and hilbert at n = 1, 2, hardy at n = 1; alpha = (1, 1, 1))
# join them under the same bounds: 25 specs, 500 z-scores.  Each spec draws
# from its own stream: at m = 1 the weights of the others depend on the
# angle alone, so specs sharing seeds would share their z-scores, and the
# pooled bounds assume independent ones.
CALIBRATION_SPECS = [
    OperatorSpec(kind, GroupDim(n), AlphaProfile(alphas))
    for kind in (OperatorKind.HARDY, OperatorKind.HLP, OperatorKind.HILBERT)
    for n in (1, 2, 3, 4)
    for alphas in ((1.0,), (1.5, n + 1.0))
] + [
    # m = 3, appended so that the specs above keep their streams
    OperatorSpec(kind, GroupDim(n), AlphaProfile.of(1.0, 1.0, 1.0))
    for kind, n in (
        (OperatorKind.HLP, 1),
        (OperatorKind.HLP, 2),
        (OperatorKind.HILBERT, 1),
        (OperatorKind.HILBERT, 2),
        (OperatorKind.HARDY, 1),
    )
]
CALIBRATION_SEEDS = range(20)
CALIBRATION_SAMPLES = 1 << 16


class TestCartesianOracle:
    @pytest.mark.parametrize(
        "spec", ORACLE_SPECS, ids=lambda s: f"{s.kind.value}-n{s.dim.n}-m{s.m}"
    )
    def test_weights_match_direct_formulas(self, spec):
        size = 4096
        seed = 10 * spec.dim.n + spec.m
        values_fn = verify._cartesian_values_fn(spec)
        values = values_fn(SeededStream(seed).generator(block=1), size, ChunkBuffers())
        gen = SeededStream(seed).generator(block=1)
        # at n <= 2 the angle does not enter the weight and the oracle draws
        # none, so the reference takes it from its own generator
        columns = 2 if spec.dim.n > 2 else 1
        uniforms = [gen.random((size, columns)) for _ in range(spec.m)]
        angle_gen = np.random.default_rng(seed + 1)
        expected = direct_oracle_values(spec, uniforms, angle_gen, np.random.default_rng(seed))
        assert np.isfinite(values).all() and np.isfinite(expected).all()
        assert np.count_nonzero(values) >= 20
        np.testing.assert_allclose(values, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_one_draw_of_every_factor_per_chunk(self, n, m):
        # a chunk draws all m factors at once, two uniforms a factor and row
        # (its gauge and its angle); at n <= 2 the angle does not enter the
        # weight, and the draw is (m, size), the draw of the operators' engine
        spec = OperatorSpec(OperatorKind.HILBERT, GroupDim(n), AlphaProfile((1.0,) * m))
        stream = RecordingStream(SeededStream(5))
        verify._cartesian_mc(spec, 2 * 65536 + 100, stream)
        columns = (2,) if n > 2 else ()
        assert stream.calls == {
            1: [(m, 65536, *columns)],
            2: [(m, 65536, *columns)],
            3: [(m, 100, *columns)],
        }

    # at small alpha the outer piece reaches gauges whose kernel value is
    # below the float range while the weighted value is O(1)
    @pytest.mark.parametrize(
        "kind,n,alpha",
        [(OperatorKind.HLP, 10, 0.1), (OperatorKind.HILBERT, 10, 0.1), (OperatorKind.HLP, 1, 0.05)],
    )
    def test_small_alpha_lands_within_3_sigma(self, kind, n, alpha):
        spec = OperatorSpec(kind, GroupDim(n), AlphaProfile((alpha,)))
        est = reduce_partials(verify._cartesian_mc(spec, 1_000_000, SeededStream(0)))[0]
        closed = spec.constant()
        assert abs(est.value - closed) <= 3.0 * est.std_error

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_jacobian_pins_the_ball_volume(self, n):
        # alpha = 0 and the indicator of g < 1 on the oracle's block, at its
        # polar constant L |S^{2n-1}| and angle exponent: its weights average
        # to |S^{2n-1}| / Q * int cos^{n-1}, the volume
        dim = GroupDim(n)
        samples = 200_000
        span = math.pi if n == 1 else 2.0
        volume_values = tilted_values(
            lambda log_gauges: np.where(log_gauges[0] < 0.0, 0.0, -np.inf),
            dim.Q,
            (0.0,),
            compact=True,
            log_polar=math.log(span * 2.0 * math.pi**n / math.gamma(n)),
            angle=max(0.5 * (n - 2), 0.0),
        )
        est = reduce_partials(mc_chunk_partials(volume_values, samples, SeededStream(n)))[0]
        box = rejection_volume_estimate(dim, samples, SeededStream(n))
        exact = unit_ball_volume(dim)
        assert abs(est.value - exact) <= 3.0 * est.std_error
        assert abs(est.value - box.value) <= 3.0 * math.hypot(est.std_error, box.std_error)
        assert abs(est.value - 2.0 * exact) > 3.0 * est.std_error

    def test_non_finite_weight_raises(self, monkeypatch, capsys):
        # a kernel whose log profile is NaN beyond gauge 1: the oracle raises,
        # and the CLI reports a numerical failure; m = 4 runs no quadrature
        op = OPERATORS[OperatorKind.HLP]

        def nan_kernel(spec):
            kernel = op.kernel(spec)

            def log_profile(l0, *log_gauges):
                return np.where(log_gauges[0] > 0.0, np.nan, kernel.log_profile(l0, *log_gauges))

            return replace(kernel, log_profile=log_profile)

        monkeypatch.setitem(OPERATORS, OperatorKind.HLP, replace(op, kernel=nan_kernel))
        spec = OperatorSpec(OperatorKind.HLP, DIM1, AlphaProfile((1.0,) * 4))
        with pytest.raises(EstimationError, match="non-finite"):
            verify._cartesian_mc(spec, 10_000, SeededStream(0))
        argv = ["verify", "--operator", "hlp", "--m", "4", "--samples", "10000"]
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hlab verify: numerical failure:")

    def test_calibrated(self):
        pooled = []
        for stream_id, spec in enumerate(CALIBRATION_SPECS):
            closed = spec.constant()
            ests = [
                reduce_partials(
                    verify._cartesian_mc(spec, CALIBRATION_SAMPLES, SeededStream(s, stream_id))
                )[0]
                for s in CALIBRATION_SEEDS
            ]
            label = f"{spec.kind.value} n={spec.dim.n} alphas={spec.profile.alphas}"
            if is_constant_weight(spec):
                for est in ests:
                    assert abs(est.value - closed) <= 1e-12 * closed, label
                continue
            z = np.array([(est.value - closed) / est.std_error for est in ests])
            assert abs(z.mean()) <= 1.0, (label, z)
            assert 0.4 <= z.std(ddof=1) <= 1.7, (label, z)
            pooled.extend(z)
        pooled = np.array(pooled)
        assert pooled.size == 25 * len(CALIBRATION_SEEDS)
        assert np.abs(pooled).max() < 5.0
        assert np.count_nonzero(np.abs(pooled) > 3.0) <= 5
        assert abs(pooled.mean()) <= 0.2
        assert 0.85 <= pooled.std(ddof=1) <= 1.15


class RecordingGenerator:
    """A generator that records the shape of each ``random`` call and
    refuses every other draw."""

    def __init__(self, gen, calls):
        self._gen = gen
        self._calls = calls

    def random(self, size=None, dtype=np.float64, out=None):
        self._calls.append(tuple(np.shape(out)) if out is not None else tuple(np.atleast_1d(size)))
        return self._gen.random(size=size, dtype=dtype, out=out)

    def __getattr__(self, name):
        raise AssertionError(f"the oracle drew with {name!r}")


class RecordingStream:
    def __init__(self, stream):
        self._stream = stream
        self.calls = {}

    def generator(self, block=0):
        calls = self.calls.setdefault(block, [])
        return RecordingGenerator(self._stream.generator(block=block), calls)
