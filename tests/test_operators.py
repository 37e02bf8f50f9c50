import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hlab import operators, verify
from hlab.hgroup import Convention, GroupDim, HPoint, dilate, gauge, origin, unit_ball_volume
from hlab.integrate import QuadSpec, SeededStream
from hlab.operators import (
    KernelHomogeneityError,
    KernelSpec,
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
    kernel_constant,
    weighted_norm,
)
from hlab.specfun import (
    AlphaProfile,
    DivergentConstantError,
    hardy_constant,
    hilbert_constant,
    hlp_constant,
    i_m_closed,
)

DIM1 = GroupDim(1)
E1 = HPoint.of(1, (1.0, 0.0, 0.0))
OMEGA = 2 * math.pi**2
TIGHT = QuadEngine(QuadSpec(rel_tol=1e-10))


def extremals(*alphas):
    return [TestFunction.extremal(a) for a in alphas]


def spec_of(kind, *alphas, convention=Convention.GEOMETRIC, kernel=None):
    return OperatorSpec(kind, DIM1, AlphaProfile.of(*alphas), convention, kernel)


class TestTestFunction:
    def test_extremal_values(self):
        f = TestFunction.extremal(1.5)
        assert f.is_extremal
        assert np.allclose(f.log_weight(0.0, np.log([1.0, 2.0])), [0.0, -1.5 * math.log(2.0)])

    def test_step_semantics(self):
        f = TestFunction.step(1.0, [0.5, 2.0], [1.0, 0.3, 0.8])
        mod = f.modulation
        vals = mod(np.array([0.1, 0.5, 0.7, 2.0, 5.0]))
        assert np.array_equal(vals, [1.0, 1.0, 0.3, 0.3, 0.8])

    def test_step_validation(self):
        with pytest.raises(ValueError):
            TestFunction.step(1.0, [1.0], [0.5, 1.5])  # value above 1
        with pytest.raises(ValueError):
            TestFunction.step(1.0, [1.0], [0.5])  # wrong arity
        # unsorted, repeated, NaN, infinite, zero and negative edges
        bad = ([2.0, 1.0], [1.0, 1.0], [1.0, math.nan], [1.0, math.inf], [0.0, 1.0], [-1.0, 1.0])
        for edges in bad:
            with pytest.raises(ValueError, match="edges"):
                TestFunction.step(1.0, edges, [0.5, 0.7, 0.9])

    def test_positive_exponent_required(self):
        with pytest.raises(ValueError):
            TestFunction.extremal(0.0)

    @pytest.mark.parametrize("tilt", [0.0, 1.0, 1.5, 3.2])
    def test_log_weight_is_the_log_of_the_tilted_function(self, tilt):
        # log(s^tilt f(s)) = (tilt - alpha) log s + log m(s); no s on an edge
        s = np.array([0.05, 0.7, 1.0, 1.7, 40.0])
        for f in (
            TestFunction.extremal(1.5),
            TestFunction.step(1.5, [0.5, 2.0], [1.0, 0.3, 0.8]),
            TestFunction.modulated(1.5, lambda s: s / (1.0 + s)),
        ):
            mod = 1.0 if f.is_extremal else f.modulation(s)
            expected = np.log(s ** (tilt - 1.5) * mod)
            assert np.allclose(f.log_weight(tilt, np.log(s)), expected, rtol=1e-14, atol=1e-14)

    def test_log_weight_is_minus_inf_where_the_modulation_vanishes(self):
        f = TestFunction.modulated(1.0, lambda s: np.where(s < 1.0, 0.0, 1.0))
        out = f.log_weight(2.0, np.log([0.5, 2.0]))
        assert out[0] == -np.inf
        assert math.isclose(out[1], math.log(2.0), rel_tol=1e-15)


class TestWeightedNorm:
    def test_extremal_at_own_exponent(self):
        assert weighted_norm(TestFunction.extremal(1.3), 1.3) == 1.0

    def test_constant_modulation(self):
        f = TestFunction.modulated(1.0, lambda s: np.full_like(np.asarray(s, float), 0.5))
        assert math.isclose(weighted_norm(f, 1.0), 0.5, rel_tol=1e-15)

    def test_monotone_modulation_approaches_sup(self):
        f = TestFunction.modulated(1.0, lambda s: s / (1.0 + s))
        assert weighted_norm(f, 1.0) >= 0.9999

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            weighted_norm(TestFunction.extremal(1.0), 0.0)


class TestHardyEvaluator:
    def test_constant_input_averages_to_one(self):
        # modulation s -> s^alpha makes f identically 1 inside the unit ball
        f = TestFunction.modulated(1.0, lambda s: np.asarray(s, float) ** 1.0)
        spec = spec_of(OperatorKind.HARDY, 1.0)
        for g in (0.3, 1.0):
            x = dilate(g, E1)
            est = eval_hardy([f], x, spec, TIGHT)
            assert math.isclose(est.value, 1.0, rel_tol=1e-10)

    def test_extremal_m1(self):
        est = eval_hardy(extremals(1.0), E1, spec_of(OperatorKind.HARDY, 1.0), TIGHT)
        assert abs(est.value - 4.0 / 3.0) <= 1e-10

    def test_extremal_m2_with_dilation(self):
        spec = spec_of(OperatorKind.HARDY, 1.0, 1.0)
        x = dilate(2.0, E1)
        est = eval_hardy(extremals(1.0, 1.0), x, spec, TIGHT)
        assert abs(2.0**2 * est.value - math.pi / 6) <= 1e-8

    def test_mc_engine_matches(self):
        spec = spec_of(OperatorKind.HARDY, 1.0, 1.0)
        mc = eval_hardy(
            extremals(1.0, 1.0), E1, spec, McEngine(200_000, SeededStream(31))
        )
        assert abs(mc.value - math.pi / 6) <= 3 * mc.std_error

    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            eval_hardy(extremals(1.0), origin(1), spec_of(OperatorKind.HARDY, 1.0))

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            eval_hardy(extremals(1.0), E1, spec_of(OperatorKind.HLP, 1.0))


class TestHlpEvaluator:
    def test_extremal_m1(self):
        est = eval_hlp(extremals(1.0), E1, spec_of(OperatorKind.HLP, 1.0), TIGHT)
        assert abs(est.value - 8 * math.pi**2 / 3) / (8 * math.pi**2 / 3) <= 1e-8

    def test_homogeneity_in_x(self):
        spec = spec_of(OperatorKind.HLP, 1.0)
        vals = []
        for g in (1.0, 2.0):
            est = eval_hlp(extremals(1.0), dilate(g, E1), spec, TIGHT)
            vals.append(g**1.0 * est.value)
        assert abs(vals[0] - vals[1]) / vals[0] <= 1e-6

    def test_extremal_m2(self):
        spec = spec_of(OperatorKind.HLP, 1.0, 1.0)
        est = eval_hlp(extremals(1.0, 1.0), E1, spec, TIGHT)
        closed = hlp_constant(1, AlphaProfile.of(1.0, 1.0))
        assert abs(est.value - closed) / closed <= 1e-8
        assert math.isclose(closed, 16 * math.pi**4 / 9, rel_tol=1e-13)

    def test_tabulated_convention_scales(self):
        est_g = eval_hlp(extremals(1.0), E1, spec_of(OperatorKind.HLP, 1.0), TIGHT)
        est_p = eval_hlp(
            extremals(1.0),
            E1,
            spec_of(OperatorKind.HLP, 1.0, convention=Convention.PAPER_FORMULA),
            TIGHT,
        )
        assert math.isclose(est_p.value, 2.0 * est_g.value, rel_tol=1e-12)

    def test_mc_engine_matches(self):
        spec = spec_of(OperatorKind.HLP, 1.0)
        mc = eval_hlp(extremals(1.0), E1, spec, McEngine(200_000, SeededStream(32)))
        assert abs(mc.value - 8 * math.pi**2 / 3) <= 3 * mc.std_error


class TestHilbertEvaluator:
    def test_extremal_m1(self):
        est = eval_hilbert(extremals(2.0), E1, spec_of(OperatorKind.HILBERT, 2.0), TIGHT)
        assert abs(est.value - math.pi**3 / 2) / (math.pi**3 / 2) <= 1e-8

    def test_tabulated_convention(self):
        est = eval_hilbert(
            extremals(2.0),
            E1,
            spec_of(OperatorKind.HILBERT, 2.0, convention=Convention.PAPER_FORMULA),
            TIGHT,
        )
        assert abs(est.value - math.pi**3) / math.pi**3 <= 1e-8

    def test_m2_matches_product_integral(self):
        spec = spec_of(OperatorKind.HILBERT, 1.0, 1.0)
        x = dilate(1.0, E1)
        est = eval_hilbert(extremals(1.0, 1.0), x, spec, TIGHT)
        expected = (OMEGA / 4) ** 2 * i_m_closed(2.0, (0.25, 0.25))
        assert abs(est.value - expected) / expected <= 1e-8
        assert math.isclose(
            expected, hilbert_constant(1, AlphaProfile.of(1.0, 1.0)), rel_tol=1e-13
        )

    def test_step_modulation_against_closed_form(self):
        # f = r^-2 halved past r = 1: int t^-1/2 (1 + t)^-1 dt is pi/2 on each
        # side of t = r^4 = 1, so the value is (OMEGA / 4)(pi/2 + pi/4)
        f = TestFunction.step(2.0, (1.0,), (1.0, 0.5))
        est = eval_hilbert([f], E1, spec_of(OperatorKind.HILBERT, 2.0), TIGHT)
        assert math.isclose(est.value, 3 * math.pi**3 / 8, rel_tol=1e-9)

    # (n, alpha, m) where sum alpha is small: the outer mass sits at gauges
    # far beyond 1e16, and r^{Q-1-alpha} overflows where the kernel underflows
    @pytest.mark.parametrize(
        "n,alpha,m",
        [(2, 0.05, 1), (3, 0.05, 1), (6, 0.05, 1), (6, 0.05, 2), (6, 0.1, 1), (10, 0.05, 1),
         (10, 0.05, 2), (10, 0.1, 1), (1, 0.05, 2)],
    )
    def test_small_alpha_stays_finite(self, n, alpha, m):
        dim = GroupDim(n)
        spec = OperatorSpec(OperatorKind.HILBERT, dim, AlphaProfile((alpha,) * m))
        e1 = HPoint.of(dim, [1.0] + [0.0] * (dim.ambient - 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = eval_hilbert(extremals(*(alpha,) * m), e1, spec, TIGHT)
        closed = hilbert_constant(dim, spec.profile)
        assert abs(est.value - closed) <= 1e-8 * closed

    def test_mc_engine_matches(self):
        spec = spec_of(OperatorKind.HILBERT, 2.0)
        mc = eval_hilbert(extremals(2.0), E1, spec, McEngine(200_000, SeededStream(33)))
        assert abs(mc.value - math.pi**3 / 2) <= 3 * mc.std_error


class TestNormBound:
    def test_modulated_tuples_respect_bound_mc(self):
        rng = np.random.default_rng(55)
        spec = spec_of(OperatorKind.HARDY, 1.0, 1.0)
        bound = spec.constant()
        lattice = np.logspace(-2, 2, 41)
        for trial in range(10):
            fs = []
            for a in spec.profile.alphas:
                k = int(rng.integers(1, 4))
                edges = np.sort(rng.choice(lattice, size=k, replace=False))
                fs.append(TestFunction.step(a, edges, rng.uniform(0.1, 1.0, k + 1)))
            est = eval_hardy(fs, E1, spec, McEngine(100_000, SeededStream(600 + trial)))
            norms = math.prod(
                weighted_norm(f, a) for f, a in zip(fs, spec.profile.alphas)
            )
            ratio = est.value / norms
            rel_se = est.std_error / max(est.value, 1e-300)
            assert ratio <= bound * (1.0 + 3.0 * rel_se + 1e-6)


class TestEngineAgreement:
    @pytest.mark.parametrize(
        "kind,evaluator,alphas,seed",
        [
            (OperatorKind.HARDY, eval_hardy, (1.0,), 41),
            (OperatorKind.HARDY, eval_hardy, (1.0, 1.0), 42),
            (OperatorKind.HLP, eval_hlp, (1.0,), 43),
            (OperatorKind.HLP, eval_hlp, (1.0, 1.0), 44),
            (OperatorKind.HILBERT, eval_hilbert, (2.0,), 45),
            (OperatorKind.HILBERT, eval_hilbert, (1.0, 1.0), 46),
        ],
    )
    def test_mc_and_quad_agree(self, kind, evaluator, alphas, seed):
        spec = spec_of(kind, *alphas)
        fs = extremals(*alphas)
        quad = evaluator(fs, E1, spec, TIGHT)
        mc = evaluator(fs, E1, spec, McEngine(150_000, SeededStream(seed)))
        assert abs(mc.value - quad.value) <= 3 * max(mc.std_error, 1e-12 * quad.value)

    # The Monte Carlo engine folds each factor's tilt into its test function's
    # power, keeping only log c, the modulation at c g and any difference of
    # exponents per sample.  At gauge 2, log c is not 0 and the step edges
    # sit at other gauges than they do at e_1.
    X2 = HPoint.of(1, (2.0, 0.0, 0.0))
    STEPS = (
        TestFunction.step(1.0, [0.5, 2.0], [1.0, 0.3, 0.8]),
        TestFunction.step(1.0, [1.5], [0.4, 1.0]),
    )

    @pytest.mark.parametrize(
        "kind,evaluator,seed",
        [
            (OperatorKind.HARDY, eval_hardy, 47),
            (OperatorKind.HLP, eval_hlp, 48),
            (OperatorKind.HILBERT, eval_hilbert, 49),
        ],
    )
    def test_step_modulated_pair_off_the_unit_gauge(self, kind, evaluator, seed):
        assert gauge(self.X2) == 2.0
        spec = spec_of(kind, 1.0, 1.0)
        quad = evaluator(self.STEPS, self.X2, spec, TIGHT)
        mc = evaluator(self.STEPS, self.X2, spec, McEngine(150_000, SeededStream(seed)))
        assert abs(mc.value - quad.value) <= 3 * mc.std_error

    @pytest.mark.parametrize(
        "kind,evaluator,seed",
        [
            (OperatorKind.HARDY, eval_hardy, 50),
            (OperatorKind.HILBERT, eval_hilbert, 51),
        ],
    )
    def test_exponents_other_than_the_tilts(self, kind, evaluator, seed):
        # the law is tilted by the profile (1, 1); the test functions'
        # powers differ from it, so (tilt - alpha) log g stays per sample
        spec = spec_of(kind, 1.0, 1.0)
        fs = [TestFunction.extremal(1.5), TestFunction.step(0.5, [0.5], [1.0, 0.5])]
        quad = evaluator(fs, self.X2, spec, TIGHT)
        mc = evaluator(fs, self.X2, spec, McEngine(150_000, SeededStream(seed)))
        assert abs(mc.value - quad.value) <= 3 * mc.std_error

    def test_kernel_bounds_the_tuple_ball(self):
        # support sum r_i^2 < r0^2 / 4: the compact law draws gauges below 1
        # and nothing but the kernel's -inf rejects the tuples outside
        mQ = 2.0 * DIM1.Q

        def log_profile(l0, *ls):
            ss = sum(np.exp(2.0 * (lr - l0)) for lr in ls)
            return np.where(ss < 0.25, -mQ * l0, -np.inf)

        kern = KernelSpec(log_profile, simplex_support=0.5)
        assert kern.compact
        spec = spec_of(OperatorKind.KERNEL, 1.0, 1.0, kernel=kern)
        fs = extremals(1.0, 1.0)
        quad = eval_kernel_op(kern, fs, E1, spec, TIGHT)
        mc = eval_kernel_op(kern, fs, E1, spec, McEngine(150_000, SeededStream(52)))
        assert abs(mc.value - quad.value) <= 3 * mc.std_error


def scaled_hardy_kernel(dim, m, s):
    """The averaging kernel scaled to support ``s``: ``K_s(r0; r) =
    K_hardy(s r0; r)``, which vanishes outside ``sum r_i^2 < s^2 r0^2``."""
    base = hardy_kernel(dim, m)
    log_s = math.log(s)

    def log_profile(l0, *ls):
        return base.log_profile(l0 + log_s, *ls)

    return KernelSpec(log_profile, simplex_support=s)


class TestOneGeometry:
    """Every kernel but the max kernel runs one quadrature geometry; a
    ``simplex_support`` only gives its axes finite upper limits."""

    @pytest.mark.parametrize("s", [0.5, 2.0])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_scaled_support(self, s, n, m):
        # substituting y = delta_s z: H_m(K_s) = s^{-sum alpha} H_m(K_hardy);
        # at s = 2 the gauges pass 1 and the inner axes' scale rho exceeds 1
        dim = GroupDim(n)
        prof = AlphaProfile((1.0,) * m)
        engine = QuadEngine(QuadSpec(1e-9))
        est = kernel_constant(scaled_hardy_kernel(dim, m, s), dim, prof, engine)
        want = s**-prof.total * hardy_constant(dim, prof)
        assert abs(est.value - want) <= 1e-8 * want

    @pytest.mark.parametrize("alphas", [(0.5,), (0.2, 0.2)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_hardy_below_unit_total_exponent(self, alphas, n):
        # sum alpha < 1 stretches axis 0 to v = r^{sum alpha} on the ball too
        dim = GroupDim(n)
        spec = OperatorSpec(OperatorKind.HARDY, dim, AlphaProfile(alphas))
        x = HPoint.of(dim, [1.0] + [0.0] * (dim.ambient - 1))
        # the quadrature oracle's error control and verdict: 1e-11 at m = 1, 1e-8 at m = 2
        quad = verify._UNARY_ORACLE_QUAD if len(alphas) == 1 else verify._ORACLE_QUAD
        est = eval_hardy(extremals(*alphas), x, spec, QuadEngine(quad))
        closed = spec.constant()
        assert abs(est.value - closed) <= verify._verdict_tol(quad) * closed


class TestDilationCovariance:
    @pytest.mark.parametrize(
        "kind,evaluator",
        [
            (OperatorKind.HARDY, eval_hardy),
            (OperatorKind.HLP, eval_hlp),
            (OperatorKind.HILBERT, eval_hilbert),
        ],
    )
    def test_gauge_power_times_value_constant(self, kind, evaluator):
        spec = spec_of(kind, 1.0)
        vals = []
        for g in (0.5, 1.0, 2.0, 10.0):
            est = evaluator(extremals(1.0), dilate(g, E1), spec, TIGHT)
            vals.append(g**1.0 * est.value)
        spread = (max(vals) - min(vals)) / abs(np.mean(vals))
        assert spread <= 1e-6


class TestQuadratureBeyondH1:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("alphas", [(1.5,), (2.0, 1.5)])
    @pytest.mark.parametrize(
        "kind,evaluator",
        [
            (OperatorKind.HARDY, eval_hardy),
            (OperatorKind.HLP, eval_hlp),
            (OperatorKind.HILBERT, eval_hilbert),
        ],
    )
    def test_extremal_value_is_closed_form(self, kind, evaluator, alphas, n):
        dim = GroupDim(n)
        spec = OperatorSpec(kind, dim, AlphaProfile(alphas))
        x = HPoint.of(dim, [0.6, -0.3] + [0.2] * (dim.ambient - 3) + [0.5])
        g = gauge(x)
        est = evaluator(extremals(*alphas), x, spec, QuadEngine(QuadSpec(1e-9)))
        assert math.isclose(g ** sum(alphas) * est.value, spec.constant(), rel_tol=1e-8)


class TestHlpQuadratureSlowTails:
    """Exponents whose sum is below 1 decay too slowly at infinity for the
    t/(1-t) map of an infinite range; the max-kernel cells integrate their
    outer gauge in u = r^{-sum alpha} instead."""

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize(
        "alphas,rel_tol", [((0.25,), 1e-10), ((0.5,), 1e-10), ((1.0,), 1e-10), ((0.25, 0.5), 1e-8)]
    )
    def test_extremal_value_is_closed_form(self, alphas, rel_tol, n):
        dim = GroupDim(n)
        spec = OperatorSpec(OperatorKind.HLP, dim, AlphaProfile(alphas))
        x = HPoint.of(dim, [1.0] + [0.0] * (dim.ambient - 1))
        qspec = QuadSpec(1e-12) if len(alphas) == 1 else QuadSpec(1e-9)
        est = eval_hlp(extremals(*alphas), x, spec, QuadEngine(qspec))
        assert math.isclose(est.value, spec.constant(), rel_tol=rel_tol)


class TestHlpCellsPastThree:
    # the cells' cost is linear in m, so quadrature reaches hlp at every m
    @pytest.mark.parametrize("n,m", [(1, 4), (3, 12), (1, 32)])
    def test_extremal_value_is_closed_form(self, n, m):
        dim = GroupDim(n)
        spec = OperatorSpec(OperatorKind.HLP, dim, AlphaProfile((1.0,) * m))
        e1 = HPoint.of(dim, [1.0] + [0.0] * (dim.ambient - 1))
        quad = QuadSpec(1e-9)
        est = eval_hlp(extremals(*[1.0] * m), e1, spec, QuadEngine(quad))
        closed = spec.constant()
        assert abs(est.value - closed) <= 10 * quad.rel_tol * closed


class TestKernelQuadratureSlowTails:
    """Exponents whose sum is below 1: the general-kernel path runs axis 0 in
    ``r^{sum alpha}`` past r = 1, and in r below it."""

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("alpha", [0.25, 0.5])
    @pytest.mark.parametrize(
        "kernel,closed_form", [(hlp_kernel, hlp_constant), (hilbert_kernel, hilbert_constant)]
    )
    def test_extremal_value_is_closed_form(self, kernel, closed_form, alpha, n):
        dim = GroupDim(n)
        prof = AlphaProfile.of(alpha)
        ker = kernel(dim, 1)
        spec = OperatorSpec(OperatorKind.KERNEL, dim, prof, kernel=ker)
        x = HPoint.of(dim, [1.0] + [0.0] * (dim.ambient - 1))
        est = eval_kernel_op(ker, extremals(alpha), x, spec, QuadEngine(QuadSpec(1e-12)))
        assert math.isclose(est.value, closed_form(dim, prof), rel_tol=1e-10)

    @pytest.mark.parametrize("n", [150, 200])
    def test_small_alpha_at_large_n(self, n):
        # v = r^0.1 below r = 1 would make the integrand's r^{Q-1.1} a spike
        # v^{10 Q - 2} at v = 1 that the first panel misses
        dim = GroupDim(n)
        spec = OperatorSpec(OperatorKind.HILBERT, dim, AlphaProfile.of(0.1))
        x = HPoint.of(dim, [1.0] + [0.0] * (dim.ambient - 1))
        quad = verify._UNARY_ORACLE_QUAD
        est = eval_hilbert(extremals(0.1), x, spec, QuadEngine(quad))
        closed = spec.constant()
        assert abs(est.value - closed) <= verify._verdict_tol(quad) * closed

    @pytest.mark.parametrize("n", [1, 3])
    def test_tiny_alpha(self, n):
        # v = r^0.001 puts r from 1 to 2^32 in v < 1.023, where the kernel
        # still bends toward its power tail; unless axis 0 splits at
        # r = 2^(2^k), the first panels' Kronrod and Gauss sums agree on a
        # curve both of them miss
        dim = GroupDim(n)
        spec = OperatorSpec(OperatorKind.HILBERT, dim, AlphaProfile.of(0.001))
        x = HPoint.of(dim, [1.0] + [0.0] * (dim.ambient - 1))
        quad = QuadSpec(1e-9)
        est = eval_hilbert(extremals(0.001), x, spec, QuadEngine(quad))
        closed = spec.constant()
        assert abs(est.value - closed) <= 10 * quad.rel_tol * closed


class TestStepModulatedAccuracy:
    """Step-modulated trials as ``upper_bound_search`` draws them (seed 7,
    trials 1-20) land within 10x rel_tol of a reference 1000x tighter.  The
    inner integrals have kinks where a plateau edge meets the end of their
    range, which the outer levels must be told of."""

    @pytest.mark.parametrize(
        "kind,evaluator",
        [
            (OperatorKind.HARDY, eval_hardy),
            (OperatorKind.HLP, eval_hlp),
            (OperatorKind.HILBERT, eval_hilbert),
        ],
    )
    def test_error_within_ten_times_rel_tol(self, kind, evaluator):
        spec = spec_of(kind, 1.0, 1.0)
        rel_tol = 1e-7
        gen = SeededStream(7).generator()
        errors = []
        for _ in range(20):
            fs = [verify._random_step_function(gen, a) for a in spec.profile.alphas]
            x = HPoint.of(DIM1, [float(gen.choice([0.5, 1.0, 2.0])), 0.0, 0.0])
            value = evaluator(fs, x, spec, QuadEngine(QuadSpec(rel_tol))).value
            ref = evaluator(fs, x, spec, QuadEngine(QuadSpec(1e-10))).value
            errors.append(abs(value - ref) / abs(ref))
        assert max(errors) <= 10 * rel_tol


class TestOneRelTol:
    """``QuadSpec.rel_tol`` bounds the relative error of the returned value
    on every quadrature path, so one ``QuadSpec`` gives every path the same
    accuracy, and the averaging operator is the general-kernel path on its
    kernel."""

    SPEC = QuadSpec(1e-8)
    REF = QuadSpec(1e-10)

    @staticmethod
    def evaluate(path, n, m, qspec):
        dim = GroupDim(n)
        prof = AlphaProfile((1.0,) * m)
        fs = [TestFunction.step(a, (0.3, 0.7), (0.5, 1.0, 0.25)) for a in prof.alphas]
        x = HPoint.of(dim, [1.3] + [0.0] * (dim.ambient - 1))
        if path.startswith("kernel-"):
            factory = {"hardy": hardy_kernel, "hlp": hlp_kernel, "hilbert": hilbert_kernel}
            kern = factory[path.removeprefix("kernel-")](dim, m)
            spec = OperatorSpec(OperatorKind.KERNEL, dim, prof, kernel=kern)
            return eval_kernel_op(kern, fs, x, spec, QuadEngine(qspec))
        evaluator = {"hardy": eval_hardy, "hlp": eval_hlp, "hilbert": eval_hilbert}[path]
        return evaluator(fs, x, OperatorSpec(OperatorKind(path), dim, prof), QuadEngine(qspec))

    @pytest.mark.parametrize(
        "path,n,m",
        [
            (path, n, m)
            for path in ("hardy", "hlp", "hilbert", "kernel-hardy", "kernel-hlp", "kernel-hilbert")
            for n in (1, 3)
            for m in (1, 2)
        ],
    )
    def test_within_ten_tolerances_of_a_tighter_reference(self, path, n, m):
        value = self.evaluate(path, n, m, self.SPEC).value
        ref = self.evaluate(path, n, m, self.REF).value
        assert abs(value - ref) <= 10 * self.SPEC.rel_tol * abs(ref)

    def test_factor_that_underflows_gives_zero(self):
        # c^{-sum alpha} of the sum-kernel path is 0 at this gauge
        x = HPoint.of(DIM1, [1e200, 0.0, 0.0])
        spec = spec_of(OperatorKind.HILBERT, 2.0)
        assert eval_hilbert(extremals(2.0), x, spec, QuadEngine(self.SPEC)).value == 0.0

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (3, 1), (3, 2)])
    def test_hardy_is_the_general_kernel_path(self, n, m):
        named = self.evaluate("hardy", n, m, self.SPEC)
        general = self.evaluate("kernel-hardy", n, m, self.SPEC)
        assert (named.value, named.n_samples) == (general.value, general.n_samples)

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (3, 1), (3, 2)])
    def test_hilbert_is_the_general_kernel_path(self, n, m):
        named = self.evaluate("hilbert", n, m, self.SPEC)
        general = self.evaluate("kernel-hilbert", n, m, self.SPEC)
        assert (named.value, named.n_samples) == (general.value, general.n_samples)
        assert operators.OPERATORS[OperatorKind.HILBERT].quad is None

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (3, 1), (3, 2)])
    def test_hlp_cells_are_the_max_kernel(self, n, m):
        # the cells are a second encoding of hlp_kernel, held to the general
        # path on the max kernel itself
        cells = self.evaluate("hlp", n, m, self.SPEC).value
        general = self.evaluate("kernel-hlp", n, m, self.SPEC).value
        assert abs(cells - general) <= 10 * self.SPEC.rel_tol * abs(general)


# hlp and hilbert also run at n = 6, 8, 10; hardy stays at n <= 4, since at
# n = 10, m = 2 its tuple ball accepts no tuple
BEYOND_H1 = [
    pytest.param(kind, evaluator, alphas, n, id=f"{kind}-{evaluator.__name__}-alphas{i}-{n}")
    for kind, evaluator, ns in (
        (OperatorKind.HARDY, eval_hardy, (2, 3, 4)),
        (OperatorKind.HLP, eval_hlp, (2, 3, 4, 6, 8, 10)),
        (OperatorKind.HILBERT, eval_hilbert, (2, 3, 4, 6, 8, 10)),
    )
    for i, alphas in enumerate([(1.5,), (2.0, 1.5)])
    for n in ns
]


class TestMonteCarloBeyondH1:
    @pytest.mark.parametrize("kind,evaluator,alphas,n", BEYOND_H1)
    def test_extremal_value_is_closed_form(self, kind, evaluator, alphas, n):
        dim = GroupDim(n)
        spec = OperatorSpec(kind, dim, AlphaProfile(alphas))
        x = HPoint.of(dim, [0.6, -0.3] + [0.2] * (dim.ambient - 3) + [0.5])
        scale = gauge(x) ** sum(alphas)
        ests = [
            evaluator(extremals(*alphas), x, spec, McEngine(1 << 18, SeededStream(n), workers))
            for workers in (1, 2)
        ]
        assert ests[0] == ests[1]
        closed = spec.constant()
        # hardy m = 1 weights every sample equally, so its error is rounding
        assert abs(scale * ests[0].value - closed) <= 4 * scale * ests[0].std_error + 1e-12 * closed

    # at small alpha the outer piece's weight overflows where the kernel is
    # below the float range; their product is O(1)
    @pytest.mark.parametrize(
        "kind,evaluator", [(OperatorKind.HLP, eval_hlp), (OperatorKind.HILBERT, eval_hilbert)]
    )
    @pytest.mark.parametrize("n,alpha", [(1, 0.05), (10, 0.1), (10, 0.3)])
    def test_small_alpha_at_e1(self, kind, evaluator, n, alpha):
        dim = GroupDim(n)
        spec = OperatorSpec(kind, dim, AlphaProfile((alpha,)))
        e1 = HPoint.of(dim, [1.0] + [0.0] * (dim.ambient - 1))
        est = evaluator(extremals(alpha), e1, spec, McEngine(1 << 18, SeededStream(0)))
        closed = spec.constant()
        assert abs(est.value - closed) <= 4 * est.std_error

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("kind", ["hardy", "hlp", "hilbert", "kernel"])
    def test_tabulated_convention_of_the_engine(self, kind, n, m):
        # the convention scales each factor's polar constant by 2; the
        # averaging kernel's normalizer takes the 2^m back
        dim = GroupDim(n)
        e1 = HPoint.of(dim, [1.0] + [0.0] * (dim.ambient - 1))
        engine = McEngine(1 << 14, SeededStream(m))
        kernel = hlp_kernel(dim, m) if kind == "kernel" else None
        value = {
            convention: operators.evaluate(
                OperatorSpec(OperatorKind(kind), dim, AlphaProfile((1.0,) * m), convention, kernel),
                extremals(*(1.0,) * m),
                e1,
                engine,
            ).value
            for convention in Convention
        }
        scale = 1.0 if kind == "hardy" else 2.0**m
        paper, geometric = value[Convention.PAPER_FORMULA], value[Convention.GEOMETRIC]
        assert math.isclose(paper, scale * geometric, rel_tol=1e-14)


def direct_kernel(kind, dim, m, r0, rs):
    """The named kernels' formulas at gauges, as the operators define them."""
    Q = dim.Q
    if kind is OperatorKind.HARDY:
        inside = sum(r * r for r in rs) < r0 * r0
        return 1.0 / (unit_ball_volume(dim) ** m * r0 ** (m * Q)) if inside else 0.0
    if kind is OperatorKind.HLP:
        return max(r0, *rs) ** (-m * Q)
    return (r0**Q + sum(r**Q for r in rs)) ** -m


NAMED_KERNELS = {
    OperatorKind.HARDY: hardy_kernel,
    OperatorKind.HLP: hlp_kernel,
    OperatorKind.HILBERT: hilbert_kernel,
}


@st.composite
def kernel_arguments(draw):
    """n, m, the gauges r0, r_1..r_m and a dilation t, all positive."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    gauges = st.floats(1e-3, 1e3)
    return n, m, draw(gauges), draw(st.lists(gauges, min_size=m, max_size=m)), draw(gauges)


def off_the_hardy_boundary(kind, r0, rs):
    # the two forms of the indicator may round differently on its boundary
    return kind is not OperatorKind.HARDY or abs(sum(r * r for r in rs) / r0**2 - 1.0) > 1e-9


class TestKernelLogProfiles:
    """Past H^1: each named kernel's log profile against its formula."""

    @pytest.mark.parametrize("kind", list(NAMED_KERNELS), ids=lambda k: k.value)
    @settings(max_examples=300, deadline=None)
    @given(args=kernel_arguments())
    def test_log_profile_is_the_log_of_the_formula(self, kind, args):
        n, m, r0, rs, _ = args
        assume(off_the_hardy_boundary(kind, r0, rs))
        dim = GroupDim(n)
        kernel = NAMED_KERNELS[kind](dim, m)
        got = float(kernel.log_profile(math.log(r0), *np.log(rs)))
        direct = direct_kernel(kind, dim, m, r0, rs)
        if direct == 0.0:
            assert got == -math.inf
        else:
            want = math.log(direct)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("kind", list(NAMED_KERNELS), ids=lambda k: k.value)
    @settings(max_examples=300, deadline=None)
    @given(args=kernel_arguments())
    def test_log_profile_is_homogeneous(self, kind, args):
        n, m, r0, rs, t = args
        assume(off_the_hardy_boundary(kind, r0, rs))
        dim = GroupDim(n)
        kernel = NAMED_KERNELS[kind](dim, m)
        logs = [math.log(r0), *np.log(rs)]
        lt = math.log(t)
        base = float(kernel.log_profile(*logs))
        scaled = float(kernel.log_profile(*(lr + lt for lr in logs)))
        if base == -math.inf:
            assert scaled == -math.inf
        else:
            expected = base - m * dim.Q * lt
            assert abs(scaled - expected) <= 1e-13 * max(1.0, abs(base), abs(expected))


def sum_kernel_by_formula(Q, m, l0, *ls):
    """The sum kernel's log profile as plain expressions, one new array per
    step: the in-place profile must give these bits."""
    terms = [Q * lr for lr in (l0, *ls)]
    top = terms[0]
    for t in terms[1:]:
        top = np.maximum(top, t)
    total = sum(np.exp(t - top) for t in terms)
    return (top + np.log(total)) * -float(m)


class TestSumKernelLogProfile:
    """``hilbert_kernel``'s log profile works in place on arrays of its own."""

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (3, 2), (2, 3)])
    def test_bits_of_the_formula(self, n, m):
        rng = np.random.default_rng(70 + m)
        ls = [rng.normal(0.0, 20.0, 1000) for _ in range(m)]
        ls[0][:4] = [-np.inf, 0.0, 300.0, -300.0]
        profile = hilbert_kernel(GroupDim(n), m).log_profile
        for l0 in (0.0, rng.normal(0.0, 2.0, 1000)):
            got = profile(l0, *ls)
            want = sum_kernel_by_formula(GroupDim(n).Q, m, l0, *ls)
            assert got.tobytes() == np.asarray(want).tobytes()

    def test_arguments_unchanged(self):
        rng = np.random.default_rng(75)
        args = [rng.normal(0.0, 3.0, 500) for _ in range(3)]
        before = [a.copy() for a in args]
        hilbert_kernel(DIM1, 2).log_profile(*args)
        hilbert_kernel(DIM1, 2).log_profile(0.0, *args[1:])
        for a, b in zip(args, before):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize(
        "kind", [float, np.float64, np.array], ids=["float", "numpy-scalar", "0-d"]
    )
    def test_scalar_arguments(self, kind):
        logs = (0.0, -0.5, 1.25)
        got = hilbert_kernel(DIM1, 2).log_profile(*(kind(v) for v in logs))
        want = sum_kernel_by_formula(DIM1.Q, 2, *logs)
        assert np.shape(got) == ()
        assert float(got) == float(want)

    def test_finite_at_large_log_gauges(self):
        lg = np.array([-300.0, -1.0, 0.0, 1.0, 150.0, 300.0])
        for n, m in ((1, 2), (10, 3)):
            kernel = hilbert_kernel(GroupDim(n), m)
            out = kernel.log_profile(0.0, *([lg] * m))
            assert np.isfinite(out).all()
            # at l = 300 the m equal terms Q l lead and the term of l0 = 0
            # underflows, so the log profile is -m (300 Q + log m)
            want = -m * (GroupDim(n).Q * 300.0 + math.log(m))
            assert math.isclose(out[-1], want, rel_tol=1e-15)


class TestKernelOperator:
    def test_hardy_specialization(self):
        kern = hardy_kernel(DIM1, 1)
        spec = spec_of(OperatorKind.KERNEL, 1.0, kernel=kern)
        est = eval_kernel_op(kern, extremals(1.0), E1, spec, TIGHT)
        named = eval_hardy(extremals(1.0), E1, spec_of(OperatorKind.HARDY, 1.0), TIGHT)
        assert abs(est.value - named.value) / named.value <= 1e-8

    def test_hlp_specialization(self):
        kern = hlp_kernel(DIM1, 2)
        spec = spec_of(OperatorKind.KERNEL, 1.0, 1.0, kernel=kern)
        est = eval_kernel_op(kern, extremals(1.0, 1.0), E1, spec, TIGHT)
        named = eval_hlp(
            extremals(1.0, 1.0), E1, spec_of(OperatorKind.HLP, 1.0, 1.0), TIGHT
        )
        assert abs(est.value - named.value) / named.value <= 1e-6

    def test_hilbert_specialization(self):
        kern = hilbert_kernel(DIM1, 1)
        spec = spec_of(OperatorKind.KERNEL, 2.0, kernel=kern)
        est = eval_kernel_op(kern, extremals(2.0), E1, spec, TIGHT)
        named = eval_hilbert(extremals(2.0), E1, spec_of(OperatorKind.HILBERT, 2.0), TIGHT)
        assert abs(est.value - named.value) / named.value <= 1e-6

    def test_linearity_in_kernel(self):
        base = hilbert_kernel(DIM1, 1)
        scaled = KernelSpec(lambda l0, l1: math.log(3.0) + base.log_profile(l0, l1))
        spec = spec_of(OperatorKind.KERNEL, 2.0, kernel=scaled)
        est_scaled = eval_kernel_op(scaled, extremals(2.0), E1, spec, TIGHT)
        est_base = eval_kernel_op(base, extremals(2.0), E1, spec, TIGHT)
        assert math.isclose(est_scaled.value, 3.0 * est_base.value, rel_tol=1e-12)

    def test_probe_rejects_a_kernel_built_for_another_m(self):
        # the m = 1 sum kernel has degree -Q, and m = 2 needs -2Q
        bad = hilbert_kernel(DIM1, 1)
        spec = spec_of(OperatorKind.KERNEL, 1.0, 1.0, kernel=bad)
        with pytest.raises(KernelHomogeneityError, match=r"not homogeneous of degree -8\.0"):
            eval_kernel_op(bad, extremals(1.0, 1.0), E1, spec)

    @pytest.mark.parametrize("s", [-4.0, 0.0, math.inf, math.nan])
    def test_simplex_support_must_be_positive_and_finite(self, s):
        with pytest.raises(ValueError, match="simplex_support"):
            KernelSpec(hilbert_kernel(DIM1, 1).log_profile, s)

    def test_inhomogeneous_profile_reports_worst_ratio(self):
        bad = KernelSpec(lambda l0, l1: -np.logaddexp(4.0 * l0, 3.0 * l1))
        spec = spec_of(OperatorKind.KERNEL, 2.0, kernel=hilbert_kernel(DIM1, 1))
        with pytest.raises(KernelHomogeneityError, match="worst probe"):
            eval_kernel_op(bad, extremals(2.0), E1, spec)

    def test_probe_passes_a_kernel_whose_radial_form_underflows(self):
        # at mQ = 576 a probe's t^-mQ and kernel values leave the float range;
        # the probe compares log profiles, where they do not
        dim = GroupDim(95)
        operators._probe_homogeneity(hilbert_kernel(dim, 3), dim, 3)

    def test_probe_rejects_an_inhomogeneous_log_profile_at_large_mq(self):
        dim = GroupDim(95)
        base = hilbert_kernel(dim, 3)
        tilted = KernelSpec(lambda l0, l1, l2, l3: base.log_profile(l0, l1, l2, l3) + 0.01 * l1)
        with pytest.raises(KernelHomogeneityError, match="not homogeneous .* worst probe"):
            operators._probe_homogeneity(tilted, dim, 3)

    def test_probe_names_a_probe_off_the_support(self):
        # the kernel vanishes past r1 = 1 whatever r0: no dilation keeps that
        base = hilbert_kernel(DIM1, 1)
        cut = KernelSpec(lambda l0, l1: np.where(l1 < 0.0, base.log_profile(l0, l1), -np.inf))
        with pytest.raises(KernelHomogeneityError, match="not dilation-invariant") as err:
            operators._probe_homogeneity(cut, DIM1, 1)
        # the probe named has r1 and t r1 on opposite sides of 1
        r1, t = map(float, re.search(r"rs=\[(\S+)\], t=(\S+)\)", str(err.value)).groups())
        assert (r1 < 1.0) != (t * r1 < 1.0)

    def test_mc_engine_specialization(self):
        kern = hilbert_kernel(DIM1, 1)
        spec = spec_of(OperatorKind.KERNEL, 2.0, kernel=kern)
        mc = eval_kernel_op(
            kern, extremals(2.0), E1, spec, McEngine(150_000, SeededStream(34))
        )
        assert abs(mc.value - math.pi**3 / 2) <= 3 * mc.std_error


class TestKernelConstant:
    def test_hardy_value(self):
        est = kernel_constant(hardy_kernel(DIM1, 1), DIM1, AlphaProfile.of(1.0), TIGHT)
        assert abs(est.value - 4.0 / 3.0) <= 1e-9

    def test_hilbert_value(self):
        est = kernel_constant(hilbert_kernel(DIM1, 1), DIM1, AlphaProfile.of(2.0), TIGHT)
        assert abs(est.value - math.pi**3 / 2) / (math.pi**3 / 2) <= 1e-8

    def test_divergent_profile_rejected(self):
        with pytest.raises(DivergentConstantError):
            kernel_constant(hardy_kernel(DIM1, 1), DIM1, AlphaProfile.of(4.0))


class TestOperatorSpec:
    def test_constant_dispatch(self):
        assert math.isclose(
            spec_of(OperatorKind.HARDY, 1.0).constant(), 4.0 / 3.0, rel_tol=1e-14
        )
        with pytest.raises(ValueError):
            spec_of(OperatorKind.KERNEL, 1.0, kernel=hardy_kernel(DIM1, 1)).constant()

    def test_profile_validated_against_q(self):
        with pytest.raises(DivergentConstantError):
            spec_of(OperatorKind.HARDY, 4.5)

    def test_kernel_kind_needs_kernel(self):
        with pytest.raises(ValueError):
            OperatorSpec(OperatorKind.KERNEL, DIM1, AlphaProfile.of(1.0))

    def test_quad_engine_rejects_large_m(self):
        spec = spec_of(OperatorKind.HARDY, *([0.5] * 4))
        with pytest.raises(ValueError, match="m <= 3"):
            eval_hardy(extremals(*[0.5] * 4), E1, spec, TIGHT)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("path", ["hardy", "hlp", "hilbert", "kernel-hlp"])
    def test_quad_engine_reaches_what_it_evaluates(self, path, m):
        # the predicate reads the kind's record: the max kernel given as a
        # general kernel takes the general path, and its limit
        kernel = hlp_kernel(DIM1, m) if path == "kernel-hlp" else None
        kind = OperatorKind.KERNEL if kernel else OperatorKind(path)
        spec = OperatorSpec(kind, DIM1, AlphaProfile((1.0,) * m), kernel=kernel)
        engine = QuadEngine(QuadSpec(1e-4))
        if QuadEngine.reaches(spec):
            assert operators.evaluate(spec, extremals(*[1.0] * m), E1, engine).value > 0.0
        else:
            with pytest.raises(ValueError, match=f"quadrature takes m <= 3, got {m};"):
                operators.evaluate(spec, extremals(*[1.0] * m), E1, engine)
        assert QuadEngine.reaches(spec) == (path == "hlp" or m <= 3)
