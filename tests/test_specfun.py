import math

import numpy as np
import pytest

from hlab.hgroup import Convention, GroupDim
from hlab.integrate import QuadSpec, quad_1d, quad_nested
from hlab.specfun import (
    AlphaProfile,
    DivergentConstantError,
    beta,
    beta_integral,
    gamma,
    hardy_constant,
    hilbert_constant,
    hlp_constant,
    hlp_region_values,
    i_m_closed,
    i_m_recursive,
    log_gamma,
)

OMEGA_GEOM = 2 * math.pi**2  # n=1
TIGHT = QuadSpec(rel_tol=1e-12)


class TestGammaBeta:
    def test_classical_values(self):
        assert math.isclose(gamma(1.0), 1.0, rel_tol=1e-15)
        assert math.isclose(gamma(0.5), math.sqrt(math.pi), rel_tol=1e-14)
        assert math.isclose(beta(1.0, 1.0), 1.0, rel_tol=1e-14)

    def test_gamma_5p5_by_recurrence(self):
        # Gamma(5.5) = 4.5 * 3.5 * 2.5 * 1.5 * 0.5 * Gamma(0.5)
        expected = 4.5 * 3.5 * 2.5 * 1.5 * 0.5 * math.sqrt(math.pi)
        assert math.isclose(gamma(5.5), expected, rel_tol=1e-13)
        assert math.isclose(expected, 52.34277778455352, rel_tol=1e-14)

    def test_recurrence_property(self):
        for x in np.linspace(0.1, 50.0, 250):
            lhs = gamma(x + 1.0)
            assert abs(lhs - x * gamma(x)) / lhs <= 1e-13

    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                log_gamma(bad)


class TestHardyConstant:
    def test_m1_against_radial_quadrature(self):
        # A = Q * int_0^1 r^{Q-1-alpha} dr with Q=4, alpha=1
        oracle = 4.0 * quad_1d(lambda r: r**2, 0.0, 1.0, TIGHT).value
        value = hardy_constant(1, AlphaProfile.of(1.0)).value
        assert math.isclose(value, oracle, rel_tol=1e-12)
        assert math.isclose(value, 4.0 / 3.0, rel_tol=1e-15)

    def test_alpha_to_zero_limit(self):
        value = hardy_constant(1, AlphaProfile.of(1e-12)).value
        assert math.isclose(value, 1.0, rel_tol=1e-9)

    def test_m2_against_simplex_quadrature(self):
        def level(depth, prefix):
            # the quarter disk {a, b > 0, a^2 + b^2 < 1}, b inside a
            if depth == 0:
                return [(lambda a, own: (np.ones_like(a), a), 0.0, 1.0, ())]
            a = prefix[0]
            return [(lambda b, own: a[own] ** 2 * b**2, 0.0, np.sqrt(1.0 - a * a), ())]

        oracle = 16.0 * quad_nested(level, 2, TIGHT).value
        value = hardy_constant(1, AlphaProfile.of(1.0, 1.0)).value
        assert math.isclose(value, oracle, rel_tol=1e-10)
        assert math.isclose(value, math.pi / 6.0, rel_tol=1e-14)

    def test_convention_independence_bit_exact(self):
        prof = AlphaProfile.of(0.7, 1.3)
        a = hardy_constant(1, prof, Convention.GEOMETRIC).value
        b = hardy_constant(1, prof, Convention.PAPER_FORMULA).value
        assert a == b

    def test_monotone_in_each_exponent(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            alphas = rng.uniform(0.2, 3.5, 2)
            base = hardy_constant(1, AlphaProfile.of(*alphas)).value
            for i in range(2):
                bumped = alphas.copy()
                bumped[i] += 1e-6
                up = hardy_constant(1, AlphaProfile.of(*bumped)).value
                assert up > base

    def test_reports_every_violation(self):
        with pytest.raises(DivergentConstantError) as err:
            hardy_constant(1, AlphaProfile.of(5.0, 1.0, 4.0))
        assert err.value.indices == (0, 2)
        assert "alpha_1" in str(err.value) and "alpha_3" in str(err.value)


class TestHlpConstant:
    def test_m1_against_piecewise_quadrature(self):
        inner = quad_1d(lambda r: r**2, 0.0, 1.0, TIGHT).value
        outer = quad_1d(lambda r: r ** (2.0 - 4.0), 1.0, math.inf, TIGHT).value
        oracle = OMEGA_GEOM * (inner + outer)
        value = hlp_constant(1, AlphaProfile.of(1.0)).value
        assert math.isclose(value, oracle, rel_tol=1e-11)
        assert math.isclose(value, 8 * math.pi**2 / 3, rel_tol=1e-14)

    def test_tabulated_convention(self):
        value = hlp_constant(1, AlphaProfile.of(1.0), Convention.PAPER_FORMULA).value
        assert math.isclose(value, 16 * math.pi**2 / 3, rel_tol=1e-14)

    def test_symmetry_under_exponent_swap(self):
        a = hlp_constant(1, AlphaProfile.of(0.8, 2.1)).value
        b = hlp_constant(1, AlphaProfile.of(2.1, 0.8)).value
        assert math.isclose(a, b, rel_tol=1e-15)


class TestHlpRegions:
    def test_m1_region_values(self):
        k0, k1 = hlp_region_values(1, AlphaProfile.of(1.0))
        inner = OMEGA_GEOM * quad_1d(lambda r: r**2, 0.0, 1.0, TIGHT).value
        outer = OMEGA_GEOM * quad_1d(lambda r: r**-2.0, 1.0, math.inf, TIGHT).value
        assert math.isclose(k0, inner, rel_tol=1e-11)
        assert math.isclose(k1, outer, rel_tol=1e-11)
        assert math.isclose(k0, 2 * math.pi**2 / 3, rel_tol=1e-14)
        assert math.isclose(k1, 2 * math.pi**2, rel_tol=1e-14)

    def test_sum_identity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 5))
            Q = 2 * n + 2
            prof = AlphaProfile.of(*rng.uniform(0.05, 0.95, m) * Q)
            total = math.fsum(hlp_region_values(n, prof))
            closed = hlp_constant(n, prof).value
            assert abs(total - closed) / closed <= 1e-13

    def test_m2_against_three_region_quadrature(self):
        # the three cells of max(1, r1, r2): both below 1; r1 largest; r2 largest
        # the (0, 1)^2 cell of a^2 b^2 is the square of its 1-D factor
        cell0 = quad_1d(lambda a: a**2, 0.0, 1.0, TIGHT).value ** 2

        def outer_cell(r):
            r = np.asarray(r, dtype=float)
            # inner integral int_0^r u^2 du = r^3/3 against r^{2-8}
            return r ** (2.0 - 8.0) * r**3 / 3.0

        cell1 = quad_1d(outer_cell, 1.0, math.inf, TIGHT).value
        oracle = OMEGA_GEOM**2 * (cell0 + 2.0 * cell1)
        total = math.fsum(hlp_region_values(1, AlphaProfile.of(1.0, 1.0)))
        assert math.isclose(total, oracle, rel_tol=1e-11)
        assert math.isclose(total, 16 * math.pi**4 / 9, rel_tol=1e-13)


class TestHilbertConstant:
    def test_m1_against_radial_quadrature(self):
        oracle = OMEGA_GEOM * quad_1d(lambda r: r / (1 + r**4), 0.0, math.inf, TIGHT).value
        value = hilbert_constant(1, AlphaProfile.of(2.0)).value
        assert math.isclose(value, oracle, rel_tol=1e-11)
        assert math.isclose(value, math.pi**3 / 2, rel_tol=1e-14)

    def test_tabulated_convention(self):
        value = hilbert_constant(
            1, AlphaProfile.of(2.0), Convention.PAPER_FORMULA
        ).value
        assert math.isclose(value, math.pi**3, rel_tol=1e-14)

    def test_reflection_identity(self):
        # for m=1 the constant times sin(pi alpha / Q) is Omega * pi
        dim = GroupDim(1)
        expected = math.pi**2 / 2 * math.pi
        for alpha in np.arange(0.5, 4.0, 0.5):
            value = hilbert_constant(1, AlphaProfile.of(float(alpha))).value
            assert math.isclose(
                value * math.sin(math.pi * alpha / dim.Q), expected, rel_tol=1e-12
            )


class TestBetaIntegral:
    def test_pi_over_two(self):
        oracle = quad_1d(
            lambda t: (1 + t) ** -2.0 * t**-0.5, 0.0, math.inf, TIGHT
        ).value
        assert math.isclose(beta_integral(2.0, 0.5), oracle, rel_tol=1e-10)
        assert math.isclose(beta_integral(2.0, 0.5), math.pi / 2, rel_tol=1e-14)

    def test_beta_to_zero_limit(self):
        assert math.isclose(beta_integral(2.0, 1e-13), 1.0, rel_tol=1e-10)

    def test_generic_point_against_quadrature(self):
        oracle = quad_1d(
            lambda t: (1 + t) ** -1.5 * t**-0.25, 0.0, math.inf, TIGHT
        ).value
        value = beta_integral(1.5, 0.25)
        assert math.isclose(value, oracle, rel_tol=1e-10)
        assert math.isclose(value, 1.6944261695879572, rel_tol=1e-12)

    def test_convergence_conditions(self):
        with pytest.raises(DivergentConstantError):
            beta_integral(1.0, 1.2)
        with pytest.raises(DivergentConstantError):
            beta_integral(0.9, 0.1)


class TestProductIntegral:
    def test_base_case_is_beta(self):
        for a, b in ((2.0, 0.5), (1.7, 0.3), (3.2, 0.9)):
            assert math.isclose(
                i_m_closed(a, (b,)), beta_integral(a, b), rel_tol=1e-13
            )
            assert math.isclose(
                i_m_recursive(a, (b,)), beta_integral(a, b), rel_tol=1e-13
            )

    def test_m2_value_and_quadrature(self):
        value = i_m_closed(2.0, (0.5, 0.5))
        assert math.isclose(value, math.pi, rel_tol=1e-13)

        # both levels refine to rel_tol 1e-9
        def level(depth, prefix):
            if depth == 0:
                return [(lambda t1, own: (np.ones_like(t1), t1), 0.0, math.inf, ())]
            t1 = prefix[0]

            def f(t2, own):
                return t1[own] ** -0.5 * t2**-0.5 / (1 + t1[own] + t2) ** 2

            return [(f, 0.0, math.inf, ())]

        oracle = quad_nested(level, 2, QuadSpec(rel_tol=1e-9)).value
        assert math.isclose(value, oracle, rel_tol=1e-7)

    def test_m3_value(self):
        assert math.isclose(
            i_m_closed(3.0, (0.5, 0.5, 0.5)), math.pi**2 / 4, rel_tol=1e-13
        )

    def test_closed_equals_recursive_random(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 100:
            m = int(rng.integers(1, 5))
            betas = rng.uniform(0.05, 0.95, m)
            alpha = float(m - betas.sum() + rng.uniform(0.05, 3.0))
            closed = i_m_closed(alpha, betas)
            recur = i_m_recursive(alpha, betas)
            assert abs(closed - recur) <= 1e-12 * abs(closed)
            checked += 1

    def test_convergence_conditions(self):
        with pytest.raises(DivergentConstantError):
            i_m_closed(1.0, (0.5, 0.5))  # alpha - m + sum(beta) = 0
        with pytest.raises(DivergentConstantError) as err:
            i_m_closed(5.0, (1.5, 0.5, -0.2))
        assert err.value.indices == (0, 2)


class TestProfileValidation:
    def test_total(self):
        prof = AlphaProfile.of(0.5, 1.25, 2.0)
        assert prof.m == 3
        assert math.isclose(prof.total, 3.75, rel_tol=1e-15)

    def test_nonpositive_rejected(self):
        with pytest.raises(DivergentConstantError):
            AlphaProfile.of(1.0, -0.5)

    def test_range_check_names_q(self):
        with pytest.raises(DivergentConstantError) as err:
            AlphaProfile.of(5.0).validate_for(GroupDim(1))
        assert "(0, 4)" in str(err.value)
