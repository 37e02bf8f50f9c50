import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlab.hgroup import (
    Convention,
    DimensionMismatchError,
    GroupDim,
    HPoint,
    ball_volume,
    dilate,
    dilation_jacobian,
    distance,
    gauge,
    gauge_array,
    group_inv,
    group_mul,
    log_sphere_measure,
    log_unit_ball_volume,
    origin,
    sphere_measure,
    unit_ball_volume,
)
from hlab.integrate import SeededStream, rejection_volume_estimate


def pt(n, *coords):
    return HPoint.of(n, coords)


class TestGroupLaw:
    def test_identity_element(self):
        assert group_mul(origin(1), pt(1, 1, 2, 3)).coords == (1, 2, 3)
        assert group_mul(pt(1, 1, 2, 3), origin(1)).coords == (1, 2, 3)

    def test_hand_evaluations(self):
        assert group_mul(pt(1, 1, 0, 0), pt(1, 0, 1, 0)).coords == (1, 1, -2)
        assert group_mul(pt(1, 1, 2, 3), pt(1, 4, 5, 6)).coords == (5, 7, 15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            group_mul(pt(1, 1, 0, 0), pt(2, 1, 0, 0, 0, 0))

    def test_inverse_is_negation(self):
        assert group_inv(origin(1)).coords == (0, 0, 0)
        q = group_inv(pt(1, 1, 2, 3))
        assert q.coords == (-1, -2, -3)
        assert group_mul(pt(1, 1, 2, 3), q).coords == (0, 0, 0)

    @given(st.lists(st.floats(-10, 10), min_size=5, max_size=5))
    def test_inverse_involution(self, coords):
        p = pt(2, *coords)
        assert group_inv(group_inv(p)) == p

    def test_associativity_residuals(self):
        rng = np.random.default_rng(101)
        for n in (1, 2):
            dim = GroupDim(n)
            worst = 0.0
            for _ in range(2_000):
                a, b, c = (
                    HPoint.of(dim, rng.uniform(-10, 10, dim.ambient)) for _ in range(3)
                )
                left = group_mul(group_mul(a, b), c)
                right = group_mul(a, group_mul(b, c))
                worst = max(
                    worst,
                    max(abs(x - y) for x, y in zip(left.coords, right.coords)),
                )
            assert worst <= 1e-9

    def test_inverse_residual(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = HPoint.of(1, rng.uniform(-10, 10, 3))
            prod = group_mul(p, group_inv(p))
            assert max(abs(c) for c in prod.coords) <= 1e-12


class TestDilation:
    def test_identity_dilation(self):
        p = pt(1, 0.3, -0.7, 2.0)
        assert dilate(1.0, p) == p

    def test_definition(self):
        assert dilate(2.0, pt(1, 1, 1, 1)).coords == (2, 2, 4)

    @given(
        st.floats(0.01, 100),
        st.floats(0.01, 100),
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    )
    @settings(max_examples=50)
    def test_semigroup(self, r, s, coords):
        p = pt(1, *coords)
        a = dilate(r, dilate(s, p))
        b = dilate(r * s, p)
        assert all(
            math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-300)
            for x, y in zip(a.coords, b.coords)
        )

    def test_rejects_nonpositive_factor(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                dilate(bad, pt(1, 1, 0, 0))

    def test_jacobian(self):
        for n in (1, 2, 3):
            dim = GroupDim(n)
            for r in (0.5, 2.0, 10.0):
                mat = np.diag([r] * (2 * n) + [r * r])
                assert math.isclose(
                    float(np.linalg.det(mat)), dilation_jacobian(dim, r), rel_tol=1e-12
                )
            assert dilation_jacobian(dim, 2.0) == 2.0**dim.Q


class TestGauge:
    def test_unit_vectors(self):
        assert gauge(pt(1, 1, 0, 0)) == 1.0
        assert gauge(pt(1, 0, 0, 1)) == 1.0

    def test_hand_value(self):
        assert math.isclose(gauge(pt(1, 1, 1, 2)), 8.0**0.25, rel_tol=1e-15)

    def test_zero_iff_origin(self):
        assert gauge(origin(2)) == 0.0
        assert gauge(pt(2, 0, 0, 0, 0, 1e-8)) > 0.0

    # coordinate magnitudes stay above 1e-3: far smaller values push the
    # (sum x^2)^2 intermediate into subnormals where no precision is left
    coord = st.one_of(st.just(0.0), st.floats(1e-3, 5.0), st.floats(-5.0, -1e-3))

    @given(st.floats(1e-3, 1e3), st.lists(coord, min_size=3, max_size=3))
    @settings(max_examples=80)
    def test_homogeneity(self, r, coords):
        p = pt(1, *coords)
        g = gauge(p)
        assert abs(gauge(dilate(r, p)) - r * g) <= 1e-12 * max(r * g, 1e-300)

    def test_gauge_array_matches_scalar(self):
        rng = np.random.default_rng(3)
        batch = rng.uniform(-2, 2, (50, 5))
        vals = gauge_array(batch, 2)
        for row, v in zip(batch, vals):
            assert math.isclose(v, gauge(HPoint.of(2, row)), rel_tol=1e-14)

    def test_gauge_does_not_overflow(self):
        # |z|^4 and t^2 overflow here, the gauge itself does not
        for coords, expected in (([1e160, 0.0, 0.0], 1e160), ([0.0, 0.0, 1e300], 1e150)):
            assert math.isclose(gauge_array([coords], 1)[0], expected, rel_tol=1e-15)
            assert math.isclose(gauge(pt(1, *coords)), expected, rel_tol=1e-15)
        assert gauge_array([[np.inf, 0.0, 0.0]], 1)[0] == np.inf

    @pytest.mark.parametrize("n", [1, 3])
    def test_gauge_array_agrees_with_gauge_at_every_scale(self, n):
        # rows whose plain form falls below the normal range, or overflows,
        # take the scaled form in both
        rng = np.random.default_rng(5)
        base = [HPoint.of(n, rng.uniform(-1, 1, 2 * n + 1)) for _ in range(3)]
        base += [pt(n, *([1.0] + [0.0] * (2 * n))), pt(n, *([0.0] * (2 * n) + [1.0]))]
        for r in np.logspace(-150, 150, 61):
            points = [dilate(float(r), p) for p in base]
            rows = gauge_array(np.array([p.coords for p in points]), n)
            for p, q, g in zip(base, points, rows):
                assert math.isclose(g, gauge(q), rel_tol=1e-15)
                assert math.isclose(g, r * gauge(p), rel_tol=1e-14)
        assert gauge_array([[1e-100, 0.0, 0.0]], 1)[0] == 1e-100

    def test_gauge_array_keeps_plain_form_bits(self):
        rng = np.random.default_rng(4)
        batch = rng.standard_normal((1000, 7)) * np.exp(rng.uniform(-30, 30, (1000, 7)))
        horiz, vert = batch[:, :6], batch[:, 6]
        s = np.einsum("...i,...i->...", horiz, horiz)
        assert np.array_equal(gauge_array(batch, 3), (s * s + vert * vert) ** 0.25)


class TestDistance:
    def test_zero_on_diagonal(self):
        p = pt(1, 0.4, -0.2, 1.7)
        assert distance(p, p) == 0.0

    def test_reduces_to_gauge(self):
        assert distance(pt(1, 1, 0, 0), origin(1)) == 1.0

    def test_left_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(2_000):
            z, p, q = (HPoint.of(1, rng.uniform(-10, 10, 3)) for _ in range(3))
            d0 = distance(p, q)
            d1 = distance(group_mul(z, p), group_mul(z, q))
            assert abs(d0 - d1) <= 1e-10 * max(1.0, d0)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(13)
        for _ in range(10_000):
            p, x, q = (HPoint.of(1, rng.uniform(-10, 10, 3)) for _ in range(3))
            assert distance(p, q) <= distance(p, x) + distance(x, q) + 1e-12


class TestMeasure:
    def test_geometric_unit_volume(self):
        assert math.isclose(unit_ball_volume(GroupDim(1)), math.pi**2 / 2, rel_tol=1e-14)

    def test_tabulated_unit_volume(self):
        assert math.isclose(
            unit_ball_volume(GroupDim(1), Convention.PAPER_FORMULA),
            math.pi**2,
            rel_tol=1e-14,
        )

    def test_log_volume(self):
        for n in (1, 2, 5, 200):
            for conv in Convention:
                log_v = log_unit_ball_volume(GroupDim(n), conv)
                assert math.isclose(math.exp(log_v), unit_ball_volume(n, conv), rel_tol=1e-13)
        # finite where the volume itself underflows
        assert unit_ball_volume(335) == 0.0
        assert math.isfinite(log_unit_ball_volume(335))

    def test_log_sphere_measure(self):
        # omega_Q = Q |B(0,1)|, whose log the closed forms and both engines read
        for n in (1, 2, 5, 200):
            for conv in Convention:
                log_s = log_sphere_measure(GroupDim(n), conv)
                assert math.isclose(math.exp(log_s), sphere_measure(n, conv), rel_tol=1e-13)
        assert sphere_measure(335) == 0.0
        assert log_sphere_measure(335) == math.log(672) + log_unit_ball_volume(335)

    def test_convention_ratio_is_two(self):
        for n in (1, 2, 3, 5):
            dim = GroupDim(n)
            ratio = unit_ball_volume(dim, Convention.PAPER_FORMULA) / unit_ball_volume(dim)
            assert math.isclose(ratio, 2.0, rel_tol=1e-14)

    def test_radius_scaling(self):
        assert math.isclose(
            ball_volume(GroupDim(1), 2.0), 2.0**4 * math.pi**2 / 2, rel_tol=1e-14
        )
        with pytest.raises(ValueError):
            ball_volume(GroupDim(1), 0.0)

    def test_sphere_measure(self):
        assert math.isclose(sphere_measure(GroupDim(1)), 2 * math.pi**2, rel_tol=1e-14)
        assert math.isclose(
            sphere_measure(GroupDim(1), Convention.PAPER_FORMULA),
            4 * math.pi**2,
            rel_tol=1e-14,
        )
        for n in (1, 2, 4):
            dim = GroupDim(n)
            for conv in Convention:
                assert math.isclose(
                    sphere_measure(dim, conv) / unit_ball_volume(dim, conv),
                    dim.Q,
                    rel_tol=1e-14,
                )

    def test_sphere_measure_is_q_unit_ball_volumes(self):
        dim = GroupDim(2)
        for conv in Convention:
            assert math.isclose(
                sphere_measure(dim, conv), dim.Q * unit_ball_volume(dim, conv), rel_tol=1e-15
            )

    def test_geometric_volume_matches_rejection_mc(self):
        for n, seed in ((1, 5), (2, 6)):
            dim = GroupDim(n)
            est = rejection_volume_estimate(dim, 1_000_000, SeededStream(seed))
            assert abs(est.value - unit_ball_volume(dim)) <= 3.0 * est.std_error


class TestValidation:
    def test_bad_group_index(self):
        for bad in (0, -1, 1.5, True):
            with pytest.raises(ValueError):
                GroupDim(bad)

    def test_bad_coordinate_count(self):
        with pytest.raises(ValueError):
            HPoint.of(1, (1.0, 2.0))

    def test_nonfinite_coordinates(self):
        with pytest.raises(ValueError):
            HPoint.of(1, (1.0, math.nan, 0.0))
