import dataclasses
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlab import integrate, verify
from hlab.hgroup import GroupDim, HPoint, log_unit_ball_volume, unit_ball_volume
from hlab.integrate import (
    Estimate,
    EstimationError,
    Method,
    QuadSpec,
    QuadratureError,
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
    TestFunction,
    eval_hardy,
    eval_hilbert,
)
from hlab.specfun import AlphaProfile, hardy_constant, hilbert_constant, hlp_constant

DIM1 = GroupDim(1)


class TestQuad1d:
    def test_polynomial(self):
        est = quad_1d(lambda r: r**3, 0.0, 1.0)
        assert math.isclose(est.value, 0.25, rel_tol=1e-12)
        assert est.method is Method.QUAD and est.std_error == 0.0

    def test_radial_power(self):
        est = quad_1d(lambda r: r**2, 0.0, 1.0)
        assert math.isclose(est.value, 1.0 / 3.0, rel_tol=1e-12)

    def test_infinite_upper_limit(self):
        est = quad_1d(lambda r: r / (1 + r**4), 0.0, math.inf)
        assert math.isclose(est.value, math.pi / 4, rel_tol=1e-10)

    def test_integrable_endpoint_singularity(self):
        spec = QuadSpec(rel_tol=1e-10)
        est = quad_1d(lambda r: r**-0.5, 0.0, 1.0, spec)
        assert abs(est.value - 2.0) <= 2.0 * spec.rel_tol * 10

    def test_breakpoints_resolve_jumps(self):
        f = lambda r: np.where(np.asarray(r) < 0.37, 1.0, 3.0)  # noqa: E731
        est = quad_1d(f, 0.0, 1.0, points=[0.37])
        assert math.isclose(est.value, 0.37 + 3 * 0.63, rel_tol=1e-13)

    def test_nonconvergence_carries_best_estimate(self):
        spec = QuadSpec(rel_tol=1e-14, max_subdivisions=3)
        with pytest.raises(QuadratureError) as err:
            quad_1d(lambda r: r**-0.9, 0.0, 1.0, spec)
        assert err.value.estimate is not None
        assert err.value.estimate.value > 0

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            quad_1d(lambda r: r, 1.0, 0.5)
        with pytest.raises(ValueError):
            quad_1d(lambda r: r, -math.inf, 0.5)


def tensor_level(f, m, ball):
    """The level function of ``f(r_1, ..., r_m)`` over the simplex ball
    ``{r_i > 0, sum r_i^2 < 1}`` (``ball``), where each axis ends where the
    ones before it fill the ball, or over the positive orthant."""

    def level(depth, prefix):
        hi = np.sqrt(np.maximum(1.0 - sum(r * r for r in prefix), 0.0)) if ball else math.inf
        if depth < m - 1:
            return [(lambda x, own: (np.ones_like(x), x), 0.0, hi, ())]
        return [(lambda x, own: f(*(r[own] for r in prefix), x), 0.0, hi, ())]

    return level


class TestQuadSpec:
    def test_relative_tolerance_and_subdivisions_only(self):
        assert [f.name for f in dataclasses.fields(QuadSpec)] == ["rel_tol", "max_subdivisions"]

    @pytest.mark.parametrize(
        "args", [(1e-9, 1e-14), (1e-9, 0), (1e-9, 2.0), (1e-9, True), (0.0,), (math.nan,)]
    )
    def test_rejects_bad_fields(self, args):
        # the old positional QuadSpec(rel_tol, abs_tol) puts abs_tol in
        # max_subdivisions, which must be an integer >= 1
        with pytest.raises(ValueError):
            QuadSpec(*args)

    def test_old_three_field_call_fails(self):
        with pytest.raises(TypeError):
            QuadSpec(1e-9, 1e-14, 100)


class TestRelativeRule:
    """Every level refines to rel_tol times the larger of its value and the
    smallest normal float."""

    @staticmethod
    def nested(scale):
        # int_0^1 int_0^1 scale y^(-1/2) dy dx = 2 scale
        def level(depth, prefix):
            if depth == 0:
                return [(lambda x, own: (np.ones_like(x), x), 0.0, 1.0, ())]
            return [(lambda y, own: scale * y**-0.5, 0.0, 1.0, ())]

        return quad_nested(level, 2, QuadSpec(rel_tol=1e-10))

    def test_outer_value_near_the_bottom_of_the_range_converges(self):
        spec = QuadSpec(rel_tol=1e-10)
        est = quad_1d(lambda r: 1e-300 * r**-0.5, 0.0, 1.0, spec)
        assert abs(est.value - 2e-300) <= 10 * spec.rel_tol * 2e-300
        # which takes more than the first panel
        assert est.n_samples > 15

    def test_inner_values_near_the_bottom_of_the_range_converge(self):
        est = self.nested(1e-300)
        assert abs(est.value - 2e-300) <= 10 * 1e-10 * 2e-300
        assert est.n_samples == self.nested(1.0).n_samples

    def test_subnormal_values_stop_at_the_smallest_normal_float(self):
        # one panel at each level: 15 outer nodes, 15 nodes inside each
        est = self.nested(1e-320)
        assert est.n_samples == 15 + 15 * 15
        assert 0.0 < est.value < 1e-310


class TestQuadNestedGeometries:
    def test_quarter_disk_area(self):
        est = quad_nested(tensor_level(lambda a, b: np.ones_like(a * b), 2, ball=True), 2)
        assert math.isclose(est.value, math.pi / 4, rel_tol=1e-9)

    def test_polynomial_moment_on_simplex_ball(self):
        est = quad_nested(tensor_level(lambda a, b: a**2 * b**2, 2, ball=True), 2)
        assert math.isclose(est.value, math.pi / 96, rel_tol=1e-9)

    def test_orthant_product_integral(self):
        def f(t1, t2):
            return t1**-0.5 * t2**-0.5 / (1 + t1 + t2) ** 2

        level = tensor_level(f, 2, ball=False)
        est = quad_nested(level, 2, QuadSpec(rel_tol=1e-8))
        assert math.isclose(est.value, math.pi, rel_tol=1e-6)


class TestStreams:
    def test_reproducible_sequences(self):
        a = SeededStream(42, 3).generator().random(16)
        b = SeededStream(42, 3).generator().random(16)
        assert np.array_equal(a, b)

    def test_blocks_are_disjoint(self):
        s = SeededStream(42)
        a = s.generator(block=1).random(16)
        b = s.generator(block=2).random(16)
        assert not np.array_equal(a, b)

    def test_stream_ids_differ(self):
        a = SeededStream(42, 0).generator().random(8)
        b = SeededStream(42, 1).generator().random(8)
        assert not np.array_equal(a, b)

    def test_key_is_fixed_width(self):
        # variable-width integer encodings would give these two triples
        # one key
        a = SeededStream(2**32, 5).generator(block=7).random(8)
        b = SeededStream(0, 1 + 5 * 2**32).generator(block=7).random(8)
        assert not np.array_equal(a, b)

    def test_negative_seed_wraps_modulo_2_64(self):
        a = SeededStream(-3, 2).generator(block=1).random(8)
        b = SeededStream(-3 & ((1 << 64) - 1), 2).generator(block=1).random(8)
        assert np.array_equal(a, b)

    def test_golden_draws(self):
        # pins the stream: a change here moves every Monte Carlo number
        draws = SeededStream(1, 2).generator(block=3).random(4)
        assert draws.tolist() == [
            0.5867921627270574,
            0.15202612043670605,
            0.5069785916974991,
            0.7983510215141266,
        ]


class TestSamplers:
    def test_acceptance_rate(self):
        n = 200_000
        est = rejection_volume_estimate(DIM1, n, SeededStream(3))
        rate = est.value / 2.0**3
        expected = (math.pi**2 / 2) / 8
        sigma = est.std_error / 2.0**3
        assert abs(rate - expected) <= 3 * sigma

    def test_box_rejection_stops_at_its_largest_n(self):
        # a chunk holds 2n + 1 coordinates a sample; at n = 512 the box
        # volume 2^{2n+1} overflows a float
        assert integrate.MAX_BOX_N == 31
        for n in (32, 512):
            with pytest.raises(ValueError, match=f"takes n up to 31, got n = {n}$"):
                rejection_volume_estimate(GroupDim(n), 2, SeededStream(0))


class RecordingBuffers(integrate.ChunkBuffers):
    """An arena that keeps each array it hands out, in request order."""

    def __init__(self):
        super().__init__()
        self.handed = []

    def empty(self, shape):
        out = super().empty(shape)
        self.handed.append(out)
        return out


class GivenUniforms:
    """A generator whose one draw is the given uniforms."""

    def __init__(self, x):
        self._x = x

    def random(self, out):
        out[...] = self._x
        return out


def law_draw(x, alphas, Q, compact):
    """The (m, size) log gauges and outer powers (``None`` on the compact
    law) that ``tilted_values`` draws at the (m, size) uniforms ``x``, one
    tilt per factor.  Its ``log_f`` records, per row block, the stack of log
    gauges it receives and the outer powers, the first m rows of the arena's
    last request, and returns ``-inf``: each value is then 0, and a
    non-finite outer power raises."""
    buffers = RecordingBuffers()
    log_gauges, outer = [], []

    def log_f(stack):
        k = stack.shape[1]
        log_gauges.append(stack.copy())
        outer.append(buffers.handed[-1][: len(alphas), :k].copy())
        return np.full(k, -np.inf)

    values_fn = integrate.tilted_values(log_f, Q, alphas, compact=compact)
    assert not values_fn(GivenUniforms(x), x.shape[1], buffers).any()
    return np.hstack(log_gauges), None if compact else np.hstack(outer)


def one_factor_law(x, alpha, Q, compact):
    """A reference for one factor: the log gauges and outer powers (``None``
    on the compact law) of the two-piece law at tilt ``alpha``, formed on
    its own in the operations and order the stacked law must keep."""
    a = 1.0 / (Q - alpha)
    mass = a if compact else a + 1.0 / alpha
    p = a / mass
    if compact:
        return np.log(np.maximum(x, 2.0**-53)) * a, None
    outer = (x >= p).astype(float)
    log_g = np.log(np.maximum((x - outer) / (p - outer), 2.0**-53))
    log_g *= outer * -mass + a
    return log_g, outer * Q * log_g


@st.composite
def profiles_past_h1(draw):
    """n in 1..4, m in 1..3, exponents alpha_i = f_i Q with f_i in [0.01, 0.99],
    and uniforms in [0, 1), the range of ``Generator.random``, with 0 and its
    largest value below 1 among them."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    fractions = draw(st.lists(st.floats(0.01, 0.99), min_size=m, max_size=m))
    x = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=20))
    return n, tuple(f * (2 * n + 2) for f in fractions), np.array(x + [0.0, 1.0 - 2.0**-53])


class TestPastH1:
    @settings(max_examples=200, deadline=None)
    @given(args=profiles_past_h1())
    def test_gauge_law_and_constants(self, args):
        n, alphas, x = args
        Q = 2 * n + 2
        xs = np.tile(x, (len(alphas), 1))
        log_g, log_q = law_draw(xs, alphas, Q, False)
        assert np.isfinite(log_g).all() and np.isfinite(log_q).all()
        # the compact law's gauges are below 1 before exp rounds them
        log_g, log_q = law_draw(xs, alphas, Q, True)
        assert log_q is None and (log_g < 0.0).all() and np.isfinite(log_g).all()
        profile = AlphaProfile(alphas)
        for constant in (hardy_constant, hlp_constant, hilbert_constant):
            value = constant(n, profile)
            assert math.isfinite(value) and value > 0.0

    @settings(max_examples=200, deadline=None)
    @given(args=profiles_past_h1(), compact=st.booleans())
    def test_stack_is_the_law_of_each_factor(self, args, compact):
        # the (m, k) stack maps each factor's uniforms to the bits one
        # factor at a time gives; each factor sees the uniforms in its own order
        n, alphas, x = args
        Q = 2 * n + 2
        xs = np.stack([np.roll(x, i) for i in range(len(alphas))])
        log_g, log_q = law_draw(xs, alphas, Q, compact)
        for i, alpha in enumerate(alphas):
            ref_g, ref_q = one_factor_law(xs[i], alpha, Q, compact)
            assert log_g[i].tobytes() == ref_g.tobytes()
            assert log_q is None if compact else log_q[i].tobytes() == ref_q.tobytes()


def tilted_estimate(log_f, dim, tilts, n_samples, stream, workers=1, *, compact=False):
    """``tilted_values`` at the polar constant of H^n, reduced over its chunks."""
    log_polar = math.log(dim.Q) + log_unit_ball_volume(dim)
    values_fn = tilted_values(log_f, dim.Q, tilts, compact=compact, log_polar=log_polar)
    return reduce_partials(mc_chunk_partials(values_fn, n_samples, stream, workers))[0]


def log_one(log_gauges):
    """The log of the integrand 1 at tilt 0: ``tilted_values`` takes log
    integrands with the law's tilt folded in."""
    return np.zeros(log_gauges[0].shape[0])


def log_ball(log_gauges):
    """The log of the indicator of the tuple ball ``sum g_i^2 < 1`` at tilt
    0: 0 inside, ``-inf`` outside."""
    inside = sum(np.exp(2.0 * lg) for lg in log_gauges) < 1.0
    return np.where(inside, 0.0, -np.inf)


class TestMcIntegrate:
    def test_ball_volume_m1(self):
        est = tilted_estimate(log_one, DIM1, (0.0,), 10_000, SeededStream(21), compact=True)
        assert math.isclose(est.value, unit_ball_volume(DIM1), rel_tol=1e-12)

    def test_tilt_cancels_singularity(self):
        def log_f(log_gauges):
            return -log_gauges[0] + log_gauges[0]  # g^-1 times the law's tilt g

        est = tilted_estimate(log_f, DIM1, (1.0,), 10_000, SeededStream(22), compact=True)
        # weighted integrand is constant, so the variance collapses to the
        # rounding floor of the accumulator
        assert est.std_error <= 1e-6 * abs(est.value)
        assert math.isclose(est.value, 2 * math.pi**2 / 3, rel_tol=1e-12)

    def test_tuple_ball_matches_quadrature(self):
        est = tilted_estimate(
            log_ball, DIM1, (0.0, 0.0), 400_000, SeededStream(23), compact=True
        )
        level = tensor_level(lambda a, b: a**3 * b**3, 2, ball=True)
        truth = (2 * math.pi**2) ** 2 * quad_nested(level, 2).value
        assert abs(est.value - truth) <= 3 * est.std_error

    def test_heavy_tail_full_space(self):
        def log_f(log_gauges):
            lg = log_gauges[0]
            # g^-1 / max(1, g)^8 times the law's tilt g
            return -lg - 8.0 * np.maximum(0.0, lg) + lg

        est = tilted_estimate(log_f, DIM1, (1.0,), 400_000, SeededStream(24))
        truth = 2 * math.pi**2 * (1.0 / 3.0 + 1.0 / 5.0)
        assert abs(est.value - truth) <= 3 * est.std_error

    def test_gauge_law_matches_its_cdf(self):
        # P(g <= s) is p s^{1/a} below 1 and 1 - (1 - p) s^{-1/b} above,
        # a = 1/(Q - alpha), b = 1/alpha, p = a / (a + b)
        size, alpha, Q = 100_000, 1.5, 6
        x = SeededStream(33).generator().random(size)
        g = np.sort(np.exp(law_draw(x[None, :], (alpha,), Q, False)[0][0]))
        a, b = 1.0 / (Q - alpha), 1.0 / alpha
        p = a / (a + b)
        cdf = np.where(g < 1.0, p * g ** (Q - alpha), 1.0 - (1.0 - p) * g**-alpha)
        ranks = np.arange(1, size + 1) / size
        assert float(np.abs(cdf - ranks).max()) <= 1.95 / math.sqrt(size)

    def test_worker_count_does_not_change_bits(self):
        def log_f(log_gauges):
            return -np.log1p(np.exp(4.0 * log_gauges[0]))  # 1 / (1 + g^4)

        kwargs = dict(dim=DIM1, tilts=(0.0,), n_samples=300_000, compact=True)
        a = tilted_estimate(log_f, stream=SeededStream(25), workers=1, **kwargs)
        b = tilted_estimate(log_f, stream=SeededStream(25), workers=8, **kwargs)
        assert a == b

    def test_std_error_scaling(self):
        vals = {}
        for n in (100_000, 400_000):
            vals[n] = tilted_estimate(
                log_ball, DIM1, (0.0, 0.0), n, SeededStream(26), compact=True
            )
        ratio = vals[400_000].std_error / vals[100_000].std_error
        assert 0.5 / 1.5 <= ratio <= 0.5 * 1.5

    def test_nonfinite_integrand_reports_point(self):
        def log_f(log_gauges):
            return np.full(log_gauges[0].shape[0], np.inf)

        with pytest.raises(EstimationError, match="non-finite"):
            tilted_estimate(log_f, DIM1, (0.0,), 1_000, SeededStream(27), compact=True)

    def test_zero_accepted_samples(self):
        # two samples of the averaging operator's tuples, both outside the
        # tuple ball at this seed: no positive value, no estimate
        spec = OperatorSpec(OperatorKind.HARDY, DIM1, AlphaProfile((1.0, 1.0)))
        fs = [TestFunction.extremal(1.0)] * 2
        e1 = HPoint.of(DIM1, [1.0, 0.0, 0.0])
        with pytest.raises(EstimationError, match="zero accepted samples"):
            eval_hardy(fs, e1, spec, McEngine(2, SeededStream(1)))

    @pytest.mark.parametrize(
        "tilts,compact,offender",
        [
            ((4.0,), True, "tilt 1 = 4.0"),
            ((1.0, 4.5), False, "tilt 2 = 4.5"),
            ((0.0,), False, "tilt 1 = 0.0"),
            ((-0.5,), True, "tilt 1 = -0.5"),
            ((1.0, math.nan), True, "tilt 2 = nan"),
            ((math.nan,), False, "tilt 1 = nan"),
            ((), False, "at least one tilt"),
        ],
    )
    def test_tilt_validation(self, tilts, compact, offender):
        with pytest.raises(ValueError, match=offender):
            tilted_values(log_one, DIM1.Q, tilts, compact=compact)

    def test_radial_worker_count_does_not_change_bits(self):
        def log_f(log_gauges):
            # 1 / (1 + g_1^4 + g_2^2) times the law's tilt g_1^{1/2} g_2
            lg1, lg2 = log_gauges
            return 0.5 * lg1 + lg2 - np.log1p(np.exp(4.0 * lg1) + np.exp(2.0 * lg2))

        kwargs = dict(dim=GroupDim(3), tilts=(0.5, 1.0), n_samples=300_000)
        a = tilted_estimate(log_f, stream=SeededStream(32), workers=1, **kwargs)
        b = tilted_estimate(log_f, stream=SeededStream(32), workers=8, **kwargs)
        assert a == b


# two full chunks and a remainder chunk
ROW_BLOCK_SAMPLES = 2 * 65536 + 100

ROW_BLOCK_ORACLE_SPECS = [
    OperatorSpec(kind, GroupDim(n), AlphaProfile(tuple(f * (2 * n + 2) for f in fractions)))
    for kind in (OperatorKind.HARDY, OperatorKind.HLP, OperatorKind.HILBERT)
    for n in (1, 2, 3)
    for fractions in ((0.375,), (0.5, 0.375), (0.5, 0.375, 0.25))
]


def every_mc_partials(monkeypatch, workers):
    """The chunk partials of every Monte Carlo user: the Cartesian oracle,
    the operators' block with and without its outer piece and the box
    rejection volume."""
    stream = SeededStream(7)
    seen = [
        verify._cartesian_mc(spec, ROW_BLOCK_SAMPLES, stream, workers)
        for spec in ROW_BLOCK_ORACLE_SPECS
    ]

    def recording(*args, **kwargs):
        seen.append(mc_chunk_partials(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(integrate, "mc_chunk_partials", recording)
    dim = GroupDim(2)

    def log_radial(log_gauges):
        # 1 / (1 + g_1^Q + g_2^Q) times the law's tilt g_1 g_2^{1/2}
        lg1, lg2 = log_gauges
        return lg1 + 0.5 * lg2 - np.log1p(np.exp(dim.Q * lg1) + np.exp(dim.Q * lg2))

    def log_radial_on_ball(log_gauges):
        return log_radial(log_gauges) + log_ball(log_gauges)

    for log_f, compact in ((log_radial_on_ball, True), (log_radial, False)):
        values_fn = tilted_values(log_f, dim.Q, (1.0, 0.5), compact=compact)
        seen.append(mc_chunk_partials(values_fn, ROW_BLOCK_SAMPLES, stream, workers))
    rejection_volume_estimate(dim, ROW_BLOCK_SAMPLES, stream, workers)
    return seen


class TestRowBlocks:
    """Row blocks are the cache unit of a chunk's arithmetic: their size
    must not move a bit of any Monte Carlo result."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_block_size_does_not_change_bits(self, workers, monkeypatch):
        default = every_mc_partials(monkeypatch, workers)
        assert len(default) == len(ROW_BLOCK_ORACLE_SPECS) + 3
        assert all(len(p) == 3 and p[-1][0] == 100 for p in default)
        for block in (1 << 16, 1000):
            monkeypatch.setattr(integrate, "_ROW_BLOCK", block)
            assert every_mc_partials(monkeypatch, workers) == default

    def test_blocks_cover_every_row_once(self, monkeypatch):
        monkeypatch.setattr(integrate, "_ROW_BLOCK", 1000)
        spans = []

        def block(rows):
            spans.append((rows.start, rows.stop))
            return np.arange(rows.start, rows.stop, dtype=float)

        np.testing.assert_array_equal(
            integrate.row_blocks(np.empty(2500), block), np.arange(2500.0)
        )
        assert spans == [(0, 1000), (1000, 2000), (2000, 2500)]


class RecordingGenerator:
    """A generator that records each draw as ``(method, args)``."""

    def __init__(self, gen, calls):
        self._gen = gen
        self._calls = calls

    def __getattr__(self, name):
        draw = getattr(self._gen, name)

        def recorded(*args, **kwargs):
            self._calls.append((name, args + tuple(kwargs.values())))
            return draw(*args, **kwargs)

        return recorded


class RecordingStream:
    def __init__(self, stream):
        self._stream = stream
        self.calls = {}

    def generator(self, block=0):
        calls = self.calls.setdefault(block, [])
        return RecordingGenerator(self._stream.generator(block=block), calls)


class TestOperatorSamplerDraws:
    """The draws of each chunk, pinned: changing them changes every number."""

    SIZES = {1: 65536, 2: 65536, 3: 100}

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("compact", [True, False])
    def test_radial_draws_one_stack_per_chunk(self, compact, m):
        stream = RecordingStream(SeededStream(5))
        tilted_estimate(
            lambda lgs: lgs[0], GroupDim(2), (1.0,) * m, ROW_BLOCK_SAMPLES, stream, compact=compact
        )
        # each draw fills a reused array: recorded as the shape of its out
        drawn = {
            k: [(name, [np.shape(a) for a in args]) for name, args in calls]
            for k, calls in stream.calls.items()
        }
        assert drawn == {k: [("random", [(m, size)])] for k, size in self.SIZES.items()}

    def test_chunks_reuse_their_buffers(self, monkeypatch):
        # hilbert n = 3, m = 2 draws (2, size, 2) a chunk; hardy n = 1, m = 3
        # draws (3, size), one factor more
        a = OperatorSpec(OperatorKind.HILBERT, GroupDim(3), AlphaProfile((1.0, 2.0)))
        b = OperatorSpec(OperatorKind.HARDY, GroupDim(1), AlphaProfile((0.5, 0.5, 0.5)))
        stream = RecordingStream(SeededStream(5))
        first = verify._cartesian_mc(a, ROW_BLOCK_SAMPLES, stream)
        outs = {k: [args[0] for _, args in calls] for k, calls in stream.calls.items()}
        # one draw a chunk, into the same array in every chunk
        for k in (2, 3):
            assert [x.ctypes.data for x in outs[k]] == [x.ctypes.data for x in outs[1]]
        assert outs[1][0].shape == outs[2][0].shape == (2, 65536, 2)
        assert outs[3][0].shape == (2, 100, 2)
        # and a call leaves nothing behind for the next
        for workers in (1, 2):
            verify._cartesian_mc(b, ROW_BLOCK_SAMPLES, SeededStream(5), workers)
            assert verify._cartesian_mc(a, ROW_BLOCK_SAMPLES, SeededStream(5), workers) == first
        # the next call on this thread draws into the same array: the
        # thread's arena outlives the call
        again = RecordingStream(SeededStream(5))
        assert verify._cartesian_mc(a, ROW_BLOCK_SAMPLES, again) == first
        for k, calls in again.calls.items():
            assert [args[0].ctypes.data for _, args in calls] == [x.ctypes.data for x in outs[1]]
        # and so does every other array a chunk asks for: the uniforms, the
        # values and three stacks of row-block columns (the log gauges, the
        # law's scratch, and the outer powers and angle logs it adds)
        requests = []
        empty = integrate.ChunkBuffers.empty

        def recorded(buffers, shape):
            out = empty(buffers, shape)
            requests.append((shape, out.ctypes.data))
            return out

        monkeypatch.setattr(integrate.ChunkBuffers, "empty", recorded)
        for _ in range(2):
            verify._cartesian_mc(a, ROW_BLOCK_SAMPLES, SeededStream(5))
        half = len(requests) // 2
        assert requests[:half] == requests[half:]
        block = integrate._ROW_BLOCK
        chunk = [(2, block), (2, block), (4, block)]
        assert [shape for shape, _ in requests[:half]] == (
            [(2, 65536, 2), (65536,), *chunk] * 2 + [(2, 100, 2), (100,), *chunk]
        )


def arena_estimate(m, workers=1):
    """``tilted_estimate`` on the full law at ``m`` factors: the call the
    arena tests repeat."""

    def log_f(log_gauges):
        # 1 / (1 + sum_i g_i^4) times the law's tilts g_i
        return sum(log_gauges) - np.log1p(sum(np.exp(4.0 * lg) for lg in log_gauges))

    return tilted_estimate(log_f, DIM1, (1.0,) * m, ROW_BLOCK_SAMPLES, SeededStream(m), workers)


class TestArena:
    """Each thread keeps one ``ChunkBuffers`` across calls; no two calls
    running at once may share one."""

    def test_nested_call_gets_its_own_arena(self):
        inner = (integrate.tilted_values(lambda lgs: -sum(lgs), 4.0, (1.0, 2.0)), 70_000)

        def outer(gen, size, buffers, nested=None):
            # draws, then (nested) a whole call, then values from the draws:
            # a shared arena would overwrite the draws or the values
            u = gen.random(out=buffers.empty((size,)))
            if nested is not None:
                nested.append(mc_chunk_partials(*inner, SeededStream(2)))
            return np.multiply(u, 2.0, out=buffers.empty((size,)))

        apart_outer = mc_chunk_partials(outer, ROW_BLOCK_SAMPLES, SeededStream(1))
        apart_inner = mc_chunk_partials(*inner, SeededStream(2))
        nested = []

        def nesting(gen, size, buffers):
            return outer(gen, size, buffers, nested)

        assert mc_chunk_partials(nesting, ROW_BLOCK_SAMPLES, SeededStream(1)) == apart_outer
        assert nested == [apart_inner] * 3
        # and the thread's arena is back for the next call
        assert mc_chunk_partials(*inner, SeededStream(2)) == apart_inner

    def test_threads_keep_their_own_arenas(self):
        # more threads than cores, switching every microsecond: each thread
        # runs m = 1, 2, 3 in its own order and must get the sequential bits
        sequential = {m: arena_estimate(m) for m in (1, 2, 3)}
        results = {}

        def run(i):
            order = [1 + (i + j) % 3 for j in range(3)]
            results[i] = [(m, arena_estimate(m, workers=1 + i % 2)) for m in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(results) == list(range(8))
        for got in results.values():
            assert got == [(m, sequential[m]) for m, _ in got]

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="minor faults as Linux counts them"
    )
    def test_repeat_call_faults_in_no_pages(self):
        # a repeated call finds its chunk arrays in the thread's arena, and
        # its row blocks' in the arena's block part: no page is handed back
        # to the system and faulted in again
        import resource

        spec = OperatorSpec(OperatorKind.HILBERT, DIM1, AlphaProfile((1.0, 1.0)))
        fs = [TestFunction.extremal(1.0)] * 2
        e1 = HPoint.of(DIM1, [1.0, 0.0, 0.0])
        args = (fs, e1, spec, McEngine(2**18, SeededStream(0)))
        first = eval_hilbert(*args)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        second = eval_hilbert(*args)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert second == first
        assert faults <= 64


def log_two_factors(log_gauges):
    # 1 / (1 + g_1^4 + g_2^4) times the law's tilts g_1 g_2
    lg1, lg2 = log_gauges
    return lg1 + lg2 - np.log1p(np.exp(4.0 * lg1) + np.exp(4.0 * lg2))


class TestChunkTasks:
    """Each chunk is one task: neither a call's partials nor the error of a
    failing call depend on the worker count."""

    # seven chunks, which no worker count below divides
    SAMPLES = 6 * 65536 + 100
    WORKERS = (1, 2, 3, 8)

    @pytest.mark.parametrize(
        "values_fn",
        [
            integrate.tilted_values(log_two_factors, 4.0, (1.0, 1.0), compact=True),
            integrate.tilted_values(log_two_factors, 4.0, (1.0, 1.0)),
            integrate.tilted_values(log_two_factors, 4.0, (1.0, 1.0), angle=1.5),
        ],
        ids=["compact", "full", "angle"],
    )
    def test_partials_for_any_worker_count(self, values_fn):
        partials = [
            mc_chunk_partials(values_fn, self.SAMPLES, SeededStream(3), w) for w in self.WORKERS
        ]
        assert len(partials[0]) == 7 and partials[0][-1][0] == 100
        assert all(p == partials[0] for p in partials[1:])

    def test_box_rejection_for_any_worker_count(self):
        estimates = [
            rejection_volume_estimate(GroupDim(2), self.SAMPLES, SeededStream(3), w)
            for w in self.WORKERS
        ]
        assert all(e == estimates[0] for e in estimates[1:])

    def test_first_failing_chunk_raises(self):
        class Blocks:
            # hands values_fn its chunk's substream block for a generator
            def generator(self, block=0):
                return block

        def values_fn(block, size, buffers):
            chunk = block - 1
            if chunk == 1:
                # fail after chunk 2 has failed, if they run at once
                time.sleep(0.05)
            if chunk in (1, 2):
                raise EstimationError(f"chunk {chunk} failed")
            return np.ones(size)

        for workers in self.WORKERS:
            with pytest.raises(EstimationError, match="chunk 1 failed"):
                mc_chunk_partials(values_fn, self.SAMPLES, Blocks(), workers)


class TestEstimateInvariants:
    def test_quad_requires_zero_std_error(self):
        with pytest.raises(ValueError):
            Estimate(1.0, 0.1, 10, Method.QUAD)

    def test_mc_estimates_carry_positive_std_error(self):
        est = tilted_estimate(
            lambda lgs: lgs[0], DIM1, (0.0,), 5_000, SeededStream(30), compact=True
        )
        assert est.method is Method.MC and est.std_error > 0.0

    def test_constant_values_keep_a_rounding_std_error(self):
        # on constant values s2/n - mean^2 is 0 or a few roundings of s2/n;
        # the floor eps * s2/n keeps the std error at least
        # sqrt(eps/(n - 1)) relative, and rounding keeps it within 10x that
        n = 1_000_000
        for c in (1.6, 8 * math.pi**2 / 3, 1e-30):
            partials = mc_chunk_partials(
                lambda gen, size, buffers: np.full(size, c), n, SeededStream(0)
            )
            est = reduce_partials(partials)[0]
            floor = c * math.sqrt(math.ulp(1.0) / (n - 1))
            assert math.isclose(est.value, c, rel_tol=1e-13)
            assert floor * (1.0 - 1e-12) <= est.std_error <= 10.0 * floor

    def test_floor_leaves_varying_values_and_zeros(self):
        values = np.random.default_rng(0).random(5000)
        est = reduce_partials([(5000, float(values.sum()), float(np.square(values).sum()), 5000)])[0]
        assert math.isclose(est.std_error, values.std(ddof=1) / math.sqrt(5000), rel_tol=1e-9)
        zeros = reduce_partials([(100, 0.0, 0.0, 0)])[0]
        assert zeros.value == 0.0 and zeros.std_error == 0.0


def _power_batch():
    """50 owners: x^-s on (0, 1), and x^-s / (1 + x)^2 on (0, inf) for every
    fifth; every third has breakpoints."""
    s = np.linspace(0.05, 0.9, 50)
    tail = np.arange(50) % 5 == 4
    hi = np.where(tail, np.inf, 1.0)
    points = np.where((np.arange(50) % 3 == 0)[:, None], [[0.3, 0.7]], np.nan)

    def f(x, own):
        return x ** -s[own] / np.where(tail[own], (1.0 + x) ** 2, 1.0)

    return f, np.zeros(50), hi, points, s


class TestBatchedRefiner:
    def test_owner_result_does_not_depend_on_its_batch(self):
        f, lo, hi, points, s = _power_batch()
        spec = QuadSpec(rel_tol=1e-11)
        value, error, evals = integrate._refine(f, lo, hi, points, spec)
        for k in range(lo.size):
            one = slice(k, k + 1)
            g = lambda x, own: f(x, np.full(x.shape, k))  # noqa: E731
            alone = integrate._refine(g, lo[one], hi[one], points[one], spec)
            assert (alone[0][0], alone[1][0], alone[2][0]) == (value[k], error[k], evals[k])
        # and the batch converged to its integrals
        assert np.allclose(value[::5], 1.0 / (1.0 - s[::5]), rtol=1e-10)

    def test_quad_1d_is_the_one_owner_case(self):
        f, lo, hi, points, _ = _power_batch()
        spec = QuadSpec(rel_tol=1e-10)
        value, _, evals = integrate._refine(f, lo, hi, points, spec)
        for k in (0, 4, 7):
            pts = [p for p in points[k] if not math.isnan(p)]
            est = quad_1d(lambda x: f(x, np.full(x.shape, k)), 0.0, hi[k], spec, points=pts)
            assert (est.value, est.n_samples) == (value[k], evals[k])

    def test_each_owner_has_its_own_max_subdivisions(self):
        s = np.array([0.2, 0.98, 0.5, 0.99])
        f = lambda x, own: x ** -s[own]  # noqa: E731
        zeros, ones, none = np.zeros(4), np.ones(4), np.empty((4, 0))
        spec = QuadSpec(rel_tol=1e-10, max_subdivisions=100)
        with pytest.raises(QuadratureError) as batch_err:
            integrate._refine(f, zeros, ones, none, spec)
        with pytest.raises(QuadratureError) as alone_err:
            integrate._refine(lambda x, own: x**-0.98, zeros[:1], ones[:1], none[:1], spec)
        # owners 1 and 3 fail; the lower index raises, with its own estimate
        assert str(batch_err.value) == str(alone_err.value)
        assert "max_subdivisions=100 exhausted" in str(batch_err.value)
        assert batch_err.value.estimate == alone_err.value.estimate
        assert batch_err.value.estimate.n_samples == 15 * (1 + 2 * 100)
        # the owners that converge are untouched by the cap of the others
        g = lambda x, own: x ** -s[[0, 2]][own]  # noqa: E731
        value, _, evals = integrate._refine(g, zeros[:2], ones[:2], none[:2], spec)
        assert np.allclose(value, 1.0 / (1.0 - s[[0, 2]]), rtol=1e-10)
        assert (evals < 15 * (1 + 2 * 100)).all()

    def test_empty_inner_range_contributes_zero(self):
        # int_0^2 int_0^{1-x} dy dx: the inner range is empty for x > 1
        def level(depth, prefix):
            if depth == 0:
                return [(lambda x, own: (np.ones_like(x), x), 0.0, 2.0, [1.0])]
            return [(lambda y, own: np.ones_like(y), 0.0, 1.0 - prefix[0], ())]

        est = quad_nested(level, 2, QuadSpec(rel_tol=1e-12))
        assert math.isclose(est.value, 0.5, rel_tol=1e-12)

    def test_nested_levels_match_one_owner_recursion(self):
        # the batched levels give each node's inner integral as quad_1d does
        def level(depth, prefix):
            if depth == 0:
                return [(lambda x, own: (np.ones_like(x), x), 0.0, 1.0, ())]
            c = prefix[0]
            return [(lambda y, own: (y + c[own]) ** -0.5, 0.0, 1.0, ())]

        spec = QuadSpec(rel_tol=1e-10)
        est = quad_nested(level, 2, spec)
        # int_0^1 int_0^1 (x + y)^-1/2 dy dx = (8/3)(sqrt 2 - 1)
        assert math.isclose(est.value, 8.0 / 3.0 * (math.sqrt(2.0) - 1.0), rel_tol=1e-9)

        def outer(xs):
            # every level runs the same rule: quad_1d per node is the inner level
            return np.array([quad_1d(lambda y: (y + x) ** -0.5, 0.0, 1.0, spec).value for x in xs])

        assert est.value == quad_1d(outer, 0.0, 1.0, spec).value
