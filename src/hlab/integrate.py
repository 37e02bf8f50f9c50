"""Numerical integration engines.

Three layers:

* adaptive 1-D quadrature (15-point Gauss-Kronrod panels with bisection
  refinement, infinite upper limits mapped through ``t -> t/(1-t)``),
* one nested-quadrature driver (``quad_nested``) behind the tensor
  quadrature for up to three variables and the Dirichlet-type integral
  ``quad_dirichlet``,
* seeded Monte Carlo samplers adapted to the Koranyi geometry, with
  importance tilts that neutralize power-law singularities.

Monte Carlo determinism contract: work is cut into fixed-size chunks, chunk
``k`` draws from the counter-based substream ``(seed, stream_id, block=k)``,
and partial sums are reduced in chunk-index order.  Results are therefore
bit-identical for any worker count.  Inside a chunk, the arithmetic after
the draws runs in row blocks (``row_blocks``) sized for the cache; since
every value depends only on its own row, the block size changes no bit.
"""

from __future__ import annotations

import enum
import heapq
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .hgroup import GroupDim, HPoint, gauge_array, sphere_measure

__all__ = [
    "Axis",
    "Domain",
    "Estimate",
    "EstimationError",
    "FullSpaceHeavyTail",
    "Method",
    "QuadSpec",
    "QuadratureError",
    "SeededStream",
    "TupleBall",
    "mc_chunk_partials",
    "mc_integrate",
    "mc_integrate_radial",
    "quad_1d",
    "quad_dirichlet",
    "quad_nested",
    "quad_tensor",
    "reduce_partials",
    "rejection_volume_estimate",
    "row_blocks",
    "sample_radius",
    "sample_sphere_direction",
    "sample_unit_ball",
]

_MASK64 = (1 << 64) - 1
# the unit of randomness: chunk k draws from substream block k + 1, so
# changing the chunk size changes every Monte Carlo number
_CHUNK = 1 << 16
# the unit of a chunk's arithmetic after its draws, sized so that each
# block's temporaries stay in a core's L2 cache; it changes no bit
_ROW_BLOCK = 1 << 13


class Method(enum.Enum):
    QUAD = "quad"
    MC = "mc"


@dataclass(frozen=True)
class Estimate:
    """A numeric value with its uncertainty and provenance.

    ``std_error`` is 0 for deterministic quadrature.  Monte Carlo estimates
    carry the sample standard error (which is itself 0 in the degenerate case
    of a constant weighted integrand).
    """

    value: float
    std_error: float
    n_samples: int
    method: Method

    def __post_init__(self) -> None:
        if self.method is Method.QUAD and self.std_error != 0.0:
            raise ValueError("quadrature estimates must have zero std_error")
        if self.std_error < 0.0:
            raise ValueError("std_error must be nonnegative")

    def scaled(self, factor: float) -> "Estimate":
        return Estimate(
            self.value * factor, self.std_error * abs(factor), self.n_samples, self.method
        )


@dataclass(frozen=True)
class QuadSpec:
    """Error control for adaptive quadrature."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    max_subdivisions: int = 4096

    def __post_init__(self) -> None:
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")

    def at_depth(self, depth: int) -> "QuadSpec":
        """Error control of nesting level ``depth`` (0 = outermost).

        Inner levels are driven by relative error with a vanishing absolute
        floor: inner values of any magnitude get re-weighted by the outer
        variable transforms, so an absolute cutoff would silently truncate
        tails.
        """
        floor = self.abs_tol if depth == 0 else 1e-290
        return QuadSpec(self.rel_tol * 0.1**depth, floor, self.max_subdivisions)


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to converge; carries the best estimate."""

    def __init__(self, message: str, estimate: Estimate | None = None):
        super().__init__(message)
        self.estimate = estimate


class EstimationError(RuntimeError):
    """A Monte Carlo estimate could not be formed."""


# 15-point Gauss-Kronrod rule: Kronrod abscissae/weights plus the embedded
# 7-point Gauss weights used for the error estimate.
_XGK = np.array(
    [
        0.9914553711208126,
        0.9491079123427585,
        0.8648644233597691,
        0.7415311855993944,
        0.5860872354676911,
        0.4058451513773972,
        0.2077849550078985,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.0229353220105292,
        0.0630920926299785,
        0.1047900103222502,
        0.1406532597155259,
        0.1690047266392679,
        0.1903505780647854,
        0.2044329400752989,
        0.2094821410847278,
    ]
)
_WG = np.array(
    [
        0.1294849661688697,
        0.2797053914892767,
        0.3818300505051189,
        0.4179591836734694,
    ]
)

_ABSC = np.concatenate((-_XGK[:7], _XGK[7:8], _XGK[6::-1]))
_WK15 = np.concatenate((_WGK[:7], _WGK[7:8], _WGK[6::-1]))
_WG15 = np.zeros(15)
_WG15[1:14:2] = np.concatenate((_WG[:3], _WG[3:4], _WG[2::-1]))


def _eval_panel(f, a: float, b: float) -> tuple[float, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    xs = mid + half * _ABSC
    # keep nodes strictly interior: on panels a few ulps wide, rounding can
    # otherwise push a node onto an endpoint (e.g. the infinite-limit map's
    # singular point t = 1)
    xs = np.clip(xs, np.nextafter(a, b), np.nextafter(b, a))
    fv = np.asarray(f(xs), dtype=float)
    if fv.shape != xs.shape:
        raise TypeError("integrand must be vectorized: f(ndarray) -> ndarray of same shape")
    if not np.all(np.isfinite(fv)):
        bad = xs[~np.isfinite(fv)][0]
        raise QuadratureError(f"non-finite integrand value at x={bad!r}")
    val_k = half * float(_WK15 @ fv)
    val_g = half * float(_WG15 @ fv)
    return val_k, abs(val_k - val_g)


def quad_1d(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadSpec | None = None,
    *,
    points: Sequence[float] = (),
) -> Estimate:
    """Adaptively integrate ``f`` over ``(a, b)``; ``b`` may be ``math.inf``.

    ``points`` seeds interior breakpoints (kinks, plateau edges) so panels
    never straddle them.  Integrable endpoint singularities like ``r**-s``
    with ``s < 1`` are handled by subdivision toward the endpoint; panel nodes
    never touch the endpoints themselves.

    Raises :class:`QuadratureError` with the best estimate attached once
    ``max_subdivisions`` is exhausted.
    """
    spec = spec or QuadSpec()
    if not math.isfinite(a):
        raise ValueError("lower limit must be finite")
    if math.isinf(b):
        inner = f

        def f(t: np.ndarray) -> np.ndarray:  # noqa: ANN001 - local rebinding
            t = np.asarray(t, dtype=float)
            x = a + t / (1.0 - t)
            return np.asarray(inner(x), dtype=float) / (1.0 - t) ** 2

        points = [(p - a) / (1.0 + (p - a)) for p in points if p > a]
        lo, hi = 0.0, 1.0
    else:
        if not (b > a):
            raise ValueError(f"empty or reversed interval ({a}, {b})")
        lo, hi = float(a), float(b)

    edges = [lo] + sorted(p for p in set(points) if lo < p < hi) + [hi]
    heap: list[tuple[float, int, float, float, float]] = []
    counter = 0
    total_val = 0.0
    total_err = 0.0
    frozen_err = 0.0
    n_evals = 0
    for left, right in zip(edges[:-1], edges[1:]):
        val, err = _eval_panel(f, left, right)
        n_evals += 15
        heapq.heappush(heap, (-err, counter, left, right, val))
        counter += 1
        total_val += val
        total_err += err

    splits = 0
    while total_err + frozen_err > max(spec.abs_tol, spec.rel_tol * abs(total_val)):
        if not heap:
            raise QuadratureError(
                "all panels are at floating-point resolution without convergence "
                f"(error {total_err + frozen_err:.3e})",
                Estimate(total_val, 0.0, n_evals, Method.QUAD),
            )
        if splits >= spec.max_subdivisions:
            raise QuadratureError(
                f"max_subdivisions={spec.max_subdivisions} exhausted "
                f"(error {total_err + frozen_err:.3e})",
                Estimate(total_val, 0.0, n_evals, Method.QUAD),
            )
        neg_err, _, left, right, val = heapq.heappop(heap)
        width = right - left
        if width <= 4.0 * np.finfo(float).eps * (abs(left) + abs(right) + 1e-300):
            frozen_err += -neg_err
            total_err -= -neg_err
            continue
        mid = 0.5 * (left + right)
        val_l, err_l = _eval_panel(f, left, mid)
        val_r, err_r = _eval_panel(f, mid, right)
        n_evals += 30
        splits += 1
        total_val += val_l + val_r - val
        total_err += err_l + err_r - (-neg_err)
        heapq.heappush(heap, (-err_l, counter, left, mid, val_l))
        counter += 1
        heapq.heappush(heap, (-err_r, counter, mid, right, val_r))
        counter += 1

    return Estimate(total_val, 0.0, n_evals, Method.QUAD)


class Domain(enum.Enum):
    UNIT_CUBE = "unit_cube"
    POSITIVE_ORTHANT = "positive_orthant"
    SIMPLEX_BALL = "simplex_ball"


# One 1-D integral of a nesting level: (integrand, lower, upper, breakpoints).
Axis = tuple[Callable[[np.ndarray], object], float, float, Sequence[float]]


def quad_nested(
    level: Callable[[int, tuple], Sequence[Axis] | None],
    m: int,
    spec: QuadSpec | None = None,
) -> Estimate:
    """Nested adaptive quadrature over ``m`` levels of 1-D integrals.

    ``level(depth, prefix)`` describes the integral at ``depth`` (0 is the
    outermost) given ``prefix``, the nodes the levels above it stand at
    (``()`` at depth 0).  It returns ``None`` when the level's range is empty
    (its value is 0), else the axes ``(integrand, lo, hi, points)`` whose
    integrals multiply.  At the innermost depth ``integrand(x)`` returns its
    values at ``x``; above it, it returns ``(weights, nodes)`` and its value
    at ``x[k]`` is ``weights[k]`` times the next level at
    ``prefix + (nodes[k],)``.  Level ``d`` runs under ``spec.at_depth(d)``
    and ``n_samples`` counts the integrand evaluations of every level.
    """
    spec = spec or QuadSpec()
    specs = [spec.at_depth(d) for d in range(m)]
    n_evals = 0

    def integrate(depth: int, prefix: tuple, value: float) -> float:
        nonlocal n_evals
        axes = level(depth, prefix)
        if axes is None:
            return 0.0
        for f, lo, hi, points in axes:
            if depth < m - 1:
                f = partial(outer, f, depth, prefix)
            est = quad_1d(f, lo, hi, specs[depth], points=points)
            n_evals += est.n_samples
            value *= est.value
        return value

    def outer(f: Callable, depth: int, prefix: tuple, x: np.ndarray) -> np.ndarray:
        weights, nodes = f(x)
        return np.array([integrate(depth + 1, prefix + (k,), w) for w, k in zip(weights, nodes)])

    return Estimate(integrate(0, (), 1.0), 0.0, n_evals, Method.QUAD)


def quad_tensor(
    f: Callable[..., np.ndarray],
    m: int,
    domain: Domain,
    spec: QuadSpec | None = None,
    *,
    points: Sequence[Sequence[float]] | None = None,
) -> Estimate:
    """Nested adaptive quadrature of an m-variate function, m <= 3.

    ``f(r_1, ..., r_m)`` must broadcast when its last argument is an array.
    SIMPLEX_BALL is ``{r_i > 0, sum r_i^2 < 1}``; POSITIVE_ORTHANT maps each
    axis through ``t/(1-t)``.  ``points`` optionally lists per-axis
    breakpoints in the native axis variable.
    """
    if not 1 <= m <= 3:
        raise ValueError(f"tensor quadrature supports 1 <= m <= 3, got m={m}")

    def level(depth: int, prefix: tuple) -> list[Axis] | None:
        if domain is Domain.UNIT_CUBE:
            hi = 1.0
        elif domain is Domain.POSITIVE_ORTHANT:
            hi = math.inf
        else:
            hi = math.sqrt(max(1.0 - sum(r * r for r in prefix), 0.0))
        if hi < 1e-15:
            return None
        if depth == m - 1:
            integrand = lambda x: f(*prefix, x)  # noqa: E731
        else:
            integrand = lambda x: (np.ones_like(x), x)  # noqa: E731
        return [(integrand, 0.0, hi, points[depth] if points is not None else ())]

    return quad_nested(level, m, spec)


def quad_dirichlet(
    alpha: float,
    betas: Sequence[float],
    spec: QuadSpec | None = None,
    *,
    modulations: Sequence[Callable[[np.ndarray], np.ndarray] | None] | None = None,
    points: Sequence[Sequence[float]] | None = None,
) -> Estimate:
    """``int_{(0,inf)^m} prod t_i^{-beta_i} mod_i(t_i) (1 + sum t)^{-alpha} dt``.

    Two exact substitutions: the orthant is mapped to the open simplex via
    ``t_i = s_i / (1 - sum s)``, then ``s_i = w_i^{p_i}`` with
    ``p_i = 1/(1 - beta_i)`` cancels every power singularity analytically,
    leaving ``prod p_i * prod mod_i * (1 - S)^{alpha + sum beta - m - 1}`` over
    nested limits ``w_k < (1 - S_{k-1})^{1 - beta_k}``.  Only the hypotenuse
    singularity remains for the adaptive rule.  ``modulations[i]`` is a
    bounded function of ``t_i`` (``None`` means 1) and ``points[i]`` lists
    its positive breakpoints.
    """
    m = len(betas)
    mods = modulations or [None] * m
    break_ts = points or [()] * m
    if m < 1 or not all(b < 1.0 for b in betas) or not len(mods) == len(break_ts) == m:
        raise ValueError(f"need betas < 1, each with a modulation and points; got {list(betas)}")
    # alpha + sum beta - m, exact when alpha = m
    lead = math.fsum([alpha, -m, *betas])
    if not lead > 0.0:
        raise ValueError(f"integral diverges: alpha + sum beta - m = {lead} <= 0")
    ps = [1.0 / (1.0 - b) for b in betas]
    # endpoint exponent of the level-d integrand near its upper limit;
    # the xi-substitution below flattens it exactly for pure powers
    taus = [lead + math.fsum(1.0 - b for b in betas[d + 1 :]) for d in range(m)]

    def level(depth: int, prefix: tuple) -> list[Axis] | None:
        # prefix holds (s_k, 1 - s_1 - ... - s_k) of the outer levels
        rest0 = prefix[-1][1] if prefix else 1.0
        if rest0 <= 0.0:
            return None
        p = ps[depth]
        ub = rest0 ** (1.0 - betas[depth])
        tau = taus[depth]

        # w = ub (1 - eta), eta = xi^{1/tau}: flattens the (rest)^{tau - 1}
        # endpoint decay.  Since ub^p == rest0 exactly, the remainder
        # rest0 - w^p equals -rest0 expm1(p log1p(-eta)), which avoids the
        # cancellation that otherwise drowns the leaf in rounding noise.
        def split(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            log_shrink = p * np.log1p(-(xi ** (1.0 / tau)))
            s_d, rest = rest0 * np.exp(log_shrink), rest0 * -np.expm1(log_shrink)
            jac = (ub / tau) * xi ** (1.0 / tau - 1.0)
            return s_d, rest, jac

        if depth < m - 1:

            def inner(xi: np.ndarray) -> tuple[np.ndarray, list]:
                s_d, rest, jac = split(xi)
                return jac, list(zip(s_d.tolist(), rest.tolist()))

            return [(inner, 0.0, 1.0, ())]

        s_prefix = [s for s, _ in prefix]

        def leaf(xi: np.ndarray) -> np.ndarray:
            s_last, rest, jac = split(xi)
            ok = rest > 0.0
            safe_rest = np.where(ok, rest, 1.0)
            out = safe_rest ** (lead - 1.0) * ok
            for s_i, mod in zip(s_prefix + [s_last], mods):
                if mod is not None:
                    out = out * np.where(ok, mod(s_i / safe_rest), 1.0)
            return out * jac

        # the modulations' breakpoints as values of the last s, then of xi
        s_pts = [bt * rest0 / (1.0 + bt) for bt in break_ts[-1]]
        s_pts += [rest0 - s_i / bt for s_i, bts in zip(s_prefix, break_ts) for bt in bts]
        w_pts = [s_m ** (1.0 / p) for s_m in s_pts if s_m > 0.0]
        return [(leaf, 0.0, 1.0, [(1.0 - w / ub) ** tau for w in w_pts if w < ub])]

    return quad_nested(level, m, spec).scaled(math.prod(ps))


@dataclass(frozen=True)
class SeededStream:
    """Counter-based splittable random stream.

    Identical ``(seed, stream_id)`` reproduce identical sample sequences;
    ``generator(block=k)`` opens the disjoint substream used for chunk k.
    """

    seed: int
    stream_id: int = 0

    def generator(self, block: int = 0) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        counter = np.array([0, block & _MASK64, 0, 0], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(counter=counter, key=key))


StreamLike = SeededStream | np.random.Generator


def _gen_of(stream: StreamLike) -> np.random.Generator:
    if isinstance(stream, np.random.Generator):
        return stream
    return stream.generator()


def sample_radius(
    Q: int, tilt: float, stream: StreamLike, size: int | None = None
) -> float | np.ndarray:
    """Radius with density ``(Q - tilt) r^{Q - tilt - 1}`` on (0, 1).

    Inverse CDF: ``r = U^{1/(Q - tilt)}``.
    """
    if tilt >= Q:
        raise ValueError(f"tilt must be < Q, got tilt={tilt} with Q={Q}")
    gen = _gen_of(stream)
    u = gen.random(size)
    return u ** (1.0 / (Q - tilt))


def _ball_batch(gen: np.random.Generator, dim: GroupDim, size: int) -> np.ndarray:
    """Uniform Lebesgue samples of the unit gauge ball, drawn exactly.

    The radial marginal of ``|z|`` is proportional to
    ``rho^{2n-1} sqrt(1 - rho^4)``, so ``s = |z|^4 ~ Beta(n/2, 3/2)``; given
    ``s``, ``z/|z|`` is uniform on ``S^{2n-1}`` and ``t`` is uniform on
    ``(-sqrt(1 - s), sqrt(1 - s))``.  Every draw is a fixed multiple of
    ``size``, whatever ``n``.
    """
    n = dim.n
    s = gen.beta(n / 2.0, 1.5, size)
    z = gen.standard_normal((size, 2 * n))
    t = np.sqrt(1.0 - s) * gen.uniform(-1.0, 1.0, size)
    z *= (s**0.25 / np.sqrt(np.einsum("ij,ij->i", z, z)))[:, None]
    return np.column_stack((z, t))


def sample_unit_ball(
    dim: GroupDim, stream: StreamLike, size: int | None = None
) -> HPoint | np.ndarray:
    """Uniform point(s) of the unit gauge ball (Lebesgue measure), drawn
    without rejection."""
    gen = _gen_of(stream)
    batch = _ball_batch(gen, dim, 1 if size is None else size)
    if size is None:
        return HPoint.of(dim, batch[0])
    return batch


def _scale_coords(coords: np.ndarray, r: np.ndarray | float, n: int) -> np.ndarray:
    out = np.array(coords, dtype=float, copy=True)
    r = np.asarray(r, dtype=float)
    out[..., : 2 * n] *= r[..., None]
    out[..., 2 * n] *= r * r
    return out


def sample_sphere_direction(
    dim: GroupDim, stream: StreamLike, size: int | None = None
) -> HPoint | np.ndarray:
    """Gauge-sphere direction under the cone measure.

    Normalizes a uniform ball sample by ``delta_{1/gauge}``; combined with
    ``sample_radius(Q, 0)`` this reconstructs the uniform ball law.
    """
    gen = _gen_of(stream)
    batch = _ball_batch(gen, dim, 1 if size is None else size)
    g = gauge_array(batch, dim.n)
    batch = _scale_coords(batch, 1.0 / g, dim.n)
    if size is None:
        return HPoint.of(dim, batch[0])
    return batch


@dataclass(frozen=True)
class TupleBall:
    """Sample m-tuples with tilted radii, rejecting unless ``sum r_i^2 < 1``.

    Estimates Lebesgue integrals over the tuple ball
    ``{(y_1, ..., y_m) : sum |y_i|_h^2 < 1}``; rejected tuples contribute 0.
    """

    tilts: tuple[float, ...]


@dataclass(frozen=True)
class FullSpaceHeavyTail:
    """Sample m-tuples covering all of H^{nm}.

    Tilted radii on (0, 1) are pushed through ``r -> r/(1-r)`` with the
    matching Jacobian weight.
    """

    tilts: tuple[float, ...]


Sampler = TupleBall | FullSpaceHeavyTail


ChunkPartial = tuple[int, float, float, int]


def mc_chunk_partials(
    values_fn: Callable[[np.random.Generator, int], np.ndarray],
    n_samples: int,
    stream: SeededStream,
    workers: int = 1,
) -> list[ChunkPartial]:
    """Evaluate ``values_fn`` chunk by chunk; chunk ``k`` draws from substream
    block ``k + 1``.

    ``values_fn(gen, size)`` returns the chunk's ``size`` values, each of
    which must depend only on its own row (its own draws), so that the chunk
    may be evaluated in row blocks (``row_blocks``) without moving a bit.
    Returns ``(size, sum, sum of squares, nonzero count)`` per chunk in chunk
    order, identical for any worker count.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    full, rem = divmod(n_samples, _CHUNK)
    sizes = [_CHUNK] * full + ([rem] if rem else [])

    def one(block: int) -> ChunkPartial:
        v = values_fn(stream.generator(block=block + 1), sizes[block])
        return sizes[block], float(v.sum()), float(np.square(v).sum()), int(np.count_nonzero(v))

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one, range(len(sizes))))
    return [one(i) for i in range(len(sizes))]


def row_blocks(size: int, block_values: Callable[[slice], np.ndarray]) -> np.ndarray:
    """The ``size`` values of a chunk, computed block by block.

    ``block_values(rows)`` returns the values of the rows in the slice
    ``rows`` (``rows.stop - rows.start`` of them), computed from data drawn
    for the whole chunk beforehand.  Blocks keep the arithmetic's
    temporaries in cache; a value that depends only on its own row comes out
    the same for any block size.
    """
    out = np.empty(size)
    for lo in range(0, size, _ROW_BLOCK):
        rows = slice(lo, min(lo + _ROW_BLOCK, size))
        out[rows] = block_values(rows)
    return out


def reduce_partials(partials: Sequence[ChunkPartial]) -> tuple[Estimate, int]:
    """Sample mean and standard error of the chunks, summed in chunk order,
    with the count of nonzero values."""
    n = 0
    s1 = 0.0
    s2 = 0.0
    nonzero = 0
    for size, p1, p2, pn in partials:
        n += size
        s1 += p1
        s2 += p2
        nonzero += pn
    mean = s1 / n
    var = max(s2 / n - mean * mean, 0.0) * n / (n - 1)
    return Estimate(mean, math.sqrt(var / n), n, Method.MC), nonzero


def _check_finite(values: np.ndarray, points: list[np.ndarray]) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        idx = int(np.argmax(bad))
        where = [p[idx].tolist() for p in points]
        raise EstimationError(f"non-finite integrand value at point(s) {where}")


# the points of a chunk's accepted tuples: ``lift(gen, size)`` makes the
# chunk's draws after the radii and returns ``at(rows, mask, gauges)``, the
# points of the accepted rows of a row block given their factors' gauges
Lift = Callable[[np.random.Generator, int], Callable[..., list[np.ndarray]]]


def _mc_tuples(
    f: Callable[[list[np.ndarray]], np.ndarray],
    lift: Lift,
    dim: GroupDim,
    m: int,
    sampler: Sampler,
    n_samples: int,
    stream: SeededStream,
    workers: int,
) -> Estimate:
    """The tuple sampler: per chunk, one uniform per factor and tuple, drawn
    in factor order, then the lift's draws; then, row block by row block,
    tilted radii, their weights and the tuple-ball mask, and ``f`` at the
    lifted points of the accepted tuples."""
    if len(sampler.tilts) != m:
        raise ValueError(f"sampler carries {len(sampler.tilts)} tilts for m={m}")
    Q = dim.Q
    for t in sampler.tilts:
        if t >= Q:
            raise ValueError(f"tilt {t} must be < Q={Q}")
    omega = sphere_measure(dim)
    heavy = isinstance(sampler, FullSpaceHeavyTail)
    tiny = 2.0**-53

    def values_fn(gen: np.random.Generator, size: int) -> np.ndarray:
        uniforms = [gen.random(size) for _ in sampler.tilts]
        at = lift(gen, size)

        def block(rows: slice) -> np.ndarray:
            count = rows.stop - rows.start
            radii = []
            weights = np.full(count, 1.0)
            for tilt, u in zip(sampler.tilts, uniforms):
                u = np.clip(u[rows], tiny, 1.0 - tiny)
                r = u ** (1.0 / (Q - tilt))
                if heavy:
                    s = r / (1.0 - r)
                    # density of s: (Q - tilt) r^{Q-tilt-1} (1-r)^2
                    weights *= (
                        omega * s ** (Q - 1) / ((Q - tilt) * r ** (Q - tilt - 1) * (1.0 - r) ** 2)
                    )
                    radii.append(s)
                else:
                    weights *= omega * r**tilt / (Q - tilt)
                    radii.append(r)
            out = np.zeros(count)
            if heavy:
                mask = np.full(count, True)
            else:
                rr = np.stack(radii)
                mask = np.einsum("ij,ij->j", rr, rr) < 1.0
            if mask.any():
                points = at(rows, mask, [r[mask] for r in radii])
                vals = np.asarray(f(points), dtype=float) * weights[mask]
                _check_finite(vals, points)
                out[mask] = vals
            return out

        return row_blocks(size, block)

    estimate, nonzero = reduce_partials(mc_chunk_partials(values_fn, n_samples, stream, workers))
    if nonzero == 0:
        raise EstimationError("zero accepted samples; cannot form an estimate")
    return estimate


def _gauges_only(gen: np.random.Generator, size: int) -> Callable[..., list[np.ndarray]]:
    return lambda rows, mask, gauges: gauges


def mc_integrate_radial(
    f: Callable[[list[np.ndarray]], np.ndarray],
    dim: GroupDim,
    m: int,
    sampler: Sampler,
    n_samples: int,
    stream: SeededStream,
    workers: int = 1,
) -> Estimate:
    """Importance-sampled Lebesgue integral of a gauge-radial ``f`` over
    m-tuples of points.

    ``f`` receives a list of m arrays holding the gauges of the factors of N
    accepted tuples and must return N values, each depending only on its
    own tuple: ``f`` sees one row block of a chunk at a time.  No direction
    is drawn: the integral of a radial function over each factor is its
    polar integral.  Tilts equal to the integrand's power-law exponents make
    the weighted evaluations bounded.
    """
    return _mc_tuples(f, _gauges_only, dim, m, sampler, n_samples, stream, workers)


def mc_integrate(
    f: Callable[[list[np.ndarray]], np.ndarray],
    dim: GroupDim,
    m: int,
    sampler: Sampler,
    n_samples: int,
    stream: SeededStream,
    workers: int = 1,
) -> Estimate:
    """Importance-sampled Lebesgue integral of ``f`` over m-tuples of points.

    ``f`` receives a list of m coordinate arrays of shape (N, 2n + 1) and
    must return N values, each depending only on its own tuple: ``f`` sees
    one row block of a chunk at a time.  The sampler is that of
    ``mc_integrate_radial``; each factor is lifted to a point of its gauge
    along a gauge-sphere direction under the cone measure, drawn from the
    chunk's generator after the radii, in factor order.
    """

    def lift(gen: np.random.Generator, size: int) -> Callable[..., list[np.ndarray]]:
        dirs = [_ball_batch(gen, dim, size) for _ in range(m)]

        def at(rows: slice, mask: np.ndarray, gauges: list[np.ndarray]) -> list[np.ndarray]:
            accepted = [d[rows][mask] for d in dirs]
            return [
                _scale_coords(d, g / gauge_array(d, dim.n), dim.n) for d, g in zip(accepted, gauges)
            ]

        return at

    return _mc_tuples(f, lift, dim, m, sampler, n_samples, stream, workers)


def rejection_volume_estimate(
    dim: GroupDim, n_samples: int, stream: SeededStream, workers: int = 1
) -> Estimate:
    """Monte Carlo volume of the unit gauge ball, normalized by the exact
    bounding-box volume 2^{2n+1}.  Shares no closed-form ball constant with
    anything it is used to check."""
    box = 2.0**dim.ambient

    def values_fn(gen: np.random.Generator, size: int) -> np.ndarray:
        props = gen.uniform(-1.0, 1.0, (size, dim.ambient))

        def block(rows: slice) -> np.ndarray:
            return np.where(gauge_array(props[rows], dim.n) < 1.0, box, 0.0)

        return row_blocks(size, block)

    return reduce_partials(mc_chunk_partials(values_fn, n_samples, stream, workers))[0]
