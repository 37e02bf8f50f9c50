"""Numerical integration engines.

Three layers:

* adaptive 1-D quadrature (15-point Gauss-Kronrod panels with bisection
  refinement, the tail of an infinite range mapped to a finite one), run
  by one refiner that advances a batch of independent integrals in
  vectorized rounds,
* one nested-quadrature driver (``quad_nested``) behind every
  multivariate integral, the operators' radial integrals among them: the
  nodes of one level's new panels are the batch of the level below,
* seeded Monte Carlo adapted to the Koranyi geometry: one block
  (``tilted_values``) serves both the operators' radial tuple engine and
  the verifier's Cartesian oracle, which differ only in a factor's polar
  constant and the oracle's angle.  It draws all
  m factors' gauges as one (m, k) stack from one law, a two-piece power
  law with an importance tilt per factor that neutralizes a power-law
  singularity, forms each sample's weight and integrand in log space and
  exponentiates once per sample.  The log integrand carries the tilt
  ``prod_i g_i^tilt_i`` itself, so that a test function's power at its own
  tilt cancels before any sample is drawn, and it bounds the tuple ball
  itself (``-inf`` outside): the block forms no tilt power and tests no
  tuple against the ball.  No Monte Carlo path draws a point or a
  direction, since every integrand is gauge-radial; only
  ``rejection_volume_estimate`` draws coordinates.

This module knows no group constant (a Monte Carlo caller passes each
factor's polar constant as ``log_polar``) and no tuple ball: where an
integrand vanishes outside one, its caller gives the quadrature levels
their finite upper limits and the Monte Carlo log integrand its ``-inf``.

Monte Carlo determinism contract: work is cut into fixed-size chunks, chunk
``k`` draws from the SFC64 substream keyed by ``(seed, stream_id, block=k)``
(see ``SeededStream``), and partial sums are reduced in chunk-index order.
Each chunk is one task, so with workers a pool thread takes the chunks in
turn, and a failing call raises its first failing chunk's error.  Results
are therefore bit-identical for any worker count.  Inside a chunk, the
arithmetic after the draws runs in row blocks (``row_blocks``) sized for
the cache; since every value depends only on its own row, the block size
changes no bit.  Each thread keeps one arena of arrays (``ChunkBuffers``)
across calls, and every array a chunk writes comes from it: its uniforms,
its values (squared in place, at the end, for their sum of squares) and its
row blocks' temporaries.  The arena keeps two chunk arrays of the widest
call (the (m, size) stack of uniforms, twice as wide with the angle columns
at n > 2, and the values) and up to three block-sized stacks, so once a
thread has run its widest call, a chunk's float arrays all come from the
arena, and a row block allocates only what its log integrand does.
"""

from __future__ import annotations

import enum
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .hgroup import GroupDim, gauge_array

__all__ = [
    "Axis",
    "ChunkBuffers",
    "Estimate",
    "EstimationError",
    "MAX_BOX_N",
    "Method",
    "QuadSpec",
    "QuadratureError",
    "SeededStream",
    "mc_chunk_partials",
    "quad_1d",
    "quad_nested",
    "reduce_partials",
    "rejection_volume_estimate",
    "row_blocks",
    "tilted_values",
]

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
# the unit of randomness: chunk k draws from substream block k + 1, so
# changing the chunk size changes every Monte Carlo number
_CHUNK = 1 << 16
# the largest n of rejection_volume_estimate: a chunk's 2n + 1 coordinates
# then take 31.5 MiB, and past n = 10 even 10^9 proposals expect no hit
MAX_BOX_N = 31
# the unit of a chunk's arithmetic after its draws, sized so that each
# block's temporaries stay in a core's L2 cache; it changes no bit
_ROW_BLOCK = 1 << 13
# the most integrand nodes one vectorized quadrature call takes: it bounds
# the memory of a nesting level's batch (the nodes of one call are the
# owners of the level below) and, since owners are independent, no bit
_QUAD_BATCH = 1 << 12
# a panel whose half-width is at most this times its midpoint's magnitude
# is at floating-point resolution and never splits
_RESOLUTION = 4.0 * np.finfo(float).eps
# the running error sums that choose which panels split count in units of
# 1/_ERR_QUANTUM of what an owner's frozen panels leave of its tolerance
_ERR_QUANTUM = 1 << 30
# an integral refines to rel_tol times the larger of its |value| and this,
# the smallest normal float: values below it have lost digits to underflow
_NORMAL = np.finfo(float).tiny


class Method(enum.Enum):
    QUAD = "quad"
    MC = "mc"


@dataclass(frozen=True)
class Estimate:
    """A numeric value with its uncertainty and provenance.

    ``std_error`` is 0 for deterministic quadrature.  Monte Carlo estimates
    carry the sample standard error, floored at the rounding of the variance
    (``reduce_partials``), so it is 0 only when every value is 0.
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


@dataclass(frozen=True)
class QuadSpec:
    """Error control for adaptive quadrature: every 1-D integral, at every
    nesting level, refines until its error estimate is at most ``rel_tol``
    times its value, or times the smallest normal float for a value below
    it, or fails after ``max_subdivisions`` panel splits."""

    rel_tol: float = 1e-10
    max_subdivisions: int = 4096

    def __post_init__(self) -> None:
        if not self.rel_tol > 0.0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol!r}")
        n = self.max_subdivisions
        if type(n) is not int or n < 1:
            raise ValueError(f"max_subdivisions must be an integer >= 1, got {n!r}")


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


def _new_panels(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    own: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The rows (left, right, value, error) of the panels ``(a[i], b[i])`` of
    owners ``own[i]`` (the Kronrod value and its distance from the embedded
    Gauss value), and which of them are at floating-point resolution.  The
    integrand runs in vectorized calls ``f(nodes, owners)`` of at most
    ``_QUAD_BATCH`` nodes."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    xs = mid[:, None] + half[:, None] * _ABSC
    # keep nodes strictly interior: on panels a few ulps wide, rounding can
    # otherwise push a node onto an endpoint (e.g. the infinite-limit map's
    # singular point t = 1)
    xs = np.minimum(np.maximum(xs, np.nextafter(a, b)[:, None]), np.nextafter(b, a)[:, None])
    xs = xs.reshape(-1)
    node_own = np.repeat(own, _ABSC.size)
    fv = np.empty_like(xs)
    for lo in range(0, xs.size, _QUAD_BATCH):
        rows = slice(lo, lo + _QUAD_BATCH)
        out = np.asarray(f(xs[rows], node_own[rows]), dtype=float)
        if out.shape != xs[rows].shape:
            raise TypeError("integrand must be vectorized: f(ndarray) -> ndarray of same shape")
        fv[rows] = out
    if not np.isfinite(fv).all():
        raise QuadratureError(f"non-finite integrand value at x={xs[~np.isfinite(fv)][0]!r}")
    fv = fv.reshape(-1, _ABSC.size)
    # per-row sums, so that a panel's value does not depend on its batch
    val = half * (fv * _WK15).sum(axis=1)
    err = np.abs(val - half * (fv * _WG15).sum(axis=1))
    tiny = half <= _RESOLUTION * (np.abs(mid) + 5e-301)
    return np.stack((a, b, val, err)), tiny


def _finite_axis(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    points: np.ndarray,
) -> tuple[Callable, np.ndarray, np.ndarray, np.ndarray]:
    """Map the tail of each owner whose upper limit is infinite to a finite
    range, with its breakpoints.

    Such an owner splits at ``s``, its last breakpoint in ``(lo, lo + 1]``,
    or ``lo`` when there is none.  It integrates ``[lo, s]`` as it is and
    ``[s, inf)`` as ``x = s + u/(1-u)`` at ``u = t - s`` in ``(0, 1)``, so
    its range becomes ``(lo, s + 1)``, with ``s`` and the mapped breakpoints
    past it as breakpoints.  Mapping the whole axis would turn the pieces
    below ``s``, polynomial in ``x``, into rational ones.  The ``lo + 1``
    bound keeps a far breakpoint, such as a step function's edge, from
    leaving a long stretch unmapped and the mass past it squeezed into the
    end of the map."""
    inf = np.isinf(hi)
    if not inf.any():
        return f, lo, hi, points
    near = (points > lo[:, None]) & (points <= lo[:, None] + 1.0)
    last = np.max(np.where(near, points, -np.inf), axis=1, initial=-np.inf)
    # an owner with a finite range keeps s = inf, which leaves it unmapped
    s = np.where(inf, np.maximum(lo, last), np.inf)
    shift = points - s[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        points = np.where(shift > 0.0, s[:, None] + shift / (1.0 + shift), points)

    def g(t: np.ndarray, own: np.ndarray) -> np.ndarray:
        u = t - s[own]
        tail = u > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.where(tail, s[own] + u / (1.0 - u), t)
        return np.asarray(f(x, own), dtype=float) / np.where(tail, (1.0 - u) ** 2, 1.0)

    return g, lo, np.where(inf, s + 1.0, hi), np.column_stack((points, s))


def _refine(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    points: np.ndarray,
    spec: QuadSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate K independent 1-D integrals ("owners") together.

    Owner ``k`` integrates ``f(x, k)`` over ``(lo[k], hi[k])`` (``hi[k]`` may
    be infinite; an empty range gives 0), with its breakpoints in row ``k``
    of ``points`` (entries outside the range, or NaN, are ignored).  Each
    round evaluates every new panel in one batch.  Then every owner whose
    error exceeds ``rel_tol max(|value|, _NORMAL)`` sorts its panels by
    error, ascending, and splits each panel where the running error sum,
    plus the error of its panels at floating-point resolution (which never
    split), exceeds its tolerance.  The running sums are exact integers
    (``_ERR_QUANTUM``), so one cumulative sum serves the batch; every
    owner keeps its own subdivision count, and its sums run over its own
    panels in a fixed order, so an owner's result does not depend on the
    rest of its batch.  Returns the values, error estimates and node counts
    per owner; raises the failure of the lowest-index owner that fails.
    """
    f, lo, hi, points = _finite_axis(f, lo, hi, points)
    k_all = lo.size
    hi = np.where(hi > lo, hi, lo)
    pts = np.where((points > lo[:, None]) & (points < hi[:, None]), points, np.inf)
    edges = np.sort(np.column_stack((lo, pts, hi)), axis=1)
    left, right = edges[:, :-1], edges[:, 1:]
    cut = (right > left) & (right < np.inf)
    new_own, new_a, new_b = np.nonzero(cut)[0], left[cut], right[cut]
    n_initial = np.bincount(new_own, minlength=k_all)
    splits = np.zeros(k_all, dtype=np.intp)
    value, abs_err = np.zeros(k_all), np.zeros(k_all)
    active = n_initial > 0
    # the value and error of each owner's panels at floating-point resolution
    frozen_val, frozen_err = np.zeros(k_all), np.zeros(k_all)
    failures: dict[int, QuadratureError] = {}
    own, panels = new_own[:0], np.empty((4, 0))

    while True:
        children, tiny = _new_panels(f, new_own, new_a, new_b)
        if tiny.any():
            frozen_val += np.bincount(new_own[tiny], children[2, tiny], k_all)
            frozen_err += np.bincount(new_own[tiny], children[3, tiny], k_all)
            new_own, children = new_own[~tiny], children[:, ~tiny]
        own = np.concatenate((own, new_own))
        panels = np.concatenate((panels, children), axis=1)
        # each owner's panels in ascending error
        order = np.lexsort((panels[3], own))
        own, panels = own[order], panels[:, order]
        a, b, val, err = panels
        total = frozen_val + np.bincount(own, val, k_all)
        tol = spec.rel_tol * np.maximum(np.abs(total), _NORMAL)
        error = frozen_err + np.bincount(own, err, k_all)
        value = np.where(active, total, value)
        abs_err = np.where(active, error, abs_err)
        active &= error > tol
        if not active.any():
            break
        stuck = np.bincount(own, minlength=k_all) == 0
        failed = active & (stuck | (splits >= spec.max_subdivisions))
        for k in np.flatnonzero(failed):
            if stuck[k]:
                message = (
                    "all panels are at floating-point resolution without convergence "
                    f"(error {error[k]:.3e})"
                )
            else:
                message = (
                    f"max_subdivisions={spec.max_subdivisions} exhausted (error {error[k]:.3e})"
                )
            n = int(15 * (n_initial[k] + 2 * splits[k]))
            est = Estimate(float(total[k]), 0.0, n, Method.QUAD)
            failures[int(k)] = QuadratureError(message, est)
            active[k] = False

        # split where the running error sum exceeds what the frozen panels
        # leave of the tolerance (all of an owner's panels once they leave
        # none); rounding up, every owner still pending splits a panel
        budget = tol - frozen_err
        left = budget > 0.0
        ratio = np.where(left[own], err / np.where(left, budget, 1.0)[own], 2.0)
        q = np.ceil(np.minimum(ratio, 2.0) * _ERR_QUANTUM).astype(np.int64)
        running = np.cumsum(q)
        first = np.searchsorted(own, own)
        running += q[first] - running[first]
        keep = active[own]
        idx = np.flatnonzero(keep & (running > _ERR_QUANTUM))
        if splits.max() + idx.size > spec.max_subdivisions:
            # no owner splits past max_subdivisions: its largest panels first
            po = own[idx]
            from_end = np.searchsorted(po, po, side="right") - 1 - np.arange(idx.size)
            idx = idx[from_end < spec.max_subdivisions - splits[po]]
        po = own[idx]
        splits += np.bincount(po, minlength=k_all)
        mid = 0.5 * (a[idx] + b[idx])
        new_own = np.concatenate((po, po))
        new_a = np.concatenate((a[idx], mid))
        new_b = np.concatenate((mid, b[idx]))
        keep[idx] = False
        own, panels = own[keep], panels[:, keep]

    if failures:
        raise failures[min(failures)]
    return value, abs_err, 15 * (n_initial + 2 * splits)


def quad_1d(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadSpec | None = None,
    *,
    points: Sequence[float] = (),
) -> Estimate:
    """Adaptively integrate ``f`` over ``(a, b)``; ``b`` may be ``math.inf``.

    ``f`` receives a flat array of nodes.  ``points`` seeds interior
    breakpoints (kinks, plateau edges) so panels never straddle them.
    Integrable endpoint singularities like ``r**-s`` with ``s < 1`` are
    handled by subdivision toward the endpoint; panel nodes never touch the
    endpoints themselves.  This is the one-owner case of the refiner behind
    ``quad_nested``: it controls the relative error of the value, as every
    hlab integrand is nonnegative.

    Raises :class:`QuadratureError` with the best estimate attached once
    ``max_subdivisions`` is exhausted.
    """
    if not math.isfinite(a):
        raise ValueError("lower limit must be finite")
    if not (b > a):
        raise ValueError(f"empty or reversed interval ({a}, {b})")
    return quad_nested(lambda depth, prefix: [(lambda x, own: f(x), a, b, points)], 1, spec)


# One 1-D integral of a nesting level for its K owners: (integrand, lower,
# upper, breakpoints), the limits broadcasting to (K,) and the breakpoints to
# (K, P); ``integrand(x, owner)`` takes a flat array of nodes and the index
# of the owner of each node.
Axis = tuple[Callable[[np.ndarray, np.ndarray], object], object, object, object]


def quad_nested(
    level: Callable[[int, tuple], Sequence[Axis]],
    m: int,
    spec: QuadSpec | None = None,
) -> Estimate:
    """Nested adaptive quadrature over ``m`` levels of 1-D integrals.

    A level is a batch of K independent integrals, its owners, refined
    together.  ``level(depth, prefix)`` describes them: ``prefix`` holds one
    array per level above (``()`` at depth 0, where K = 1), whose row ``k``
    is the node owner ``k`` descends from at that level.  It returns the axes
    ``(integrand, lo, hi, points)`` whose integrals multiply; ``lo`` and
    ``hi`` broadcast to (K,), an empty range counts as 0, and ``points``
    broadcasts to (K, P), ignoring entries outside the range.  At the
    innermost depth ``integrand(x, owner)`` returns its values at the nodes
    ``x`` of owners ``owner``; above it, it returns ``(weights, nodes)`` and
    its value at ``x[i]`` is ``weights[i]`` times the next level at the
    prefix extended by ``nodes[i]``: the nodes of a round's new panels are
    the owners of the next level, integrated in one batch.  Every level
    refines to ``spec``, each owner to its own tolerance and its own
    ``max_subdivisions``, and ``n_samples`` counts the integrand evaluations
    of every level.  On a nonnegative integrand, m levels that each meet
    ``rel_tol`` leave the value within about ``m * rel_tol`` relative.
    """
    spec = spec or QuadSpec()
    n_evals = 0

    def integrate(depth: int, prefix: tuple) -> np.ndarray:
        nonlocal n_evals
        k = prefix[0].shape[0] if prefix else 1
        value = np.ones(k)
        for f, lo, hi, points in level(depth, prefix):
            if depth < m - 1:
                f = partial(outer, f, depth, prefix)
            zeros = np.zeros(k)
            pts = np.asarray(points, dtype=float)
            pts = zeros[:, None] + (pts if pts.ndim == 2 else pts.reshape(1, -1))
            vals, _, evals = _refine(f, zeros + lo, zeros + hi, pts, spec)
            n_evals += int(evals.sum())
            value *= vals
        return value

    def outer(f: Callable, depth: int, prefix: tuple, x: np.ndarray, own: np.ndarray) -> np.ndarray:
        weights, nodes = f(x, own)
        return weights * integrate(depth + 1, tuple(p[own] for p in prefix) + (np.asarray(nodes),))

    return Estimate(float(integrate(0, ())[0]), 0.0, n_evals, Method.QUAD)


@dataclass(frozen=True)
class SeededStream:
    """Keyed splittable random stream.

    Identical ``(seed, stream_id)`` reproduce identical sample sequences;
    ``generator(block=k)`` opens the independent substream used for chunk k:
    an SFC64 generator seeded by ``SeedSequence`` from a fixed-width key.
    The key is six uint32 words, the low and high halves of ``seed``,
    ``stream_id`` and ``block``, each taken modulo 2^64, so distinct
    triples never share a key.
    """

    seed: int
    stream_id: int = 0

    def generator(self, block: int = 0) -> np.random.Generator:
        # SeedSequence encodes a Python int at variable width, so packing
        # the triple as ints would let e.g. (2^32, 5, 7) and (0, 1 + 5 * 2^32,
        # 7) collide; fixed 32-bit words keep every key distinct
        words = (v & _MASK64 for v in (self.seed, self.stream_id, block))
        key = [w >> shift & _MASK32 for w in words for shift in (0, 32)]
        entropy = np.random.SeedSequence(np.array(key, dtype=np.uint32))
        return np.random.Generator(np.random.SFC64(entropy))


ChunkPartial = tuple[int, float, float, int]


class ChunkBuffers:
    """A thread's arena of Monte Carlo arrays, kept from one chunk to the
    next and from one call to the next.

    ``mc_chunk_partials`` keeps one per thread and checks it out for each
    chunk (a call nested in a ``values_fn`` finds it checked out and makes
    a fresh one), rewinding it first.  Every array a chunk writes is an
    ``empty`` request: its uniforms, its values and its row blocks'
    temporaries, in the order the chunk asks for them.  The k-th request is
    a view of the arena's k-th array, which grows to the largest such
    request it has seen.  For ``tilted_values`` it keeps up to five: the
    (m, size) uniforms of the widest call (twice as wide with the angle
    columns at n > 2), its values, and up to three stacks of
    ``_ROW_BLOCK`` columns.  Once the thread has run its widest call, it
    allocates and frees no array.
    """

    def __init__(self) -> None:
        self._arrays: list[np.ndarray] = []
        self._next = 0

    def rewind(self) -> None:
        self._next = 0

    def empty(self, shape: tuple[int, ...]) -> np.ndarray:
        """An uninitialized C-contiguous float array of ``shape``."""
        k = self._next
        self._next += 1
        size = math.prod(shape)
        if k == len(self._arrays):
            self._arrays.append(np.empty(size))
        elif self._arrays[k].size < size:
            self._arrays[k] = np.empty(size)
        return self._arrays[k][:size].reshape(shape)


# each thread's arena while no chunk of the thread holds it
_ARENA = threading.local()


def mc_chunk_partials(
    values_fn: Callable[[np.random.Generator, int, ChunkBuffers], np.ndarray],
    n_samples: int,
    stream: SeededStream,
    workers: int = 1,
) -> list[ChunkPartial]:
    """Evaluate ``values_fn`` chunk by chunk; chunk ``k`` draws from substream
    block ``k + 1``.

    ``values_fn(gen, size, buffers)`` returns the chunk's ``size`` values as
    a float array, each of which must depend only on its own row (its own
    draws), so that the chunk may be evaluated in row blocks
    (``row_blocks``) without moving a bit.  It takes every array it writes,
    its draws (``gen.random(out=buffers.empty(shape))``), its value array
    and its row blocks' temporaries, from ``buffers``, the arena
    (``ChunkBuffers``) of its thread: one per thread, kept across calls,
    whose arrays grow to the widest call so far.  The values must be
    nonnegative; once summed and counted, they are squared in place, in the
    array ``values_fn`` returned, for their sum of squares.  Returns
    ``(size, sum, sum of squares, positive count)`` per chunk in chunk
    order, identical for any worker count.

    Each chunk is one task: with workers, a pool of threads that lives for
    this call takes the chunks in turn.  A call whose chunks fail raises
    the error of its first failing chunk, whatever the worker count.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    full, rem = divmod(n_samples, _CHUNK)
    sizes = [_CHUNK] * full + ([rem] if rem else [])

    def one(k: int) -> ChunkPartial:
        # the thread's arena, checked out of its slot so that a call nested
        # in values_fn cannot share it
        buffers = getattr(_ARENA, "buffers", None) or ChunkBuffers()
        _ARENA.buffers = None
        try:
            buffers.rewind()
            v = values_fn(stream.generator(block=k + 1), sizes[k], buffers)
            total = float(v.sum())
            positive = int(np.count_nonzero(np.greater(v, 0.0)))
            return sizes[k], total, float(np.square(v, out=v).sum()), positive
        finally:
            _ARENA.buffers = buffers

    threads = min(workers, len(sizes))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, range(len(sizes))))
    return [one(k) for k in range(len(sizes))]


def row_blocks(out: np.ndarray, block_values: Callable[[slice], np.ndarray]) -> np.ndarray:
    """Fill ``out``, the values of a chunk, block by block, and return it.

    ``block_values(rows)`` returns the values of the rows in the slice
    ``rows`` (``rows.stop - rows.start`` of them), computed from data drawn
    for the whole chunk beforehand.  Blocks keep the arithmetic's
    temporaries in cache; a value that depends only on its own row comes out
    the same for any block size.
    """
    size = out.shape[0]
    for lo in range(0, size, _ROW_BLOCK):
        rows = slice(lo, min(lo + _ROW_BLOCK, size))
        out[rows] = block_values(rows)
    return out


def reduce_partials(partials: Sequence[ChunkPartial]) -> tuple[Estimate, int]:
    """Sample mean and standard error of the chunks, summed in chunk order,
    with the count of positive values.

    The variance ``s2/n - mean^2`` is floored at its own rounding,
    ``eps * s2/n``: on constant values it cancels to exactly 0, and a std
    error of 0 would make any rounding of the mean infinitely many standard
    errors off.  The floor puts the std error of constant values at
    ``sqrt(eps/n)`` relative (1.5e-11 at 10^6 samples)."""
    n = 0
    s1 = 0.0
    s2 = 0.0
    positive = 0
    for size, p1, p2, pn in partials:
        n += size
        s1 += p1
        s2 += p2
        positive += pn
    mean = s1 / n
    second = s2 / n
    var = max(second - mean * mean, math.ulp(1.0) * second) * n / (n - 1)
    return Estimate(mean, math.sqrt(var / n), n, Method.MC), positive


# the floor of v, so that an exact zero uniform still gives a finite log
_TINY = 2.0**-53


def tilted_values(
    log_f: Callable[[np.ndarray], np.ndarray],
    Q: float,
    tilts: Sequence[float],
    *,
    compact: bool = False,
    log_scale: float = 0.0,
    log_polar: float = 0.0,
    angle: float = 0.0,
) -> Callable[[np.random.Generator, int, ChunkBuffers], np.ndarray]:
    """The ``values_fn`` (``mc_chunk_partials``) of a gauge-radial integral
    over m-tuples, each factor's gauge drawn from a two-piece power law at
    its own tilt, and given by its log ``log_f`` with the law's tilt folded
    in.

    The law at tilt ``t`` has density ``g^{Q-1-t} / M`` on (0, 1), of mass
    ``a/M`` with ``a = 1/(Q - t)``, and ``g^{-1-t} / M`` on (1, inf), of
    mass ``b/M`` with ``b = 1/t``; ``M = a + b``.  ``compact`` drops the
    outer piece (``b = 0``), for integrands that vanish unless every
    ``g < 1``.  With ``p = a/M`` the inner share, a uniform ``x`` maps to
    ``v = x/p`` on the inner piece and ``v = (1 - x)/(1 - p)`` on the outer
    one, and ``g = v^c`` with ``c = a`` inside and ``c = -b`` outside.  The
    polar weight ``g^{Q-1} / density`` of a draw is ``M g^t`` inside and
    ``M g^{Q+t}`` outside.  The m laws are one: ``a``, ``M`` and ``p`` are
    (m, 1) columns, formed once, and each row block maps all m factors'
    uniforms with one set of (m, k) array operations.

    ``log_f`` receives the (m, k) stack of the log gauges ``log g_i`` of one
    row block's tuples, one row per factor, and returns their logs,
    ``-inf`` where the integrand vanishes, each depending only on its own
    tuple.  It must not write to the stack, which is the arena's.  A tilt
    outside (0, Q), or [0, Q) with ``compact``, raises ``ValueError``.

    Each chunk makes one draw: ``(m, size)`` uniforms, or with ``angle``
    ``e > 0``, ``(m, size, 2)``: per factor and row its gauge, then an
    angle ``s = 2x - 1`` uniform on (-1, 1) of angular factor
    ``(1 - s^2)^e = (4x(1 - x))^e``.  Factor after factor, it takes the
    stream positions that one draw per factor would.  A tuple's log value
    is the sum, formed in the block's output, of ``log_f``; the scalar
    ``log_scale`` plus ``log_polar + log M_i`` for each factor
    (``log_polar`` the log of a factor's polar constant); then, factor by
    factor, the outer powers ``Q log g_i`` (0 on the inner piece) and
    ``e log(4x_i(1 - x_i))``.  It is exponentiated in place, once per
    tuple, so a weight beyond the float range that meets an integrand below
    it still gives their finite product; a NaN or +inf value raises
    ``EstimationError``.  Apart from what ``log_f`` allocates, a row block
    writes only into the arena: stacks of ``_ROW_BLOCK`` columns, the log
    gauges, the full law's scratch and the terms it adds.
    """
    if not tilts:
        raise ValueError("need at least one tilt")
    for i, tilt in enumerate(tilts):
        if not (0.0 <= tilt < Q if compact else 0.0 < tilt < Q):
            bounds = f"[0, {Q})" if compact else f"(0, {Q})"
            raise ValueError(f"tilt {i + 1} = {tilt!r} must lie in {bounds}")
    m = len(tilts)
    t = np.asarray(tilts, dtype=float)[:, None]
    a = 1.0 / (Q - t)
    mass = a if compact else a + 1.0 / t
    p = a / mass
    log_const = log_scale + math.fsum(log_polar + math.log(M) for M in mass[:, 0].tolist())
    columns = (2,) if angle else ()
    # the rows added to log_f: the outer powers, then the angle's logs
    n_terms = (0 if compact else m) + (m if angle else 0)

    def values_fn(gen: np.random.Generator, size: int, buffers: ChunkBuffers) -> np.ndarray:
        uniforms = gen.random(out=buffers.empty((m, size, *columns)))
        values = buffers.empty((size,))
        stack = buffers.empty((m, _ROW_BLOCK))
        scratch = None if compact else buffers.empty((m, _ROW_BLOCK))
        terms = buffers.empty((n_terms, _ROW_BLOCK))

        def block(rows: slice) -> np.ndarray:
            k = rows.stop - rows.start
            x = uniforms[:, rows, 0] if angle else uniforms[:, rows]
            log_g, added = stack[:, :k], terms[:, :k]
            if compact:
                np.maximum(x, _TINY, out=log_g)
                np.log(log_g, out=log_g)
                log_g *= a
            else:
                log_q = added[:m]
                outer = np.greater_equal(x, p, out=scratch[:, :k])  # 1 on the outer piece
                np.subtract(x, outer, out=log_g)
                log_g /= np.subtract(p, outer, out=log_q)  # v
                np.maximum(log_g, _TINY, out=log_g)
                np.log(log_g, out=log_g)
                np.multiply(outer, Q, out=log_q)
                outer *= mass
                np.subtract(a, outer, out=outer)  # c
                log_g *= outer
                log_q *= log_g
            if angle:
                # 1 - x is exact where x is near 1, so 4x(1 - x) keeps its
                # relative precision at both ends
                j = np.subtract(1.0, uniforms[:, rows, 1], out=added[n_terms - m :])
                j *= uniforms[:, rows, 1]
                j *= 4.0
                with np.errstate(divide="ignore"):
                    np.log(j, out=j)
                j *= angle
            # the rows' own slice of the output: row_blocks copies nothing;
            # the terms are added one row at a time, in order, so that a
            # value does not depend on the block size
            log_w = np.add(log_f(log_g), log_const, out=values[rows])
            for term in added:
                log_w += term
            with np.errstate(over="ignore"):
                np.exp(log_w, out=log_w)
            # an integrand of +inf, or NaN, leaves a non-finite value; the
            # values are never -inf, so one max tells
            if not math.isfinite(log_w.max()):
                where = log_g[:, np.argmax(~np.isfinite(log_w))].tolist()
                raise EstimationError(f"non-finite integrand value at log gauge(s) {where}")
            return log_w

        return row_blocks(values, block)

    return values_fn


def rejection_volume_estimate(
    dim: GroupDim, n_samples: int, stream: SeededStream, workers: int = 1
) -> Estimate:
    """Monte Carlo volume of the unit gauge ball, normalized by the exact
    bounding-box volume 2^{2n+1}.  Shares no closed-form ball constant with
    anything it is used to check.  Takes n up to ``MAX_BOX_N``."""
    if dim.n > MAX_BOX_N:
        raise ValueError(f"rejection_volume_estimate takes n up to {MAX_BOX_N}, got n = {dim.n}")
    box = 2.0**dim.ambient

    def values_fn(gen: np.random.Generator, size: int, buffers: ChunkBuffers) -> np.ndarray:
        # 2r - 1 has the bits of gen.uniform(-1, 1), -1 + 2r
        uniforms = gen.random(out=buffers.empty((size, dim.ambient)))

        def block(rows: slice) -> np.ndarray:
            props = uniforms[rows] * 2.0
            props -= 1.0
            return np.where(gauge_array(props, dim.n) < 1.0, box, 0.0)

        return row_blocks(buffers.empty((size,)), block)

    return reduce_partials(mc_chunk_partials(values_fn, n_samples, stream, workers))[0]
