"""Heisenberg-group algebra and Koranyi gauge geometry.

Points of H^n live on R^{2n} x R.  Everything here is a pure function of its
inputs and all values are immutable after construction, so the whole module is
safe for concurrent use without synchronization.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "Convention",
    "DimensionMismatchError",
    "GroupDim",
    "HPoint",
    "as_dim",
    "ball_volume",
    "dilate",
    "dilation_jacobian",
    "distance",
    "gauge",
    "gauge_array",
    "group_inv",
    "group_mul",
    "log_unit_ball_volume",
    "origin",
    "sphere_measure",
    "unit_ball_volume",
]


class Convention(enum.Enum):
    """Normalization convention for the unit-ball volume.

    GEOMETRIC is the Lebesgue measure of ``{x : |x|_h < 1}``.  PAPER_FORMULA
    is exactly twice that, reproducing the tabulated closed form used by some
    sources.  Constants that depend only on the ratio ``omega_Q / Omega_Q = Q``
    are identical under both conventions.
    """

    GEOMETRIC = "geometric"
    PAPER_FORMULA = "paper"


class DimensionMismatchError(ValueError):
    """Points from different groups H^n were combined."""


@dataclass(frozen=True)
class GroupDim:
    """Group index n.  The homogeneous dimension is Q = 2n + 2."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError(f"group index n must be a positive integer, got {self.n!r}")

    @property
    def Q(self) -> int:
        return 2 * self.n + 2

    @property
    def ambient(self) -> int:
        """Number of real coordinates, 2n + 1."""
        return 2 * self.n + 1


def as_dim(dim: GroupDim | int) -> GroupDim:
    """``dim`` itself, or the group ``GroupDim(dim)`` for an integer index."""
    return dim if isinstance(dim, GroupDim) else GroupDim(dim)


@dataclass(frozen=True)
class HPoint:
    """A point of H^n stored as its 2n + 1 real coordinates."""

    dim: GroupDim
    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != self.dim.ambient:
            raise ValueError(
                f"expected {self.dim.ambient} coordinates for n={self.dim.n}, "
                f"got {len(self.coords)}"
            )
        if not all(math.isfinite(c) for c in self.coords):
            raise ValueError(f"coordinates must be finite, got {self.coords!r}")

    @staticmethod
    def of(n: int | GroupDim, coords: Iterable[float]) -> "HPoint":
        return HPoint(as_dim(n), tuple(float(c) for c in coords))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


def origin(dim: GroupDim | int) -> HPoint:
    dim = as_dim(dim)
    return HPoint(dim, (0.0,) * dim.ambient)


def group_mul(p: HPoint, q: HPoint) -> HPoint:
    """Group product p o q.

    The first 2n coordinates add; the last picks up the symplectic twist
    ``2 * sum_j (q_j p_{n+j} - p_j q_{n+j})``.
    """
    if p.dim != q.dim:
        raise DimensionMismatchError(f"cannot multiply points of n={p.dim.n} and n={q.dim.n}")
    n = p.dim.n
    x, y = p.coords, q.coords
    twist = 2.0 * sum(y[j] * x[n + j] - x[j] * y[n + j] for j in range(n))
    coords = tuple(x[i] + y[i] for i in range(2 * n)) + (x[2 * n] + y[2 * n] + twist,)
    return HPoint(p.dim, coords)


def group_inv(p: HPoint) -> HPoint:
    """Group inverse; coordinatewise negation."""
    return HPoint(p.dim, tuple(-c for c in p.coords))


def dilate(r: float, p: HPoint) -> HPoint:
    """Anisotropic dilation: r on the first 2n coordinates, r^2 on the last."""
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(f"dilation factor must be positive and finite, got {r!r}")
    n = p.dim.n
    # r (r t): a zero t stays 0 at any r, where (r r) t is inf * 0
    coords = tuple(r * c for c in p.coords[: 2 * n]) + (r * (r * p.coords[2 * n]),)
    return HPoint(p.dim, coords)


def gauge(p: HPoint) -> float:
    """Koranyi gauge ``((sum_i x_i^2)^2 + x_{2n+1}^2)^{1/4}``; zero iff p = 0.

    A point whose plain form overflows, or falls below the normal range
    (gauge below about 1e-77) away from the origin, takes the scaled form
    of ``_scaled_gauge``."""
    n = p.dim.n
    s = sum(c * c for c in p.coords[: 2 * n])
    t = p.coords[2 * n]
    q = s * s + t * t
    if math.isinf(q) or (q < sys.float_info.min and any(p.coords)):
        return float(_scaled_gauge(np.asarray(p.coords[: 2 * n]), np.asarray(t)))
    return q**0.25


def gauge_array(coords: np.ndarray, n: int) -> np.ndarray:
    """Vectorized gauge for an array of shape (..., 2n + 1).

    Rows whose plain form overflows (``|z|`` above about 1e77 or ``|t|``
    above about 1e154), or falls below the normal range away from the
    origin, are recomputed in the scaled form of ``_scaled_gauge``, as in
    ``gauge``; every other row keeps the plain form's bits.
    """
    c = np.asarray(coords, dtype=float)
    horiz = c[..., : 2 * n]
    vert = c[..., 2 * n]
    s = np.einsum("...i,...i->...", horiz, horiz)
    with np.errstate(over="ignore"):
        q = s * s + vert * vert
    g = q**0.25
    redo = np.isinf(q) | (q < sys.float_info.min)
    if redo.any():
        redo &= np.any(c != 0.0, axis=-1)
        g = np.asarray(g)
        g[redo] = _scaled_gauge(horiz[redo], vert[redo])
        return g[()]
    return g


def _scaled_gauge(horiz: np.ndarray, vert: np.ndarray) -> np.ndarray:
    """The gauge as ``M ((sum (z_i/M)^2)^2 + (t/M/M)^2)^{1/4}`` with
    ``M = max(max_i |z_i|, sqrt|t|)``, which squares nothing above 1, so it
    is finite for every finite row.  Rows holding an infinity give inf."""
    scale = np.maximum(np.abs(horiz).max(axis=-1), np.sqrt(np.abs(vert)))
    with np.errstate(invalid="ignore"):
        z = horiz / scale[..., None]
        t = vert / scale / scale
        g = scale * (np.einsum("...i,...i->...", z, z) ** 2 + t * t) ** 0.25
    return np.where(np.isinf(scale), np.inf, g)


def distance(p: HPoint, q: HPoint) -> float:
    """Left-invariant gauge distance ``|q^{-1} o p|_h``."""
    return gauge(group_mul(group_inv(q), p))


def log_unit_ball_volume(
    dim: GroupDim | int, convention: Convention = Convention.GEOMETRIC
) -> float:
    """Log of the unit gauge ball's volume, finite at every n (the volume
    leaves the normal range at n = 218).  The geometric value is ``pi^{n+1/2}
    Gamma(n/2) / ((n+1) Gamma(n) Gamma((n+1)/2))``; PAPER_FORMULA doubles it.
    """
    n = as_dim(dim).n
    log_v = (
        (n + 0.5) * math.log(math.pi)
        + math.lgamma(n / 2.0)
        - math.log(n + 1.0)
        - math.lgamma(float(n))
        - math.lgamma((n + 1) / 2.0)
    )
    return log_v + math.log(2.0) if convention is Convention.PAPER_FORMULA else log_v


def unit_ball_volume(dim: GroupDim | int, convention: Convention = Convention.GEOMETRIC) -> float:
    """Volume of the unit gauge ball, the ``exp`` of ``log_unit_ball_volume``."""
    v = math.exp(log_unit_ball_volume(dim))
    return 2.0 * v if convention is Convention.PAPER_FORMULA else v


def ball_volume(
    dim: GroupDim | int, r: float, convention: Convention = Convention.GEOMETRIC
) -> float:
    """Volume of the ball of radius r: unit volume times r^Q."""
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(f"ball radius must be positive and finite, got {r!r}")
    dim = as_dim(dim)
    return unit_ball_volume(dim, convention) * r**dim.Q


def sphere_measure(dim: GroupDim | int, convention: Convention = Convention.GEOMETRIC) -> float:
    """Surface constant omega_Q = Q * |B(0,1)| under the chosen convention."""
    dim = as_dim(dim)
    return dim.Q * unit_ball_volume(dim, convention)


def dilation_jacobian(dim: GroupDim | int, r: float) -> float:
    """Determinant of the linear map delta_r, i.e. r^{2n} * r^2 = r^Q."""
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(f"dilation factor must be positive and finite, got {r!r}")
    return float(r) ** as_dim(dim).Q
