"""Gamma/Beta evaluation and every closed-form sharp constant.

All constants are ratios of Gamma values, so everything is assembled in log
space to avoid overflow.  Exponent profiles are validated against the open
interval (0, Q) before any evaluation; violations are reported all at once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

from .hgroup import Convention, GroupDim, as_dim, log_sphere_measure, log_unit_ball_volume

__all__ = [
    "AlphaProfile",
    "DivergentConstantError",
    "beta",
    "beta_integral",
    "gamma",
    "hardy_constant",
    "hilbert_constant",
    "hlp_constant",
    "hlp_region_values",
    "i_m_closed",
    "i_m_recursive",
    "log_beta",
    "log_gamma",
]


class DivergentConstantError(ValueError):
    """An exponent profile makes the defining integral diverge."""

    def __init__(self, message: str, indices: tuple[int, ...] = ()):
        super().__init__(message)
        self.indices = indices


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0 (relative error well below 1e-13 on (0, 170))."""
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"log_gamma requires a positive finite argument, got {x!r}")
    return math.lgamma(x)


def gamma(x: float) -> float:
    return math.exp(log_gamma(x))


def log_beta(a: float, b: float) -> float:
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def beta(a: float, b: float) -> float:
    """B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b), computed in log space."""
    return math.exp(log_beta(a, b))


@dataclass(frozen=True)
class AlphaProfile:
    """Exponent profile alpha_1..alpha_m; the total is their sum."""

    alphas: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.alphas) < 1:
            raise ValueError("profile needs at least one exponent")
        bad = [i for i, a in enumerate(self.alphas) if not (math.isfinite(a) and a > 0.0)]
        if bad:
            raise DivergentConstantError(
                "exponents must be positive and finite; offending indices "
                + ", ".join(f"alpha_{i + 1}={self.alphas[i]!r}" for i in bad),
                tuple(bad),
            )

    @staticmethod
    def of(*alphas: float) -> "AlphaProfile":
        return AlphaProfile(tuple(float(a) for a in alphas))

    @property
    def m(self) -> int:
        return len(self.alphas)

    @property
    def total(self) -> float:
        return math.fsum(self.alphas)

    def validate_for(self, dim: GroupDim) -> None:
        """Require every alpha_i in (0, Q); report all violations at once."""
        Q = dim.Q
        bad = [i for i, a in enumerate(self.alphas) if not (0.0 < a < Q)]
        if bad:
            raise DivergentConstantError(
                "divergent constant: "
                + "; ".join(
                    f"alpha_{i + 1}={self.alphas[i]} must lie in (0, Q)=(0, {Q})" for i in bad
                ),
                tuple(bad),
            )


def _normal_exp(logs: Iterable[float], what: str, dim: GroupDim, profile: AlphaProfile) -> float:
    """``exp`` of the exact sum of ``logs``, the one rounding of a closed form,
    which must be a normal float: a subnormal constant has lost its digits,
    and one that underflows to 0 would make every oracle agree with it."""
    try:
        value = math.exp(math.fsum(logs))
    except OverflowError:
        value = math.inf
    if not (math.isfinite(value) and value >= sys.float_info.min):
        raise ValueError(
            f"the {what} at n={dim.n}, m={profile.m}, "
            f"alphas={','.join(map(str, profile.alphas))} is {value!r}, outside "
            f"the normal floating-point range [{sys.float_info.min!r}, "
            f"{sys.float_info.max!r}]"
        )
    return value


def hardy_constant(
    dim: GroupDim | int,
    profile: AlphaProfile,
    convention: Convention = Convention.GEOMETRIC,
) -> float:
    """Sharp constant of the m-linear averaging (Hardy-type) operator.

    ``2 Q^m / (2^m (mQ - alpha)) * prod Gamma((Q - alpha_i)/2) /
    Gamma((mQ - alpha)/2)``.  Depends only on Q, hence identical under both
    volume conventions.
    """
    dim = as_dim(dim)
    profile.validate_for(dim)
    Q, m, alpha = dim.Q, profile.m, profile.total
    logs = [(1 - m) * math.log(2.0), m * math.log(Q), -math.log(m * Q - alpha)]
    logs += [-log_gamma((m * Q - alpha) / 2.0)] + [log_gamma((Q - a) / 2.0) for a in profile.alphas]
    return _normal_exp(logs, "hardy constant", dim, profile)


def hlp_constant(
    dim: GroupDim | int,
    profile: AlphaProfile,
    convention: Convention = Convention.GEOMETRIC,
) -> float:
    """Sharp constant ``m Q omega_Q^m / (alpha prod_j (Q - alpha_j))`` of the
    max-kernel (Hardy-Littlewood-Polya type) operator."""
    dim = as_dim(dim)
    profile.validate_for(dim)
    Q, m, alpha = dim.Q, profile.m, profile.total
    logs = [math.log(m * Q), m * log_sphere_measure(dim, convention), -math.log(alpha)]
    logs += [-math.log(Q - a) for a in profile.alphas]
    return _normal_exp(logs, "hlp constant", dim, profile)


def hlp_region_values(
    dim: GroupDim | int,
    profile: AlphaProfile,
    convention: Convention = Convention.GEOMETRIC,
) -> tuple[float, ...]:
    """Closed forms of the m + 1 region integrals K_0..K_m whose sum is the
    max-kernel constant.

    ``K_0 = omega^m / prod (Q - alpha_j)`` and, for j >= 1,
    ``K_j = omega^m / (alpha prod_{i != j} (Q - alpha_i))``.  A value outside
    the normal float range raises ``ValueError``, as a closed form does.
    """
    dim = as_dim(dim)
    profile.validate_for(dim)
    Q, m, alpha = dim.Q, profile.m, profile.total
    logs = [m * log_sphere_measure(dim, convention)] + [-math.log(Q - a) for a in profile.alphas]
    # K_j replaces the factor 1/(Q - alpha_j) of K_0 by 1/alpha
    regions = [logs] + [logs[: j + 1] + [-math.log(alpha)] + logs[j + 2 :] for j in range(m)]
    return tuple(
        _normal_exp(r, f"hlp region K_{j}", dim, profile) for j, r in enumerate(regions)
    )


def hilbert_constant(
    dim: GroupDim | int,
    profile: AlphaProfile,
    convention: Convention = Convention.GEOMETRIC,
) -> float:
    """Sharp constant ``Omega_Q^m prod_i Gamma(1 - alpha_i/Q) Gamma(alpha/Q)
    / Gamma(m)`` of the sum-kernel (Hilbert-type) operator."""
    dim = as_dim(dim)
    profile.validate_for(dim)
    Q, m, alpha = dim.Q, profile.m, profile.total
    logs = [m * log_unit_ball_volume(dim, convention), log_gamma(alpha / Q), -log_gamma(float(m))]
    logs += [log_gamma(1.0 - a / Q) for a in profile.alphas]
    return _normal_exp(logs, "hilbert constant", dim, profile)


def beta_integral(alpha_exp: float, beta_exp: float) -> float:
    """``int_0^inf dt / ((1 + t)^alpha t^beta) = B(1 - beta, alpha + beta - 1)``.

    Convergence requires ``0 < beta < 1`` and ``alpha + beta > 1``.
    """
    if not 0.0 < beta_exp < 1.0:
        raise DivergentConstantError(
            f"beta exponent must lie in (0, 1), got {beta_exp!r}"
        )
    if not alpha_exp + beta_exp > 1.0:
        raise DivergentConstantError(
            f"need alpha + beta > 1 for convergence, got {alpha_exp + beta_exp!r}"
        )
    return beta(1.0 - beta_exp, alpha_exp + beta_exp - 1.0)


def _validate_i_m(alpha_exp: float, betas: Sequence[float]) -> tuple[float, ...]:
    betas = tuple(float(b) for b in betas)
    if not betas:
        raise ValueError("need at least one beta exponent")
    bad = [i for i, b in enumerate(betas) if not 0.0 < b < 1.0]
    if bad:
        raise DivergentConstantError(
            "beta exponents must lie in (0, 1); offending indices "
            + ", ".join(f"beta_{i + 1}={betas[i]!r}" for i in bad),
            tuple(bad),
        )
    if not alpha_exp - len(betas) + math.fsum(betas) > 0.0:
        raise DivergentConstantError(
            f"need alpha - m + sum(beta) > 0, got "
            f"{alpha_exp - len(betas) + math.fsum(betas)!r}"
        )
    return betas


def i_m_closed(alpha_exp: float, betas: Iterable[float]) -> float:
    """Closed form of ``int_{(0,inf)^m} prod t_i^{-beta_i} (1 + sum t_i)^{-alpha}``:

    ``prod_i Gamma(1 - beta_i) * Gamma(alpha - m + sum beta_i) / Gamma(alpha)``.
    """
    betas = _validate_i_m(alpha_exp, tuple(betas))
    m = len(betas)
    log_val = math.fsum(log_gamma(1.0 - b) for b in betas)
    log_val += log_gamma(alpha_exp - m + math.fsum(betas)) - log_gamma(alpha_exp)
    return math.exp(log_val)


def i_m_recursive(alpha_exp: float, betas: Iterable[float]) -> float:
    """Same integral by peeling one variable at a time:

    ``I_m(alpha, b_1..b_m) = B(1 - b_m, alpha + b_m - 1)
    * I_{m-1}(alpha - 1 + b_m, b_1..b_{m-1})`` with ``I_0 = 1``.
    """
    betas = _validate_i_m(alpha_exp, tuple(betas))
    value = 1.0
    a = alpha_exp
    for b in reversed(betas):
        value *= beta_integral(a, b)
        a = a - 1.0 + b
    return value
