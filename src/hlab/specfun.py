"""Gamma/Beta evaluation and every closed-form sharp constant.

All constants are ratios of Gamma values, so everything is assembled in log
space to avoid overflow.  Exponent profiles are validated against the open
interval (0, Q) before any evaluation; violations are reported all at once.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

from .hgroup import Convention, GroupDim, as_dim, sphere_measure, unit_ball_volume

__all__ = [
    "AlphaProfile",
    "ConstantResult",
    "DivergentConstantError",
    "FormulaId",
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


class FormulaId(enum.Enum):
    HARDY_A = "hardy"
    HLP_B = "hlp"
    HILBERT_BSTAR = "hilbert"
    KERNEL_HM = "kernel"


@dataclass(frozen=True)
class ConstantResult:
    """A closed-form sharp constant together with its evaluation context."""

    value: float
    formula_id: FormulaId
    dim: GroupDim
    profile: AlphaProfile
    convention: Convention

    def __post_init__(self) -> None:
        # a subnormal constant has lost its digits, and one that underflows
        # to 0 would make every oracle agree with it
        if not (math.isfinite(self.value) and self.value >= sys.float_info.min):
            raise ValueError(
                f"the {self.formula_id.value} constant at n={self.dim.n}, m={self.profile.m}, "
                f"alphas={','.join(map(str, self.profile.alphas))} is {self.value!r}, outside "
                f"the normal floating-point range [{sys.float_info.min!r}, "
                f"{sys.float_info.max!r}]"
            )


def hardy_constant(
    dim: GroupDim | int,
    profile: AlphaProfile,
    convention: Convention = Convention.GEOMETRIC,
) -> ConstantResult:
    """Sharp constant of the m-linear averaging (Hardy-type) operator.

    ``2 Q^m / (2^m (mQ - alpha)) * prod Gamma((Q - alpha_i)/2) /
    Gamma((mQ - alpha)/2)``.  Depends only on Q, hence identical under both
    volume conventions.
    """
    dim = as_dim(dim)
    profile.validate_for(dim)
    Q, m, alpha = dim.Q, profile.m, profile.total
    log_ratio = math.fsum(log_gamma((Q - a) / 2.0) for a in profile.alphas)
    log_ratio -= log_gamma((m * Q - alpha) / 2.0)
    value = 2.0 * Q**m / (2.0**m * (m * Q - alpha)) * math.exp(log_ratio)
    return ConstantResult(value, FormulaId.HARDY_A, dim, profile, convention)


def hlp_constant(
    dim: GroupDim | int,
    profile: AlphaProfile,
    convention: Convention = Convention.GEOMETRIC,
) -> ConstantResult:
    """Sharp constant ``m Q omega_Q^m / (alpha prod_j (Q - alpha_j))`` of the
    max-kernel (Hardy-Littlewood-Polya type) operator."""
    dim = as_dim(dim)
    profile.validate_for(dim)
    Q, m, alpha = dim.Q, profile.m, profile.total
    omega = sphere_measure(dim, convention)
    denom = alpha * math.prod(Q - a for a in profile.alphas)
    value = m * Q * omega**m / denom
    return ConstantResult(value, FormulaId.HLP_B, dim, profile, convention)


def hlp_region_values(
    dim: GroupDim | int,
    profile: AlphaProfile,
    convention: Convention = Convention.GEOMETRIC,
) -> tuple[float, ...]:
    """Closed forms of the m + 1 region integrals K_0..K_m whose sum is the
    max-kernel constant.

    ``K_0 = omega^m / prod (Q - alpha_j)`` and, for j >= 1,
    ``K_j = omega^m / (alpha prod_{i != j} (Q - alpha_i))``.
    """
    dim = as_dim(dim)
    profile.validate_for(dim)
    Q, m, alpha = dim.Q, profile.m, profile.total
    omega_m = sphere_measure(dim, convention) ** m
    k0 = omega_m / math.prod(Q - a for a in profile.alphas)
    ks = [k0]
    for j in range(m):
        denom = alpha * math.prod(Q - a for i, a in enumerate(profile.alphas) if i != j)
        ks.append(omega_m / denom)
    return tuple(ks)


def hilbert_constant(
    dim: GroupDim | int,
    profile: AlphaProfile,
    convention: Convention = Convention.GEOMETRIC,
) -> ConstantResult:
    """Sharp constant ``Omega_Q^m prod_i Gamma(1 - alpha_i/Q) Gamma(alpha/Q)
    / Gamma(m)`` of the sum-kernel (Hilbert-type) operator."""
    dim = as_dim(dim)
    profile.validate_for(dim)
    Q, m, alpha = dim.Q, profile.m, profile.total
    if alpha >= m * Q:
        raise DivergentConstantError(f"total exponent {alpha} must be < mQ = {m * Q}")
    log_val = math.fsum(log_gamma(1.0 - a / Q) for a in profile.alphas)
    log_val += log_gamma(alpha / Q) - log_gamma(float(m))
    value = unit_ball_volume(dim, convention) ** m * math.exp(log_val)
    return ConstantResult(value, FormulaId.HILBERT_BSTAR, dim, profile, convention)


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
