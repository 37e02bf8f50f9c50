"""Closed-form sharp constants re-derived apart from hlab.

Uses only the standard library and numpy, and never imports hlab, so a
fault in hlab's constants or measure normalizations cannot cancel against
itself in the benchmark's checks.  Each constant is built by another route
than hlab's own formula:

* the unit gauge ball volume comes from Euclidean constants only:
  |B(0,1)| = |S^{2n-1}| * int_0^1 rho^{2n-1} 2 sqrt(1 - rho^4) d rho
           = pi^n B(n/2, 3/2) / Gamma(n);
* the averaging (Hardy-type) constant is Q^m times the Dirichlet integral
  of prod r_i^{Q-1-alpha_i} over {r_i > 0, sum r_i^2 < 1};
* the max-kernel (HLP-type) constant is the sum of its m + 1 region
  integrals (which argument realizes the max);
* the sum-kernel (Hilbert-type) constant is (omega_Q / Q)^m times the
  product integral I_m(m; beta) peeled one Beta integral at a time.

Every value is in the geometric convention (true Lebesgue volume).  The
paper convention is 2^m times the geometric value for hlp and hilbert, and
equal to it for hardy.
"""

from __future__ import annotations

import math

import numpy as np

KINDS = ("hardy", "hlp", "hilbert")


def _beta(a: float, b: float) -> float:
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def ball_volume(n: int) -> float:
    """Lebesgue volume of {|z|^4 + t^2 < 1} in R^{2n} x R."""
    return math.pi**n * _beta(n / 2.0, 1.5) / math.gamma(n)


def _check(n: int, alphas: tuple[float, ...]) -> int:
    Q = 2 * n + 2
    if not alphas or not all(0.0 < a < Q for a in alphas):
        raise ValueError(f"alphas {alphas} must lie in (0, Q={Q})")
    return Q


def hardy(n: int, alphas: tuple[float, ...]) -> float:
    Q = _check(n, alphas)
    a = [Q - x for x in alphas]
    # int_{r_i > 0, |r| < 1} prod r_i^{a_i - 1} dr = prod Gamma(a_i/2) / (2^m Gamma(sum a/2 + 1))
    log_dirichlet = math.fsum(math.lgamma(x / 2.0) for x in a) - math.lgamma(math.fsum(a) / 2.0 + 1.0)
    return Q ** len(a) * math.exp(log_dirichlet) / 2.0 ** len(a)


def hlp(n: int, alphas: tuple[float, ...]) -> float:
    Q = _check(n, alphas)
    omega_m = (Q * ball_volume(n)) ** len(alphas)
    alpha = math.fsum(alphas)
    # region 0: every |y_i| < |x|; region j: |y_j| is the largest and > |x|
    regions = [omega_m / math.prod(Q - a for a in alphas)]
    for j in range(len(alphas)):
        regions.append(omega_m / (alpha * math.prod(Q - a for i, a in enumerate(alphas) if i != j)))
    return math.fsum(regions)


def beta_integral(a: float, b: float) -> float:
    """int_0^inf t^-b (1 + t)^-a dt = B(1 - b, a + b - 1)."""
    if not (0.0 < b < 1.0 and a + b > 1.0):
        raise ValueError(f"divergent Beta integral a={a}, b={b}")
    return _beta(1.0 - b, a + b - 1.0)


def product_integral(a: float, betas: tuple[float, ...]) -> float:
    """int_{(0,inf)^m} prod t_i^-beta_i (1 + sum t)^-a dt, one variable at a time:
    integrating t_m out leaves (1 + rest)^{-(a - 1 + beta_m)} times a Beta integral."""
    value = 1.0
    for b in reversed(betas):
        value *= beta_integral(a, b)
        a = a - 1.0 + b
    return value


def hilbert(n: int, alphas: tuple[float, ...]) -> float:
    Q = _check(n, alphas)
    m = len(alphas)
    if math.fsum(alphas) >= m * Q:
        raise ValueError("total exponent must be < mQ")
    # t_i = r_i^Q turns omega^m int prod r_i^{Q-1-alpha_i} (1 + sum r^Q)^-m dr
    # into (omega/Q)^m I_m(m; alpha_i/Q), and omega/Q is the ball volume
    return ball_volume(n) ** m * product_integral(float(m), tuple(a / Q for a in alphas))


def constant(kind: str, n: int, alphas: tuple[float, ...], convention: str = "geometric") -> float:
    value = {"hardy": hardy, "hlp": hlp, "hilbert": hilbert}[kind](n, tuple(alphas))
    if convention == "paper" and kind != "hardy":
        value *= 2.0 ** len(alphas)
    return value


def beta_integral_by_quadrature(a: float, b: float) -> float:
    """The same Beta integral by Gauss-Legendre quadrature, for self-checks.

    Split at t = 1; t = w^{1/(1-b)} on (0, 1) and t = 1/s, s = w^{1/(a+b-1)}
    on (1, inf) remove both endpoint singularities; the integrands are smooth
    when 1/(1-b) and 1/(a+b-1) are whole numbers.
    """
    x, wts = np.polynomial.legendre.leggauss(80)
    w = 0.5 * (x + 1.0)
    wts = 0.5 * wts
    p = 1.0 / (1.0 - b)
    inner = p * (1.0 + w**p) ** -a
    q = 1.0 / (a + b - 1.0)
    s = w**q
    outer = q * (1.0 + s) ** -a
    return float(wts @ inner + wts @ outer)
