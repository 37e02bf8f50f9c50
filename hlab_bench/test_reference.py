"""Self-checks of the independent reference.

Run with ``python3 hlab_bench/test_reference.py`` (or pytest on this file);
``run.py`` runs the same checks before every benchmark run.
"""

from __future__ import annotations

import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402


def test_ball_volume_at_n1():
    assert math.isclose(reference.ball_volume(1), math.pi**2 / 2.0, rel_tol=1e-14)


def test_hilbert_constant_at_n1_alpha2():
    assert math.isclose(reference.hilbert(1, (2.0,)), math.pi**3 / 2.0, rel_tol=1e-14)


def test_beta_integral_identity_at_m1():
    # exponents where both substitutions of the quadrature are polynomial
    for a, b in ((1.0, 0.5), (1.5, 0.5), (1.25, 0.75), (0.75, 0.75), (4.0 / 3.0, 2.0 / 3.0)):
        closed = reference.product_integral(a, (b,))
        assert math.isclose(closed, reference.beta_integral(a, b), rel_tol=1e-15)
        quad = reference.beta_integral_by_quadrature(a, b)
        assert math.isclose(quad, closed, rel_tol=1e-10), (a, b, quad, closed)


def test_paper_convention_scales_by_2_to_the_m():
    for kind in reference.KINDS:
        geo = reference.constant(kind, 2, (1.0, 2.0))
        paper = reference.constant(kind, 2, (1.0, 2.0), "paper")
        assert paper == (geo if kind == "hardy" else 4.0 * geo)


TESTS = [
    test_ball_volume_at_n1,
    test_hilbert_constant_at_n1_alpha2,
    test_beta_integral_identity_at_m1,
    test_paper_convention_scales_by_2_to_the_m,
]


def run_all() -> list[str]:
    """Names of the failing self-checks (empty when all pass)."""
    failed = []
    for test in TESTS:
        try:
            test()
        except AssertionError:
            failed.append(test.__name__)
    return failed


if __name__ == "__main__":
    bad = run_all()
    print("reference self-checks:", "FAILED " + ", ".join(bad) if bad else "ok")
    sys.exit(1 if bad else 0)
