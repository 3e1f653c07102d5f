"""Quadrature rules: adaptive Gauss-Legendre and the tanh-sinh rule for
pieces with a singular end."""

import math

import numpy as np
import pytest

from ldpkit import quadrature as quad


def test_untouched_piece_is_adaptive_gl():
    fn = np.cos
    assert quad.integrate_piece(fn, 0.0, 2.0) == quad.adaptive_gl(fn, 0.0, 2.0)
    assert quad.integrate_piece(fn, 0.0, 2.0) == pytest.approx(math.sin(2.0), abs=1e-14)


def test_integrable_end_singularities():
    # -log t at the left end, -log(1 - t) at the right end: both give 1
    assert quad.integrate_piece(lambda t: -np.log(t), 0.0, 1.0, True, False) == \
        pytest.approx(1.0, abs=1e-14)
    assert quad.integrate_piece(lambda t: -np.log1p(-t), 0.0, 1.0, False, True) == \
        pytest.approx(1.0, abs=1e-14)


def test_end_terms_decide_divergence():
    # 1/t is not integrable at 0: the outermost term does not fall below tol
    assert quad.integrate_piece(lambda t: 1.0 / t, 0.0, 1.0, True, False) == math.inf
    assert quad.integrate_piece(lambda t: -1.0 / (1.0 - t), 0.0, 1.0, False, True) == -math.inf


def test_known_finite_integral_skips_the_end_test():
    # 1/sqrt(1 - t) is integrable, but within an ulp of t = 1 its terms are
    # still ~1e-8; a caller that knows the integral is finite passes tol=inf
    fn = lambda t: 1.0 / np.sqrt(1.0 - t)   # noqa: E731
    assert quad.integrate_piece(fn, 0.0, 1.0, False, True) == math.inf
    assert quad.integrate_piece(fn, 0.0, 1.0, False, True, math.inf) == \
        pytest.approx(2.0, abs=1e-7)

