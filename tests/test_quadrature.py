"""Quadrature rules: adaptive Gauss-Legendre and the guard that lets a
closed form stand in for it."""

import math

import numpy as np
import pytest

from ldpkit import quadrature as quad


def test_untouched_piece_is_adaptive_gl():
    fn = np.cos
    assert quad.integrate_piece(fn, 0.0, 2.0) == quad.adaptive_gl(fn, 0.0, 2.0)
    assert quad.integrate_piece(fn, 0.0, 2.0) == pytest.approx(math.sin(2.0), abs=1e-14)


def test_closed_form_stands_within_its_bound():
    # the bound is compared with tol * max(1, |closed|); past it the
    # adaptive rule takes the piece, whatever the closed form says
    fn = np.cos
    assert quad.integrate_piece(fn, 0.0, 2.0, closed=5.0, bound=4e-12) == 5.0
    assert quad.integrate_piece(fn, 0.0, 2.0, closed=5.0, bound=6e-12) == \
        quad.adaptive_gl(fn, 0.0, 2.0)
    assert quad.integrate_piece(fn, 0.0, 2.0, closed=0.5, bound=1e-12) == 0.5
    assert quad.integrate_piece(fn, 0.0, 2.0, closed=0.5, bound=2e-12) == \
        quad.adaptive_gl(fn, 0.0, 2.0)
    assert quad.integrate_piece(fn, 0.0, 2.0, closed=0.5, bound=1e-8, tol=1e-8) == 0.5
