"""Quadrature rules: adaptive Gauss-Legendre and the guard that lets a
closed form stand in for it."""

import math

import numpy as np
import pytest

from ldpkit import quadrature as quad
from ldpkit.errors import NonConvergenceError


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


def test_adaptive_gl_caps_the_panels_of_one_level():
    # an integrand that is noise at every scale splits every panel: the level
    # past _MAX_PANELS panels raises, where the depth cap alone would ask one
    # gl32 call for 2^30 panels
    nodes = []

    def noise(ts):
        nodes.append(ts.size)
        return np.sin(1e12 * ts)

    with pytest.raises(NonConvergenceError, match="panels"):
        quad.adaptive_gl(noise, 0.0, 1.0)
    assert max(nodes) <= 2 * 32 * quad._MAX_PANELS
    # a singular end splits one panel a level and keeps the depth cap
    assert quad.adaptive_gl(lambda t: 1.0 / np.sqrt(t), 0.0, 1.0) == pytest.approx(2.0, abs=1e-4)
