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


def test_panels_sum_to_one_pass_over_their_union():
    # the budget tol is the whole pass's, shared out by panel length
    edges = np.array([0.0, 0.3, 0.7, 1.6, 2.0])
    fn = lambda t: np.exp(np.sin(3.0 * t))
    assert quad.adaptive_gl(fn, edges[:-1], edges[1:]) == pytest.approx(
        quad.adaptive_gl(fn, 0.0, 2.0), abs=1e-12)
    # panels need not touch: the sum over [0, 0.3] and [0.7, 2] is the
    # union's integral less the gap's
    gap = quad.adaptive_gl(fn, 0.3, 0.7)
    assert quad.adaptive_gl(fn, [0.0, 0.7], [0.3, 2.0]) == pytest.approx(
        quad.adaptive_gl(fn, 0.0, 2.0) - gap, abs=1e-12)


def test_no_panels_integrate_to_zero():
    empty = np.zeros(0)
    assert quad.adaptive_gl(np.cos, empty, empty) == 0.0
    assert quad.adaptive_gl(lambda t: np.stack((t, t * t), axis=-1), empty, empty) == 0.0


def test_an_array_valued_integrand_sums_over_panels():
    got = quad.adaptive_gl(lambda t: np.stack((np.cos(t), t * t), axis=-1),
                           [0.0, 1.0], [1.0, 2.0])
    assert got.shape == (2,)
    assert got == pytest.approx([math.sin(2.0), 8.0 / 3.0], abs=1e-13)


def test_a_smooth_pass_may_start_past_the_panel_cap():
    # the cap counts the panels a level splits, not the caller's
    edges = np.linspace(0.0, 1.0, 2 * quad._MAX_PANELS + 2)
    got = quad.adaptive_gl(np.exp, edges[:-1], edges[1:])
    assert got == pytest.approx(math.e - 1.0, abs=1e-12)
