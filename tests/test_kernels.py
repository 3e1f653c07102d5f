"""Piecewise-linear kernel parsing, moments and extremal structure."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from ldpkit import Kernel, affine, constant, identity, parse_kernel


def random_kernel(rng, nodes=5):
    inner = np.sort(rng.uniform(0.05, 0.95, size=nodes - 2))
    bp = np.concatenate([[0.0], inner, [1.0]])
    vals = rng.uniform(-2.0, 2.0, size=nodes)
    return Kernel(tuple(bp), tuple(vals))


STANDARD = [
    identity(),
    constant(1.0),
    constant(-0.5),
    affine(0.5, 1.0),
    affine(1.0, -2.0),
    parse_kernel("pwl:0:0,0.5:1,1:0"),
    parse_kernel("pwl:0:0,0.25:1,0.75:1,1:0"),
    parse_kernel("pwl:0:1,0.5:-1,1:1"),
]


# -- parsing ----------------------------------------------------------------


def test_parse_affine():
    k = parse_kernel("affine:0.5,1")
    assert k.breakpoints == (0.0, 1.0)
    assert k.values == (0.5, 1.5)
    assert k(0.25) == pytest.approx(0.75)


def test_parse_const_and_identity():
    k = parse_kernel("const:2.5")
    assert k.values == (2.5, 2.5)
    assert identity().values == (0.0, 1.0)


def test_parse_pwl():
    k = parse_kernel("pwl:0:0,0.5:1,1:0")
    assert k.breakpoints == (0.0, 0.5, 1.0)
    assert k.values == (0.0, 1.0, 0.0)


def test_describe_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        k = random_kernel(rng)
        k2 = parse_kernel(k.describe())
        assert np.allclose(k2.breakpoints, k.breakpoints, atol=1e-12)
        assert np.allclose(k2.values, k.values, atol=1e-12)


@pytest.mark.parametrize("bad", [
    "affine:1",
    "const:x",
    "pwl:0:0,1",
    "tent:1",
    "pwl:0:0,0.5:0,0.4:1,1:0",
    "pwl:0.1:0,1:1",
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_kernel(bad)


def test_zero_kernel_rejected():
    with pytest.raises(ValueError):
        constant(0.0)
    with pytest.raises(ValueError):
        Kernel((0.0, 0.5, 1.0), (0.0, 0.0, 0.0))


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        Kernel((0.0, 1.0), (1.0, 2.0, 3.0))


# -- moments and integrals ---------------------------------------------------


@pytest.mark.parametrize("k", STANDARD)
def test_moments_match_quadrature(k):
    m1_ref, _ = quad(k.eval, 0.0, 1.0, points=k.breakpoints, limit=200)
    m2_ref, _ = quad(lambda t: k.eval(t) ** 2, 0.0, 1.0,
                     points=k.breakpoints, limit=200)
    assert k.m1 == pytest.approx(m1_ref, abs=1e-12)
    assert k.m2 == pytest.approx(m2_ref, abs=1e-12)


def test_moments_random_kernels():
    rng = np.random.default_rng(1)
    for _ in range(15):
        k = random_kernel(rng)
        m1_ref, _ = quad(k.eval, 0.0, 1.0, points=k.breakpoints, limit=200)
        m2_ref, _ = quad(lambda t: k.eval(t) ** 2, 0.0, 1.0,
                         points=k.breakpoints, limit=200)
        assert k.m1 == pytest.approx(m1_ref, abs=1e-10)
        assert k.m2 == pytest.approx(m2_ref, abs=1e-10)


def test_identity_moments_exact():
    k = identity()
    assert k.m1 == pytest.approx(0.5, abs=1e-15)
    assert k.m2 == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_partial_integral():
    k = identity()
    assert k.integral(0.0, 1.0) == pytest.approx(k.m1, abs=1e-15)
    assert k.integral(0.25, 0.75) == pytest.approx((0.75 ** 2 - 0.25 ** 2) / 2,
                                                   abs=1e-15)
    rng = np.random.default_rng(2)
    for _ in range(10):
        kk = random_kernel(rng)
        a, b = sorted(rng.uniform(0.0, 1.0, size=2))
        ref, _ = quad(kk.eval, a, b, points=kk.breakpoints, limit=200)
        assert kk.integral(a, b) == pytest.approx(ref, abs=1e-10)
    with pytest.raises(ValueError):
        k.integral(0.7, 0.2)


def _antideriv_scalar(k, t):
    """int_0^t f, one point at a time: the per-point reference."""
    bp, vals, anti = k._bp, k._vals, k._antideriv
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return float(anti[-1])
    i = int(np.searchsorted(bp, t, side="right") - 1)
    t0, t1 = bp[i], bp[i + 1]
    v0, v1 = vals[i], vals[i + 1]
    s = (t - t0)
    slope = (v1 - v0) / (t1 - t0)
    return float(anti[i] + v0 * s + 0.5 * slope * s * s)


@pytest.mark.parametrize("spec", ["const:1", "affine:0,1", "affine:0.5,1",
                                  "pwl:0:0,0.5:1,1:0",
                                  "pwl:0:-1,0.3:2,0.6:-0.5,1:0.25"])
def test_cell_integrals_match_per_cell_reference_bitwise(spec):
    from ldpkit.kernel_rate import _refined_grid
    k = parse_kernel(spec)
    rng = np.random.default_rng(11)
    inner = rng.uniform(0.0, 1.0, size=50)
    grids = [
        _refined_grid(k, 4000),
        _refined_grid(k, 37),
        np.asarray(k.breakpoints),
        np.sort(np.concatenate([k.breakpoints, inner])),
        np.asarray([0.0, 0.0, 0.5, 0.5, 1.0, 1.0]),      # empty cells
    ]
    for grid in grids:
        want = [_antideriv_scalar(k, b) - _antideriv_scalar(k, a)
                for a, b in zip(grid, grid[1:])]
        got = k.integrals(grid)
        assert got.tolist() == want
        assert [k.integral(a, b) for a, b in zip(grid, grid[1:])] == want
    assert k.integrals([0.0, 1.0])[0] == k._antideriv[-1]


def test_integral_additive():
    rng = np.random.default_rng(3)
    for _ in range(10):
        k = random_kernel(rng)
        a, m, b = sorted(rng.uniform(0.0, 1.0, size=3))
        whole = k.integral(a, b)
        split = k.integral(a, m) + k.integral(m, b)
        assert whole == pytest.approx(split, abs=1e-14)


# -- extremal structure --------------------------------------------------------


def test_one_sided_maxima():
    assert identity().max_plus == 1.0
    assert identity().max_minus == 0.0
    k = affine(0.0, -1.0)
    assert k.max_plus == 0.0
    assert k.max_minus == 1.0
    k = parse_kernel("pwl:0:1,0.5:-1,1:1")
    assert k.max_plus == 1.0
    assert k.max_minus == 1.0


def test_lipschitz():
    assert identity().lipschitz == 1.0
    assert parse_kernel("pwl:0:0,0.5:1,1:0").lipschitz == 2.0
    assert constant(4.0).lipschitz == 0.0


def test_eval_matches_interp():
    rng = np.random.default_rng(4)
    for _ in range(5):
        k = random_kernel(rng)
        ts = rng.uniform(0.0, 1.0, size=50)
        ref = np.interp(ts, k.breakpoints, k.values)
        assert np.allclose(k.eval(ts), ref, atol=0.0)
        assert math.isclose(float(k(ts[0])), float(ref[0]), abs_tol=0.0, rel_tol=0.0)
