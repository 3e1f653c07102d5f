"""Catalog models: closed forms, domains, duality, samplers."""

import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from ldpkit import (DomainError, DomainInterval, NoSamplerError, parse_model)
from ldpkit import quadrature as quad
from ldpkit.cgf import (MODEL_FACTORIES, CgfModel, FullSpace, centered_exponential,
                        centered_poisson, gaussian, rademacher, synthetic_boundary)

ALL_SPECS = ("gaussian:mu=0,sigma=1", "cexp", "rademacher",
             "poisson:rate=1", "synthetic-boundary")


def interior_samples(model, rng, count):
    """Random points well inside the effective domain."""
    lo, hi = model.domain.lower, model.domain.upper
    lo = max(lo, -6.0) + 0.05
    hi = min(hi, 6.0) - 0.05
    return rng.uniform(lo, hi, size=count)


# -- closed-form spot values -----------------------------------------------

def test_gaussian_cgf_value():
    m = parse_model("gaussian:mu=0,sigma=1")
    assert m.k(0.6) == pytest.approx(0.18, abs=1e-15)


def test_cexp_cgf_values():
    m = parse_model("cexp")
    assert m.k(0.5) == pytest.approx(-0.5 - math.log(0.5), abs=1e-14)
    assert m.k(1.2) == math.inf
    assert m.k(1.0) == math.inf  # open endpoint


def test_gradient_spot_values():
    assert parse_model("gaussian:mu=0,sigma=1").grad(0.7) == pytest.approx(0.7)
    assert parse_model("cexp").grad(0.5) == pytest.approx(1.0, abs=1e-12)
    syn = parse_model("synthetic-boundary")
    assert syn.grad(0.75) == pytest.approx(0.5, abs=1e-12)
    assert syn.grad(1.0, one_sided=True) == pytest.approx(1.0, abs=1e-12)


def test_grad_outside_domain_rejected():
    m = parse_model("cexp")
    with pytest.raises(DomainError):
        m.grad(1.0)
    with pytest.raises(DomainError):
        m.grad(1.5)


def test_recession_values():
    cexp = parse_model("cexp")
    assert cexp.recession(1.0) == 1.0
    assert cexp.recession(-1.0) == math.inf
    gauss = parse_model("gaussian:mu=0,sigma=1")
    assert gauss.recession(1.0) == math.inf
    syn = parse_model("synthetic-boundary")
    assert syn.recession(1.0) == 1.0
    assert parse_model("rademacher").recession(-1.0) == math.inf


def test_rate_spot_values():
    assert parse_model("gaussian:mu=0,sigma=1").rate(2.0) == pytest.approx(2.0)
    assert parse_model("cexp").rate(1.0) == pytest.approx(1.0 - math.log(2.0))
    rad = parse_model("rademacher")
    assert rad.rate(1.0) == pytest.approx(math.log(2.0))
    assert rad.rate(-1.0) == pytest.approx(math.log(2.0))
    assert rad.rate(1.1) == math.inf
    assert parse_model("cexp").rate(-1.2) == math.inf


def test_synthetic_boundary_shape():
    syn = parse_model("synthetic-boundary")
    # K(1) = 1 + (2/3)(0 - 1) = 1/3 at the closed endpoint
    assert syn.k(1.0) == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert syn.k(1.0 + 1e-12) == math.inf
    assert syn.domain.upper_closed
    # I(v) = 2/3 - (1 - v) + (1 - v)^3 / 3 on v <= 1
    v = 0.4
    assert syn.rate(v) == pytest.approx(2.0 / 3.0 - 0.6 + 0.6 ** 3 / 3.0,
                                        abs=1e-14)


def test_synthetic_rate_next_to_the_mean():
    # I(v) = v^2 (1 - v/3) and I'(v) = v (2 - v) on v <= 1, exact in fractions
    syn = parse_model("synthetic-boundary")
    g = np.geomspace(1e-18, 1e-3, 50)
    for v in np.concatenate((g, -g, [-1e-8, 1e-5, -1e-5, 0.4, 0.99, -3.0])).tolist():
        q = Fraction(v)
        for got, want in ((syn.rate(v), q * q * (1 - q / 3)), (syn.rate_grad(v), q * (2 - q))):
            assert abs(Fraction(got) - want) <= 4 * Fraction(math.ulp(float(want))), v


# -- invariants -------------------------------------------------------------

@pytest.mark.parametrize("spec", ALL_SPECS)
def test_k_zero_and_rate_at_mean(spec):
    m = parse_model(spec)
    assert m.k(0.0) == 0.0
    mean = float(m.mean_vec[0])
    assert m.rate(mean) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("spec", ALL_SPECS + ("poisson:rate=2.5",))
def test_rate_is_nonnegative_next_to_the_mean(spec):
    m = parse_model(spec)
    mean = float(m.mean_vec[0])
    assert m.rate(mean) == 0.0
    g = np.geomspace(1e-18, 1e-3, 200)
    v = mean + np.concatenate((g, -g))
    assert np.all(m.rate(v) >= 0.0)


@pytest.mark.parametrize("spec,exact", [
    ("rademacher", lambda v: ((1 + v) * mpmath.log1p(v) + (1 - v) * mpmath.log1p(-v)) / 2),
    ("poisson:rate=1", lambda v: (v + 1) * mpmath.log1p(v) - v),
    ("poisson:rate=2.5", lambda v: (v + 2.5) * mpmath.log1p(v / 2.5) - v),
    ("cexp", lambda v: v - mpmath.log1p(v)),
])
def test_rate_keeps_full_accuracy_next_to_the_mean(spec, exact):
    # the closed forms cancel to O(v^2) there; the rates must not
    m = parse_model(spec)
    with mpmath.workdps(50):
        for v in (1e-3, 1e-5, 1e-8, 1e-12):
            for x in (v, -v):
                want = float(exact(mpmath.mpf(x)))
                assert m.rate(x) == pytest.approx(want, rel=1e-14, abs=0.0), x


def test_vector_rate_without_a_closed_form_is_the_legendre_transform():
    # CgfModel.rate's fallback in d > 1 transforms K over the full space
    closed = gaussian(mu=(0.3, -0.2), cov=((1.0, 0.1), (0.1, 2.0)))
    bare = dataclasses.replace(closed, id="gaussian-bare", closed_rate=None)
    for v in ((1.0, 0.5), (5.0, -7.0)):
        v = np.asarray(v)
        assert bare.rate(v) == pytest.approx(float(closed.rate(v)), rel=1e-12, abs=0.0)
    assert bare.rate(np.asarray([0.3, -0.2])) == 0.0


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_conjugate_identity_random(spec):
    """I(K'(u)) = u K'(u) - K(u) at random interior points."""
    m = parse_model(spec)
    rng = np.random.default_rng(42)
    for u in interior_samples(m, rng, 200):
        v = m.grad(float(u))
        lhs = m.rate(v)
        rhs = u * v - m.k(float(u))
        assert abs(lhs - rhs) <= 1e-8, (spec, u, lhs, rhs)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_grad_matches_finite_differences(spec):
    m = parse_model(spec)
    rng = np.random.default_rng(7)
    for u in interior_samples(m, rng, 100):
        u = float(u)
        h = 1e-6 * max(1.0, abs(u))
        if not (m.domain.interior_contains(u - h)
                and m.domain.interior_contains(u + h)):
            continue
        fd = (m.k(u + h) - m.k(u - h)) / (2.0 * h)
        g = m.grad(u)
        assert abs(fd - g) <= 1e-6 * max(1.0, abs(g)), (spec, u, fd, g)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_convexity_midpoint(spec):
    m = parse_model(spec)
    rng = np.random.default_rng(3)
    us = interior_samples(m, rng, 80)
    ws = interior_samples(m, rng, 80)
    for u, w in zip(us, ws):
        mid = m.k(0.5 * (u + w))
        assert mid <= 0.5 * m.k(float(u)) + 0.5 * m.k(float(w)) + 1e-12


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_primitive_contract(spec):
    """P = cgf_int is int_0^u K: brackets match quadrature of K, P(0) = 0."""
    m = parse_model(spec)
    rng = np.random.default_rng(17)
    us = interior_samples(m, rng, 40)
    for a, b in zip(us[::2], us[1::2]):
        a, b = sorted((float(a), float(b)))
        want = quad.adaptive_gl(m.cgf, a, b)
        got = m.cgf_int(b) - m.cgf_int(a)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13), (spec, a, b)
    assert m.cgf_int(0.0) == 0.0


def test_primitive_at_finite_edges_and_symmetry():
    # the limits of P at the edge u = 1: int_0^1 K is 1/2 for cexp and
    # 1/10 for the synthetic law; log cosh is even, so its P is odd
    assert parse_model("cexp").cgf_int(1.0) == pytest.approx(0.5, abs=1e-16)
    assert parse_model("synthetic-boundary").cgf_int(1.0) == pytest.approx(0.1, abs=1e-16)
    m = parse_model("rademacher")
    for u in (1e-8, 0.3, 2.0, 40.0, 1e6):
        assert m.cgf_int(-u) == -m.cgf_int(u)
    assert m.cgf_int(np.array([-2.0, 2.0])).tolist() == [-m.cgf_int(2.0), m.cgf_int(2.0)]


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_rate_minorant(spec):
    m = parse_model(spec)
    c1, c2 = m.minorant
    assert c1 > 0
    rng = np.random.default_rng(11)
    for v in rng.uniform(-8.0, 8.0, size=200):
        assert m.rate(float(v)) >= c1 * abs(v) - c2 - 1e-9


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_rate_nonnegative_and_convex(spec):
    m = parse_model(spec)
    rng = np.random.default_rng(5)
    vs = rng.uniform(-3.0, 3.0, size=60)
    for v, w in zip(vs[::2], vs[1::2]):
        rv, rw = m.rate(float(v)), m.rate(float(w))
        assert rv >= 0.0 and rw >= 0.0
        mid = m.rate(0.5 * (float(v) + float(w)))
        if math.isfinite(rv) and math.isfinite(rw):
            assert mid <= 0.5 * rv + 0.5 * rw + 1e-10


FORMULAS = ("cgf", "cgf_grad", "cgf_hess", "cgf_int", "closed_rate", "rate_grad",
            "rate_hess")


@pytest.mark.parametrize("name", FORMULAS)
@pytest.mark.parametrize("spec", ALL_SPECS)
def test_formulas_take_numbers_and_arrays(spec, name):
    # -1 and 1 are finite edges of a domain or rate domain; -3 and 1.5 lie
    # beyond them for every law with such an edge
    m = parse_model(spec)
    fn = getattr(m, name)
    pts = [-3.0, -1.0, -0.5, 0.0, 1.0, 1.5]
    with np.errstate(all="ignore"):
        grid = fn(np.array(pts).reshape(2, 3))
        for p in pts:
            outs = [fn(x) for x in (p, np.float64(p), np.array(p))]
            assert [type(out) for out in outs] == [float] * 3, p
            np.testing.assert_array_equal(outs, outs[0])
    assert type(grid) is np.ndarray and grid.shape == (2, 3) and grid.dtype == float
    with np.errstate(all="ignore"):
        np.testing.assert_array_equal(grid.ravel(), [fn(p) for p in pts])
    lo, hi = m.rate_dom
    if name == "cgf":
        assert all(fn(p) == math.inf for p in pts if not m.domain.contains(p))
    if name == "closed_rate":
        assert all(fn(p) == math.inf for p in pts if not lo <= p <= hi)
        # a rate grows without bound: +inf at v = +-inf, never inf - inf
        with np.errstate(all="ignore"):
            assert fn(-math.inf) == fn(math.inf) == math.inf
            assert fn(np.array([-math.inf, math.inf])).tolist() == [math.inf, math.inf]


def test_vector_gaussian_formulas_take_a_list():
    m = gaussian(mu=(0.5, -1.0), cov=((1.0, 0.3), (0.3, 2.0)))
    for name in FORMULAS:
        fn = getattr(m, name)
        if fn is not None:
            np.testing.assert_array_equal(fn([0.4, 0.2]), fn(np.array([0.4, 0.2])))


# -- samplers ----------------------------------------------------------------

def test_sampler_reproducible():
    m = parse_model("gaussian:mu=0,sigma=1")
    a = m.sample(16, seed=5)
    b = m.sample(16, seed=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, m.sample(16, seed=6))


def test_rademacher_sample_support():
    xs = parse_model("rademacher").sample(500, seed=1)
    assert set(np.unique(xs)) == {-1.0, 1.0}


VECTOR_LAW = dict(mu=(0.2, -0.4), cov=((2.0, 0.5), (0.5, 1.0)))


def test_a_law_states_no_dimension_mean_or_sampler():
    names = {f.name for f in dataclasses.fields(CgfModel)}
    assert not names & {"dimension", "mean", "sampler"}


@pytest.mark.parametrize("model,dimension,mean", [
    (parse_model("gaussian"), 1, 0.0), (parse_model("gaussian:mu=0.5,sigma=2"), 1, 0.5),
    (parse_model("gaussian:mu=-0.3,sigma=1"), 1, -0.3), (parse_model("cexp"), 1, 0.0),
    (parse_model("rademacher"), 1, 0.0), (parse_model("poisson:rate=2.5"), 1, 0.0),
    (parse_model("synthetic-boundary"), 1, 0.0), (gaussian(**VECTOR_LAW), 2, (0.2, -0.4))])
def test_dimension_and_mean_are_read_off_the_law(model, dimension, mean):
    # the dimension from the domain, the mean as K'(0): the values each
    # catalog entry once stated beside its law
    assert model.dimension == dimension
    assert model.mean == mean and type(model.mean) is type(mean)
    assert model.mean_vec.tolist() == list(np.atleast_1d(mean))


def _chol_draws(rng, count):
    mu, cov = np.asarray(VECTOR_LAW["mu"]), np.asarray(VECTOR_LAW["cov"])
    return mu + rng.standard_normal((count, 2)) @ np.linalg.cholesky(cov).T


@pytest.mark.parametrize("model,formula", [
    (parse_model("gaussian:mu=0.5,sigma=2"), lambda rng, n: rng.normal(0.5, 2.0, n)),
    (parse_model("cexp"), lambda rng, n: rng.standard_exponential(n) - 1.0),
    (parse_model("poisson:rate=2.5"), lambda rng, n: rng.poisson(2.5, size=n) - 2.5),
    (gaussian(**VECTOR_LAW), _chol_draws)])
def test_plain_draws_are_the_tilt_by_zero(model, formula):
    # a plain draw is the tilted draw at tilt 0, bit for bit the plain
    # sampler formula of the law on the same generator
    want = formula(np.random.default_rng(3), 1000)
    assert np.array_equal(model.sample(1000, seed=3), want)


@pytest.mark.parametrize("spec,theta", [
    ("gaussian:mu=0,sigma=1", 1.0),
    ("cexp", 0.5),
    ("rademacher", 0.8),
    ("poisson:rate=1", 0.4),
])
def test_tilted_mean_matches_gradient(spec, theta):
    m = parse_model(spec)
    count = 40_000
    xs = m.tilt_sample(theta, count, seed=9)
    want = m.grad(theta)
    spread = math.sqrt(max(m.hessian(theta), 1e-12) / count)
    assert abs(float(np.mean(xs)) - want) <= 5.0 * spread


def test_tilt_zero_matches_plain_law():
    m = parse_model("cexp")
    a = m.sample(60_000, seed=2)
    b = m.tilt_sample(0.0, 60_000, seed=2)
    assert abs(np.mean(a) - np.mean(b)) <= 0.02
    assert abs(np.var(a) - np.var(b)) <= 0.05


def test_tilt_requires_interior_point():
    m = parse_model("cexp")
    with pytest.raises(DomainError):
        m.tilt_sample(1.0, 10, seed=0)


def test_tilt_accepts_a_closed_edge():
    # K is finite at synthetic's closed edge u = 1, so the tilted law exists
    m = dataclasses.replace(synthetic_boundary(),
                            tilted_sampler=lambda th, rng, c, copies=1: np.zeros(np.shape(th) + (c,)))
    assert m.tilt_sample(np.array([-2.0, 0.5, 1.0]), 3, seed=0).shape == (3, 3)
    with pytest.raises(DomainError):
        m.tilt_sample(np.array([0.5, 1.0 + 1e-12]), 3, seed=0)


@pytest.mark.parametrize("spec", ALL_SPECS[:4])
def test_tilted_draws_broadcast_over_theta(spec):
    # one call on arrays of tilts and copies gives the draws of one call per
    # (tilt, copies) pair, made in order on the same generator
    m = parse_model(spec)
    theta = np.array([[-0.4, 0.0, 0.3], [0.5, 0.1, -0.2]])
    for copies in (1, np.array([[1, 2, 3], [7, 1, 40]]), np.array([2, 1, 9])):
        whole = m.tilt_draw(theta, np.random.default_rng(4), 50, copies)
        rng = np.random.default_rng(4)
        apart = [m.tilt_draw(t, rng, 50, c) for t, c in
                 zip(theta.reshape(-1), np.broadcast_to(copies, theta.shape).reshape(-1))]
        assert whole.shape == (2, 3, 50)
        assert np.array_equal(whole.reshape(6, 50), np.stack(apart))


def test_vector_tilted_draws_broadcast_over_theta():
    m = gaussian(mu=[0.0, 1.0], cov=[[1.0, 0.3], [0.3, 0.5]])
    theta = np.array([[0.2, -0.1], [0.0, 0.4], [1.0, 1.0]])
    for copies in (1, np.array([1, 4, 9])):
        whole = m.tilt_draw(theta, np.random.default_rng(5), 40, copies)
        rng = np.random.default_rng(5)
        apart = np.stack([m.tilt_draw(t, rng, 40, c)
                          for t, c in zip(theta, np.broadcast_to(copies, (3,)))])
        assert whole.shape == (3, 40, 2)
        assert np.array_equal(whole, apart)


def _within(draws, want, sigmas):
    """Sample mean of draws against want, in standard errors of the mean."""
    return abs(float(np.mean(draws)) - want) <= sigmas * float(np.std(draws)) / math.sqrt(draws.size)


@pytest.mark.parametrize("spec,theta", [
    ("gaussian:mu=0.5,sigma=2", 0.7),
    ("cexp", 0.6),
    ("rademacher", -0.8),
    ("poisson:rate=1.5", 0.4),
])
def test_convolved_draws_match_the_cumulants(spec, theta):
    # the sum of c tilted steps has mean c K'(theta) and variance c K''(theta)
    m = parse_model(spec)
    c, count = 7, 40_000
    ys = np.asarray(m.tilt_sample(theta, count, seed=12, copies=c), dtype=float)
    mean, var = c * float(m.grad(theta)), c * float(m.hessian(theta))
    assert _within(ys, mean, 5.0)
    assert _within((ys - np.mean(ys)) ** 2, var, 5.0)


def test_vector_convolved_draws_match_the_cumulants():
    cov = np.array([[1.0, 0.3], [0.3, 0.5]])
    m = gaussian(mu=[0.0, 1.0], cov=cov)
    theta, c, count = np.array([0.2, -0.6]), 5, 40_000
    ys = m.tilt_sample(theta, count, seed=13, copies=c)
    mean = c * m.grad(theta)
    for i in range(2):
        assert _within(ys[:, i], mean[i], 5.0)
        for j in range(2):
            dev = (ys[:, i] - np.mean(ys[:, i])) * (ys[:, j] - np.mean(ys[:, j]))
            assert _within(dev, c * cov[i, j], 5.0)


def test_gaussian_single_copies_keep_the_per_step_draws():
    # copies = 1 multiplies by one exactly: the draws are those of the
    # per-step law N(m + s^2 theta, s^2), bit for bit
    m = parse_model("gaussian:mu=0.5,sigma=2")
    theta = np.array([[-0.4, 0.0, 0.3], [0.5, 0.1, -0.2]])
    want = (0.5 + 4.0 * theta)[..., None] + 2.0 * np.random.default_rng(4).standard_normal((2, 3, 50))
    for copies in (1, np.ones(theta.shape, dtype=int)):
        assert np.array_equal(m.tilt_draw(theta, np.random.default_rng(4), 50, copies), want)

    cov = np.array([[1.0, 0.3], [0.3, 0.5]])
    mu = np.array([0.0, 1.0])
    m = gaussian(mu=mu, cov=cov)
    theta = np.array([[0.2, -0.1], [0.0, 0.4], [1.0, 1.0]])
    z = np.random.default_rng(5).standard_normal((3, 40, 2))
    want = (mu + theta @ cov)[..., None, :] + z @ np.linalg.cholesky(cov).T
    for copies in (1, np.ones(3, dtype=int)):
        assert np.array_equal(m.tilt_draw(theta, np.random.default_rng(5), 40, copies), want)


@pytest.mark.parametrize("spec", ["cexp", "rademacher"])
def test_default_tilted_sum_reduces_the_tilted_draws(spec):
    # without a closed form the sum is the reduction of tilt_draw, bit for bit
    m = parse_model(spec)
    theta = np.array([-0.4, 0.0, 0.3, 0.5, 0.1])
    weights = np.array([0.2, -1.0, 0.7, 3.0, 0.05])
    for copies in (1, np.array([1, 1, 3, 1, 40])):
        sums, err = m.tilt_draw_sum(theta, weights, np.random.default_rng(4), 50, copies)
        ys = m.tilt_draw(theta, np.random.default_rng(4), 50, copies)
        assert np.array_equal(sums, weights @ ys)
        assert err == np.finfo(float).eps * float(np.sum(np.abs(weights))) * np.max(np.abs(ys))


def test_default_tilted_sum_in_two_dimensions():
    m = dataclasses.replace(gaussian(mu=[0.0, 1.0], cov=[[1.0, 0.3], [0.3, 0.5]]),
                            tilted_sum_sampler=None)
    theta, g = np.array([[0.2, -0.6], [1.0, 0.4]]), np.array([[1.0, 2.0], [-0.5, 0.3]])
    sums, err = m.tilt_draw_sum(theta, g, np.random.default_rng(6), 30, np.array([5, 2]))
    ys = m.tilt_draw(theta, np.random.default_rng(6), 30, np.array([5, 2]))
    np.testing.assert_allclose(sums, ys[0] @ g[0] + ys[1] @ g[1], rtol=1e-14)
    assert err == np.finfo(float).eps * 3.8 * np.max(np.abs(ys))


def test_gaussian_tilted_sum_matches_the_cumulants():
    # sum_j c_j <g_j, Y_j> has mean sum_j c_j <g_j, K'(theta_j)> and
    # variance sum_j c_j g_j^T K'' g_j, drawn as one normal per sample
    count = 40_000
    m = parse_model("gaussian:mu=0.5,sigma=2")
    theta, g, c = np.array([0.7, -0.2, 0.0]), np.array([1.5, -0.3, 0.8]), np.array([3, 1, 7])
    sums, err = m.tilt_draw_sum(theta, g, np.random.default_rng(14), count, c)
    assert sums.shape == (count,) and 0.0 < err < 1e-12
    assert _within(sums, float(np.sum(c * g * m.grad(theta))), 5.0)
    assert _within((sums - np.mean(sums)) ** 2, float(np.sum(c * g * g)) * 4.0, 5.0)

    cov = np.array([[1.0, 0.3], [0.3, 0.5]])
    m = gaussian(mu=[0.0, 1.0], cov=cov)
    theta = np.array([[0.2, -0.6], [1.0, 0.4]])
    g, c = np.array([[1.0, 2.0], [-0.5, 0.3]]), np.array([5, 2])
    sums, _ = m.tilt_draw_sum(theta, g, np.random.default_rng(15), count, c)
    assert sums.shape == (count,)
    assert _within(sums, float(np.sum(c[:, None] * g * m.grad(theta))), 5.0)
    var = float(c @ np.einsum("ji,ik,jk->j", g, cov, g))
    assert _within((sums - np.mean(sums)) ** 2, var, 5.0)


def test_tilted_sum_checks_its_tilts():
    with pytest.raises(DomainError):
        parse_model("cexp").tilt_draw_sum(np.array([0.2, 1.0]), np.ones(2),
                                          np.random.default_rng(0), 10)
    with pytest.raises(ValueError):
        parse_model("gaussian:mu=0,sigma=1").tilt_draw_sum(
            np.zeros(2), np.ones(2), np.random.default_rng(0), 10, np.array([1, 0]))


def test_copies_must_be_positive():
    with pytest.raises(ValueError):
        parse_model("cexp").tilt_sample(0.2, 10, seed=0, copies=np.array([2, 0]))


def test_synthetic_has_no_sampler():
    m = parse_model("synthetic-boundary")
    with pytest.raises(NoSamplerError):
        m.sample(4, seed=0)


# -- multivariate gaussian ---------------------------------------------------

def test_gaussian_vector_model():
    cov = ((1.0, 0.3), (0.3, 2.0))
    m = gaussian(mu=(0.5, -1.0), cov=cov)
    assert m.dimension == 2
    u = np.asarray([0.4, 0.2])
    mu = np.asarray([0.5, -1.0])
    sig = np.asarray(cov)
    want = float(mu @ u + 0.5 * u @ sig @ u)
    assert m.k(u) == pytest.approx(want, abs=1e-14)
    assert np.allclose(m.grad(u), mu + sig @ u)
    xs = m.sample(20_000, seed=3)
    assert xs.shape == (20_000, 2)
    assert np.allclose(np.mean(xs, axis=0), mu, atol=0.05)


def test_parses_share_the_analysis_cache():
    # equality leaves the callables out, so two parses of one spec are one key
    from ldpkit import ef_prime_range, identity
    from ldpkit import kernel_rate as kr

    kr._problem.cache_clear()
    for _ in range(2):
        ef_prime_range(parse_model("rademacher"), identity())
    info = kr._problem.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_vector_gaussian_id_names_the_law():
    # same mean and same largest eigenvalue: only the id tells them apart
    a = gaussian(mu=(0.0, 0.0), cov=((1.0, 0.0), (0.0, 2.0)))
    b = gaussian(mu=(0.0, 0.0), cov=((2.0, 0.0), (0.0, 1.0)))
    assert a.id != b.id
    assert a != b
    assert a == gaussian(mu=(0.0, 0.0), cov=((1.0, 0.0), (0.0, 2.0)))


def test_gaussian_scalar_requires_positive_sigma():
    with pytest.raises(ValueError):
        gaussian(mu=0.0, sigma=0.0)


# -- parsing and domains -----------------------------------------------------

def test_parse_model_rejects_unknown():
    with pytest.raises(ValueError):
        parse_model("nosuch")
    with pytest.raises(ValueError):
        parse_model("gaussian:nu=1")
    with pytest.raises(ValueError):
        parse_model("cexp:mu=1")


def test_parse_model_parameters():
    m = parse_model("gaussian:mu=0.5,sigma=2")
    assert float(m.mean_vec[0]) == 0.5
    assert m.k(1.0) == pytest.approx(0.5 + 2.0, abs=1e-14)
    p = parse_model("poisson:rate=2.5")
    assert p.hessian(0.0) == pytest.approx(2.5)


def test_domain_interval_validation():
    with pytest.raises(ValueError):
        DomainInterval(0.5, 1.0)       # must straddle 0
    with pytest.raises(ValueError):
        DomainInterval(-math.inf, math.inf, lower_closed=True)
    d = DomainInterval(-1.0, 1.0, upper_closed=True)
    assert d.contains(1.0) and not d.contains(-1.0)
    assert not d.interior_contains(1.0)


def test_one_dimensional_models_have_interval_domains():
    # a Gaussian with a length-1 mean vector is the scalar law, so every d = 1
    # entry point takes it
    from ldpkit import estimate_tail, i_f_conjugate, parse_kernel, variational_rate

    vec, scalar = gaussian(mu=[0.0], cov=[[1.0]]), gaussian()
    kernel = parse_kernel("affine:0,1")
    assert vec == scalar and vec.domain == DomainInterval(-math.inf, math.inf)
    assert vec.grad_range == (-math.inf, math.inf)
    assert i_f_conjugate(vec, kernel, 0.5) == i_f_conjugate(scalar, kernel, 0.5)
    assert variational_rate(vec, kernel, 0.5) == variational_rate(scalar, kernel, 0.5)
    tails = [estimate_tail(m, kernel, 50, 0.5, samples=500, seed=3) for m in (vec, scalar)]
    assert tails[0].log_prob == tails[1].log_prob and math.isfinite(tails[0].log_prob)
    # the full space has no edges for the d = 1 rules to read, so it takes d >= 2
    with pytest.raises(DomainError):
        FullSpace(1)


def test_catalog_is_complete():
    assert set(MODEL_FACTORIES) == {"gaussian", "cexp", "rademacher",
                                    "poisson", "synthetic-boundary"}
    for factory in (centered_exponential, rademacher, centered_poisson,
                    synthetic_boundary):
        m = factory()
        assert m.k(0.0) == 0.0
