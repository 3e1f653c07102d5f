"""Numerical Legendre transform and gradient inversion."""

import dataclasses
import math

import numpy as np
import pytest

from ldpkit import (CgfModel, ConvexOracle, DomainError, DomainInterval,
                    GradientRangeError, NonConvergenceError, grad_inverse, legendre,
                    parse_kernel, parse_model)
from ldpkit import kernel_rate as kr
from ldpkit.cgf import FullSpace
from ldpkit.conjugate import (_one_atom_start, atomic_oracle, maximiser, one_cell_slope,
                              solve_monotone, tilt_domain)


def oracle_of(model):
    return ConvexOracle(domain=model.domain, eval=model.cgf,
                        grad=model.cgf_grad, hess=model.cgf_hess,
                        grad_range=model.grad_range)


def quadratic_oracle():
    dom = DomainInterval(-math.inf, math.inf)
    return ConvexOracle(domain=dom, eval=lambda u: 0.5 * np.asarray(u) ** 2,
                        grad=lambda u: np.asarray(u),
                        hess=lambda u: np.ones_like(np.asarray(u)),
                        grad_range=(-math.inf, math.inf))


# -- spot examples -----------------------------------------------------------

def test_quadratic_self_conjugate():
    res = legendre(quadratic_oracle(), 2.0)
    assert res.value == pytest.approx(2.0, abs=1e-10)
    assert res.argmax == pytest.approx(2.0, abs=1e-8)
    assert res.side == 0


def test_cexp_conjugate():
    res = legendre(oracle_of(parse_model("cexp")), 1.0)
    assert res.value == pytest.approx(1.0 - math.log(2.0), abs=1e-10)
    assert res.argmax == pytest.approx(0.5, abs=1e-8)


def test_synthetic_boundary_supremum():
    # K'(1) = 1 < 2, so the supremum sits at the closed endpoint u = 1
    res = legendre(oracle_of(parse_model("synthetic-boundary")), 2.0)
    assert res.value == pytest.approx(2.0 - 1.0 / 3.0, abs=1e-10)
    assert res.side == 1


def test_divergence_certificate():
    # cexp rate is +inf strictly below the support of the increment
    res = legendre(oracle_of(parse_model("cexp")), -1.5)
    assert res.value == math.inf


# -- invariants ---------------------------------------------------------------

CATALOG = ("gaussian:mu=0,sigma=1", "cexp", "rademacher", "poisson:rate=1",
           "synthetic-boundary")


@pytest.mark.parametrize("spec", CATALOG)
def test_fenchel_young_equality(spec):
    model = parse_model(spec)
    oracle = oracle_of(model)
    rng = np.random.default_rng(1)
    lo = max(model.domain.lower, -4.0) + 0.05
    hi = min(model.domain.upper, 4.0) - 0.05
    for lam in rng.uniform(lo, hi, size=40):
        lam = float(lam)
        x = model.grad(lam)
        res = legendre(oracle, x)
        assert res.value + model.k(lam) == pytest.approx(x * lam, abs=1e-8)


@pytest.mark.parametrize("spec", ("gaussian:mu=0,sigma=1", "cexp",
                                  "rademacher", "poisson:rate=1"))
def test_biconjugacy_reproduces_cgf(spec):
    """K** = K: conjugating the numerically conjugated rate recovers K."""
    model = parse_model(spec)
    oracle = oracle_of(model)
    lo, hi = model.rate_dom
    # Stay a hair inside finite rate-domain endpoints: exactly at such an
    # endpoint the rate's slope blows up and the inner conjugate has no
    # attained argmax, which is useless as a gradient oracle.
    lo2 = max(lo, -60.0) + (1e-3 if math.isfinite(lo) else 0.0)
    hi2 = min(hi, 60.0) - (1e-3 if math.isfinite(hi) else 0.0)
    rate_dom = DomainInterval(lo2, hi2)
    mid = 0.5 * (lo2 + hi2)

    def rate_eval(v):
        return legendre(oracle, float(np.asarray(v).reshape(()))).value

    def rate_grad(v):
        v = float(np.asarray(v).reshape(()))
        res = legendre(oracle, v)
        if res.argmax is None:
            return math.copysign(1e300, v - mid)
        return res.argmax

    rate_oracle = ConvexOracle(domain=rate_dom, eval=rate_eval,
                               grad=rate_grad, hess=None,
                               grad_range=(rate_grad(lo2), rate_grad(hi2)))
    rng = np.random.default_rng(2)
    for u in rng.uniform(max(model.domain.lower, -2.0) + 0.1,
                         min(model.domain.upper, 2.0) - 0.1, size=8):
        back = legendre(rate_oracle, float(u), tol=1e-8)
        assert back.value == pytest.approx(model.k(float(u)), abs=1e-6)


def test_value_convex_in_x():
    oracle = oracle_of(parse_model("cexp"))
    rng = np.random.default_rng(3)
    for _ in range(30):
        a, b = sorted(rng.uniform(-0.9, 4.0, size=2))
        va = legendre(oracle, float(a)).value
        vb = legendre(oracle, float(b)).value
        vm = legendre(oracle, 0.5 * (float(a) + float(b))).value
        if math.isfinite(va) and math.isfinite(vb):
            assert vm <= 0.5 * va + 0.5 * vb + 1e-9


@pytest.mark.parametrize("spec", CATALOG)
def test_grad_inverse_round_trip(spec):
    model = parse_model(spec)
    oracle = oracle_of(model)
    rng = np.random.default_rng(4)
    lo = max(model.domain.lower, -3.0) + 0.1
    hi = min(model.domain.upper, 3.0) - 0.1
    for lam in rng.uniform(lo, hi, size=25):
        x = model.grad(float(lam))
        back = grad_inverse(oracle, x, tol=1e-10)
        assert model.grad(back) == pytest.approx(x, abs=1e-8)


def test_grad_inverse_side_flags():
    rad = parse_model("rademacher")
    oracle = oracle_of(rad)
    with pytest.raises(GradientRangeError) as err:
        grad_inverse(oracle, 1.2)
    assert err.value.side == "above"
    with pytest.raises(GradientRangeError) as err:
        grad_inverse(oracle, -1.2)
    assert err.value.side == "below"


def test_conjugate_result_consistency():
    oracle = oracle_of(parse_model("gaussian:mu=0.5,sigma=2"))
    res = legendre(oracle, 1.7)
    assert res.argmax is not None and res.side == 0
    # value = x lam* - K(lam*) at the reported argmax
    model = parse_model("gaussian:mu=0.5,sigma=2")
    assert res.value == pytest.approx(1.7 * res.argmax - model.k(res.argmax),
                                      abs=1e-12)


# -- the stated slope range ---------------------------------------------------

@pytest.mark.parametrize("spec,want", [
    ("gaussian:mu=0,sigma=1", (-math.inf, math.inf)),
    ("cexp", (-1.0, math.inf)),
    ("rademacher", (-1.0, 1.0)),
    ("poisson:rate=2", (-2.0, math.inf)),
    ("synthetic-boundary", (-math.inf, 1.0)),
])
def test_model_grad_range(spec, want):
    assert parse_model(spec).grad_range == want


def test_open_finite_edges_need_no_rate_dom():
    # K = -log(1 - u^2) blows up at both open edges, so K' runs to +-inf
    model = CgfModel(id="open-edges", domain=DomainInterval(-1.0, 1.0),
                     cgf=lambda u: -np.log1p(-np.asarray(u) ** 2),
                     cgf_grad=lambda u: 2.0 * np.asarray(u) / (1.0 - np.asarray(u) ** 2))
    assert model.rate_dom is None
    assert model.grad_range == (-math.inf, math.inf)


def test_one_dimensional_oracle_must_state_its_range():
    bare = dataclasses.replace(quadratic_oracle(), grad_range=None)
    with pytest.raises(ValueError):
        legendre(bare, 0.3)
    with pytest.raises(ValueError):
        grad_inverse(bare, 0.3)


def test_infinite_domain_edge_needs_a_stated_value():
    # the domain of log cosh runs to +-inf while its slope stays in (-1, 1)
    oracle = oracle_of(parse_model("rademacher"))
    with pytest.raises(DomainError):
        legendre(oracle, 1.0)
    assert legendre(oracle, 1.0 + 1e-12).value == math.inf
    stated = dataclasses.replace(oracle, edge_values=(None, math.log(2.0)))
    res = legendre(stated, 1.0)
    assert res.value == math.log(2.0) and res.side == 1
    with pytest.raises(DomainError):
        legendre(stated, -1.0)


def _maximiser_cases():
    # (oracle, x, argmax, residual): an interior level, a closed finite end
    # past its slope edge and at it, and an infinite end past its edge and at
    # it with a stated value, where nothing is attained
    cexp, boundary = oracle_of(parse_model("cexp")), oracle_of(parse_model("synthetic-boundary"))
    rad = dataclasses.replace(oracle_of(parse_model("rademacher")),
                              edge_values=(None, math.log(2.0)))
    return [(cexp, 1.0, 0.5, None), (boundary, 2.0, 1.0, 1.0 - 2.0),
            (boundary, 1.0, 1.0, 0.0), (rad, 1.0 + 1e-12, None, None), (rad, 1.0, None, None)]


def test_maximiser_contract():
    for oracle, x, argmax, residual in _maximiser_cases():
        res = maximiser(oracle, x)
        if argmax is None:
            # the value is +inf past the edge, the stated one at it
            assert res.value == (math.inf if x > 1.0 else math.log(2.0))
            assert res.residual is None and res.side == 1
            continue
        # a value that needs g is left to legendre
        assert res.value is None
        assert res.argmax == pytest.approx(argmax, rel=1e-12)
        if residual is None:    # inside the range: the solve's own residual
            assert res.side == 0
            assert res.residual == float(oracle.grad(res.argmax)) - x
            assert abs(res.residual) <= 1e-10
        else:                   # at a closed end: the stated slope edge minus x
            assert res.side == 1 and res.residual == residual
    # an infinite end with no stated value decides no value exactly at its edge
    with pytest.raises(DomainError):
        maximiser(oracle_of(parse_model("rademacher")), 1.0)


def test_legendre_is_the_maximiser_priced():
    for oracle, x, _, _ in _maximiser_cases():
        res, full = maximiser(oracle, x), legendre(oracle, x)
        if res.argmax is None:
            assert full == res
            continue
        u = res.argmax
        assert full == dataclasses.replace(res, value=x * u - float(oracle.eval(u)) + 0.0)


# -- the one monotone solver ----------------------------------------------------

def recording(oracle):
    """The oracle with every point its grad and hess were asked at recorded."""
    seen = []

    def rec(fn):
        def wrapped(u):
            seen.append(float(u))
            return fn(u)
        return wrapped

    return dataclasses.replace(oracle, grad=rec(oracle.grad), hess=rec(oracle.hess)), seen


ORACLES = [(spec, None) for spec in CATALOG] + [
    ("cexp", "affine:0,1"), ("rademacher", "affine:0,1"), ("poisson:rate=1", "affine:0,1"),
    ("synthetic-boundary", "affine:0,1"), ("cexp", "pwl:0:0,0.3:0.7,1:0.2")]


@pytest.mark.parametrize("spec,kernel", ORACLES)
def test_solves_stay_inside_the_open_domain(spec, kernel):
    # the stated domain is the bracket: no grad or hess call ever leaves it,
    # not even onto a closed edge, at levels inside and outside the range
    model = parse_model(spec)
    base = (oracle_of(model) if kernel is None
            else kr._e_f_oracle(model, parse_kernel(kernel)))
    oracle, seen = recording(base)
    lo, hi = oracle.grad_range
    if math.isfinite(lo) and math.isfinite(hi):
        levels = [lo + (hi - lo) * q for q in (1e-9, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-9)]
    else:   # decades either side of the finite slope edge, or of 0
        centre = lo if math.isfinite(lo) else hi if math.isfinite(hi) else 0.0
        levels = [x for x in (centre + s * 10.0 ** e for s in (-1, 1) for e in range(-6, 2))
                  if lo < x < hi]
    for x in levels:
        assert grad_inverse(oracle, x) == legendre(oracle, x).argmax
    for x in (lo - 1.0, hi + 1.0):
        if math.isfinite(x):
            legendre(oracle, x)
    dom = oracle.domain
    assert seen and all(dom.lower < u < dom.upper for u in seen), spec


def test_solve_settles_on_a_saturating_oracle():
    # rademacher x identity: E_f'(lam) = 1/2 - pi^2 / (24 lam^2) + ..., so
    # lam* ~ 6e5 lies where E_f' is flat to 1e-12
    rad = kr._e_f_oracle(parse_model("rademacher"), parse_kernel("affine:0,1"))
    oracle, seen = recording(rad)
    lam = 6e5
    x = 0.5 - math.pi ** 2 / (24.0 * lam ** 2)
    res = legendre(oracle, x)
    assert res.side == 0
    assert res.argmax == pytest.approx(lam, rel=1e-3)
    assert abs(oracle.grad(res.argmax) - x) <= 1e-10
    assert len(seen) < 200


def test_solve_settles_near_an_open_finite_edge():
    # cexp x identity: E_f' blows up like -log(1 - lam) at the open cap
    # lam = 1, and x = 25 puts lam* within 1e-11 of it, where one ulp of lam
    # moves E_f' by about 1e-5
    cexp = kr._e_f_oracle(parse_model("cexp"), parse_kernel("affine:0,1"))
    oracle, seen = recording(cexp)
    for x in (5.0, 15.0, 25.0):
        lam = grad_inverse(oracle, x)
        assert 0.0 < lam < 1.0
        bound = 1e-10 * x + oracle.hess(lam) * np.spacing(lam)
        assert abs(oracle.grad(lam) - x) <= bound, x
    assert all(u < 1.0 for u in seen)


def test_solve_monotone_elementwise():
    # tanh on the whole line: the root of each element from start 0, by
    # Newton steps, doublings and bisections; |r| is within atol
    t = np.array([-0.999, -0.5, 0.0, 0.25, 0.9999])
    v, r = solve_monotone(np.tanh, lambda v: 1.0 / np.cosh(v) ** 2, t,
                          -math.inf, math.inf, 0.0, 1e-13)
    assert np.allclose(v, np.arctanh(t), rtol=1e-10, atol=0.0)
    assert np.all(np.abs(r) <= 1e-13)
    # without hess: bisection and doubling only, down to a one-ulp bracket
    w, _ = solve_monotone(np.tanh, None, t, -math.inf, math.inf, 0.0, 0.0)
    assert np.allclose(w, np.arctanh(t), rtol=1e-10, atol=0.0)
    # one start per element, on either side of its root: an infinite side
    # doubles the distance from that element's own start
    starts = np.array([5.0, -40.0, 3.0, 30.0, -2.0])
    for hess in (None, lambda v: 1.0 / np.cosh(v) ** 2):
        w, _ = solve_monotone(np.tanh, hess, t, -math.inf, math.inf, starts, 0.0)
        assert np.allclose(w, np.arctanh(t), rtol=1e-10, atol=0.0)
    # a kink element: g flat at the target from the root up, found where
    # hess vanishes
    flat = solve_monotone(lambda v: np.minimum(v, 1.0), lambda v: (v < 1.0) * 1.0,
                          np.array([1.0]), 0.0, math.inf, 0.0, 0.0, kink=1.0)[0]
    assert flat[0] == 1.0


def test_solve_does_not_settle_on_a_grad_flat_off_its_target():
    # grad is flat 1e-9 above the target from v = 1 + 1e-9 up, where the
    # Newton step is lost: the bisection from 60 meets an unchanged grad at
    # 29.5, far from the root v = 1, and must go on
    for target in (0.0, np.zeros(2)):
        v, r = solve_monotone(lambda v: np.minimum(v - 1.0, 1e-9),
                              lambda v: (v < 1.0 + 1e-9) * 1.0,
                              target, -1.0, 100.0, 60.0, 0.0)
        assert np.all(np.abs(v - 1.0) <= 1e-15) and np.all(np.abs(r) <= 1e-15)


def test_solve_cuts_a_bracket_over_many_decades_on_the_log_scale():
    # arctan is pi/2 to rounding far out: from a start at an end 1e300 away,
    # one bit a step would take about 1000 halvings to come near the root;
    # halving log(1 + |v|) takes about 10, whichever end the root is near
    for target, lo, hi, start in ((1.0, 0.0, 1e300, 1e300), (-1.0, -1e300, 0.0, -1e300),
                                  (0.5, -1e300, 1e300, 1e300), (1.5, 1e-3, 1e300, 1e-3)):
        for t in (target, np.full(2, target)):
            for hess in (None, lambda v: 1.0 / (1.0 + v * v)):
                v, _ = solve_monotone(np.arctan, hess, t, lo, hi, start, 1e-15, max_iter=90)
                assert np.allclose(v, np.tan(target), rtol=1e-12, atol=0.0), (target, hess)


def test_newton_that_stays_put_steps_one_ulp_toward_the_root():
    # hess overstates the slope 1e8 so far that v - r / h == v at every v
    def overstated(grad):
        return ConvexOracle(DomainInterval(-math.inf, math.inf), eval=None, grad=grad,
                            hess=lambda u: 1e300, grad_range=(-math.inf, math.inf),
                            start=lambda x: 1.0)

    # the root 1 + 1e-16 lies inside the one-ulp bracket [1, 1 + 2^-52]: one
    # step of an ulp from the start closes it
    near = overstated(lambda u: 1e8 * (u - 1.0) - 1e-8)
    res = maximiser(near, 0.0)
    assert res.argmax in (1.0, math.nextafter(1.0, 2.0)) and res.side == 0
    assert res.residual == near.grad(res.argmax)
    v, _ = solve_monotone(near.grad, near.hess, np.zeros(2), -math.inf, math.inf, 1.0, 1e-10)
    assert np.all((v == 1.0) | (v == math.nextafter(1.0, 2.0)))
    # a root at 2 is not one ulp a step away: the solve fails rather than
    # return the start as a root
    far = overstated(lambda u: 1e8 * (u - 2.0))
    for solve in (maximiser, grad_inverse):
        with pytest.raises(NonConvergenceError):
            solve(far, 0.0)


def test_a_nan_level_is_bad_input():
    # nan < edge and nan >= edge are both False: read as a number, nan would
    # lie at the upper slope edge, log 2 for a sign step
    rad = parse_model("rademacher")
    oracle = atomic_oracle(rad, tilt_domain(rad, 1.0, 0.0), np.ones(1), np.ones(1))
    for solve in (legendre, grad_inverse):
        with pytest.raises(ValueError, match="nan"):
            solve(oracle, math.nan)
    with pytest.raises(ValueError, match="nan"):
        dataclasses.replace(rad, closed_rate=None).rate(math.nan)
    full = ConvexOracle(domain=FullSpace(2), eval=lambda u: 0.5 * u @ u, grad=lambda u: u,
                        hess=lambda u: np.eye(2))
    with pytest.raises(ValueError, match="nan"):
        legendre(full, [0.5, math.nan])


@pytest.mark.parametrize("spec", CATALOG)
def test_an_infinite_level_prices_plus_inf(spec):
    # the rate fallback of a model with no closed rate reads I = +inf at
    # +-inf; an infinite slope edge is met without computing inf - inf
    model = parse_model(spec)
    oracle = atomic_oracle(model, tilt_domain(model, 1.0, 0.0), np.ones(1), np.ones(1))
    for x in (math.inf, -math.inf):
        res = legendre(oracle, x)
        assert res.value == math.inf and res.argmax is None and res.side == (1 if x > 0 else -1)
        assert dataclasses.replace(model, closed_rate=None).rate(x) == math.inf


# -- multivariate -------------------------------------------------------------

def test_legendre_full_space():
    cov = ((2.0, 0.5), (0.5, 1.0))
    mu = (0.2, -0.4)
    from ldpkit.cgf import gaussian

    model = gaussian(mu=mu, cov=cov)
    oracle = ConvexOracle(domain=FullSpace(2), eval=model.cgf,
                          grad=model.cgf_grad, hess=model.cgf_hess)
    x = np.asarray([1.0, 0.3])
    res = legendre(oracle, x)
    sig = np.asarray(cov)
    gap = x - np.asarray(mu)
    want = 0.5 * gap @ np.linalg.solve(sig, gap)
    assert res.value == pytest.approx(want, abs=1e-8)
    assert np.allclose(res.argmax, np.linalg.solve(sig, gap), atol=1e-6)


# -- the one-atom start of a weighted cumulant -----------------------------------


@pytest.mark.parametrize("spec", ["gaussian:mu=0.5,sigma=2", "cexp", "rademacher",
                                  "poisson:rate=1"])
def test_one_atom_start_is_the_root_for_one_atom(spec):
    # g(lam) = c K(lam w), one atom of mass c at w: m1 = c w and m2 = c w^2
    model = parse_model(spec)
    c, w = 0.75, -2.0
    oracle = atomic_oracle(model, tilt_domain(model, 0.0, -w), np.array([w]), np.array([c]))
    for x in (-0.6, 0.2, 0.9):
        lam = oracle.start(x)
        assert lam != 0.0
        assert oracle.grad(lam) == pytest.approx(x, rel=1e-12)
        assert grad_inverse(oracle, x, 1e-10) == pytest.approx(lam, rel=1e-12)


def test_one_atom_start_falls_back_to_zero():
    cexp = parse_model("cexp")      # rate_dom (-1, inf), K' open at 1
    dom = DomainInterval(-math.inf, 1.0)
    # no moment to match
    assert _one_atom_start(cexp, dom, 0.0, 1.0) is None
    assert _one_atom_start(cexp, dom, 1.0, 0.0) is None
    start = _one_atom_start(cexp, dom, 1.0, 1.0)
    assert start(0.5) == pytest.approx(1.0 / 3.0, rel=1e-15)
    # x / m1 at or past the rate_dom edge -1, or nan
    assert start(-1.0) == start(-2.0) == start(math.nan) == 0.0
    # lam0 = I'(x) = x / (1 + x) at or past the tilt cap
    assert _one_atom_start(cexp, DomainInterval(-math.inf, 0.25), 1.0, 1.0)(0.5) == 0.0
    # lam0 = 1 / 1e-310 overflows to inf, which no domain holds strictly inside
    full = DomainInterval(-math.inf, math.inf)
    assert _one_atom_start(cexp, full, 1.0, 1e-310)(1e300) == 0.0


def test_one_atom_start_reads_a_known_slope_at_its_own_x():
    cexp, dom = parse_model("cexp"), DomainInterval(-math.inf, 1.0)
    assert one_cell_slope(cexp, 2.0, 1.0) == (0.5, pytest.approx(1.0 / 3.0, rel=1e-15))
    assert one_cell_slope(cexp, 2.0, -2.0) is None     # x / m1 at the rate_dom edge -1
    assert one_cell_slope(cexp, 0.0, 1.0) is None
    # a stated (v*, s*) stands in for I'(v*) at its x, and only there
    start = _one_atom_start(cexp, dom, 2.0, 4.0, (0.5, 0.6))
    assert start(1.0) == pytest.approx(0.3, rel=1e-15)
    assert start(0.5) == pytest.approx(one_cell_slope(cexp, 2.0, 0.5)[1] / 2.0, rel=1e-15)
