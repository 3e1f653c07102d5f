"""Weighted rate function: moment integrals, both evaluation routes, the
variational cross-check and minimizing paths."""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from ldpkit import conjugate as conj
from ldpkit import kernel_rate as kr
from ldpkit import (
    AmbiguityError,
    DomainError,
    GradientRangeError,
    d_f,
    e_f,
    e_f_grad,
    ef_prime_range,
    grad_inverse,
    i_f_conjugate,
    i_f_explicit,
    identity,
    constant,
    i_d,
    m_plus_minus,
    minimizer,
    pair,
    parse_kernel,
    parse_model,
    variational_rate,
    x_grid,
)
from ldpkit.cgf import MODEL_FACTORIES, CgfModel, DomainInterval, FullSpace, gaussian
from ldpkit.errors import LdpkitError, NonConvergenceError

ID = identity()
CONST1 = constant(1.0)
NEGID = parse_kernel("affine:0,-1")
TENT = parse_kernel("pwl:0:0,0.5:1,1:0")
PLATEAU = parse_kernel("pwl:0:0,0.25:1,0.75:1,1:0")

PAIRS = [
    ("gaussian:mu=0,sigma=1", ID),
    ("gaussian:mu=0,sigma=1", parse_kernel("affine:0.5,1")),
    ("gaussian:mu=0.5,sigma=2", parse_kernel("affine:0.5,1")),
    ("gaussian:mu=0,sigma=1", TENT),
    ("cexp", CONST1),
    ("cexp", ID),
    ("rademacher", ID),
    ("poisson:rate=1", CONST1),
    ("synthetic-boundary", ID),
]


# -- weighted cumulant integral ------------------------------------------------


def test_e_f_gaussian_identity():
    m = parse_model("gaussian:mu=0,sigma=1")
    # int (lam t)^2 / 2 dt = lam^2 / 6
    assert e_f(m, ID, 3.0) == pytest.approx(1.5, abs=1e-12)
    assert e_f(m, ID, 0.0) == 0.0


def test_e_f_cexp_constant():
    m = parse_model("cexp")
    want = -math.log(0.5) - 0.5
    assert e_f(m, CONST1, 0.5) == pytest.approx(want, abs=1e-12)
    assert e_f(m, CONST1, 1.5) == math.inf
    assert e_f(m, CONST1, 1.0) == math.inf  # open boundary held on all of [0,1]


def test_e_f_cexp_identity_improper():
    # lam = 1 touches the domain edge only at t = 1; the integral still
    # converges: int_0^1 (-log(1-t) - t) dt = 1/2.
    m = parse_model("cexp")
    assert e_f(m, ID, 1.0) == pytest.approx(0.5, abs=1e-9)
    assert e_f(m, ID, 1.5) == math.inf


def test_e_f_matches_quadrature():
    grids = {"gaussian:mu=0,sigma=1": [-2.0, 0.7, 3.0],
             "cexp": [-1.0, 0.4, 0.9],
             "rademacher": [-2.5, 1.0],
             "poisson:rate=1": [-1.5, 0.8],
             "synthetic-boundary": [-2.0, 0.6]}
    for spec, lams in grids.items():
        m = parse_model(spec)
        for k in (ID, TENT):
            for lam in lams:
                ref, _ = scipy_quad(lambda t: m.k(lam * float(k(t))), 0.0, 1.0,
                                    points=k.breakpoints, limit=200)
                assert e_f(m, k, lam) == pytest.approx(ref, abs=1e-9), \
                    (spec, lam)


def test_e_f_grad_examples():
    g = parse_model("gaussian:mu=0,sigma=1")
    assert e_f_grad(g, ID, 3.0) == pytest.approx(1.0, abs=1e-12)
    # at lam = 0 the slope is m1 * mean for any model
    shifted = parse_model("gaussian:mu=0.5,sigma=1")
    assert e_f_grad(shifted, ID, 0.0) == pytest.approx(0.25, abs=1e-12)
    for spec in ("cexp", "rademacher", "poisson:rate=1", "synthetic-boundary"):
        assert e_f_grad(parse_model(spec), ID, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_e_f_grad_is_derivative():
    h = 1e-6
    for spec, k in PAIRS:
        m = parse_model(spec)
        lam = 0.37 if math.isinf(m_plus_minus(m, k)[0]) else 0.37 * m_plus_minus(m, k)[0]
        fd = (e_f(m, k, lam + h) - e_f(m, k, lam - h)) / (2 * h)
        assert e_f_grad(m, k, lam) == pytest.approx(fd, abs=5e-6), spec


def test_e_f_grad_improper_at_cap():
    # synthetic slope at the domain cap is a convergent improper integral
    m = parse_model("synthetic-boundary")
    assert e_f_grad(m, ID, 1.0) == pytest.approx(7.0 / 30.0, abs=1e-8)


def _moment_integrand(m, k, lam, order):
    deriv = (m.cgf, m.cgf_grad, m.cgf_hess)[order]

    def fn(t):
        fv = float(k(t))
        return fv ** order * float(deriv(lam * fv))

    return fn


MOMENTS = (e_f, e_f_grad, kr._e_f_hess)


@pytest.mark.parametrize("spec,k", PAIRS)
def test_moments_match_quadrature_across_tilts(spec, k):
    # K(lam f) has a layer at t ~ 1/lam, and near a finite cap one of width
    # ~ 1 - lam / cap below t = 1 (each pair's max f sits there); scipy is
    # told where they are
    m = parse_model(spec)
    m_plus, m_minus = m_plus_minus(m, k)
    lams = [lam for lam in (1e-6, 1e-3, 0.1, 0.5, 3.0, 40.0, 300.0)
            if lam < m_plus] + [-lam for lam in (1e-6, 0.2, 7.0) if lam < m_minus]
    if math.isfinite(m_plus):
        lams.append(m_plus * (1.0 - 1e-6))
    for lam in lams:
        layer = {1.0 / abs(lam)} | {1.0 - 10.0 ** -j for j in range(1, 6)
                                    if lam > 0.9 * m_plus}
        points = sorted(t for t in set(k.breakpoints) | layer if 0.0 < t < 1.0)
        for order, moment in enumerate(MOMENTS):
            want, _ = scipy_quad(_moment_integrand(m, k, lam, order), 0.0, 1.0,
                                 points=points or None, limit=400,
                                 epsabs=1e-14, epsrel=1e-13)
            assert moment(m, k, lam) == pytest.approx(want, rel=1e-9, abs=1e-12), \
                (spec, lam, order)


def test_small_tilt_takes_the_adaptive_rule(monkeypatch):
    # at lam = 1e-6 the brackets cancel to a few digits, so the guard hands
    # every moment to the adaptive rule; at lam = 3 none of them need it
    m = parse_model("poisson:rate=1")
    calls = [0]
    adaptive = kr.quad.adaptive_gl

    def counting(*args, **kwargs):
        calls[0] += 1
        return adaptive(*args, **kwargs)

    monkeypatch.setattr(kr.quad, "adaptive_gl", counting)
    for lam, want in ((1e-6, len(MOMENTS)), (3.0, 0)):
        calls[0] = 0
        for moment in MOMENTS:
            moment(m, ID, lam)
        assert calls[0] == want, lam


def test_e_f_near_the_open_edge_is_exact_and_fast():
    # cexp x identity at lam = 0.999999: K(lam t) peaks at t = 1, within
    # 1e-6 of the pole of K; the brackets of P are exact there
    m = parse_model("cexp")
    lam = 0.999999
    start = time.perf_counter()
    vals = [moment(m, ID, lam) for moment in MOMENTS]
    assert time.perf_counter() - start < 0.01
    assert vals[0] == pytest.approx(0.4999866844756262, rel=1e-13)
    assert vals[1] == pytest.approx(12.31553718899708, rel=1e-13)


def test_e_f_rademacher_at_a_large_tilt():
    # E_f(lam) = lam/2 - log 2 + pi^2 / (24 lam) + O(exp(-2 lam) / lam): the
    # last term is the layer of log cosh(lam t) at t ~ 1/lam
    lam = 6.4e4
    want = lam / 2.0 - math.log(2.0) + math.pi ** 2 / (24.0 * lam)
    assert e_f(parse_model("rademacher"), ID, lam) == pytest.approx(want, rel=1e-12)


# -- touched domain edges ----------------------------------------------------------

AFFINE_1_2 = parse_kernel("affine:1,-2")


def _refuse(*args, **kwargs):
    raise AssertionError("integrate_piece called")


@pytest.mark.parametrize("refuse", [False, True])
def test_open_edge_touch_diverges_without_quadrature(monkeypatch, refuse):
    # a log-MGF is lower semicontinuous, so K' and K'' blow up at an open
    # edge: over a linear touch the K' integral is sign(lam) inf and the K''
    # integral +inf, decided from the model alone
    if refuse:
        monkeypatch.setattr(kr.quad, "integrate_piece", _refuse)
    m = parse_model("cexp")
    calls = [(lambda: e_f_grad(m, ID, 1.0), math.inf),
             (lambda: e_f_grad(m, AFFINE_1_2, 1.0), math.inf),
             (lambda: e_f_grad(m, AFFINE_1_2, -1.0), -math.inf),
             (lambda: kr._e_f_hess(m, ID, 1.0), math.inf)]
    for call, want in calls:
        t0 = time.perf_counter()
        assert call() == want
        assert time.perf_counter() - t0 < 0.01


def test_closed_edge_hessian_is_finite():
    # synthetic: K'(1) = 1 is finite, so int t^2 K''(t) dt = 8/15 converges
    m = parse_model("synthetic-boundary")
    assert kr._e_f_hess(m, ID, 1.0) == pytest.approx(8.0 / 15.0, abs=1e-7)


def test_e_f_touching_an_open_edge_at_either_end():
    # lam f = 1 -+ 2t reaches the open edge of cexp at t = 0 or t = 1; both
    # give int_0^1 K(1 - 2t) dt = 1 - log 2
    m = parse_model("cexp")
    for lam in (1.0, -1.0):
        assert e_f(m, AFFINE_1_2, lam) == pytest.approx(1.0 - math.log(2.0), abs=1e-12)


def test_e_f_at_a_rounded_cap():
    # M_plus = 1/0.7 and M_plus * f(t) rounds onto the edge 1 at nodes next
    # to t = 0.3, where the true value is still below 1
    m = parse_model("cexp")
    k = parse_kernel("pwl:0:0,0.3:0.7,1:0.2")
    cap = m_plus_minus(m, k)[0]
    ref, _ = scipy_quad(lambda t: m.k(cap * float(k(t))), 0.0, 1.0,
                        points=[0.3], limit=200)
    assert e_f(m, k, cap) == pytest.approx(ref, abs=1e-9)


def test_near_cap_hessian_is_cheap(monkeypatch):
    # at x = +-3, lam* = +-0.99932 and f^2 K''(lam f) peaks near 2e6; the
    # Hessian only shapes Newton steps, so it asks for a relative accuracy
    panels = [0]
    gl32 = kr.quad.gl32

    def counting(*args):
        panels[0] += 1
        return gl32(*args)

    monkeypatch.setattr(kr.quad, "gl32", counting)
    m = parse_model("cexp")
    for x in (3.0, -3.0):
        values = []
        for route in (i_f_conjugate, i_f_explicit):
            panels[0] = 0
            values.append(route(m, AFFINE_1_2, x).value)
            assert panels[0] < 20_000, (route.__name__, x, panels[0])
        assert values[0] == pytest.approx(values[1], abs=1e-9)


# the values of the former quadrature, asked for 1e-10 relative
HESS_BEFORE = {"gaussian:mu=0,sigma=1": 0.33333333333333337,
               "cexp": 494.63088185050384,
               "poisson:rate=1": 0.11327595227374333}


@pytest.mark.parametrize("spec,kernel,lam", [
    ("gaussian:mu=0,sigma=1", TENT, 0.5),
    ("cexp", AFFINE_1_2, 0.999),
    ("poisson:rate=1", TENT, -1.5),
])
def test_hessian_is_a_bracket(monkeypatch, spec, kernel, lam):
    # E_f'' on each piece is a bracket of u^2 K' - 2uK + 2P: no quadrature
    # panel, and the value the quadrature gave
    m = parse_model(spec)
    panels = [0]
    gl32 = kr.quad.gl32

    def counting(*args):
        panels[0] += 1
        return gl32(*args)

    monkeypatch.setattr(kr.quad, "gl32", counting)
    assert kr._e_f_hess(m, kernel, lam) == pytest.approx(HESS_BEFORE[spec], rel=1e-10)
    assert panels[0] == 0


THREE_PIECES = parse_kernel("pwl:0:-1,0.3:2,0.6:-0.5,1:0.25")


def _counting_formulas(model):
    """The model with each call of K, K', K'' and P counted."""
    calls = dict.fromkeys(("cgf", "cgf_grad", "cgf_hess", "cgf_int"), 0)

    def counted(name):
        formula = getattr(model, name)

        def wrapped(u):
            calls[name] += 1
            return formula(u)

        return wrapped

    return dataclasses.replace(model, **{name: counted(name) for name in calls}), calls


@pytest.mark.parametrize("spec,kernel,lam", [("rademacher", THREE_PIECES, 0.7),
                                             ("cexp", TENT, 0.5)])
def test_each_moment_evaluates_a_formula_once(spec, kernel, lam):
    # one node walk evaluates each formula a primitive reads over every kernel
    # node at once, whatever the number of pieces; no piece is rough here
    for moment in MOMENTS:
        counted, calls = _counting_formulas(parse_model(spec))
        moment(counted, kernel, lam)
        assert max(calls.values()) == 1, (moment.__name__, calls)


@pytest.mark.parametrize("spec", ["gaussian:mu=0,sigma=1", "poisson:rate=1"])
def test_moments_without_a_primitive_take_quadrature(spec):
    # without cgf_int every piece goes to the adaptive rule
    m = parse_model(spec)
    bare = dataclasses.replace(m, cgf_int=None)
    for lam in (-1.3, 0.4, 2.0):
        for moment in MOMENTS:
            assert moment(bare, TENT, lam) == pytest.approx(moment(m, TENT, lam),
                                                            rel=1e-10, abs=1e-10), lam


def test_a_touched_piece_without_a_primitive_is_refused():
    # cexp f(t) = t touches the open edge at lam = 1, where only the
    # primitive decides the piece
    bare = dataclasses.replace(parse_model("cexp"), cgf_int=None)
    with pytest.raises(DomainError):
        e_f_grad(bare, ID, 1.0)


def _negated_inverse_gaussian():
    """The law of 1 - X, X inverse Gaussian with mean and shape 1: K(u) =
    1 + u - sqrt(1 + 2u) on the closed [-1/2, inf), with K(-1/2) = 1/2 finite
    and K' running to -inf there."""

    def root(u):
        return np.sqrt(np.maximum(1.0 + 2.0 * np.asarray(u, dtype=float), 0.0))

    def hess(u):
        with np.errstate(divide="ignore"):
            return 1.0 / root(u) ** 3

    def grad(u):
        with np.errstate(divide="ignore"):
            return 1.0 - 1.0 / root(u)

    return CgfModel(
        id="negated-inverse-gaussian",
        domain=DomainInterval(-0.5, math.inf, lower_closed=True),
        cgf=lambda u: 1.0 + u - root(u), cgf_grad=grad, cgf_hess=hess,
        cgf_int=lambda u: u + 0.5 * u * u - (root(u) ** 3 - 1.0) / 3.0,
        rate_dom=(-math.inf, 1.0))


def test_a_closed_lower_edge_with_an_infinite_slope():
    # lam = -1/2 touches the closed edge -1/2 at t = 1: K and P are finite
    # there, so E_f and E_f' are brackets, while K' = -inf makes the K''
    # integral E_f'' diverge upwards
    m = _negated_inverse_gaussian()
    assert (d_f(m, ID).lower, d_f(m, ID).lower_closed) == (-0.5, True)
    assert e_f(m, ID, -0.5) == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert e_f_grad(m, ID, -0.5) == pytest.approx(-5.0 / 6.0, rel=1e-12)
    assert kr._e_f_hess(m, ID, -0.5) == math.inf
    # past inf E_f' = -5/6 the path runs at the cap, where every cell mean of
    # f lies below 1 and so every slope is finite, and jumps once at t = 1
    x = -1.0333
    path = minimizer(m, ID, x)
    assert np.isfinite(path.slopes).all()
    assert [t for t, _ in path.jumps] == [1.0]
    assert pair(ID, path) == pytest.approx(x, abs=1e-12)
    assert 0.0 <= i_d(path, m) - i_f_conjugate(m, ID, x).value <= 1e-6


# -- domain analysis -----------------------------------------------------------


def test_m_plus_minus_table():
    g = parse_model("gaussian:mu=0,sigma=1")
    assert m_plus_minus(g, ID) == (math.inf, math.inf)
    c = parse_model("cexp")
    assert m_plus_minus(c, ID) == (1.0, math.inf)
    assert m_plus_minus(c, NEGID) == (math.inf, 1.0)
    assert m_plus_minus(c, CONST1) == (1.0, math.inf)
    s = parse_model("synthetic-boundary")
    assert m_plus_minus(s, ID) == (1.0, math.inf)


def test_d_f_closure_flags():
    c = d_f(parse_model("cexp"), ID)
    assert (c.lower, c.upper) == (-math.inf, 1.0)
    assert not c.upper_closed
    s = d_f(parse_model("synthetic-boundary"), ID)
    assert (s.lower, s.upper) == (-math.inf, 1.0)
    assert s.upper_closed
    s2 = d_f(parse_model("synthetic-boundary"), NEGID)
    assert (s2.lower, s2.upper) == (-1.0, math.inf)
    assert s2.lower_closed


def test_ef_prime_range_table():
    lo, hi = ef_prime_range(parse_model("rademacher"), ID)
    assert lo == pytest.approx(-0.5, abs=1e-12)
    assert hi == pytest.approx(0.5, abs=1e-12)
    lo, hi = ef_prime_range(parse_model("cexp"), ID)
    assert lo == pytest.approx(-0.5, abs=1e-10)
    assert hi == math.inf
    lo, hi = ef_prime_range(parse_model("poisson:rate=1"), ID)
    assert lo == pytest.approx(-0.5, abs=1e-10)
    assert hi == math.inf
    lo, hi = ef_prime_range(parse_model("synthetic-boundary"), ID)
    assert hi == pytest.approx(7.0 / 30.0, abs=1e-10)
    assert lo == -math.inf


def test_ef_prime_range_edges_are_exact():
    # the edges come from K'(+-inf), the closed/open edge flags and exact
    # signed integrals of f, so they are exact, not merely close
    kr._problem.cache_clear()
    assert ef_prime_range(parse_model("rademacher"), ID) == (-0.5, 0.5)
    assert ef_prime_range(parse_model("cexp"), CONST1)[0] == -1.0
    assert ef_prime_range(parse_model("poisson:rate=1"), CONST1)[0] == -1.0
    assert ef_prime_range(parse_model("cexp"), NEGID)[1] == 0.5


def test_ef_prime_range_needs_no_quadrature(monkeypatch):
    # an infinite cap or an open binding edge decides the edge from the
    # model and the kernel alone; only a closed binding edge integrates
    def refuse(*args, **kwargs):
        raise AssertionError("e_f_grad called")

    monkeypatch.setattr(kr, "e_f_grad", refuse)
    kr._problem.cache_clear()
    for spec, k in PAIRS + [("cexp", NEGID), ("cexp", parse_kernel("affine:1,-2"))]:
        if spec == "synthetic-boundary":
            continue    # closed edge: sup E_f' is the integral at the cap
        ef_prime_range(parse_model(spec), k)
    with pytest.raises(AssertionError, match="e_f_grad called"):     # closed edge above
        kr._problem(parse_model("synthetic-boundary"), ID).edges


def test_infinite_edge_needs_rate_dom():
    m = parse_model("cexp")
    bare = dataclasses.replace(m, id="cexp-bare", rate_dom=None)
    with pytest.raises(DomainError):
        ef_prime_range(bare, ID)    # K'(-inf) is unknown without rate_dom


def test_cached_analysis_runs_the_callers_formulas():
    # the analysis cache is keyed on model equality, which leaves the
    # formulas out: a copy with other callables shares its law facts but
    # must be evaluated with its own formulas
    model, x = parse_model("cexp"), 0.3
    calls = {"cgf": 0, "cgf_grad": 0, "cgf_int": 0}

    def counting(name):
        fn = getattr(model, name)

        def wrapped(u):
            calls[name] += 1
            return fn(u)
        return wrapped

    copy = dataclasses.replace(model, **{name: counting(name) for name in calls})
    assert copy == model
    for route in (i_f_conjugate, i_f_explicit, minimizer):
        want = route(model, TENT, x)        # warms the cache with the original
        calls.update(dict.fromkeys(calls, 0))
        got = route(copy, TENT, x)
        assert sum(calls.values()) > 0, route.__name__
        if route is minimizer:
            assert np.array_equal(got.slopes, want.slopes) and got.jumps == want.jumps
        else:
            assert got == want


def test_conjugate_route_without_a_closed_rate():
    # the edge value is the clamped integral of the closed rate, so without
    # one only x exactly at the edge is refused; other levels are unchanged
    m = parse_model("poisson:rate=1")
    bare = dataclasses.replace(m, id="poisson-bare", closed_rate=None)
    assert i_f_conjugate(bare, ID, 0.3).value == i_f_conjugate(m, ID, 0.3).value
    assert i_f_conjugate(bare, ID, -0.6).value == math.inf
    with pytest.raises(DomainError):
        i_f_conjugate(bare, ID, -0.5)


def _k_only_model():
    # K = -log(1 - u^2) on (-1, 1), stated by K, K' and K'' alone: both edges
    # are open, so the slope range needs no rate_dom
    def on_floats(formula):
        def wrapped(u):
            u = np.asarray(u, dtype=float)
            with np.errstate(all="ignore"):
                out = np.where(np.abs(u) < 1.0, formula(u), np.inf)
            return out if out.ndim else float(out)
        return wrapped

    return CgfModel(id="k-only", domain=DomainInterval(-1.0, 1.0),
                    cgf=on_floats(lambda u: -np.log1p(-u * u)),
                    cgf_grad=on_floats(lambda u: 2.0 * u / (1.0 - u * u)),
                    cgf_hess=on_floats(lambda u: 2.0 * (1.0 + u * u) / (1.0 - u * u) ** 2))


def test_routes_name_the_formula_a_model_leaves_out():
    m = _k_only_model()
    with pytest.raises(DomainError, match="closed_rate"):
        i_f_explicit(m, ID, 0.3)
    with pytest.raises(DomainError, match="rate_grad, rate_hess, rate_dom"):
        variational_rate(m, ID, 0.3)
    # the minimizer reads K' alone: with no rate_dom its slopes go unclipped
    path = minimizer(m, ID, 0.3, tol=1e-4)
    assert pair(ID, path) == pytest.approx(0.3, abs=1e-12)
    assert i_d(path, m) == pytest.approx(i_f_conjugate(m, ID, 0.3).value, abs=1e-6)


def _two_coordinates(spec):
    # two independent coordinates of the law ``spec``: K(u) = K_1(u_1) + K_1(u_2)
    one = parse_model(spec)
    return CgfModel(id=f"two-{spec}", domain=FullSpace(2),
                    cgf=lambda u: np.sum(one.cgf(u), axis=-1), cgf_grad=one.cgf_grad,
                    cgf_hess=lambda u: np.asarray(one.cgf_hess(u))[..., None] * np.eye(2),
                    closed_rate=lambda v: np.sum(one.closed_rate(v), axis=-1))


def test_explicit_route_in_d2_reports_a_failed_solve():
    # x_1 = 0.6 lies past sup E_f' = 1/2 of a sign step under f(t) = t: the
    # conjugate's Newton does not settle there, and the explicit route must
    # say so rather than call the rate infinite
    m = _two_coordinates("rademacher")
    for route in (i_f_conjugate, i_f_explicit):
        with pytest.raises(NonConvergenceError):
            route(m, ID, [0.6, 0.0])
    x = [0.2, -0.1]
    explicit = i_f_explicit(m, ID, x)
    assert explicit.branch == "interior"
    assert explicit.value == pytest.approx(i_f_conjugate(m, ID, x).value, rel=1e-9)


def test_d2_routes_past_and_inside_the_slope_range():
    # f(t) = t: inf E_f' = -1/2 in each coordinate, as a centered Poisson
    # step is at least -1; the coordinates are independent, so I_f is the
    # sum of the one-dimensional rates
    m, poi = _two_coordinates("poisson:rate=1"), parse_model("poisson:rate=1")
    past = [-0.6, 0.0]
    for route in (i_f_conjugate, i_f_explicit):
        res = route(m, ID, past)
        assert res.value == math.inf and res.branch == "infinite"
    with pytest.raises(DomainError):
        minimizer(m, ID, past)
    with pytest.raises(GradientRangeError):
        grad_inverse(kr._e_f_oracle(m, ID), [-1.5, 0.0])
    # (1, 0): the first Newton step overshoots and the line search halves it
    for x in ([-0.4, 0.1], [1.0, 0.0]):
        want = sum(i_f_conjugate(poi, ID, xi).value for xi in x)
        for route in (i_f_conjugate, i_f_explicit):
            res = route(m, ID, x)
            assert res.branch == "interior"
            assert res.value == pytest.approx(want, rel=1e-9), (x, route)
        lam = grad_inverse(kr._e_f_oracle(m, ID), x)
        assert np.allclose(e_f_grad(m, ID, lam), x, rtol=0.0, atol=1e-8)
    x = [-0.4, 0.1]
    path = minimizer(m, ID, x)
    assert np.allclose(pair(ID, path), x, rtol=0.0, atol=1e-14)
    # the 4000-cell grid's discretisation error
    assert i_d(path, m) == pytest.approx(i_f_conjugate(m, ID, x).value, rel=1e-7)


@pytest.mark.parametrize("spec,x", [
    ("rademacher", [0.3, 0.0]), ("rademacher", [0.4, 0.0]), ("rademacher", [0.3, 0.1]),
    ("rademacher", [0.4, 0.1]), ("poisson:rate=1", [2.0, 0.0])])
def test_d2_routes_where_the_last_newton_step_gains_under_an_ulp(spec, x):
    # Newton's last step here raises x.lam - E_f by less than one ulp of the
    # value: the solve stops on its decrement there, and a line search that
    # asked for a strictly larger value would give up.  The coordinates are
    # independent, so I_f is the sum of the one-dimensional rates
    m, one = _two_coordinates(spec), parse_model(spec)
    want = sum(i_f_conjugate(one, ID, xi).value for xi in x)
    for route in (i_f_conjugate, i_f_explicit):
        res = route(m, ID, x)
        assert res.branch == "interior"
        assert res.value == pytest.approx(want, rel=2e-15, abs=0.0), (x, route)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_routes_reject_a_non_finite_level(x):
    # no route prices a level that is not a finite number
    for spec in ("cexp", "gaussian:mu=0,sigma=1"):
        for route in (i_f_conjugate, i_f_explicit, variational_rate, minimizer):
            with pytest.raises(ValueError, match="finite"):
                route(parse_model(spec), ID, x)
    for route in (i_f_conjugate, i_f_explicit, minimizer):
        with pytest.raises(ValueError, match="finite"):
            route(_two_coordinates("poisson:rate=1"), ID, [0.1, x])


def test_minimizer_one_ulp_inside_an_infinite_cap_edge():
    # on 500 cells Phi's slope edge, sum l_i fbar_i, rounds to the level
    # itself, one ulp inside E_f's edge 1/2: no path attains it, and the
    # discrete action there is P(every step at +1)
    m, x = parse_model("rademacher"), 0.49999999999999994
    with pytest.raises(DomainError):
        minimizer(m, ID, x, tol=1e-6)
    assert variational_rate(m, ID, x, pieces=500) == math.log(2.0)


def test_rate_at_an_infinite_cap_edge():
    # x at the slope edge with an infinite tilt cap: the rate is the limit of
    # the clamped integrals, P(every step at the bottom of the support)
    m = parse_model("poisson:rate=1")
    for k, x in ((CONST1, -1.0), (ID, -0.5)):
        res = i_f_explicit(m, k, x)
        assert res.branch == "singular_minus"
        assert res.value == 1.0
        assert i_f_conjugate(m, k, x).value == pytest.approx(1.0, abs=1e-9)


SLOPE_EDGES = [
    ("rademacher", "affine:0,1", -0.5, math.log(2.0)),
    ("rademacher", "affine:0,1", 0.5, math.log(2.0)),
    ("rademacher", "const:1", -1.0, math.log(2.0)),
    ("rademacher", "const:1", 1.0, math.log(2.0)),
    ("poisson:rate=1", "affine:0,1", -0.5, 1.0),
    ("poisson:rate=1", "const:1", -1.0, 1.0),
    ("cexp", "affine:0,1", -0.5, math.inf),
    ("cexp", "const:1", -1.0, math.inf),
    ("synthetic-boundary", "affine:0,1", 7.0 / 30.0, 2.0 / 15.0),
]


@pytest.mark.parametrize("spec,kspec,edge,want", SLOPE_EDGES)
def test_routes_are_identical_at_a_slope_edge(spec, kspec, edge, want):
    # the conjugate route takes the edge value the analysis states (the
    # monotone limit at an infinite cap, the boundary value at a closed
    # one), so it matches the explicit route to the bit, with no search
    m, k = parse_model(spec), parse_kernel(kspec)
    lo, hi = ef_prime_range(m, k)
    x = lo if edge < 0 else hi
    assert x == pytest.approx(edge, abs=1e-15)
    start = time.perf_counter()
    a = i_f_conjugate(m, k, x)
    elapsed = time.perf_counter() - start
    b = i_f_explicit(m, k, x)
    assert a.value == b.value
    assert a.branch == b.branch
    assert a.value == pytest.approx(want, rel=1e-15)
    assert elapsed < 0.01


# -- the two evaluation routes -------------------------------------------------


# 50-digit mpmath values of I_f(x) for f(t) = t, 1e-9 inside a slope edge
# with an infinite cap (lam* ~ 2e4)
NEAR_EDGE = [("rademacher", 0.5 - 1e-9, 0.69310662277263339),
             ("poisson:rate=1", -0.5 + 1e-9, 0.99993675444593557)]


@pytest.mark.parametrize("spec,x,want", NEAR_EDGE)
def test_rate_within_1e9_of_a_slope_edge(spec, x, want):
    m = parse_model(spec)
    assert i_f_conjugate(m, ID, x).value == pytest.approx(want, abs=1e-9)
    # I(K'(lam* t)) leaves its saturated value in a layer at t ~ 1/lam*,
    # which the explicit route's clamp quadrature must resolve
    assert i_f_explicit(m, ID, x).value == pytest.approx(want, abs=1e-9)


def test_routes_near_the_cexp_slope_edge():
    # x = -0.499999, lam* = -999986: a residual in E_f' is multiplied by lam*
    m = parse_model("cexp")
    for route in (i_f_conjugate, i_f_explicit):
        assert route(m, ID, -0.499999).value == pytest.approx(11.815525373597523, abs=1e-9)


def test_explicit_route_stops_where_its_clamp_integrand_is_rounding_noise():
    # 1 ulp inside the edge -1/2, lam* = -1.1e16: K'(lam* t) rounds onto -1,
    # so I(K') jumps between float levels and every quadrature panel splits;
    # the level that outgrows the panel budget raises, in place of one gl32
    # call for 66 million nodes
    start = time.perf_counter()
    with pytest.raises(NonConvergenceError, match="panels"):
        i_f_explicit(parse_model("cexp"), ID, math.nextafter(-0.5, 1.0))
    assert time.perf_counter() - start < 2.0


# -- exact touches at the tilt caps, and open caps far out ---------------------


def test_touch_is_decided_by_the_cap_itself():
    # fl(1/49) * 49 = 0.9999999999999999: at the cap M_plus = fl(1/49) the
    # weight 49 meets the edge 1 of K only because the cap is read as a touch
    cexp, sb = parse_model("cexp"), parse_model("synthetic-boundary")
    flat, ramp = parse_kernel("const:49"), parse_kernel("affine:0,49")
    cap = d_f(cexp, flat).upper
    assert e_f(cexp, flat, cap) == math.inf
    assert math.isfinite(e_f(cexp, flat, math.nextafter(cap, 0.0)))
    assert e_f(cexp, flat, math.nextafter(cap, 1.0)) == math.inf
    assert e_f_grad(cexp, ramp, d_f(cexp, ramp).upper) == math.inf
    assert ef_prime_range(sb, flat)[1] == 49.0
    assert ef_prime_range(sb, ramp)[1] == pytest.approx(49.0 * 7.0 / 30.0, rel=1e-12)


def _mp_rate(forms, x):
    """I_f(x) = x lam - E_f(lam) at E_f'(lam) = x for a tilt lam = 1 - delta
    below the cap 1, solved in mpmath for y = -log(delta); forms(mp, delta)
    gives (E_f, E_f')."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        y = mp.findroot(lambda y: forms(mp, mp.exp(-y))[1] - x, x + 1.5)
        return float(x * (1 - mp.exp(-y)) - forms(mp, mp.exp(-y))[0])


def _mp_cexp_identity(mp, delta):
    # E_f = 1 - lam/2 + delta log(delta) / lam,
    # E_f' = -1/2 - 1/lam - log(delta) / lam^2
    lam = 1 - delta
    return (1 - lam / 2 + delta * mp.log(delta) / lam,
            -0.5 - 1 / lam - mp.log(delta) / lam ** 2)


def _mp_cexp_affine_1_2(mp, delta):
    # E_f = (P(lam) - P(-lam)) / (2 lam) with P = int K, K(u) = -u - log(1 - u)
    lam = 1 - delta
    p_up = lam - lam ** 2 / 2 + delta * mp.log(delta)
    p_down = -lam - lam ** 2 / 2 + (1 + lam) * mp.log(1 + lam)
    ef = (p_up - p_down) / (2 * lam)
    return ef, (-mp.log(delta) - mp.log(1 + lam)) / (2 * lam) - ef / lam


@pytest.mark.parametrize("x", [20.0, 24.0, 26.0, 27.0, 28.25, 29.0, 30.0, 40.0, 60.0, 100.0])
def test_cexp_identity_toward_the_open_cap(x):
    # lam* = 1 - O(e^-x) nears the open cap 1, within an ulp of it from
    # x ~ 36 on, while I_f stays finite.  The conjugate holds to rounding,
    # and so does the explicit route, whose edge layer takes its nodes in
    # v = K'(u): the rounding of lam f next to the edge never enters
    m = parse_model("cexp")
    want = _mp_rate(_mp_cexp_identity, x)
    assert i_f_conjugate(m, ID, x).value == pytest.approx(want, rel=1e-12)
    assert i_f_explicit(m, ID, x).value == pytest.approx(want, rel=1e-12)


def _cexp_mirror():
    """The law of -X, X ~ cexp, from cexp's own formulas: K(-u) on the open
    (-1, inf), whose finite edge is the lower one."""
    c = parse_model("cexp")
    return CgfModel(
        id="cexp-mirror", domain=DomainInterval(-1.0, math.inf),
        cgf=lambda u: c.cgf(-u), cgf_grad=lambda u: -c.cgf_grad(-u),
        cgf_hess=lambda u: c.cgf_hess(-u), cgf_int=lambda u: -c.cgf_int(-u),
        closed_rate=lambda v: c.closed_rate(-v), rate_grad=lambda v: -c.rate_grad(-v),
        rate_hess=lambda v: c.rate_hess(-v), rate_dom=(-math.inf, 1.0))


@pytest.mark.parametrize("kernel", [ID, AFFINE_1_2, TENT])
@pytest.mark.parametrize("route", [i_f_conjugate, i_f_explicit])
def test_the_edge_layer_below_mirrors_the_one_above(route, kernel):
    # I_f of -X at -x is I_f of X at x: the explicit route's layer next to
    # the lower edge -1 takes the mirror of the nodes it takes next to 1
    cexp, mirror = parse_model("cexp"), _cexp_mirror()
    for x in (0.3, 1.0, 3.0, 10.0, 28.5, 40.0):
        want = route(cexp, kernel, x).value
        assert route(mirror, kernel, -x).value == pytest.approx(want, rel=1e-15), x


def test_explicit_route_names_a_missing_rate_hess():
    # the edge layer of a finite domain edge integrates I(v) I''(v) dv; a
    # model with no finite edge never reaches it
    bare = dataclasses.replace(parse_model("cexp"), id="cexp-no-rate-hess", rate_hess=None)
    with pytest.raises(DomainError, match="rate_hess"):
        i_f_explicit(bare, ID, 10.0)
    g = parse_model("gaussian:mu=0,sigma=1")
    no_hess = dataclasses.replace(g, id="gaussian-no-rate-hess", rate_hess=None)
    assert i_f_explicit(no_hess, ID, 1.0).value == i_f_explicit(g, ID, 1.0).value


@pytest.mark.xfail(strict=True, reason="finding (a): x lam - E_f(lam) cancels at |lam| ~ 9e15 "
                                      "one ulp inside cexp's support edge")
@pytest.mark.parametrize("kspec,x", [("const:1", -(1.0 - 2.0 ** -53)),
                                     ("const:-1", 1.0 - 2.0 ** -53)])
def test_conjugate_one_ulp_inside_the_support_edge(kspec, x):
    # on a constant kernel E_f = K, so I_f is the closed I(-(1 - 2^-53))
    m = parse_model("cexp")
    got = i_f_conjugate(m, parse_kernel(kspec), x).value
    assert got == pytest.approx(35.7368005696771, rel=1e-12)


@pytest.mark.xfail(strict=True, reason="finding (e): the explicit route gives +inf one ulp "
                                      "inside cexp x affine:0.5,1's slope edge -1")
def test_explicit_route_one_ulp_inside_the_lower_support_edge():
    x = math.nextafter(-1.0, 0.0)
    assert math.isfinite(i_f_explicit(parse_model("cexp"), parse_kernel("affine:0.5,1"), x).value)


def test_cexp_affine_both_caps_far_out(monkeypatch):
    # lam f = lam (1 - 2t) nears the open edge 1 at t = 0 (lam -> 1) and at
    # t = 1 (lam -> -1); the edge layer costs a bounded number of panels
    nodes = [0]
    gl32 = kr.quad.gl32

    def counting(fn, a, b):
        nodes[0] += 32 * np.size(a)
        return gl32(fn, a, b)

    monkeypatch.setattr(kr.quad, "gl32", counting)
    m = parse_model("cexp")
    want = _mp_rate(_mp_cexp_affine_1_2, 10.0)    # I_f is even: f(1 - t) = -f(t)
    for x in (10.0, -10.0):
        assert i_f_conjugate(m, AFFINE_1_2, x).value == pytest.approx(want, rel=1e-12)
        nodes[0] = 0
        assert i_f_explicit(m, AFFINE_1_2, x).value == pytest.approx(want, rel=1e-12)
        assert nodes[0] < 20_000, (x, nodes[0])


@pytest.mark.parametrize("spec,k", PAIRS)
def test_routes_agree(spec, k):
    m = parse_model(spec)
    for x in x_grid(m, k, count=50):
        a = i_f_conjugate(m, k, float(x))
        b = i_f_explicit(m, k, float(x))
        if math.isinf(a.value) or math.isinf(b.value):
            assert a.value == b.value, (spec, x)
        else:
            assert a.value == pytest.approx(
                b.value, abs=1e-9 * max(1.0, abs(a.value))), (spec, x)


@pytest.mark.parametrize("spec,k", PAIRS)
def test_rate_finite_on_grid(spec, k):
    m = parse_model(spec)
    vals = [i_f_conjugate(m, k, float(x)).value for x in x_grid(m, k, count=25)]
    assert all(math.isfinite(v) for v in vals), spec
    assert all(v >= -1e-12 for v in vals)


@pytest.mark.parametrize("spec,k", PAIRS)
def test_rate_convex_on_grid(spec, k):
    m = parse_model(spec)
    xs = x_grid(m, k, count=21)
    vals = np.asarray([i_f_conjugate(m, k, float(x)).value for x in xs])
    mids = np.asarray([i_f_conjugate(m, k, 0.5 * float(xs[i]) + 0.5 * float(xs[i + 2])).value
                       for i in range(len(xs) - 2)])
    assert np.all(mids <= 0.5 * vals[:-2] + 0.5 * vals[2:] + 1e-9), spec


def test_gaussian_identity_closed_form():
    m = parse_model("gaussian:mu=0,sigma=1")
    for x in np.linspace(-3.0, 3.0, 13):
        want = 1.5 * x * x  # x^2 / (2 * int t^2 dt)
        assert i_f_conjugate(m, ID, float(x)).value == pytest.approx(want, abs=1e-8)
        assert i_f_explicit(m, ID, float(x)).value == pytest.approx(want, abs=1e-8)


def test_gaussian_affine_closed_form():
    m = parse_model("gaussian:mu=0.5,sigma=2")
    k = parse_kernel("affine:0.5,1")
    m2 = k.m2
    for x in (-1.0, 0.5, 2.0):
        want = (x - 0.5 * k.m1) ** 2 / (2.0 * 4.0 * m2)
        assert i_f_conjugate(m, k, x).value == pytest.approx(want, abs=1e-8)


def test_constant_kernel_reduces_to_plain_rate():
    probe = {"gaussian:mu=0,sigma=1": (-1.5, 0.3, 2.0),
             "cexp": (-2.0, 0.5, 3.0),
             "rademacher": (-0.8, 0.2, 0.8),
             "poisson:rate=1": (-0.7, 0.5, 2.5),
             "synthetic-boundary": (-0.3, 0.4, 1.0)}
    for spec, xs in probe.items():
        m = parse_model(spec)
        for x in xs:
            res = i_f_conjugate(m, CONST1, x)
            assert res.value == pytest.approx(m.rate(x), abs=1e-8), (spec, x)


def test_exact_zero_at_center():
    for spec, k in PAIRS:
        m = parse_model(spec)
        center = k.m1 * float(m.mean)
        res = i_f_conjugate(m, k, center)
        assert res.value == 0.0
        assert res.lambda_star == 0.0
        assert res.branch == "interior"
        assert i_f_explicit(m, k, center).value == 0.0


@pytest.mark.parametrize("spec,kernel", [
    ("gaussian:mu=-0.5,sigma=1", "affine:0,1"),
    ("gaussian:mu=0.5,sigma=2", "const:-2"),
    ("cexp", "const:-2"),
])
def test_zero_at_a_negative_center_is_positive(spec, kernel):
    # x 0 - 0 is -0.0 for x <= 0; the CLI would print it as "-0"
    m, k = parse_model(spec), parse_kernel(kernel)
    center = k.m1 * float(m.mean)
    assert center <= 0.0 and math.copysign(1.0, center) < 0
    for route in (i_f_conjugate, i_f_explicit):
        res = route(m, k, center)
        assert (res.value, math.copysign(1.0, res.value)) == (0.0, 1.0), route
        assert (res.branch, res.lambda_star) == ("interior", 0.0)


def test_synthetic_singular_branch():
    m = parse_model("synthetic-boundary")
    a = i_f_conjugate(m, ID, 1.0)
    b = i_f_explicit(m, ID, 1.0)
    assert a.branch == "singular_plus"
    assert b.branch == "singular_plus"
    assert a.value == pytest.approx(0.9, abs=1e-6)
    assert b.value == pytest.approx(0.9, abs=1e-6)
    # past the slope supremum the rate grows linearly at the cap M+
    h = 1e-4
    fd = (i_f_explicit(m, ID, 1.0 + h).value - b.value) / h
    assert fd == pytest.approx(1.0, abs=1e-8)


def test_synthetic_mirrored_singular_branch():
    m = parse_model("synthetic-boundary")
    res = i_f_explicit(m, NEGID, -1.0)
    assert res.branch == "singular_minus"
    assert res.value == pytest.approx(0.9, abs=1e-6)
    h = 1e-4
    fd = (i_f_explicit(m, NEGID, -1.0 - h).value - res.value) / h
    assert fd == pytest.approx(1.0, abs=1e-8)


def test_rademacher_boundary_of_support():
    # with f(t) = t the weighted sum cannot exceed 1/2; at exactly 1/2 the
    # rate is still finite (log 2, every sign forced)
    m = parse_model("rademacher")
    a = i_f_conjugate(m, ID, 0.5)
    b = i_f_explicit(m, ID, 0.5)
    assert a.value == pytest.approx(math.log(2.0), abs=1e-6)
    assert b.value == pytest.approx(math.log(2.0), abs=1e-6)
    assert i_f_conjugate(m, ID, 0.6).value == math.inf
    assert i_f_conjugate(m, ID, 0.6).branch == "infinite"


def test_infinite_below_slope_floor():
    # the slope of E_f is bounded below by -1/2 while lambda is free to run
    # to -inf, so levels under the floor are unreachable at any linear price
    m = parse_model("cexp")
    for route in (i_f_conjugate, i_f_explicit):
        res = route(m, ID, -1.2)
        assert res.value == math.inf
        assert res.branch == "infinite"


def _levels_at_the_edges(m, k):
    """x_grid(10), every finite slope edge of E_f and the float on either side."""
    xs = [float(x) for x in x_grid(m, k, 10)]
    for edge in ef_prime_range(m, k):
        if math.isfinite(edge):
            xs += [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]
    return xs


@pytest.mark.parametrize("spec,k", PAIRS)
def test_every_route_takes_the_branch_of_the_maximisers_side(spec, k):
    m = parse_model(spec)
    oracle = kr._e_f_oracle(m, k)
    for x in _levels_at_the_edges(m, k):
        res = conj.maximiser(oracle, x)
        want = ("infinite" if res.value == math.inf
                else {0: "interior", 1: "singular_plus", -1: "singular_minus"}[res.side])
        for route in (i_f_conjugate, i_f_explicit):
            try:
                assert route(m, k, x).branch == want, (route.__name__, x)
            except NonConvergenceError:
                # 1 ulp inside cexp x identity's edge -1/2 (see above)
                assert (route, spec, k, x) == (i_f_explicit, "cexp", ID, math.nextafter(-0.5, 0.0))
        if res.side == 0:
            assert grad_inverse(oracle, x) == res.argmax
            continue
        with pytest.raises(GradientRangeError) as err:
            grad_inverse(oracle, x)
        # the side an exact comparison with sup E_f' names
        assert err.value.side == ("above" if x >= oracle.grad_range[1] else "below")


# -- variational cross-check -----------------------------------------------------


def test_variational_matches_conjugate():
    cases = [("gaussian:mu=0,sigma=1", ID, (0.4, 1.0, -0.8)),
             ("cexp", CONST1, (0.5, -0.9, 2.0)),
             ("synthetic-boundary", ID, (0.15, -0.5, 1.0)),
             # slope edges with an infinite cap (log 2 and 1), and past them
             ("rademacher", ID, (0.5, 0.6)),
             ("poisson:rate=1", ID, (-0.5, -0.6)),
             # past the slope range at a finite cap: the rest of x is a jump
             ("synthetic-boundary", ID, (1.2,)),
             ("cexp", parse_kernel("affine:1,-2"), (2.0, -2.0))]
    for spec, k, xs in cases:
        m = parse_model(spec)
        for x in xs:
            want = i_f_conjugate(m, k, x).value
            got = variational_rate(m, k, x, pieces=200)
            if math.isinf(want):
                assert got == want, (spec, x)
            else:
                assert got == pytest.approx(want, abs=5e-3), (spec, x)


def test_inner_slopes_contract():
    # I' runs over the domain of K: an open edge and beyond are unreachable
    cexp = parse_model("cexp")
    assert np.array_equal(kr._inner_slopes(cexp, np.array([1.0, 1.5])), [math.inf] * 2)
    # at synthetic's closed edge s = 1, I is affine for v >= 1 = K'(1)
    synth = parse_model("synthetic-boundary")
    assert kr._inner_slopes(synth, np.array([1.0]))[0] == 1.0
    assert kr._inner_slopes(synth, np.array([1.5]))[0] == math.inf
    s = np.sinh(np.linspace(-5.0, 5.0, 200))
    for name in MODEL_FACTORIES:
        m = parse_model(name)
        lo, hi = m.rate_dom
        t = s[(s > m.domain.lower) & (s < m.domain.upper)]
        v = kr._inner_slopes(m, t)
        inside = (v - lo >= 1e-12) & (hi - v >= 1e-12)
        t, v = t[inside], v[inside]
        # 1e-12 relative, or the change in I' over one ulp of v where I' is steep
        bound = 1e-12 * np.abs(t) + m.rate_hess(v) * np.spacing(np.abs(v))
        assert np.all(np.abs(m.rate_grad(v) - t) <= bound), name
        assert inside.sum() >= 100, name


def test_inner_slopes_past_the_float_range():
    # poisson: I'(v) = log(1 + v), so v = e^s - 1 overflows from s ~ 709.8
    m = parse_model("poisson:rate=1")
    v = kr._inner_slopes(m, np.array([709.0, 1e3, 1e66]))
    assert math.isfinite(v[0]) and np.array_equal(v[1:], [math.inf] * 2)


def test_inner_slopes_where_the_grad_saturates():
    # cexp: I'(v) = v / (1 + v) rounds to 1 from v ~ 1e16 up, and the root of
    # I'(v) = 1 - 1e-10 near 1e10 lies where I' is flat to rounding
    cexp = parse_model("cexp")
    s = np.array([1.0 - 1e-10, 0.5])
    want = s / (1.0 - s)
    # from the mean, the solve settles on the saturated root
    assert kr._inner_slopes(cexp, s[:1])[0] == pytest.approx(want[0], rel=1e-5)
    # from a start at 1e20, where I' is 1.0 over the first bisection, it
    # goes on to both roots
    v = kr._inner_slopes(cexp, s, np.full(2, 1e20))
    assert v[0] == pytest.approx(want[0], rel=1e-5) and v[1] == pytest.approx(1.0, rel=1e-12)
    # a start outside the bracket, nan or infinite is replaced by the mean
    starts = np.array([-0.5, np.nan, np.inf])
    assert np.array_equal(kr._inner_slopes(cexp, np.full(3, 0.5), starts),
                          kr._inner_slopes(cexp, np.full(3, 0.5)))


def test_inner_slopes_from_a_start_decades_above_the_root():
    # cexp: I'(v) = v / (1 + v) is 1.0 to rounding over [1e16, 1e300], so the
    # bracket [0, 1e300] is cut on the log scale down to the root 1 instead
    # of being bisected one bit a step
    assert kr._inner_slopes(parse_model("cexp"), np.array([0.5]),
                            np.array([1e300]))[0] == pytest.approx(1.0, rel=1e-12)


PATH_GEOMETRY_CASES = [("gaussian:mu=0,sigma=1", ID, 0.5), ("gaussian:mu=0,sigma=1", ID, 1.0),
                       ("cexp", CONST1, -0.5), ("cexp", CONST1, 0.5), ("cexp", CONST1, 1.5),
                       ("synthetic-boundary", ID, 0.15), ("synthetic-boundary", ID, 0.5)]


def test_variational_inner_solves_continue_from_the_last_tilt():
    # each inner solve starts at the Euler prediction from the last outer
    # tilt, not at the mean: 130 array calls of I' over the variational
    # cases of the path-geometry benchmark, against 210 from the mean
    calls = []
    for spec, kernel, x in PATH_GEOMETRY_CASES:
        model = parse_model(spec)

        def counting(v, grad=model.rate_grad):
            calls.append(1)
            return grad(v)

        got = variational_rate(dataclasses.replace(model, rate_grad=counting), kernel, x)
        assert got == pytest.approx(i_f_conjugate(model, kernel, x).value, abs=5e-3)
    assert len(calls) <= 140


def _variational_counts(model, kernel, x):
    """(value, array calls of I', tilts whose inner solve reached a finite
    slope, array calls on no element) of a cold ``variational_rate``, the
    cache of the discrete dual's law facts emptied first; the scalar
    calls of the starts are left out, and a closed cap where every slope is
    unreachable (a slope-edge check, which makes no call of I') does not
    count as a tilt."""
    calls, empty, tilts = [], [], []
    kr._dual.cache_clear()

    def counting(v, grad=model.rate_grad):
        calls.append(np.ndim(v) > 0)
        empty.append(np.size(v) == 0)
        return grad(v)

    inner = kr._inner_slopes

    def solve(model, s, start=None):
        v = inner(model, s, start)
        tilts.append(bool(np.any(np.isfinite(v))))
        return v

    kr._inner_slopes = solve
    try:
        got = variational_rate(dataclasses.replace(model, rate_grad=counting), kernel, x)
    finally:
        kr._inner_slopes = inner
    return got, sum(calls), sum(tilts), sum(empty)


def test_variational_path_geometry_from_the_one_cell_root():
    # the outer solve starts at the root for one cell with the grid's first
    # two moments: 126 array calls of I' over these cases from nu = 0, 66
    # from it (42 once the inner solves also stop at their rounding floor)
    total = 0
    for spec, kernel, x in PATH_GEOMETRY_CASES:
        model = parse_model(spec)
        got, calls, _, _ = _variational_counts(model, kernel, x)
        assert got == pytest.approx(i_f_conjugate(model, kernel, x).value, abs=5e-3)
        total += calls
    assert total <= 90


@pytest.mark.parametrize("spec,kernel,x", [
    ("cexp", CONST1, -0.5), ("cexp", CONST1, 1.5), ("rademacher", CONST1, 0.3),
    ("poisson:rate=1", CONST1, 0.7),
    # an affine I': the one-cell root is the root of Phi' = x on any kernel
    ("gaussian:mu=0,sigma=1", ID, 1.0), ("gaussian:mu=0,sigma=1", TENT, -0.6),
    ("cexp", CONST1, 0.5)])
def test_variational_starts_at_its_root_where_the_one_cell_root_is_exact(spec, kernel, x):
    # so does its inner solve, from the anchor v* = x / m1, and it settles
    # on its first evaluation as it stops at its rounding floor (2 to 10
    # evaluations from the Euler step off nu = 0)
    model = parse_model(spec)
    got, calls, tilts, empty = _variational_counts(model, kernel, x)
    assert tilts == calls - empty == 1
    assert got == pytest.approx(i_f_conjugate(model, kernel, x).value, abs=5e-3)


@pytest.mark.parametrize("spec,kernel,x", [
    ("poisson:rate=1", ID, 1.0), ("cexp", CONST1, 0.5), ("gaussian:mu=0,sigma=1", TENT, -0.6),
    # lam0 = I'(2) m1 / m2 lies past the open cap 1: the outer start is 0.0
    ("cexp", ID, 1.0)])
def test_variational_solves_its_one_cell_slope_once(spec, kernel, x):
    # the anchor of the inner starts and the outer start read one scalar
    # I'(x / m1) (``conjugate.one_cell_slope``)
    model = parse_model(spec)
    scalar = []

    def counting(v, grad=model.rate_grad):
        scalar.append(np.ndim(v) == 0)
        return grad(v)

    variational_rate(dataclasses.replace(model, rate_grad=counting), kernel, x)
    assert sum(scalar) == 1


def test_variational_makes_no_solve_where_no_slope_is_reachable():
    # the slope edge at cexp x const:1's closed grid cap 1 asks for the one
    # cell's slope at cexp's open edge: unreachable, so no call of I' at all
    model = parse_model("cexp")
    _, calls, tilts, empty = _variational_counts(model, CONST1, 0.5)
    assert empty == 0
    assert tilts == calls - empty == 1


def test_variational_inner_solves_stop_at_their_rounding_floor():
    # poisson x identity at x = 1: four tilts over 200 cells take 28 array
    # calls of I' when each solve walks on through the few ulp where the
    # sign of I'(v) - s is rounding noise, 14 when it stops there and its
    # cells near s* = I'(x / m1) start from the anchor
    model = parse_model("poisson:rate=1")
    got, calls, tilts, _ = _variational_counts(model, ID, 1.0)
    assert tilts == 4 and calls <= 16
    assert got == pytest.approx(i_f_conjugate(model, ID, 1.0).value, abs=5e-3)


@pytest.mark.parametrize("spec,kernel,x", [
    # a zero-mean kernel: m1 = sum w_i rounds to -2.8e-17, and x / m1 lies
    # far outside rate_dom
    ("cexp", parse_kernel("pwl:0:1,1:-1"), 0.3),
    # nu0 = I'(2) m1 / m2 lies just above the open cap 1 (m2 < 1/3)
    ("cexp", ID, 1.0),
    # zero-mean kernels whose m1 sums to +3.5e-18 and -6.9e-18, within its
    # rounding bound: read as a sign, x / m1 lies inside rate_dom
    ("cexp", parse_kernel("pwl:0:1.56,0.25:-1.56,0.5:1.56,0.75:-1.56,1:1.56"), 0.3),
    ("cexp", parse_kernel("pwl:0:2.48,0.5:-2.48,1:2.48"), -0.3)])
def test_variational_falls_back_to_a_start_at_zero(monkeypatch, spec, kernel, x):
    model = parse_model(spec)
    warm = _variational_counts(model, kernel, x)
    monkeypatch.setattr(conj, "_one_atom_start", lambda *args: None)
    assert warm == _variational_counts(model, kernel, x)


def test_atomic_oracle_without_rate_grad_starts_at_zero():
    model = dataclasses.replace(parse_model("cexp"), rate_grad=None)
    dom = conj.tilt_domain(model, 1.0, 0.0)
    oracle = conj.atomic_oracle(model, dom, np.ones(1), np.ones(1))
    assert oracle.start is None
    # the solve of the stated tol (atol = tol max(1, |x|)) from 0.0
    res = conj.maximiser(oracle, 0.5, 1e-10)
    assert (res.argmax, res.residual) == conj.solve_monotone(
        oracle.grad, oracle.hess, 0.5, dom.lower, dom.upper, 0.0, 1e-10)


@pytest.mark.parametrize("kernel,x,bound", [
    (CONST1, 1e3, 20), (CONST1, 1e5, 20),   # 205 and 352 calls from nu = 0
    (ID, 50.0, 80), (ID, 300.0, 80)])       # 320 and 255 calls from nu = 0
def test_variational_far_out_from_the_one_cell_root(kernel, x, bound):
    # on one cell the start is the root itself; on identity it lands near
    # it, where the exponential Phi' from nu = 0 took 10-18 outer steps
    model = parse_model("poisson:rate=1")
    got, calls, _, _ = _variational_counts(model, kernel, x)
    want = i_f_conjugate(model, kernel, x).value
    # a constant kernel's grid is exact
    assert got == pytest.approx(want, rel=1e-9 if kernel is CONST1 else 1e-4)
    assert calls <= bound


def test_one_walk_per_newton_tilt():
    # E_f' and E_f'' at one Newton tilt, and E_f at the root, share one walk,
    # so P is evaluated once per distinct tilt the solve visits
    model = parse_model("cexp")
    seen = []

    def counting(u, p=model.cgf_int):
        seen.append(np.asarray(u, dtype=float).tobytes())
        return p(u)

    copy = dataclasses.replace(model, cgf_int=counting)
    for x in (-0.3, 0.3, 1.0):
        i_f_conjugate(model, TENT, x)       # the cached analysis is shared
        seen.clear()
        got = i_f_conjugate(copy, TENT, x)
        assert got == i_f_conjugate(model, TENT, x)
        assert len(seen) >= 3 and len(set(seen)) == len(seen), x


@pytest.mark.parametrize("x", [100.0, 300.0])
def test_variational_far_out_on_an_exponential_tail(x):
    # the first Newton step on Phi from 0 lands near 3x, far above the root
    # of an exponential Phi', and inner solves there overflow; the solve
    # still settles, on the discretised rate
    m = parse_model("poisson:rate=1")
    want = i_f_conjugate(m, ID, x).value
    assert variational_rate(m, ID, x) == pytest.approx(want, rel=1e-4)


def test_variational_rejects_bad_pieces():
    with pytest.raises(ValueError):
        variational_rate(parse_model("cexp"), CONST1, 0.5, pieces=0)


@pytest.mark.parametrize("pieces", [-3, 2.5, 200.0, "200", None])
def test_variational_rejects_a_count_that_is_not_a_positive_integer(pieces):
    # a float count once ran: pieces = 2.5 gave 1.6
    with pytest.raises(ValueError, match="pieces must be an integer"):
        variational_rate(parse_model("cexp"), CONST1, 0.5, pieces=pieces)


def test_variational_takes_a_numpy_integer_count():
    model = parse_model("cexp")
    assert variational_rate(model, ID, 0.5, pieces=np.int64(50)) == \
        variational_rate(model, ID, 0.5, pieces=50)


@pytest.mark.parametrize("route", [i_f_conjugate, i_f_explicit, minimizer, variational_rate,
                                   e_f, e_f_grad])
@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_routes_reject_bad_tolerances(route, tol):
    # a nan tol ended in NonConvergenceError on three routes, a tol of 0 or
    # -1 ran the minimizer on 4000 cells, and E_f and E_f' (here at lam = 1)
    # returned a value at every such tol
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        route(parse_model("gaussian"), ID, 1.0, tol=tol)


@pytest.mark.parametrize("moment", MOMENTS)
@pytest.mark.parametrize("model,lam", [(parse_model("cexp"), math.nan),
                                       (gaussian(np.zeros(2), cov=np.eye(2)), [0.5, math.nan])])
def test_moments_reject_a_nan_tilt(moment, model, lam):
    # a nan tilt once priced +inf: it lay outside no cap of d_f
    with pytest.raises(ValueError, match="nan"):
        moment(model, ID, lam)


@pytest.mark.parametrize("moment", [e_f, e_f_grad])
def test_moments_at_an_infinite_tilt_past_a_finite_cap(moment):
    # lam = +inf lies past cexp's cap 1, where lam f leaves the domain of K
    assert moment(parse_model("cexp"), ID, math.inf) == math.inf


@pytest.mark.parametrize("lam", [math.inf, -math.inf])
@pytest.mark.parametrize("kernel", ["affine:0,1", "affine:0.5,1", "pwl:0:0,0.5:1,1:0", "const:1"])
@pytest.mark.parametrize("law", sorted(MODEL_FACTORIES))
def test_e_f_at_an_infinite_tilt_is_plus_inf(law, kernel, lam):
    # every catalog law charges both sides of 0, so E_f grows without bound
    # along either ray, past a finite cap and inside an infinite one; the
    # walk once formed lam f = inf * 0 where f = 0, or K(inf) = inf - inf,
    # and returned nan with a RuntimeWarning (an error under pytest)
    assert e_f(parse_model(law), parse_kernel(kernel), lam) == math.inf


@pytest.mark.parametrize("lam", [math.inf, -math.inf])
@pytest.mark.parametrize("kernel", ["affine:0,1", "affine:0.5,1", "pwl:0:0,0.5:1,1:0", "const:1"])
@pytest.mark.parametrize("law", sorted(MODEL_FACTORIES))
def test_e_f_grad_at_an_infinite_tilt_is_its_limit(law, kernel, lam):
    # E_f' is nondecreasing: inside an infinite cap it tends to the slope
    # edge on that side, and past a finite cap lam f leaves the domain; the
    # walk once formed lam f = inf * 0 where f = 0, or K'(inf) = inf / inf,
    # and raised a RuntimeWarning (an error under pytest) or returned nan
    model, k = parse_model(law), parse_kernel(kernel)
    caps, edge = d_f(model, k), ef_prime_range(model, k)[lam > 0]
    inside = caps.lower <= lam <= caps.upper
    assert e_f_grad(model, k, lam) == (edge if inside else math.inf)
    if inside and math.isfinite(edge):
        # E_f' at a far tilt lies close to it
        assert e_f_grad(model, k, math.copysign(1e4, lam)) == pytest.approx(edge, abs=1e-2)


def test_a_diverged_touch_beside_a_rough_piece_sums_to_inf():
    # at lam = 1 the weight 1 at t = 0 touches cexp's open edge 1, where the
    # K' and K'' integrals diverge to +inf; the pieces of tiny f beside it
    # are rough (their brackets are rounding), integrated adaptively, and
    # the sum stays +inf
    model, kernel = parse_model("cexp"), parse_kernel("pwl:0:1,0.5:0.0001,1:0.0002")
    assert e_f_grad(model, kernel, 1.0) == math.inf
    assert kr._e_f_hess(model, kernel, 1.0) == math.inf


# -- the one-atom start of E_f' = x ----------------------------------------------


ROUTES = (i_f_conjugate, i_f_explicit)


def _e_f_grad_counts(model, kernel, xs, route, start=conj._one_atom_start):
    """[(result, E_f' evaluations)] of ``route`` at each level, counted on
    the grad of every E_f oracle the route builds; ``start`` stands in for
    the ``_one_atom_start`` that ``_e_f_oracle`` calls."""
    calls, oracle = [], kr._e_f_oracle

    def counting(model, kernel):
        o = oracle(model, kernel)
        return dataclasses.replace(o, grad=lambda lam, g=o.grad: calls.append(1) or g(lam))

    ef_prime_range(model, kernel)       # the analysis evaluates E_f' at a closed cap
    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kr, "_e_f_oracle", counting)
        mp.setattr(kr, "_one_atom_start", start)
        for x in xs:
            calls.clear()
            out.append((route(model, kernel, float(x)), len(calls)))
    return out


def _no_start(*args):
    return None


@pytest.mark.parametrize("spec,kernel", [
    # E_f = +-K(+-lam) on const:+-1, whose solve starts at its root I'(+-x)
    *((spec, k) for spec in ("cexp", "poisson:rate=1", "rademacher")
      for k in (CONST1, constant(-1.0))),
    # E_f' = m1 mu + m2 sigma^2 lam for a Gaussian law, linear in lam
    *((spec, k) for spec in ("gaussian:mu=0,sigma=1", "gaussian:mu=0.5,sigma=2")
      for k in (CONST1, ID, NEGID, TENT, parse_kernel("affine:0.5,1")))])
@pytest.mark.parametrize("route", ROUTES)
def test_e_f_solve_settles_on_its_first_evaluation(spec, kernel, route):
    # from lam = 0 these took 2 (Gaussian) or 5.6-7.6 evaluations a level
    model = parse_model(spec)
    for res, calls in _e_f_grad_counts(model, kernel, x_grid(model, kernel, 50), route):
        assert res.branch == "interior" and calls == 1, (res.x, calls)


@pytest.mark.parametrize("spec,k", PAIRS)
@pytest.mark.parametrize("route", ROUTES)
def test_e_f_one_atom_start_costs_no_level_more(spec, k, route):
    # each level takes at most the E_f' evaluations it took from lam = 0 and
    # gives the same rate and branch; lam* is pinned by x only to |r| / E_f''
    # (r the residual a solve settles on), which reaches 1.5e-4 relative at
    # rademacher x identity, x = +-0.499999, where E_f'' is 3e-9
    model = parse_model(spec)
    xs = x_grid(model, k, 50)
    warm = _e_f_grad_counts(model, k, xs, route)
    cold = _e_f_grad_counts(model, k, xs, route, start=_no_start)
    for x, (got, calls), (want, calls0) in zip(xs, warm, cold):
        assert calls <= calls0, x
        assert got.branch == want.branch, x
        assert got.value == pytest.approx(want.value, rel=1e-10, abs=0.0), x
        if want.lambda_star is None:
            assert got.lambda_star is None
            continue
        lam, lam0 = got.lambda_star, want.lambda_star
        pinned = sum(abs(float(e_f_grad(model, k, t)) - x) for t in (lam, lam0))
        gap = 2.0 * pinned / float(kr._e_f_hess(model, k, lam0))
        assert abs(lam - lam0) <= 1e-10 * abs(lam0) + gap, x


@pytest.mark.parametrize("model,kernel", [
    # zero-mean kernels: m1 = 0 matches no atom
    (parse_model("cexp"), parse_kernel("affine:1,-2")),
    (parse_model("poisson:rate=1"), parse_kernel("pwl:0:1,1:-1")),
    # no I' to start from
    (dataclasses.replace(parse_model("cexp"), id="cexp-no-rate-grad", rate_grad=None), ID)],
    ids=["cexp-zero-mean", "poisson-zero-mean", "no-rate-grad"])
def test_e_f_solve_falls_back_to_a_start_at_zero(model, kernel):
    assert kr._e_f_oracle(model, kernel).start is None
    xs = x_grid(model, kernel, 12)
    for route in ROUTES:
        assert (_e_f_grad_counts(model, kernel, xs, route)
                == _e_f_grad_counts(model, kernel, xs, route, start=_no_start))


def test_rate_without_a_closed_form_starts_at_its_root():
    # CgfModel.rate's fallback states K's own moments (1, 1): its solve of
    # K' = v starts at I'(v), the root
    model = parse_model("poisson:rate=1")
    calls = []

    def counting(u, grad=model.cgf_grad):
        calls.append(1)
        return grad(u)

    bare = dataclasses.replace(model, id="poisson-bare", closed_rate=None, cgf_grad=counting)
    for v in (-0.9, 0.5, 1e3):
        calls.clear()
        assert bare.rate(v) == pytest.approx(model.rate(v), rel=1e-13)
        assert len(calls) == 1, v


# -- minimizing paths -------------------------------------------------------------


MINIMIZER_INTERIOR = [
    ("gaussian:mu=0,sigma=1", ID, 1.0),
    ("gaussian:mu=0,sigma=1", TENT, -0.6),
    ("cexp", CONST1, 0.5),
    ("rademacher", ID, 0.3),
    ("synthetic-boundary", ID, 0.15),
]


@pytest.mark.parametrize("spec,k,x", MINIMIZER_INTERIOR)
def test_minimizer_interior(spec, k, x):
    m = parse_model(spec)
    path = minimizer(m, k, x)
    want = i_f_conjugate(m, k, x).value
    assert pair(k, path) == pytest.approx(x, abs=1e-8)
    assert i_d(path, m) == pytest.approx(want, abs=1e-6 * max(1.0, want))
    assert path.jumps == ()


SIGNED = parse_kernel("pwl:0:-1,0.3:2,0.6:-0.5,1:0.25")


@pytest.mark.parametrize("spec,k,bound", [
    ("rademacher", ID, 1e-5),
    ("poisson:rate=1", ID, 1e-5),
    # at the x_grid ends lam* ~ 790 and f is steep: the 4000-cell grid's
    # discretisation error is about 9e-5 there
    ("rademacher", SIGNED, 2e-4),
])
def test_minimizer_action_is_finite_up_to_the_slope_edges(spec, k, bound):
    # near a slope edge with an infinite cap many cell averages of K' sit on
    # the support edge; closing the pairing gap along the tilt keeps them
    # there, so the action stays finite and near I_f
    m = parse_model(spec)
    for x in x_grid(m, k, 30):
        path = minimizer(m, k, float(x))
        want = i_f_conjugate(m, k, float(x)).value
        assert pair(k, path) == pytest.approx(x, abs=1e-8), x
        assert i_d(path, m) == pytest.approx(want, abs=bound * max(1.0, want)), x


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_minimizer_pairs_next_to_a_slope_edge_with_sign_changes(side):
    # f changes sign inside three pieces; with those roots on the grid each
    # cell holds one sign of f, so the grid's pairing runs to the stated
    # slope edge and 1e-9 inside it is reached
    m = parse_model("rademacher")
    lo, hi = ef_prime_range(m, SIGNED)
    x = hi - 1e-9 if side > 0 else lo + 1e-9
    grid = kr._refined_grid(SIGNED, 4000)
    fv = SIGNED.eval(grid)
    assert np.all(fv[:-1] * fv[1:] >= -1e-15)
    path = minimizer(m, SIGNED, x)
    assert pair(SIGNED, path) == pytest.approx(x, abs=1e-8)
    assert i_d(path, m) >= i_f_conjugate(m, SIGNED, x).value


def test_minimizer_where_a_sign_root_rounds_onto_a_piece_end():
    # the root of f = -1 + (1 + 1e-300) t rounds to t = 1: no empty cell
    k = parse_kernel("pwl:0:-1,1:1e-300")
    assert np.all(np.diff(kr._refined_grid(k, 400)) > 0)
    path = minimizer(parse_model("gaussian:mu=0,sigma=1"), k, -0.3)
    assert pair(k, path) == pytest.approx(-0.3, abs=1e-10)


@pytest.mark.parametrize("x", [8.0, 10.0, 20.0, 40.0])
def test_minimizer_pairs_next_to_an_open_cap(x):
    # 1 - lam* ~ e^(-2x) for cexp x identity, but on the grid every cell mean
    # of f lies below 1, so Phi' stays finite up to the cap 1: Phi'(1) =
    # 8.758 on 4000 cells.  Past it the rest of x is a jump at t = 1 priced
    # at the edge, which stands in for the layer of width 1 - lam* there
    m = parse_model("cexp")
    path = minimizer(m, ID, x)
    grid, w = kr._dual(m, ID, 4000, False)[:2]
    edge = float(w @ m.cgf_grad(w / np.diff(grid)))
    assert pair(ID, path) == pytest.approx(x, abs=1e-10 * x)
    assert len(path.jumps) == (x > edge)
    assert 0.0 <= i_d(path, m) - i_f_conjugate(m, ID, x).value <= 1e-4


@pytest.mark.parametrize("gap", [5e-14, 1e-14])
def test_minimizer_where_the_tilt_curvature_underflows(gap):
    # 0.5 - E_f'(lam) ~ pi^2 / (24 lam^2), so lam* ~ 2.8e6 and 5.9e6:
    # f K''(lam f) is subnormal or 0 at every cell midpoint, and the first
    # cell's slope is still short of 1
    m = parse_model("rademacher")
    x = 0.5 - gap
    path = minimizer(m, ID, x)
    assert np.all(np.isfinite(path.slopes))
    assert pair(ID, path) == pytest.approx(x, abs=1e-10)
    assert i_d(path, m) == pytest.approx(i_f_conjugate(m, ID, x).value, abs=1e-5)


# the path cases of the three benchmark workloads
BENCHMARK_PATH_CASES = PATH_GEOMETRY_CASES + [
    ("gaussian:mu=0,sigma=1", ID, 0.5), ("rademacher", CONST1, 0.5),
    ("gaussian:mu=0,sigma=1", parse_kernel("affine:0.5,1"), 1.0), ("poisson:rate=1", ID, 1.0)]
SIGNED_EDGES = ef_prime_range(parse_model("rademacher"), SIGNED)


VECTOR_GAUSSIAN = gaussian(mu=(0.0, 0.0), cov=((1.0, 0.0), (0.0, 1.0)))


def _outcome(route, *args):
    """route(*args), or the type of the ldpkit error it raises."""
    try:
        return route(*args)
    except LdpkitError as err:
        return type(err)


@pytest.mark.parametrize("spec,k,x", (
    MINIMIZER_INTERIOR + BENCHMARK_PATH_CASES + [
        ("cexp", ID, 20.0), ("cexp", ID, 40.0),     # past the grid's slope range at the open cap
        ("synthetic-boundary", ID, 0.5),            # the jump branch
        ("rademacher", ID, 0.7),                    # past the slope edge
        ("synthetic-boundary", PLATEAU, 1.5),       # an undetermined jump site
        # next to a slope edge, where the pairing is flat to rounding over many tilts
        ("rademacher", SIGNED, SIGNED_EDGES[1] - 1e-9),
        ("rademacher", SIGNED, SIGNED_EDGES[0] + 1e-9),
        (VECTOR_GAUSSIAN, ID, (1.0, 0.5)), (VECTOR_GAUSSIAN, PLATEAU, (0.4, -0.2)),
        (gaussian(mu=(0.3, -0.2), cov=((1.0, 0.1), (0.1, 2.0))), TENT, (1.0, -1.0)),
        ("rademacher", ID, 0.5 - 5e-14), ("rademacher", ID, 0.5 - 1e-14)]))
def test_minimizer_is_the_argmin_of_the_variational_dual(spec, k, x):
    # the minimizer's slopes K'(nu fbar_i) are the argmin of the discrete
    # action that variational_rate prices from I on the same cells: one
    # number from two codes.  i_d moves by lam* per unit of pairing, and a
    # path of floats pairs to x within a few ulp, so the bound is 1e-12
    # relative plus lam* times 4 ulp; next to a slope edge, at lam* = 1.2e4
    # (SIGNED) and 6e4 (rademacher x identity), the two codes measured 2e-12
    # and 1.2e-11 relative apart.  The minimizer raises DomainError where the
    # number is infinite, and AmbiguityError where it is finite but the jump
    # site is not determined
    model = parse_model(spec) if isinstance(spec, str) else spec
    path = _outcome(minimizer, model, k, x)
    want = variational_rate(model, k, x, pieces=4000, tol=1e-12)
    if isinstance(path, type):
        assert path is (DomainError if want == math.inf else AmbiguityError)
        return
    ulps = 4 * kr._EPS * max(1.0, float(np.max(np.abs(x))))
    lam = np.linalg.norm(i_f_conjugate(model, k, x).lambda_star)
    assert abs(i_d(path, model) - want) <= 1e-12 * want + lam * ulps
    # the path merges cells of equal slope: pair its slopes on the grid's cells
    grid = kr._refined_grid(k, 4000)
    slopes = np.asarray(path.slopes)[np.searchsorted(path.grid, grid[:-1], side="right") - 1]
    paired = k.integrals(grid) @ slopes + sum(
        v * float(k.eval(np.array([t]))[0]) for t, v in path.jumps)
    assert np.all(np.abs(paired - x) <= ulps)


def _fine_walks(monkeypatch, model, kernel, x):
    """(the minimizer's path, its walks of a grid of more than 100 nodes)."""
    ef_prime_range(model, kernel)
    fine, walk = [], kr._walk

    def counting(model, kernel, lam, values):
        fine.append(len(values) > 100)
        return walk(model, kernel, lam, values)

    monkeypatch.setattr(kr, "_walk", counting)
    return minimizer(model, kernel, x), sum(fine)


@pytest.mark.parametrize("spec,k,x,bound", [
    ("cexp", CONST1, 0.5, 0),
    ("rademacher", CONST1, 0.5, 0),
    ("poisson:rate=1", ID, 1.0, 0),
])
def test_minimizer_walks_the_fine_grid_a_few_times(monkeypatch, spec, k, x, bound):
    # the slopes are K'(nu fbar_i) at the grid's cell means: the minimizer
    # walks no grid of cells, only E_f's analysis walks the kernel's nodes
    assert _fine_walks(monkeypatch, parse_model(spec), k, x)[1] <= bound


@pytest.mark.parametrize("spec,c,x", [
    ("cexp", 1.0, 0.5), ("cexp", -1.0, -0.3), ("rademacher", 1.0, 0.5),
    ("poisson:rate=1", -1.0, 0.4), ("gaussian:mu=0,sigma=1", 1.0, 1.0)])
def test_constant_kernel_minimizer_is_one_cell_at_the_conjugate_tilt(monkeypatch, spec, c, x):
    model, k = parse_model(spec), constant(c)
    path, fine = _fine_walks(monkeypatch, model, k, x)
    assert fine == 0
    assert path.grid == (0.0, 1.0) and path.jumps == ()
    lam = i_f_conjugate(model, k, x).lambda_star
    assert path.slopes[0] == pytest.approx(float(model.cgf_grad(lam * c)), rel=1e-12)
    assert pair(k, path) == pytest.approx(x, rel=1e-14)


@pytest.mark.parametrize("spec,total,cells", [
    ("const:1", 4000, [1]), ("const:-1", 400, [1]),
    # the ramps keep round(total * length) cells, the plateau one
    (PLATEAU.describe(), 4000, [1000, 1, 1000]),
    ("pwl:0:0,0.2:1,0.7:1,1:-0.5", 400, [80, 1, 80, 40]),   # a root at t = 0.9
    ("pwl:0:2,0.5:2,1:2", 4000, [1, 1]),
])
def test_refined_grid_gives_a_flat_piece_one_cell(spec, total, cells):
    k = parse_kernel(spec)
    grid = kr._refined_grid(k, total)
    pieces = [(a, b) for a, b, _, _ in kr._sign_pieces(k)]
    ends = np.searchsorted(grid, [b for _, b in pieces])
    assert grid[ends].tolist() == [b for _, b in pieces]
    assert np.diff(np.concatenate(([0], ends))).tolist() == cells


def test_grid_cache_is_read_only_and_changes_no_answer():
    m = parse_model("poisson:rate=1")
    for array in kr._dual(m, PLATEAU, 4000, False)[:4]:
        with pytest.raises(ValueError):
            array[0] = 1.0

    def paths(clear):
        out = []
        for k, x in ((PLATEAU, 0.3), (ID, 1.0), (CONST1, 0.5)):
            if clear:
                kr._dual.cache_clear()
            p = minimizer(m, k, x)
            out.append((p.grid, p.slopes, p.jumps))
        return out

    cold = paths(clear=True)
    paths(clear=False)
    hits = kr._dual.cache_info().hits
    assert paths(clear=False) == cold
    assert kr._dual.cache_info().hits == hits + 3


# -- the cache of the discrete dual's law facts -------------------------------------

DUAL_CACHE_CASES = [
    ("synthetic-boundary", ID, (0.05, 0.15, 0.5)),      # a closed cap: Phi' solved there
    ("cexp", ID, (-0.3, 0.5, 1.0, 20.0)),               # an open cap, and past its edge
    # both caps finite, and m1 within its rounding bound
    ("cexp", parse_kernel("pwl:0:1.56,0.25:-1.56,0.5:1.56,0.75:-1.56,1:1.56"), (-0.3, 0.3)),
    ("poisson:rate=1", ID, (-0.4, 1.0, 3.0)),
    (VECTOR_GAUSSIAN, ID, ((1.0, 0.5), (-0.3, 0.2))),
    # levels whose value moves in its last bit with the start of the inner
    # solves, as when the cap's solve ran from a level's anchor
    ("synthetic-boundary", parse_kernel("pwl:0:1.56,0.25:-1.56,0.5:1.56,0.75:-1.56,1:1.56"),
     (-0.3333333333333335, 0.3)),
    ("cexp", parse_kernel("affine:1,-2"), (-3.0, 1.0))]


def _dual_answers(model, kernel, xs, cold):
    """[(grid, slopes, jumps, variational_rate)] at each level, the cache of
    the dual's law facts emptied before every call where ``cold``."""
    out = []
    for x in xs:
        if cold:
            kr._dual.cache_clear()
        path = minimizer(model, kernel, x)
        if cold:
            kr._dual.cache_clear()
        value = variational_rate(model, kernel, x)
        out.append((path.grid, np.asarray(path.slopes).tobytes(), path.jumps, value))
    return out


@pytest.mark.parametrize("spec,kernel,xs", DUAL_CACHE_CASES)
def test_dual_cache_changes_no_answer(spec, kernel, xs):
    # the cache holds law facts only, the I-side cap solved from the mean,
    # so no answer depends on whether, or at which level, it was filled
    model = spec if isinstance(spec, CgfModel) else parse_model(spec)
    cold = _dual_answers(model, kernel, xs, cold=True)
    for order in (1, -1):
        kr._dual.cache_clear()
        assert _dual_answers(model, kernel, xs[::order], cold=False)[::order] == cold
        assert _dual_answers(model, kernel, xs[::order], cold=False)[::order] == cold


def test_dual_cache_is_read_only_and_keeps_no_formula():
    model = parse_model("synthetic-boundary")
    kr._dual.cache_clear()
    want = variational_rate(model, ID, 0.15), minimizer(model, ID, 0.15)     # warm
    grid, w, lens, fbar, _, facts = kr._dual(model, ID, 200, True)
    for array in (grid, w, lens, fbar):
        with pytest.raises(ValueError):
            array[0] = 1.0
    assert all(not callable(fact) for fact in facts)
    calls = []

    def counting(v, grad=model.rate_grad):
        calls.append(1)
        return grad(v)

    def counting_k(u, grad=model.cgf_grad):
        calls.append(2)
        return grad(u)

    copy = dataclasses.replace(model, rate_grad=counting, cgf_grad=counting_k)
    assert variational_rate(copy, ID, 0.15) == want[0]
    path = minimizer(copy, ID, 0.15)
    assert np.array_equal(path.slopes, want[1].slopes)
    assert 1 in calls and 2 in calls


def test_dual_cache_drops_the_cap_solve():
    # synthetic-boundary x identity has the closed grid cap 1, where a cold
    # call solves the 200 inner slopes of Phi'(1); a warm one reads it
    model = parse_model("synthetic-boundary")
    kr._dual.cache_clear()
    counts = []
    for _ in range(2):
        calls = []

        def counting(v, grad=model.rate_grad):
            calls.append(np.ndim(v) > 0)
            return grad(v)

        got = variational_rate(dataclasses.replace(model, rate_grad=counting), ID, 0.15)
        counts.append(sum(calls))
    assert counts[1] < counts[0]
    assert got == pytest.approx(i_f_conjugate(model, ID, 0.15).value, abs=5e-3)


@pytest.mark.parametrize("spec,k,x", [
    ("cexp", CONST1, 0.9), ("poisson:rate=1", CONST1, 3.0), ("cexp", PLATEAU, 0.9),
    ("poisson:rate=1", PLATEAU, 0.3), ("rademacher", PLATEAU, -0.4)])
def test_variational_rate_on_flat_pieces_matches_conjugate(spec, k, x):
    m = parse_model(spec)
    want = i_f_conjugate(m, k, x).value
    assert variational_rate(m, k, x) == pytest.approx(want, abs=5e-3)
    if k is CONST1:     # one cell: the variational dual is E_f itself
        assert variational_rate(m, k, x) == pytest.approx(want, rel=1e-12)


def _cap_jump(model, kernel, x, cap, continuous):
    """The minimizer's path at x past the slope edge at ``cap``: its slopes
    are K'(cap fbar_i) on the N = 4000 cells, and it jumps once, at t = 1,
    by the rest of x, x - sum_i w_i K'(cap fbar_i), which lies within
    0.07 N^(-3/2) of the ``continuous`` jump, x minus E_f' at the cap."""
    path = minimizer(model, kernel, x)
    grid, w = kr._dual(model, kernel, 4000, False)[:2]
    slopes = model.cgf_grad(cap * w / np.diff(grid))
    assert np.array_equal(path.slopes, slopes)
    ((tau, val),) = path.jumps
    assert tau == 1.0
    assert abs(val * kernel.values[-1] - (x - float(w @ slopes))) <= 1e-15
    assert abs(val - continuous) <= 0.07 * 4000 ** -1.5
    return path


@pytest.mark.parametrize("spec,k,x", [("cexp", ID, 0.3), ("poisson:rate=1", TENT, 0.5),
                                      ("synthetic-boundary", ID, 1.2)])
def test_minimizer_makes_no_cgf_call(spec, k, x):
    # the path reads only the argmax nu of nu x - Phi(nu), found from Phi'
    # and Phi'', so no K call prices a value that nothing reads
    model = parse_model(spec)
    want = minimizer(model, k, x)       # warms the cached analysis
    calls = []
    copy = dataclasses.replace(model, cgf=lambda u: calls.append(u) or model.cgf(u))
    got = minimizer(copy, k, x)
    assert calls == []
    assert np.array_equal(got.slopes, want.slopes) and got.jumps == want.jumps


def test_minimizer_singular_jump():
    # f takes its maximum at the right endpoint
    m = parse_model("synthetic-boundary")
    path = _cap_jump(m, ID, 1.0, 1.0, 1.0 - 7.0 / 30.0)
    assert pair(ID, path) == pytest.approx(1.0, abs=1e-10)
    assert i_d(path, m) == pytest.approx(0.9, abs=1e-6)


def test_minimizer_singular_minus_jump():
    # the mirror of the singular jump: f = -t runs into the closed edge 1 at
    # the lower cap lam = -1, so the path jumps up at t = 1 where f = -1
    m = parse_model("synthetic-boundary")
    path = _cap_jump(m, NEGID, -0.5, -1.0, 0.5 - 7.0 / 30.0)
    assert pair(NEGID, path) == pytest.approx(-0.5, abs=1e-10)
    assert i_d(path, m) == pytest.approx(i_f_conjugate(m, NEGID, -0.5).value, abs=1e-6)


def test_singular_minimizer_keeps_its_jump():
    # sup E_f' = int t (1 - sqrt(1 - t)) dt = 7/30 < 0.5: the path runs at
    # the cap lam = 1 and jumps at t = 1 by 0.5 minus the pairing of its slopes
    m = parse_model("synthetic-boundary")
    # lam = 1 is the closed cap of d_f and f reaches max_plus = 1 only at
    # t = 1, so lam f touches the edge at the last grid point alone
    grid = kr._refined_grid(ID, 4000)
    u, touched = kr._trace(m, ID, 1.0, grid)
    assert np.flatnonzero(touched).tolist() == [len(grid) - 1] and u[-1] == 1.0
    path = _cap_jump(m, ID, 0.5, 1.0, 0.5 - 7.0 / 30.0)
    assert pair(ID, path) == pytest.approx(0.5, abs=1e-10)
    assert i_d(path, m) == pytest.approx(i_f_explicit(m, ID, 0.5).value, abs=1e-6)


def test_minimizer_ambiguous_jump_site():
    m = parse_model("synthetic-boundary")
    hi = ef_prime_range(m, PLATEAU)[1]
    with pytest.raises(AmbiguityError):
        minimizer(m, PLATEAU, hi + 0.5)


def test_minimizer_ambiguous_behind_an_isolated_extremizer():
    # f = 1 at t = 0 and on [0.5, 0.7]: the first extremizer is a point, but
    # the jump could as well sit anywhere on the plateau (f's maximum 1 is
    # attained on exactly those two sets, {0} and [0.5, 0.7])
    m, k = parse_model("synthetic-boundary"), parse_kernel("pwl:0:1,0.2:0,0.5:1,0.7:1,1:0")
    with pytest.raises(AmbiguityError):
        minimizer(m, k, ef_prime_range(m, k)[1] + 0.5)


def test_minimizer_perturbations_cost_more():
    m = parse_model("gaussian:mu=0,sigma=1")
    x = 0.8
    path = minimizer(m, ID, x)
    base = i_d(path, m)
    rng = np.random.default_rng(5)
    grid = np.asarray(path.grid)
    w = np.asarray([ID.integral(a, b) for a, b in zip(grid, grid[1:])])
    slopes = np.asarray([s[0] if isinstance(s, tuple) else s for s in path.slopes])
    from ldpkit import CadlagPath
    for _ in range(10):
        bump = rng.normal(size=slopes.size)
        bump -= w * float(w @ bump) / float(w @ w)  # keep the pairing fixed
        cand = CadlagPath(1, path.grid, tuple((slopes + 0.3 * bump).tolist()),
                          path.jumps)
        assert pair(ID, cand) == pytest.approx(x, abs=1e-8)
        assert i_d(cand, m) > base + 1e-10


# -- multivariate ------------------------------------------------------------------


def test_vector_gaussian_closed_form():
    m = gaussian(mu=(0.0, 0.0), cov=((1.0, 0.0), (0.0, 1.0)))
    x = np.asarray([1.0, 0.5])
    want = float(x @ x) / (2.0 * ID.m2)  # 1.25 * 1.5 = 1.875
    res = i_f_conjugate(m, ID, x)
    assert res.value == pytest.approx(1.875, abs=1e-7)
    assert res.value == pytest.approx(want, abs=1e-7)
    assert np.allclose(res.lambda_star, 3.0 * x, atol=1e-6)


@pytest.mark.parametrize("mu,cov,x,want", [
    # the closed form |x|^2 / (2 m2) for the standard Gaussian
    ((0.0, 0.0), ((1.0, 0.0), (0.0, 1.0)), (1.0, 0.5), 1.875),
    ((0.3, -0.2), ((1.0, 0.1), (0.1, 2.0)), (1.0, -1.0), 1.81507537688442),
])
def test_vector_gaussian_explicit_route(mu, cov, x, want):
    m = gaussian(mu=mu, cov=cov)
    x = np.asarray(x)
    res = i_f_explicit(m, ID, x)
    assert res.branch == "interior"
    assert res.value == pytest.approx(i_f_conjugate(m, ID, x).value, abs=1e-9)
    assert res.value == pytest.approx(want, abs=1e-9)


def test_vector_slope_range_is_the_whole_space():
    # a full-space law in d > 1 gives E_f' no slope edge and d_f no cap
    m = gaussian(mu=(0.0, 0.0), cov=((1.0, 0.0), (0.0, 1.0)))
    assert ef_prime_range(m, ID) == (-math.inf, math.inf)
    assert m_plus_minus(m, ID) == (math.inf, math.inf)
    res = i_f_conjugate(m, ID, [1.0, 0.5])
    assert (res.inf_ef_prime, res.sup_ef_prime) == ef_prime_range(m, ID)


def test_vector_gaussian_minimizer():
    m = gaussian(mu=(0.0, 0.0), cov=((1.0, 0.0), (0.0, 1.0)))
    x = np.asarray([1.0, 0.5])
    path = minimizer(m, ID, x)
    assert np.allclose(pair(ID, path), x, atol=1e-8)
    assert i_d(path, m) == pytest.approx(1.875, abs=1e-5)


def test_vector_gaussian_minimizer_on_a_plateau():
    # I_f(x) = x' cov^-1 x / (2 int f^2), int f^2 = 2/3; the plateau is one cell
    m = gaussian(mu=(0.0, 0.0), cov=((1.0, 0.0), (0.0, 1.0)))
    x = np.asarray([0.4, -0.2])
    path = minimizer(m, PLATEAU, x)
    assert [0.25, 0.75] == [t for t in path.grid if 0.25 <= t <= 0.75]
    assert np.allclose(pair(PLATEAU, path), x, rtol=0.0, atol=1e-12)
    assert i_d(path, m) == pytest.approx(0.15, abs=1e-7)


def test_vector_center_is_exact_zero():
    m = gaussian(mu=(0.3, -0.2), cov=((1.0, 0.1), (0.1, 2.0)))
    center = ID.m1 * np.asarray([0.3, -0.2])
    res = i_f_conjugate(m, ID, center)
    assert res.value == 0.0
    assert np.all(np.asarray(res.lambda_star) == 0.0)


def test_vector_variational():
    m = gaussian(mu=(0.0, 0.0), cov=((1.0, 0.0), (0.0, 1.0)))
    x = np.asarray([1.0, 0.5])
    got = variational_rate(m, ID, x, pieces=60)
    assert got == pytest.approx(1.875, abs=5e-3)
    m = gaussian(mu=(0.0, 0.0), cov=((1.0, 0.6), (0.6, 2.0)))
    x = np.asarray([0.3, -0.2])
    got = variational_rate(m, TENT, x, pieces=60)
    assert got == pytest.approx(i_f_conjugate(m, TENT, x).value, abs=5e-3)
    # I is quadratic: one Newton step meets each inner root to rounding, and
    # the solve settles there rather than waiting for a step below one ulp
    m = gaussian(mu=(0.2, -0.4), cov=((2.0, 0.5), (0.5, 1.0)))
    x = np.asarray([-2.0, 1.5])
    want = i_f_conjugate(m, ID, x).value
    assert variational_rate(m, ID, x, pieces=200) == pytest.approx(want, rel=1e-5)
    assert variational_rate(m, ID, x, pieces=4000) == pytest.approx(want, rel=1e-7)
    # a mean large against the spread: floats place v in steps of ulp(1), the
    # residual moves in steps of 100 ulp(1), and no step lands it within
    # the rounding of a target below about 25, so Newton staying put settles
    for m, x in [(gaussian(mu=(1.0, 1.0), cov=((0.01, 0.0), (0.0, 0.01))), (0.52, 0.49)),
                 (gaussian(mu=(100.0, 0.0), cov=((1.0, 0.0), (0.0, 1.0))), (50.3, 0.2))]:
        x = np.asarray(x)
        got = variational_rate(m, ID, x, pieces=200)
        assert got == pytest.approx(i_f_conjugate(m, ID, x).value, abs=5e-3)


@pytest.mark.parametrize("x", [(1e7, 0.0), (1e9, 1e9)])
def test_vector_rate_far_out_is_finite(x):
    # I_f(x) = 3 |x|^2 / 2 reaches 1.5e14 and 3e18 there: a finite rate,
    # however large, is priced as such by both routes and has a path
    m = gaussian(mu=(0.0, 0.0), cov=((1.0, 0.0), (0.0, 1.0)))
    x = np.asarray(x)
    want = 1.5 * float(x @ x)
    for route in (i_f_conjugate, i_f_explicit):
        res = route(m, ID, x)
        assert res.branch == "interior"
        assert res.value == pytest.approx(want, rel=1e-14)
    path = minimizer(m, ID, x)
    assert np.allclose(pair(ID, path), x, rtol=1e-15, atol=0.0)
    assert i_d(path, m) == pytest.approx(want, rel=1e-7)
    # the grid of 200 cells misses by about 1 / (4 * 200^2) relative
    assert variational_rate(m, ID, x) == pytest.approx(want, rel=1e-5)


# -- x grids -----------------------------------------------------------------------


def test_x_grid_respects_finite_rate_region():
    m = parse_model("rademacher")
    xs = x_grid(m, ID, count=50)
    assert xs[0] >= -0.5 - 1e-12
    assert xs[-1] <= 0.5 + 1e-12
    g = parse_model("gaussian:mu=0,sigma=1")
    xs = x_grid(g, ID, count=7, span=2.0)
    assert xs[0] == pytest.approx(-2.0)
    assert xs[-1] == pytest.approx(2.0)
