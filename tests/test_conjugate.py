"""Numerical Legendre transform and gradient inversion."""

import dataclasses
import math

import numpy as np
import pytest

from ldpkit import (CgfModel, ConvexOracle, DomainError, DomainInterval,
                    GradientRangeError, grad_inverse, legendre, parse_model)
from ldpkit.cgf import FullSpace


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
    assert not res.at_boundary


def test_cexp_conjugate():
    res = legendre(oracle_of(parse_model("cexp")), 1.0)
    assert res.value == pytest.approx(1.0 - math.log(2.0), abs=1e-10)
    assert res.argmax == pytest.approx(0.5, abs=1e-8)


def test_synthetic_boundary_supremum():
    # K'(1) = 1 < 2, so the supremum sits at the closed endpoint u = 1
    res = legendre(oracle_of(parse_model("synthetic-boundary")), 2.0)
    assert res.value == pytest.approx(2.0 - 1.0 / 3.0, abs=1e-10)
    assert res.at_boundary


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


def test_non_strict_oracle_rejected():
    dom = DomainInterval(-1.0, 1.0)
    oracle = ConvexOracle(domain=dom, eval=lambda u: np.abs(np.asarray(u)),
                          grad=lambda u: np.sign(np.asarray(u)), strict=False)
    with pytest.raises(ValueError):
        legendre(oracle, 0.3)
    with pytest.raises(ValueError):
        grad_inverse(oracle, 0.3)


def test_conjugate_result_consistency():
    oracle = oracle_of(parse_model("gaussian:mu=0.5,sigma=2"))
    res = legendre(oracle, 1.7)
    assert res.argmax is not None and not res.at_boundary
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
    model = CgfModel(id="open-edges", dimension=1,
                     domain=DomainInterval(-1.0, 1.0), mean=0.0,
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
    assert res.value == math.log(2.0) and res.at_boundary
    with pytest.raises(DomainError):
        legendre(stated, -1.0)


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
