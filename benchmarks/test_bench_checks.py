"""Each correctness check of the benchmark passes the right value and
rejects a perturbed one.  The checks are fed numbers; ldpkit is not run."""

import math

import numpy as np
import pytest
from scipy import stats

import checks as ck


def test_reference_rates_match_closed_forms():
    # Gaussian with f(t) = t: 3 x^2 / 2
    assert ck.reference_rate("gaussian:mu=0,sigma=1", "affine:0,1", 1.0) == pytest.approx(1.5)
    # the Legendre route of the benchmark reproduces a closed form it does not use
    assert ck.legendre_rate("cexp", "const:1", 0.5) == pytest.approx(0.5 - math.log(1.5), rel=1e-9)
    assert ck.legendre_rate("poisson:rate=1", "const:1", 0.5) == pytest.approx(
        1.5 * math.log(1.5) - 0.5, rel=1e-9)
    # synthetic boundary with f(t) = t: E_f(1) = 1/10, so i_f(x) = x - 1/10 past 7/30
    assert ck.legendre_rate("synthetic-boundary", "affine:0,1", 1.0) == pytest.approx(0.9, abs=1e-12)
    assert ck.center("gaussian:mu=0.5,sigma=2", "affine:0.5,1") == 0.5


def test_check_rate_rejects_perturbed_values():
    want = ck.reference_rate("cexp", "affine:0,1", 0.7)
    assert ck.check_rate("p", 0.7, want, want, want) == []
    assert ck.check_rate("p", 0.7, want * (1 + 1e-5), want, want)
    assert ck.check_rate("p", 0.7, want, want * (1 - 1e-5), want)
    assert ck.check_rate("p", 0.7, math.nan, want, want)


def test_check_center_and_curve():
    assert ck.check_center("p", 0.0, 0.0) == []
    assert ck.check_center("p", 0.0, 1e-9)
    xs = np.linspace(-1.0, 2.0, 13)
    ys = 1.5 * xs ** 2
    assert ck.check_curve("p", xs, ys) == []
    bumped = ys.copy()
    bumped[6] += 0.5
    assert ck.check_curve("p", xs, bumped)
    assert ck.check_curve("p", xs, ys - 0.01)


def test_check_path_rejects_pairing_and_action_errors():
    grid, slopes = (0.0, 0.5, 1.0), (1.0, 3.0)
    x = ck.pairing("affine:0,1", grid, slopes, [(1.0, 0.25)])
    assert x == pytest.approx(1.0 * 0.125 + 3.0 * 0.375 + 0.25)
    assert ck.check_path("p", x, x, x, 0.4, 0.4) == []
    assert ck.check_path("p", x, x + 1e-7, x, 0.4, 0.4)
    assert ck.check_path("p", x, x, x - 1e-7, 0.4, 0.4)
    assert ck.check_path("p", x, x, x, 0.4 + 1e-5, 0.4)
    assert ck.check_close("v", 0.4 + 4e-3, 0.4, ck.VARIATIONAL_TOL) == []
    assert ck.check_close("v", 0.4 + 6e-3, 0.4, ck.VARIATIONAL_TOL)


def test_check_triple_rejects_broken_axioms():
    ab, bc, ac = (1.0, 1.0, 2.0), (0.5, 0.5, 1.0), (1.2, 1.2, 2.5)
    zero = (0.0, 0.0, 0.0)
    assert ck.check_triple("t", ab, ab, bc, ac, zero) == []
    assert ck.check_triple("t", ab, (1.0, 1.0 + 1e-6, 2.0), bc, ac, zero)
    assert ck.check_triple("t", ab, ab, bc, ac, (0.0, 1e-6, 0.0))
    assert ck.check_triple("t", ab, ab, bc, (1.2, 1.2, 3.5), zero)


def test_closed_form_metric_checks():
    assert ck.check_two_block("b", 50, 0.02, 0.02) == []
    assert ck.check_two_block("b", 50, 0.02 + 1e-6, 0.02)
    want = 1.0 / (math.pi ** 2 * 16)
    assert ck.check_oscillation("o", 16, 1.04 * want) == []
    assert ck.check_oscillation("o", 16, 1.06 * want)


def test_exact_tails_match_independent_distributions():
    # the n = 2000 Gaussian level the estimator underflows on
    assert ck.exact_log_tail("gaussian:mu=0,sigma=1", "affine:0,1", 2000, 0.5) == \
        pytest.approx(-754.0137, abs=1e-3)
    # Rademacher: brute-force over all sign patterns for a small n
    n = 12
    sums = np.array([bin(m).count("1") * 2 - n for m in range(2 ** n)])
    assert ck.exact_log_tail("rademacher", "const:1", n, 0.5) == pytest.approx(
        math.log(np.mean(sums >= 0.5 * n)), rel=1e-12)
    assert ck.exact_log_tail("poisson:rate=1", "const:1", 200, 0.5) == pytest.approx(
        stats.poisson.logsf(299, 200), rel=1e-9)
    assert ck.exact_log_tail("cexp", "const:1", 200, 0.5) == pytest.approx(
        stats.gamma.logsf(300, 200), rel=1e-9)


def test_check_tail_rejects_misses_and_infinities():
    exact = -20.0
    assert ck.check_tail("c", exact + 0.05, 0.02, exact) == []
    assert ck.check_tail("c", exact + 0.1, 0.02, exact)
    assert ck.check_tail("c", -math.inf, 0.0, exact)
