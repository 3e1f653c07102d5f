"""Importance-sampling estimator: representation identity, unbiasedness,
exact oracles, reproducibility, boundary behavior."""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.stats import binom, gamma, norm, poisson

from ldpkit import montecarlo as mc
from ldpkit import (
    NoSamplerError,
    constant,
    gaussian,
    empirical_rate_curve,
    estimate_tail,
    exact_tail_oracle,
    i_f_conjugate,
    identity,
    pair,
    parse_kernel,
    parse_model,
    sample_traj,
    sample_weighted_sum,
)

ID = identity()
CONST1 = constant(1.0)
MODELS = ("gaussian:mu=0,sigma=1", "cexp", "rademacher", "poisson:rate=1")


# -- trajectory representation --------------------------------------------------------


def test_trajectory_pairing_identity_is_exact():
    tent = parse_kernel("pwl:0:0,0.5:1,1:0")
    for spec in MODELS:
        m = parse_model(spec)
        for seed in range(5):
            for k in (ID, tent):
                w = sample_weighted_sum(m, k, 83, seed=seed)
                path = sample_traj(m, 83, seed=seed)
                assert pair(k, path) == w      # identical, not just close


def test_sampled_variance_matches_formula():
    m = parse_model("gaussian:mu=0,sigma=1")
    n = 30
    draws = np.asarray([sample_weighted_sum(m, ID, n, seed=s)
                        for s in range(2500)])
    want = sum((k / n) ** 2 for k in range(1, n + 1)) / n ** 2
    assert abs(float(np.mean(draws))) <= 4.0 * math.sqrt(want / 2500)
    assert float(np.var(draws)) == pytest.approx(want, rel=0.12)


def test_tilted_samplers_shift_the_mean():
    cases = [("gaussian:mu=0.5,sigma=2", 0.7, 0.5 + 4.0 * 0.7),
             ("cexp", 0.6, 0.6 / 0.4),
             ("rademacher", 0.8, math.tanh(0.8)),
             ("poisson:rate=1", 0.5, math.exp(0.5) - 1.0)]
    for spec, theta, want in cases:
        m = parse_model(spec)
        xs = np.asarray(m.tilt_sample(theta, 40000, seed=11), dtype=float)
        sd = float(np.std(xs)) / math.sqrt(xs.size)
        assert float(np.mean(xs)) == pytest.approx(want, abs=4.0 * sd + 1e-12)


# -- estimator correctness ------------------------------------------------------------


def test_plain_and_tilted_estimates_agree():
    m = parse_model("gaussian:mu=0,sigma=1")
    n, a = 50, 0.2
    plain = estimate_tail(m, ID, n, a, samples=40000, seed=3, lam_override=0.0)
    tilted = estimate_tail(m, ID, n, a, samples=40000, seed=4)
    p1, p2 = math.exp(plain.log_prob), math.exp(tilted.log_prob)
    band = 3.0 * math.hypot(p1 * plain.std_error, p2 * tilted.std_error)
    assert abs(p1 - p2) <= band
    assert plain.tilt == "fixed"
    assert isinstance(tilted.tilt, float)


def test_tilted_matches_gaussian_oracle():
    m = parse_model("gaussian:mu=0,sigma=1")
    for n, a in ((20, 0.4), (60, 0.3)):
        est = estimate_tail(m, ID, n, a, samples=30000, seed=9)
        exact = exact_tail_oracle(m, ID, n, a)
        # compare in log space: rel std error of p is abs error of log p
        assert est.log_prob == pytest.approx(exact, abs=4.0 * est.std_error)
        assert est.std_error < 0.05


def test_rate_gap_shrinks_with_n():
    m = parse_model("gaussian:mu=0,sigma=1")
    a = 0.5
    i_f = i_f_conjugate(m, ID, a).value
    exact_gaps = []
    est_gaps = []
    for n in (8, 32, 128, 512):
        exact_gaps.append(abs(-exact_tail_oracle(m, ID, n, a) / n - i_f))
        est = estimate_tail(m, ID, n, a, samples=20000, seed=21)
        est_gaps.append(abs(est.rate_estimate - i_f))
    assert all(g1 > g2 for g1, g2 in zip(exact_gaps, exact_gaps[1:]))
    inversions = sum(g1 <= g2 for g1, g2 in zip(est_gaps, est_gaps[1:]))
    assert inversions <= 1


def test_finite_n_tilt_inside_the_continuum_edge():
    # the continuum slope edge of rademacher x identity is 1/2, the finite-n
    # one (n + 1) / (2n) = 0.525, so a = 0.5 is an interior level at n = 20
    m = parse_model("rademacher")
    est = estimate_tail(m, ID, 20, 0.5, samples=10_000, seed=0)
    assert isinstance(est.tilt, float)
    assert est.log_prob == pytest.approx(exact_tail_oracle(m, ID, 20, 0.5),
                                         abs=4.0 * est.std_error)
    assert est.std_error > 0.0


@pytest.mark.parametrize("spec", MODELS)
@pytest.mark.parametrize("kernel", ["affine:0,1", "pwl:0:0,0.5:1,1:0"])
def test_tilt_solves_the_finite_n_equation(spec, kernel):
    m = parse_model(spec)
    k = parse_kernel(kernel)
    n, a = 50, 0.25
    lam = estimate_tail(m, k, n, a, samples=100, seed=0).tilt
    fv = np.asarray(k.eval(np.arange(1, n + 1) / n))
    assert float(np.mean(fv * m.grad(lam * fv))) == pytest.approx(a, rel=1e-12)


def test_correlated_gaussian_in_two_dimensions():
    cov = np.array([[1.0, 0.6], [0.6, 2.0]])
    m = gaussian(mu=[0.0, 0.0], cov=cov)
    n, a = 40, 0.3
    l = np.array([1.0, 1.0]) / math.sqrt(2.0)
    est = estimate_tail(m, ID, n, a, direction=[1.0, 1.0], samples=20_000, seed=3)
    fv = np.arange(1, n + 1) / n
    spread = float(l @ cov @ l)
    assert est.tilt == pytest.approx(a / (spread * float(np.mean(fv * fv))), rel=1e-12)
    sd = math.sqrt(spread * float(np.sum(fv * fv))) / n
    exact = float(norm.logsf(a / sd))
    assert est.log_prob == pytest.approx(exact, abs=4.0 * est.std_error)


@pytest.mark.parametrize("n", [50, 200, 10_000, 100_000])
def test_constant_kernel_tails_match_exact_laws(n):
    # at large n, n a = k + 1/2 sits off both lattices and puts the tails
    # near e^-50, within scipy's range
    a = {10_000: 1000.5 / 10_000, 100_000: 3162.5 / 100_000}.get(n, 0.5)
    # the n steps share one weight, so each sample is one convolved draw
    # n (W_n + 1) ~ Gamma(n, 1) for cexp steps; n (W_n + 1) ~ Poisson(n) for
    # centered Poisson(1) steps and (n W_n + n) / 2 ~ Binomial(n, 1/2) for
    # sign steps, both on the integers
    laws = (("cexp", float(gamma.logsf(n * (1.0 + a), n))),
            ("poisson:rate=1", float(poisson.logsf(math.ceil(n * (1.0 + a) - 1e-9) - 1, n))),
            ("rademacher", float(binom.logsf(math.ceil(n * (1.0 + a) / 2.0 - 1e-9) - 1, n, 0.5))))
    for i, (spec, exact) in enumerate(laws):
        m = parse_model(spec)
        t0 = time.perf_counter()
        est = estimate_tail(m, CONST1, n, a, samples=20_000, seed=n + i)
        assert time.perf_counter() - t0 < 0.05
        assert est.log_prob == pytest.approx(exact, abs=4.0 * est.std_error)


@pytest.mark.parametrize("n", [10_000, 100_000])
@pytest.mark.parametrize("kernel", ["pwl:0:0,0.5:1,1:0", "affine:0.5,1"])
def test_gaussian_tails_match_the_normal_law_for_any_kernel(kernel, n):
    # n <l, W_n> is one normal draw per sample, however many distinct weights
    m, k = parse_model("gaussian:mu=0,sigma=1"), parse_kernel(kernel)
    est = estimate_tail(m, k, n, 0.1, samples=10_000, seed=n % 97)
    assert isinstance(est.tilt, float)
    assert est.log_prob == pytest.approx(exact_tail_oracle(m, k, n, 0.1),
                                         abs=4.0 * est.std_error)


def test_repeated_and_distinct_weights_match_sign_enumeration():
    # f = 1 on [0, 1/2] gives ten steps one weight, the other ten their own
    m, k = parse_model("rademacher"), parse_kernel("pwl:0:1,0.5:1,1:0")
    n, a = 20, 0.4
    est = estimate_tail(m, k, n, a, samples=20_000, seed=5)
    assert isinstance(est.tilt, float)
    assert est.log_prob == pytest.approx(exact_tail_oracle(m, k, n, a),
                                         abs=4.0 * est.std_error)


def test_atom_at_the_level_still_hits():
    # S_200 = 100 puts W_n exactly at a = 1/2, and that atom carries most of
    # the tail: dropping it would move log p by about 1, not 4 standard errors
    m = parse_model("rademacher")
    n, a = 200, 0.5
    est = estimate_tail(m, CONST1, n, a, samples=20_000, seed=3)
    with_atom = float(binom.logsf(149, n, 0.5))
    assert est.log_prob == pytest.approx(with_atom, abs=4.0 * est.std_error)
    assert est.log_prob - float(binom.logsf(150, n, 0.5)) > 10.0 * est.std_error


def test_lower_tail_via_direction():
    m = parse_model("gaussian:mu=0,sigma=1")
    up = estimate_tail(m, ID, 40, 0.3, samples=30000, seed=5)
    dn = estimate_tail(m, ID, 40, 0.3, direction=-1.0, samples=30000, seed=6)
    band = 4.0 * math.hypot(up.std_error, dn.std_error)
    assert up.log_prob == pytest.approx(dn.log_prob, abs=band)


# -- exact oracles ---------------------------------------------------------------------


def test_binomial_oracle_matches_scipy():
    m = parse_model("rademacher")
    n = 30
    for a in (0.1, 0.3, 0.5, 0.8, 1.0):
        got = exact_tail_oracle(m, CONST1, n, a)
        m_lo = math.ceil((a * n + n) / 2.0 - 1e-9)
        want = float(binom.logsf(m_lo - 1, n, 0.5))
        assert got == pytest.approx(want, abs=1e-10)
    assert exact_tail_oracle(m, CONST1, n, 1.1) == -math.inf
    assert exact_tail_oracle(m, CONST1, n, -1.0) == 0.0


def test_sign_enumeration_against_direct_count():
    m = parse_model("rademacher")
    n = 20
    fv = np.arange(1, n + 1, dtype=float) / n
    for a in (0.2, 0.35, 0.5):
        got = exact_tail_oracle(m, ID, n, a)
        need = a * n
        count = 0
        for lo in range(0, 2 ** n, 65536):
            masks = np.arange(lo, lo + 65536, dtype=np.int64)
            signs = ((masks[:, None] >> np.arange(n)) & 1) * 2.0 - 1.0
            count += int(np.sum(signs @ fv >= need - 1e-12))
        assert got == pytest.approx(math.log(count) - n * math.log(2.0),
                                    abs=1e-12)


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
def test_estimate_tail_rejects_a_non_finite_level(a):
    # a nan level read as past the upper edge priced the tail exactly
    with pytest.raises(ValueError, match="finite"):
        estimate_tail(parse_model("rademacher"), CONST1, 10, a)


def test_oracle_refuses_unknown_model():
    with pytest.raises(ValueError):
        exact_tail_oracle(parse_model("cexp"), ID, 10, 0.3)


@pytest.mark.parametrize("n", [2.5, 0, -3])
def test_estimate_tail_rejects_a_step_count_that_is_not_a_positive_integer(n):
    # n = 2.5 once sampled and returned an estimate
    with pytest.raises(ValueError, match="n must be an integer"):
        estimate_tail(parse_model("rademacher"), parse_kernel("affine:0,1"), n, 0.2,
                      samples=200)


def test_oracle_rejects_bad_input():
    # a nan level once gave log P = -inf, and n = 0 a ZeroDivisionError
    with pytest.raises(ValueError, match="level a must be finite"):
        exact_tail_oracle(parse_model("rademacher"), ID, 20, math.nan)
    with pytest.raises(ValueError, match="n must be an integer"):
        exact_tail_oracle(parse_model("gaussian:mu=0,sigma=1"), ID, 0, 0.1)
    with pytest.raises(ValueError, match="n must be an integer"):
        exact_tail_oracle(parse_model("rademacher"), CONST1, 2.5, 0.1)


def _sign_count(weights, level):
    """Sign patterns of integer weights whose signed sum is >= level, and
    how many patterns there are, by an exact integer convolution."""
    counts = {0: 1}
    for w in weights:
        nxt = {}
        for s, c in counts.items():
            for t in (s + w, s - w):
                nxt[t] = nxt.get(t, 0) + c
        counts = nxt
    return sum(c for s, c in counts.items() if s >= level), 2 ** len(weights)


def _log_ratio(num, den):
    """log(num / den) to a few ulps, also next to 1."""
    if 2 * num > den:
        return math.log1p(-((den - num) / den))
    return -math.inf if num == 0 else math.log(num / den)


def test_negative_constant_kernel_is_one_binomial_group():
    # W_n = -S_n / n: P(W_n >= a) sums C(n, b) over b <= n (1 - a) / 2; at
    # every level but 0.333 that bound is an integer, an atom at the level
    m, n = parse_model("rademacher"), 200
    for a in (-0.3, 0.1, 0.3, 0.333, 0.5, 0.7):
        top = math.floor(n * (1.0 - a) / 2.0 + 1e-9)
        want = _log_ratio(sum(math.comb(n, b) for b in range(top + 1)), 2 ** n)
        assert exact_tail_oracle(m, constant(-1.0), n, a) == pytest.approx(want, rel=1e-12)
    assert exact_tail_oracle(m, constant(-1.0), n, 1.01) == -math.inf
    assert exact_tail_oracle(m, constant(-1.0), n, -1.0) == 0.0


@pytest.mark.parametrize("c", [1.0, -1.0])
@pytest.mark.parametrize("n, a", [(1000, -0.5), (200, -0.3)])
def test_sign_law_next_to_probability_one(c, n, a):
    # the hits hold nearly all the mass: log P = log1p(-P(miss)), never > 0.
    # S_n = 2B - n, so W_n >= a misses iff B < n (1 + a) / 2 (either sign of
    # c, by symmetry); a plain log of the hit fraction needs > 60 digits
    mpmath = pytest.importorskip("mpmath")
    miss = sum(math.comb(n, b) for b in range(math.ceil(n * (1.0 + a) / 2.0)))
    with mpmath.workdps(40):
        want = float(mpmath.log1p(-mpmath.mpf(miss) / mpmath.mpf(2) ** n))
    got = exact_tail_oracle(parse_model("rademacher"), constant(c), n, a)
    assert got < 0.0
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_grouped_weights_match_an_integer_convolution():
    # f(k/40) = 1 for k <= 20 (one group of 20 steps) and (40 - k) / 20
    # after, so 20 n W_n is a sum of signed integer weights; 2^40 patterns
    m, k, n = parse_model("rademacher"), parse_kernel("pwl:0:1,0.5:1,1:0"), 40
    weights = [20] * 20 + [40 - j for j in range(21, n + 1)]
    for a in (-0.3, 0.1, 0.33, 0.5, 0.7, 0.74):
        want = _log_ratio(*_sign_count(weights, math.ceil(20 * n * a - 1e-9)))
        assert exact_tail_oracle(m, k, n, a) == pytest.approx(want, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("spec, scale, level", [("affine:0,1", 20, 200), ("affine:0,1", 20, 62),
                                                ("pwl:0:1,0.5:1,1:0", 10, 99),
                                                ("pwl:0:1,0.5:1,1:0", 10, 37)])
def test_oracle_counts_an_atom_at_the_level(spec, scale, level):
    # n W_n = level / scale is the sum of some sign patterns exactly, though
    # the float weights sum to it only up to rounding: those patterns count
    m, k, n = parse_model("rademacher"), parse_kernel(spec), 20
    weights = [round(scale * float(f)) for f in k.eval(np.arange(1, n + 1) / n)]
    at, total = _sign_count(weights, level)
    above, _ = _sign_count(weights, level + 1)
    assert at > above
    a = level / scale / n
    assert exact_tail_oracle(m, k, n, a) == pytest.approx(_log_ratio(at, total), rel=1e-13)


def test_oracle_budget():
    # distinct weights: the groups but the largest may have 2^24 sums together
    m = parse_model("rademacher")
    assert math.isfinite(exact_tail_oracle(m, ID, 25, 0.3))
    with pytest.raises(ValueError):
        exact_tail_oracle(m, ID, 26, 0.3)
    # one group of n + 1 sums is within the budget at any n
    assert exact_tail_oracle(m, CONST1, 100_000, 0.01) == pytest.approx(
        float(binom.logsf(50_499, 100_000, 0.5)), rel=1e-9)


# -- the tilt ------------------------------------------------------------------------


@pytest.mark.parametrize("spec", MODELS)
@pytest.mark.parametrize("c,a", [(1.0, 0.3), (1.0, -0.4), (-2.0, 0.9)])
def test_constant_kernel_tilt_starts_at_its_root(spec, c, a):
    # one distinct step weight g: the solve of g K'(lam g) = a starts at its
    # root I'(a / g) / g, and settles on the first grad evaluation (4-10
    # from lam = 0 on cexp, rademacher and poisson)
    model = parse_model(spec)
    calls = []

    def counting(u, grad=model.cgf_grad):
        calls.append(1)
        return grad(u)

    g, w = np.array([c]), np.array([1.0])
    res = mc._projected_tilt(dataclasses.replace(model, cgf_grad=counting), g, w, a)
    assert res.side == 0 and len(calls) <= 2
    assert res.argmax == pytest.approx(float(model.rate_grad(a / c)) / c, rel=1e-13)
    assert res.value == pytest.approx(float(model.rate(a / c)), rel=1e-12)


# -- boundary and degenerate targets ---------------------------------------------------


def test_boundary_level_hits_point_mass():
    m = parse_model("rademacher")
    est = estimate_tail(m, CONST1, 30, 1.0, samples=512, seed=2)
    assert est.tilt == "boundary:above"
    assert est.log_prob == pytest.approx(-30.0 * math.log(2.0), abs=1e-9)
    assert est.std_error <= 1e-8       # every sample hits with equal weight

    # W_n <= -1 only when every centered Poisson(1) step sits at its support
    # edge -1, which has mass e^-1; cexp steps never reach -1
    n = 30
    est = estimate_tail(parse_model("poisson:rate=1"), CONST1, n, 1.0,
                        direction=-1.0, samples=512, seed=2)
    assert (est.log_prob, est.std_error) == (-float(n), 0.0)
    est = estimate_tail(parse_model("cexp"), CONST1, n, 1.0, direction=-1.0,
                        samples=512, seed=2)
    assert (est.log_prob, est.std_error) == (-math.inf, 0.0)


def test_astronomically_small_tail_stays_finite():
    # log P is about -754 here, below the smallest double: the weights are
    # summed in log space, so the estimate must not underflow to -inf
    m = parse_model("gaussian:mu=0,sigma=1")
    est = estimate_tail(m, ID, 2000, 0.5, samples=10_000, seed=0)
    exact = exact_tail_oracle(m, ID, 2000, 0.5)
    assert exact < -700.0
    assert math.isfinite(est.log_prob)
    assert est.log_prob == pytest.approx(exact, abs=4.0 * est.std_error)


def test_level_below_the_mean_is_sampled_plainly():
    # P(S_30 / 30 >= -0.9) for sign steps is 1 - 2^-30 (1 + 30): not rare,
    # so nothing is tilted and the weights stay 1
    m = parse_model("rademacher")
    n, samples = 30, 10_000
    est = estimate_tail(m, CONST1, n, -0.9, samples=samples, seed=2)
    exact = exact_tail_oracle(m, CONST1, n, -0.9)
    assert est.tilt == 0.0
    # standard error of log p-hat for plain sampling at the exact p
    se = math.sqrt(-math.expm1(exact) / (samples * math.exp(exact)))
    assert est.log_prob == pytest.approx(exact, abs=4.0 * max(est.std_error, se))


def test_unreachable_level_gives_zero_mass():
    m = parse_model("rademacher")
    est = estimate_tail(m, CONST1, 30, 1.2, samples=512, seed=2)
    assert est.log_prob == -math.inf
    assert est.std_error == 0.0


def test_argument_validation():
    m = parse_model("gaussian:mu=0,sigma=1")
    with pytest.raises(ValueError):
        estimate_tail(m, ID, 20, 0.3, samples=99)
    with pytest.raises(ValueError):
        estimate_tail(m, ID, 0, 0.3)
    with pytest.raises(ValueError):
        sample_weighted_sum(m, ID, 0, seed=1)
    with pytest.raises(NoSamplerError):
        estimate_tail(parse_model("synthetic-boundary"), ID, 20, 0.3)


# -- reproducibility -------------------------------------------------------------------


def test_estimates_are_reproducible():
    m = parse_model("cexp")
    a = estimate_tail(m, ID, 25, 0.4, samples=2000, seed=7)
    b = estimate_tail(m, ID, 25, 0.4, samples=2000, seed=7)
    assert a == b
    c = estimate_tail(m, ID, 25, 0.4, samples=2000, seed=8)
    assert c.log_prob != a.log_prob

    d1 = estimate_tail(m, ID, 25, 0.4, samples=2000, seed=7)
    d2 = estimate_tail(m, ID, 25, 0.4, samples=2000, seed=7)
    assert d1 == d2


def test_sample_chunks_are_fixed():
    # 10 000 samples are four chunks of 2 500, drawn from Philox counters
    # 0..3 with key = seed, one Binomial(25, p) sign sum per sample; these
    # values pin that layout (and match the linear-space sum of the same
    # weights to the last digit or two)
    m = parse_model("rademacher")
    est = estimate_tail(m, CONST1, 25, 0.5, samples=10_000, seed=7)
    assert est.log_prob == pytest.approx(-4.9235474698647765, rel=1e-14)
    assert est.std_error == pytest.approx(0.014709818612235566, rel=1e-12)
    assert est.log_prob == pytest.approx(exact_tail_oracle(m, CONST1, 25, 0.5),
                                         abs=4.0 * est.std_error)


def test_empirical_rate_curve_rows():
    m = parse_model("gaussian:mu=0,sigma=1")
    rows = empirical_rate_curve(m, ID, levels=(0.3, 0.5), n_list=(10, 20),
                                samples=2000, seed=1)
    assert len(rows) == 4
    for n, a, rate_est, se, i_f, exact in rows:
        assert i_f == pytest.approx(i_f_conjugate(m, ID, a).value, abs=1e-12)
        assert exact == pytest.approx(-exact_tail_oracle(m, ID, n, a) / n,
                                      abs=1e-12)
        assert rate_est > 0.0 and se >= 0.0

    rows = empirical_rate_curve(parse_model("cexp"), ID, levels=(0.4,),
                                n_list=(10,), samples=2000, seed=1)
    assert rows[0][5] is None    # no closed-form tail for this model
