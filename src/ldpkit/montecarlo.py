"""Importance-sampling Monte Carlo for kernel-weighted sums.

The estimators target tail probabilities of W_n = (1/n) sum f(k/n) X_k
under an exponential change of measure by the finite-n saddlepoint, the
tilt that puts the mean of W_n at the level for every n.  The steps that
share a kernel weight share one tilted law, so each sample draws their sum
at once from its convolution law: a constant kernel costs one draw per
sample, not n.  A law closed under linear combination draws the whole
projected sum at once (``CgfModel.tilt_draw_sum``): a Gaussian estimate
takes one normal per sample, whatever the kernel.  At or past a finite-n
slope edge with an infinite cap the tail is exact and nothing is sampled.
Estimates are reproducible: the samples are drawn in fixed chunks of
CHUNK, chunk k from the counter-based Philox stream with key = seed and
counter = k, and the chunks are reduced in order, so the result depends
only on the seed and the sample count.  Importance weights are summed in
log space, so tails far below the smallest double (log p of order -1000)
still come out finite.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .cgf import CgfModel, DomainInterval
from .conjugate import _SIDES, ConvexOracle, atomic_oracle, legendre, tilt_domain
from .errors import DomainError, NoSamplerError
from .kernel_rate import i_f_conjugate
from .kernels import Kernel
from .paths import CadlagPath

CHUNK = 2_500   # samples per counter-based stream


@dataclass(frozen=True)
class McEstimate:
    """Tail-probability estimate with its sampling setup.

    tilt is the finite-n saddlepoint lam, or 0.0 (plain sampling) at a
    level at or below the mean; "fixed" when the caller set lam;
    "boundary:above" or "boundary:below" where the tilt's ``side`` is +1 or
    -1: above, lam is a closed cap, or the cap is infinite and log_prob is
    exact, with std_error 0; below, past an edge with an infinite cap,
    log_prob = 0 exactly.
    """

    n: int
    samples: int
    tilt: object
    log_prob: float
    std_error: float

    @property
    def rate_estimate(self) -> float:
        return -self.log_prob / self.n


# ----------------------------------------------------------------------
# Plain sampling of the weighted sum and its trajectory form
# ----------------------------------------------------------------------

def _step_count(n) -> int:
    """n as an int; ValueError where it is not an integer >= 1."""
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    return int(n)


def _step_times(n: int) -> np.ndarray:
    return np.arange(1, n + 1, dtype=float) / n


def _step_groups(kernel: Kernel, n: int):
    """The distinct step weights f(k/n), ascending, and how many steps take each."""
    return np.unique(np.asarray(kernel.eval(_step_times(n)), dtype=float),
                     return_counts=True)


def _nonzero_steps(model: CgfModel, n: int, seed: int):
    """Step times and scaled draws X_k/n, with exact-zero steps removed.

    Zero steps contribute nothing, and the trajectory form drops them as
    empty jumps; removing them here keeps the two summation orders in
    lockstep so the pairing identity holds bit for bit.
    """
    ts = _step_times(n)
    xs = np.asarray(model.sample(n, seed), dtype=float) / n
    if model.dimension == 1:
        keep = xs != 0.0
    else:
        keep = np.any(xs != 0.0, axis=1)
    return ts[keep], xs[keep]


def sample_weighted_sum(model: CgfModel, kernel: Kernel, n: int, seed: int):
    """One draw of (1/n) sum_{k<=n} f(k/n) X_k (vector for d > 1)."""
    n = _step_count(n)
    ts, xs = _nonzero_steps(model, n, seed)
    fv = np.asarray(kernel.eval(ts), dtype=float)
    if model.dimension == 1:
        return float(np.sum(fv * xs))
    return np.sum(fv[:, None] * xs, axis=0)


def sample_traj(model: CgfModel, n: int, seed: int) -> CadlagPath:
    """The same draw as sample_weighted_sum, as a pure-jump path.

    The path jumps by X_k / n at time k/n, so pairing it with the kernel
    reproduces the weighted sum exactly (identical partial products and
    the same summation order).
    """
    n = _step_count(n)
    ts, xs = _nonzero_steps(model, n, seed)
    if model.dimension == 1:
        jumps = tuple((float(t), float(x)) for t, x in zip(ts, xs))
    else:
        jumps = tuple((float(t), tuple(row)) for t, row in zip(ts, xs))
    return CadlagPath(dimension=model.dimension, grid=(0.0, 1.0),
                      slopes=((0.0,) * model.dimension,), jumps=jumps)


# ----------------------------------------------------------------------
# Tilted estimator
# ----------------------------------------------------------------------

def _projected_tilt(model: CgfModel, g: np.ndarray, w: np.ndarray, a: float):
    """Legendre transform at a of the finite-n cumulant of <l, W_n>.

    The distinct step weights are g_j = f_j l, each with mass w_j, its share
    of the n steps, so Lambda_n(lam) = sum_j w_j K(lam g_j) is the exact
    cumulant of <l, W_n> divided by n, and an interior argmax lam (the
    finite-n saddlepoint) is the tilt under which <l, W_n> has mean a; its
    ``side`` is +1 or -1 at or past the upper or lower slope edge of
    Lambda_n.  In d = 1 Lambda_n is the cumulant of the finite measure
    sum_j w_j delta_{g_j} (``conjugate.atomic_oracle``), whose solve starts
    at lam0 = I'(a / m1) m1 / m2, m1 = w.g and m2 = w.g^2: the saddlepoint
    itself for one distinct weight (a constant kernel) or a Gaussian law.
    """
    if model.dimension > 1:
        # full-space domain: every tilt is allowed, and an unreachable level
        # does not settle (NonConvergenceError)
        oracle = ConvexOracle(
            DomainInterval(-math.inf, math.inf), lambda lam: float(w @ model.cgf(lam * g)),
            lambda lam: float(w @ np.einsum("ki,ki->k", g, model.cgf_grad(lam * g))),
            lambda lam: float(w @ np.einsum("ki,kij,kj->k", g, model.cgf_hess(lam * g), g)),
            grad_range=(-math.inf, math.inf))
    else:
        oracle = atomic_oracle(
            model, tilt_domain(model, max(g.max(), 0.0), max(-g.min(), 0.0)), g, w)
    # the tilted mean misses a by at most 1e-13 max(1, |a|)
    return legendre(oracle, a, tol=1e-13)


def estimate_tail(model: CgfModel, kernel: Kernel, n: int, a: float,
                  direction=1.0, samples: int = 10_000, seed: int = 0,
                  lam_override=None) -> McEstimate:
    """Importance-sampling estimate of log P(<l, W_n> >= a).

    The steps are tilted by theta_k = lam f(k/n) l, lam from
    ``_projected_tilt``: the tilted mean of <l, W_n> is a (the cap itself at
    a closed cap), so the weights stay tame.  The c_j steps of one distinct
    weight f_j sum to Y_j, of the c_j-fold convolution of their tilted law,
    and n <l, W_n> = sum_j <f_j l, Y_j> is drawn by one ``tilt_draw_sum``
    call per chunk; the log-normaliser is sum_j c_j K(lam f_j l), and the
    sample has the law of the step-by-step draw.  A level at or below the
    mean is not rare, and a negative lam would make the weights explode, so
    there lam = 0: plain sampling.  At or past a slope edge
    with an infinite cap the answer is exact, with nothing sampled: <l, W_n>
    reaches the upper edge only with every X_k at its support edge b_k, of
    mass exp(-I(b_k)), so log P = -n Lambda_n*(a) (-inf past it); it never
    lies below the lower edge (log P = 0).  lam_override forces a fixed
    tilt multiplier (0 gives the plain estimator).
    """
    if samples < 100:
        raise ValueError("samples must be at least 100")
    n = _step_count(n)
    if not math.isfinite(a):
        raise ValueError(f"level a must be finite, got {a}")
    if model.sampler is None or model.tilted_sampler is None:
        raise NoSamplerError(f"model {model.id} has no tilted sampler")

    dim = model.dimension
    l = np.asarray(direction, dtype=float).reshape(() if dim == 1 else (dim,))
    norm = float(np.linalg.norm(l))
    if norm <= 0 or (dim == 1 and abs(norm - 1.0) > 1e-12):
        raise DomainError("direction must be +-1 in d = 1 and nonzero in d > 1")
    l = l / norm
    fu, copies = _step_groups(kernel, n)
    g = np.multiply.outer(fu, l)               # g_j = f_j l

    if lam_override is not None:
        lam, tag = float(lam_override), "fixed"
    else:
        res = _projected_tilt(model, g, copies / n, a)
        tag = f"boundary:{_SIDES[res.side]}" if res.side else None
        if res.argmax is None:
            log_prob = -n * res.value if res.side > 0 else 0.0
            return McEstimate(n=n, samples=samples, tilt=tag,
                              log_prob=log_prob, std_error=0.0)
        lam = float(res.argmax)
        if lam <= 0.0:
            # a level at or below the mean is not rare: sample it plainly
            lam, tag = 0.0, None

    theta = lam * g                            # per-group tilts
    log_norm_total = float(copies @ model.k(theta))

    # per chunk: log of the sum of hit weights and of their squares
    log_s1 = log_s2 = -math.inf
    for k, start in enumerate(range(0, samples, CHUNK)):
        cnt = min(CHUNK, samples - start)
        rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, k]))
        sums, err = model.tilt_draw_sum(theta, g, rng, cnt, copies)   # n <l, W_n>
        hit = sums / n >= a - err            # an atom exactly at a still hits
        logw = (log_norm_total - lam * sums)[hit]            # score = lam sums
        if logw.size:
            top = logw.max()
            e = np.exp(logw - top)
            log_s1 = np.logaddexp(log_s1, top + math.log(e.sum()))
            log_s2 = np.logaddexp(log_s2, 2.0 * top + math.log(e @ e))

    if math.isfinite(log_s1):
        log_prob = float(log_s1) - math.log(samples)
        # relative variance of one weight: E[w^2] / E[w]^2 - 1
        rel_var = math.expm1(float(log_s2) - 2.0 * float(log_s1) + math.log(samples))
        std_error = math.sqrt(max(rel_var, 0.0) / samples)
    else:
        log_prob = -math.inf
        std_error = 0.0
    return McEstimate(n=n, samples=samples, tilt=(lam if tag is None else tag),
                      log_prob=log_prob, std_error=std_error)


# ----------------------------------------------------------------------
# Exact oracles
# ----------------------------------------------------------------------

def exact_tail_oracle(model: CgfModel, kernel: Kernel, n: int, a: float) -> float:
    """Exact log P(W_n >= a) for the analytically tractable cases.

    Gaussian steps: W_n is normal with mean mu (1/n) sum f(k/n) and
    variance sigma^2 (1/n^2) sum f(k/n)^2, any kernel and any n.
    Sign steps: the c_j steps of weight f_j sum to 2 B_j - c_j with B_j ~
    Binomial(c_j, 1/2), so n W_n = sum_j f_j (2 B_j - c_j) over the nonzero
    weights.  The sums of each half of the groups are enumerated and meet in
    the middle; a sum within (groups + 1) eps sum_j c_j |f_j| of a n, a bound
    on the rounding of the sums and of a n, reaches it.  Any kernel and n
    qualify whose groups but the largest have at most 2^24 sums together: a
    constant kernel at every n, distinct weights up to n = 25.  Every other
    case raises ValueError, as does an n that is not an integer >= 1 or an
    a that is not finite.
    """
    from scipy.special import gammaln, log_ndtr, logsumexp

    n = _step_count(n)
    if not math.isfinite(a):
        raise ValueError(f"level a must be finite, got {a}")
    if model.id.startswith("gaussian") and model.dimension == 1:
        fv = np.asarray(kernel.eval(_step_times(n)), dtype=float)
        mu = float(model.mean_vec[0])
        sig2 = float(model.hessian(0.0))    # K'' is the constant sigma^2
        m = mu * float(np.sum(fv)) / n
        s = math.sqrt(sig2 * float(np.sum(fv * fv))) / n
        if s == 0.0:
            return 0.0 if a <= m else -math.inf
        return float(log_ndtr((m - a) / s))
    if model.id.startswith("rademacher"):
        fu, copies = _step_groups(kernel, n)
        fu, copies = fu[fu != 0.0], copies[fu != 0.0]
        bits = np.log2(copies + 1.0)
        if bits.sum() - bits.max(initial=0.0) <= 24.0:
            sums, logp = [np.zeros(1)] * 2, [np.zeros(1)] * 2
            for j in np.argsort(-copies, kind="stable"):
                # largest group first, each into the half with fewer sums so far
                h = int(sums[1].size <= sums[0].size)
                c, b = copies[j], np.arange(copies[j] + 1)
                sums[h] = np.add.outer(sums[h], fu[j] * (2 * b - c)).ravel()
                logp[h] = np.add.outer(logp[h], gammaln(c + 1) - gammaln(b + 1)
                                       - gammaln(c - b + 1) - c * math.log(2.0)).ravel()
            order = np.argsort(sums[1], kind="stable")
            # over the sorted sums t_i of the second half T: head[i] = log
            # P(T < t_i), tail[i] = log P(T >= t_i)
            head = np.append(-math.inf, np.logaddexp.accumulate(logp[1][order]))
            tail = np.append(np.logaddexp.accumulate(logp[1][order][::-1])[::-1], -math.inf)
            tol = (fu.size + 1) * np.finfo(float).eps * float(copies @ np.abs(fu))
            idx = np.searchsorted(sums[1][order], a * n - sums[0] - tol, side="left")
            hit = float(logsumexp(logp[0] + tail[idx]))
            # past half the mass, 1 - P(miss) keeps the digits that log P(hit) loses;
            # exactly 0.0 when every pair of sums reaches the level
            return hit if hit < -math.log(2.0) else math.log1p(
                -math.exp(float(logsumexp(logp[0] + head[idx])))) + 0.0
    raise ValueError(f"no exact oracle for model {model.id} with this kernel")


# ----------------------------------------------------------------------
# Rate curves
# ----------------------------------------------------------------------

def empirical_rate_curve(model: CgfModel, kernel: Kernel, levels, n_list,
                         samples: int = 10_000, seed: int = 0):
    """Rows (n, a, rate_estimate, std_error, i_f, exact_rate or None)."""
    rows = []
    idx = 0
    for n in n_list:
        for a in levels:
            est = estimate_tail(model, kernel, int(n), float(a),
                                samples=samples, seed=seed + idx)
            i_f = i_f_conjugate(model, kernel, float(a)).value
            try:
                exact = -exact_tail_oracle(model, kernel, int(n), float(a)) / n
            except ValueError:
                exact = None
            rows.append((int(n), float(a), est.rate_estimate, est.std_error,
                         i_f, exact))
            idx += 1
    return rows
