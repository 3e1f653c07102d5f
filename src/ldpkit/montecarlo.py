"""Importance-sampling Monte Carlo for kernel-weighted sums.

The estimators target tail probabilities of W_n = (1/n) sum f(k/n) X_k
under an exponential change of measure chosen so that the event of
interest sits near the tilted mean.  Estimates are reproducible: the
samples are drawn in fixed chunks of CHUNK, chunk k from the counter-based
Philox stream with key = seed and counter = k, and the chunks are reduced
in order, so the result depends only on the seed and the sample count.
Importance weights are summed in log space, so tails far below the
smallest double (log p of order -1000) still come out finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, log_ndtr, logsumexp

from .cgf import CgfModel
from .conjugate import grad_inverse
from .errors import DomainError, GradientRangeError, NoSamplerError
from .kernel_rate import KernelRateProblem, _problem, i_f_conjugate
from .kernels import Kernel
from .paths import CadlagPath

CHUNK = 2_500   # samples per counter-based stream


@dataclass(frozen=True)
class McEstimate:
    """Tail-probability estimate with its sampling setup.

    tilt is the scalar tilt multiplier when the interior tilt was
    solvable, or a short tag describing the fallback schedule.
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

def _step_times(n: int) -> np.ndarray:
    return np.arange(1, n + 1, dtype=float) / n


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
    if n < 1:
        raise ValueError("n must be positive")
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
    if n < 1:
        raise ValueError("n must be positive")
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

def _projected_tilt(model: CgfModel, kernel: Kernel, a: float, direction):
    """Tilt multiplier lam with d/dlam E_f(lam; l) = a, or the boundary cap.

    Returns (lam, tag) where tag is None for interior solves and a string
    describing the fallback when a sits at or beyond the gradient range.
    """
    problem = _problem(model, kernel)
    if model.dimension == 1:
        try:
            lam = grad_inverse(problem.oracle, a)
            return float(lam), None
        except GradientRangeError as err:
            m_plus, m_minus = problem.m_plus_minus
            cap = m_plus if err.side == "above" else m_minus
            if math.isfinite(cap):
                lam = cap if err.side == "above" else -cap
                # nudge inside so tilted samplers accept the parameter
                lam *= 1.0 - 1e-9
                return float(lam), f"boundary:{err.side}"
            lam = 706.0 if err.side == "above" else -706.0
            return lam, f"boundary:{err.side}"
    # d > 1: scalar tilt along the requested direction
    l = np.asarray(direction, dtype=float)

    def slope(lam: float) -> float:
        return float(np.dot(e_f_grad_vec(problem, lam * l_unit(l)), l))

    lo, hi = -1.0, 1.0
    for _ in range(200):
        if slope(hi * 1.0) >= a:
            break
        hi *= 2.0
    for _ in range(200):
        if slope(lo) <= a:
            break
        lo *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if slope(mid) < a:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), None


def l_unit(l: np.ndarray) -> np.ndarray:
    nrm = float(np.linalg.norm(l))
    if nrm <= 0:
        raise DomainError("direction must be nonzero")
    return l / nrm


def e_f_grad_vec(problem: KernelRateProblem, lam_vec: np.ndarray) -> np.ndarray:
    from .kernel_rate import e_f_grad

    return np.asarray(e_f_grad(problem.model, problem.kernel, lam_vec))


def _tilted_batch(model, theta, rng, count):
    """Draw count samples for every per-step tilt in theta; (n, count)."""
    n = len(theta)
    out = np.empty((n, count), dtype=float)
    for k in range(n):
        out[k, :] = model.tilt_draw(float(theta[k]), rng, count)
    return out


def estimate_tail(model: CgfModel, kernel: Kernel, n: int, a: float,
                  direction=1.0, samples: int = 10_000, seed: int = 0,
                  lam_override=None) -> McEstimate:
    """Importance-sampling estimate of log P(<l, W_n> >= a).

    Per-step tilts theta_k = lam f(k/n) l keep the tilted mean of the
    weighted sum at the target level, so the event has order-one tilted
    probability and the weights stay tame.  lam_override forces a fixed
    tilt multiplier (0 gives the plain estimator).
    """
    if samples < 100:
        raise ValueError("samples must be at least 100")
    if n < 1:
        raise ValueError("n must be positive")
    if model.sampler is None or model.tilted_sampler is None:
        raise NoSamplerError(f"model {model.id} has no tilted sampler")

    if model.dimension == 1:
        l_vec = None
        sgn = float(np.asarray(direction).reshape(()))
        if abs(abs(sgn) - 1.0) > 1e-12:
            raise DomainError("direction must be a unit scalar for d = 1")
        if sgn < 0:
            # lower tail of f is the upper tail of -f
            kernel = Kernel(kernel.breakpoints,
                            tuple(-v for v in kernel.values))
    else:
        l_vec = l_unit(np.asarray(direction, dtype=float))

    if lam_override is not None:
        lam, tag = float(lam_override), "fixed"
    else:
        lam, tag = _projected_tilt(model, kernel, a,
                                   direction if l_vec is None else l_vec)

    ts = _step_times(n)
    fv = np.asarray(kernel.eval(ts), dtype=float)
    if model.dimension == 1:
        theta = lam * fv                       # per-step scalar tilts
        log_norm = np.empty(n)
        for k in range(n):
            log_norm[k] = model.k(float(theta[k]))
    else:
        theta = lam * fv[:, None] * l_vec[None, :]
        log_norm = np.array([model.k(theta[k]) for k in range(n)])
    log_norm_total = float(np.sum(log_norm))

    # per chunk: log of the sum of hit weights and of their squares
    log_s1 = log_s2 = -math.inf
    for k, start in enumerate(range(0, samples, CHUNK)):
        cnt = min(CHUNK, samples - start)
        rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, k]))
        if model.dimension == 1:
            xs = _tilted_batch(model, theta, rng, cnt)     # (n, cnt)
            wsum = np.sum(fv[:, None] * xs, axis=0) / n
            score = np.sum(theta[:, None] * xs, axis=0)
            hit = wsum >= a
        else:
            xs = np.empty((n, cnt, model.dimension))
            for j in range(n):
                xs[j] = model.tilt_draw(theta[j], rng, cnt)
            wsum = np.sum(fv[:, None, None] * xs, axis=0) / n
            score = np.einsum("kci,ki->c", xs, theta)
            hit = wsum @ l_vec >= a
        logw = (log_norm_total - score)[hit]
        if logw.size:
            log_s1 = np.logaddexp(log_s1, logsumexp(logw))
            log_s2 = np.logaddexp(log_s2, logsumexp(2.0 * logw))

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
    Sign steps: binomial tail for constant kernels, and a full
    enumeration of the 2^n sign patterns for n <= 24 otherwise.
    """
    ts = _step_times(n)
    fv = np.asarray(kernel.eval(ts), dtype=float)
    if model.id.startswith("gaussian") and model.dimension == 1:
        mu = float(model.mean_vec[0])
        sig2 = float(model.hessian(0.0))    # K'' is the constant sigma^2
        m = mu * float(np.sum(fv)) / n
        s = math.sqrt(sig2 * float(np.sum(fv * fv))) / n
        if s == 0.0:
            return 0.0 if a <= m else -math.inf
        return float(log_ndtr((m - a) / s))
    if model.id.startswith("rademacher"):
        const = float(fv[0])
        if np.all(fv == const) and const > 0:
            # W_n = const * S_n / n; P(S_n >= t) is a binomial upper tail
            t = a * n / const
            m_lo = math.ceil((t + n) / 2.0 - 1e-9)
            if m_lo > n:
                return -math.inf
            if m_lo <= 0:
                return 0.0
            ks = np.arange(m_lo, n + 1)
            logs = gammaln(n + 1) - gammaln(ks + 1) - gammaln(n - ks + 1)
            return float(logsumexp(logs) - n * math.log(2.0))
        if n <= 24:
            half = n // 2
            rest = n - half
            sa = _all_sign_sums(fv[:half])
            sb = np.sort(_all_sign_sums(fv[half:]))
            need = a * n
            count = 0
            for s in sa:
                # patterns with s + t >= need, tolerating float dust
                idx = np.searchsorted(sb, need - s - 1e-12, side="left")
                count += sb.size - idx
            if count == 0:
                return -math.inf
            return float(math.log(count) - n * math.log(2.0))
    raise ValueError(f"no exact oracle for model {model.id} with this kernel")


def _all_sign_sums(fv: np.ndarray) -> np.ndarray:
    m = fv.size
    if m == 0:
        return np.zeros(1)
    masks = np.arange(2 ** m, dtype=np.int64)
    signs = ((masks[:, None] >> np.arange(m)) & 1) * 2.0 - 1.0
    return signs @ fv


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
