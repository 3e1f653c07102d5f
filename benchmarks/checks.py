"""Reference values computed apart from ldpkit, and the checks that compare
the program's outputs with them.

Nothing here imports ldpkit.  Models and kernels are rebuilt from their spec
strings with the benchmark's own formulas, moments come from the kernel
nodes, rates come from closed forms or from an independent Legendre transform
(scipy quadrature of K(lam f(t)) plus a bracketed root of its derivative), and
tail probabilities come from exact distributions.  Every check returns a list
of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy import integrate, optimize, special

RATE_RTOL = 1e-6        # i_f against its reference, and route against route
PAIRING_TOL = 1e-8      # <f, h> against the target level
ACTION_TOL = 1e-6       # i_d(minimizer) against the reference i_f
VARIATIONAL_TOL = 5e-3  # variational_rate against the reference i_f
METRIC_TOL = 3e-9       # Hausdorff metrics are certified to 1e-9 each
TAIL_SIGMAS = 4.0       # |log_prob - exact| <= 4 std_error


# ----------------------------------------------------------------------
# Kernels: nodes parsed from the spec string, exact moments and integrals
# ----------------------------------------------------------------------

def kernel_nodes(spec: str):
    """(breakpoints, values) arrays of a piecewise-linear kernel spec."""
    name, _, rest = spec.partition(":")
    if name == "affine":
        a, b = (float(p) for p in rest.split(","))
        return np.array([0.0, 1.0]), np.array([a, a + b])
    if name == "const":
        c = float(rest)
        return np.array([0.0, 1.0]), np.array([c, c])
    if name == "pwl":
        pts = [tuple(float(v) for v in item.split(":")) for item in rest.split(",")]
        return np.array([p[0] for p in pts]), np.array([p[1] for p in pts])
    raise ValueError(f"unknown kernel spec {spec!r}")


def kernel_moments(spec: str):
    """(m1, m2): exact integrals of f and f^2 over [0, 1]."""
    bp, v = kernel_nodes(spec)
    dt = np.diff(bp)
    a, b = v[:-1], v[1:]
    return float(np.sum(dt * (a + b) / 2.0)), float(np.sum(dt * (a * a + a * b + b * b) / 3.0))


def kernel_antiderivative(spec: str, ts):
    """F(t) = integral of f over [0, t], exact on every linear piece."""
    bp, v = kernel_nodes(spec)
    ts = np.clip(np.asarray(ts, dtype=float), 0.0, 1.0)
    cum = np.concatenate([[0.0], np.cumsum(np.diff(bp) * (v[:-1] + v[1:]) / 2.0)])
    i = np.clip(np.searchsorted(bp, ts, side="right") - 1, 0, len(bp) - 2)
    s = ts - bp[i]
    slope = (v[i + 1] - v[i]) / (bp[i + 1] - bp[i])
    return cum[i] + v[i] * s + 0.5 * slope * s * s


def pairing(spec: str, grid, slopes, jumps) -> float:
    """<f, h> for a path h given by its grid, per-cell slopes and jumps."""
    bp, v = kernel_nodes(spec)
    cell = np.diff(kernel_antiderivative(spec, grid))
    total = float(np.dot(np.asarray(slopes, dtype=float), cell))
    for t, size in jumps:
        total += float(np.interp(t, bp, v)) * float(size)
    return total


# ----------------------------------------------------------------------
# Increment laws: K, K' and the closed rate I, written out here
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Law:
    mean: float
    var: float
    k: Callable           # scalar K(u); +inf outside the domain
    dk: Callable          # scalar K'(u)
    rate: Callable        # scalar I(v)
    upper: float = math.inf        # sup of the domain of K
    upper_closed: bool = False


def _params(rest: str) -> dict:
    return {k: float(v) for k, v in (item.split("=") for item in rest.split(","))} if rest else {}


def law(spec: str) -> Law:
    name, _, rest = spec.partition(":")
    p = _params(rest)
    if name == "gaussian":
        mu, s2 = p.get("mu", 0.0), p.get("sigma", 1.0) ** 2
        return Law(mu, s2, lambda u: mu * u + 0.5 * s2 * u * u, lambda u: mu + s2 * u,
                   lambda v: (v - mu) ** 2 / (2.0 * s2))
    if name == "cexp":
        return Law(0.0, 1.0,
                   lambda u: -u - math.log1p(-u) if u < 1.0 else math.inf,
                   lambda u: u / (1.0 - u),
                   lambda v: v - math.log1p(v) if v > -1.0 else math.inf,
                   upper=1.0)
    if name == "rademacher":
        def rate(v):
            if abs(v) > 1.0:
                return math.inf
            return sum(0.0 if q == 0.0 else q * math.log(2.0 * q)
                       for q in (0.5 * (1.0 + v), 0.5 * (1.0 - v)))
        return Law(0.0, 1.0, lambda u: abs(u) + math.log1p(math.exp(-2.0 * abs(u))) - math.log(2.0),
                   math.tanh, rate)
    if name == "poisson":
        r = p.get("rate", 1.0)
        return Law(0.0, r, lambda u: r * (math.expm1(u) - u), lambda u: r * math.expm1(u),
                   lambda v: (v + r) * math.log((v + r) / r) - v if v > -r else math.inf)
    if name == "synthetic-boundary":
        return Law(0.0, 0.5,
                   lambda u: u + (2.0 / 3.0) * ((1.0 - u) ** 1.5 - 1.0) if u <= 1.0 else math.inf,
                   lambda u: 1.0 - math.sqrt(1.0 - u),
                   lambda v: (2.0 / 3.0 - (1.0 - v) + (1.0 - v) ** 3 / 3.0) if v <= 1.0 else v - 1.0 / 3.0,
                   upper=1.0, upper_closed=True)
    raise ValueError(f"unknown model spec {spec!r}")


# ----------------------------------------------------------------------
# Weighted rate i_f(x) = sup_lam (lam x - int K(lam f)), three ways
# ----------------------------------------------------------------------

def _quad_kernel(spec: str, fn) -> float:
    bp, v = kernel_nodes(spec)
    total = 0.0
    for t0, t1 in zip(bp[:-1], bp[1:]):
        val, _ = integrate.quad(lambda t: fn(float(np.interp(t, bp, v))), t0, t1,
                                epsabs=1e-14, epsrel=1e-13, limit=200)
        total += val
    return total


def legendre_rate(model: str, kernel: str, x: float) -> float:
    """sup over lam of lam x - E_f(lam) by scipy quadrature and root finding.

    Kernels must be nonnegative, so lam f stays in the domain of K exactly
    when lam <= upper / max f.
    """
    lw = law(model)
    _, vals = kernel_nodes(kernel)
    if vals.min() < 0.0:
        raise ValueError("reference needs a nonnegative kernel")
    cap = lw.upper / float(vals.max())

    def e(lam):
        return _quad_kernel(kernel, lambda f: lw.k(lam * f))

    def slope(lam):   # d/dlam of lam x - E_f(lam); decreasing
        return x - _quad_kernel(kernel, lambda f: f * lw.dk(lam * f))

    if slope(0.0) == 0.0:
        return 0.0
    if slope(0.0) > 0.0:
        if lw.upper_closed and slope(cap) > 0.0:
            return cap * x - e(cap)     # still rising at a closed edge: the sup sits on it
        lo, hi = 0.0, None
        steps = ([cap] if lw.upper_closed else
                 [cap * (1.0 - 2.0 ** -k) for k in range(1, 48)] if math.isfinite(cap) else
                 [2.0 ** k for k in range(60)])
        for lam in steps:
            if slope(lam) <= 0.0:
                hi = lam
                break
            lo = lam
    else:
        hi, lo = 0.0, None
        for k in range(60):
            lam = -(2.0 ** k)
            if slope(lam) >= 0.0:
                lo = lam
                break
            hi = lam
    if lo is None or hi is None:
        raise ArithmeticError(f"no bracket for the tilt at x={x}")
    lam = optimize.brentq(slope, lo, hi, xtol=1e-15, rtol=1e-15, maxiter=200)
    return lam * x - e(lam)


def reference_rate(model: str, kernel: str, x: float) -> float:
    """i_f(x): closed form for Gaussian laws and constant kernels, otherwise
    the independent Legendre transform."""
    lw = law(model)
    m1, m2 = kernel_moments(kernel)
    if model.startswith("gaussian"):
        return (x - lw.mean * m1) ** 2 / (2.0 * lw.var * m2)
    _, vals = kernel_nodes(kernel)
    if np.all(vals == vals[0]):
        return lw.rate(x / float(vals[0]))
    return legendre_rate(model, kernel, x)


def center(model: str, kernel: str) -> float:
    return law(model).mean * kernel_moments(kernel)[0]


# ----------------------------------------------------------------------
# Exact log tails of W_n = (1/n) sum f(k/n) X_k
# ----------------------------------------------------------------------

def exact_log_tail(model: str, kernel: str, n: int, a: float) -> float:
    name = model.partition(":")[0]
    bp, v = kernel_nodes(kernel)
    fv = np.interp(np.arange(1, n + 1) / n, bp, v)
    if name == "gaussian":
        lw = law(model)
        mean = lw.mean * float(np.sum(fv)) / n
        sd = math.sqrt(lw.var * float(np.sum(fv * fv))) / n
        return float(special.log_ndtr((mean - a) / sd))
    if not np.all(v == 1.0):
        raise ValueError("exact tails beyond the Gaussian need the kernel const:1")
    if name == "rademacher":
        # W_n = (2B - n) / n with B ~ Binomial(n, 1/2)
        lo = math.ceil(Fraction(a) * n / 2 + Fraction(n, 2))
        count = sum(math.comb(n, k) for k in range(max(lo, 0), n + 1))
        return math.log(count) - n * math.log(2.0) if count else -math.inf
    if name == "poisson":
        # n (W_n + r) ~ Poisson(n r)
        r = law(model).var
        mean = n * r
        lo = math.ceil(Fraction(a) * n + Fraction(r) * n)
        js = np.arange(max(lo, 0), max(lo, 0) + 40 * int(math.sqrt(mean) + 10) + 200)
        return float(special.logsumexp(js * math.log(mean) - mean - special.gammaln(js + 1.0)))
    if name == "cexp":
        # n (W_n + 1) ~ Gamma(n, 1)
        return math.log(special.gammaincc(n, n * (1.0 + a)))
    raise ValueError(f"no exact tail for {model!r}")


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

def _rel_close(got: float, want: float, rtol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rtol * max(abs(want), 1e-3)


def check_rate(label: str, x: float, conj: float, expl: float, want: float) -> list:
    out = []
    for route, got in (("conjugate", conj), ("explicit", expl)):
        if not _rel_close(got, want, RATE_RTOL):
            out.append(f"{label} x={x!r}: i_f {route} {got!r} != reference {want!r}")
    if not _rel_close(conj, expl, RATE_RTOL):
        out.append(f"{label} x={x!r}: routes disagree {conj!r} vs {expl!r}")
    return out


def check_center(label: str, conj: float, expl: float) -> list:
    if abs(conj) <= 1e-12 and abs(expl) <= 1e-12:
        return []
    return [f"{label}: i_f at the center is {conj!r} / {expl!r}, not 0"]


def check_curve(label: str, xs, values) -> list:
    """Nonnegative and convex along the grid (divided differences)."""
    order = np.argsort(xs)
    x = np.asarray(xs, dtype=float)[order]
    y = np.asarray(values, dtype=float)[order]
    out = []
    if np.any(y < -1e-12):
        out.append(f"{label}: negative i_f on the grid")
    slopes = np.diff(y) / np.diff(x)
    scale = 1e-7 * max(1.0, float(np.max(np.abs(slopes))))
    if np.any(np.diff(slopes) < -scale):
        out.append(f"{label}: i_f is not convex on the grid")
    return out


def check_close(label: str, got: float, want: float, tol: float) -> list:
    if math.isfinite(got) and abs(got - want) <= tol:
        return []
    return [f"{label}: {got!r} differs from {want!r} by more than {tol:g}"]


def check_path(label: str, x: float, pair_program: float, pair_own: float,
               action: float, want: float) -> list:
    return (check_close(f"{label} pairing (ldpkit.pair)", pair_program, x, PAIRING_TOL)
            + check_close(f"{label} pairing (own)", pair_own, x, PAIRING_TOL)
            + check_close(f"{label} i_d", action, want, ACTION_TOL))


def check_triple(label: str, ab, ba, bc, ac, aa) -> list:
    """Symmetry, zero self-distance and the triangle inequality, for each of
    the three metrics given as equal-length tuples."""
    out = []
    for i, name in enumerate(("rho_2", "rho_2_prime", "rho_star")):
        if abs(ab[i] - ba[i]) > METRIC_TOL:
            out.append(f"{label} {name}: not symmetric ({ab[i]!r} vs {ba[i]!r})")
        if abs(aa[i]) > METRIC_TOL:
            out.append(f"{label} {name}: distance to itself is {aa[i]!r}")
        if ac[i] > ab[i] + bc[i] + METRIC_TOL:
            out.append(f"{label} {name}: triangle inequality fails")
        if min(ab[i], bc[i], ac[i]) < 0.0:
            out.append(f"{label} {name}: negative distance")
    return out


def check_two_block(label: str, n: int, rho2: float, rho2p: float) -> list:
    return (check_close(f"{label} rho_2", rho2, 1.0 / n, 1e-9)
            + check_close(f"{label} rho_2_prime", rho2p, 1.0 / n, 1e-9))


def check_oscillation(label: str, n: int, rho_star: float) -> list:
    want = 1.0 / (math.pi ** 2 * n)
    return check_close(f"{label} rho_star", rho_star, want, 0.05 * want)


def check_tail(label: str, log_prob: float, std_error: float, exact: float) -> list:
    if math.isfinite(log_prob) and abs(log_prob - exact) <= TAIL_SIGMAS * std_error:
        return []
    return [f"{label}: log_prob {log_prob!r} +- {std_error!r} misses exact {exact!r}"]
