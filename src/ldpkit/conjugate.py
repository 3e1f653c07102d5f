"""Legendre-Fenchel transforms of convex oracles.

In one dimension the caller states the slope range (g'(lower+), g'(upper-))
and the conjugate at each slope edge whose domain side is unbounded, and x
is compared with the range exactly.  At or beyond an edge, a finite domain
endpoint is evaluated directly and an infinite one gives +inf, or the stated
value exactly at the edge.  Inside, the root of grad g = x lies strictly
inside the domain, which is the bracket (no probing) of ``solve_monotone``,
the one safeguarded Newton for every monotone 1-D equation in ldpkit.

Every d = 1 function ldpkit transforms is a weighted cumulant g(lam) =
int K(lam w) dmu(w): K (mu = delta_1), E_f, the tail sampler's finite-n
cumulant and the variational dual.  ``tilt_domain`` and ``slope_edges``
state its domain and slope range from dom K and mu alone, once for all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .cgf import CgfModel, Domain, DomainInterval, FullSpace
from .errors import DomainError, GradientRangeError, NonConvergenceError

_VALUE_CAP = 1e14
# a grad unchanged over a move settles a solve only where |r| is within
# this times 1 + |target|, the rounding of a grad flat at its target
_ROUNDING = 4.0 * float(np.finfo(float).eps)
# a finite bracket spans many decades once it is wider than this times 1 + |v|
# at its end nearer 0: when its ends share a sign, 1 + |v| at the far end is
# then over 2^8 times that at the near one
_WIDE = 255.0


@dataclass
class ConvexOracle:
    """Evaluation access to a finite convex function on its domain."""

    domain: Domain
    eval: Callable
    grad: Callable
    hess: Optional[Callable] = None
    # One-sided gradient limits (lower+, upper-) at the domain endpoints;
    # required in d=1, where they decide the Legendre branches.
    grad_range: Optional[tuple] = None
    # Conjugate values (lower, upper) at a slope edge whose domain side runs
    # to infinity, each None where unknown; x exactly at such an edge needs it.
    edge_values: Optional[tuple] = None


@dataclass(frozen=True)
class ConjugateResult:
    value: float
    argmax: Optional[object]   # float (d=1) or ndarray (d>1); None if not attained
    at_boundary: bool


def _stated_range(oracle: ConvexOracle) -> tuple:
    if oracle.grad_range is None:
        raise ValueError("a one-dimensional oracle must state its grad_range")
    return oracle.grad_range


# ----------------------------------------------------------------------
# The d = 1 weighted cumulant g(lam) = int K(lam w) dmu(w)
# ----------------------------------------------------------------------

def _quot(num: float, den: float) -> float:
    """num / den for num in [0, inf], den >= 0, with c/0 := +inf."""
    return math.inf if den == 0.0 or math.isinf(num) else num / den


def tilt_domain(model: CgfModel, w_plus: float, w_minus: float) -> DomainInterval:
    """The tilts lam with lam w in dom K for every weight w in [-w_minus, w_plus].

    Each cap is the smallest ratio of a domain edge to the weight that runs
    into it, and is closed iff every edge that binds there is closed.
    """
    dom = model.domain
    ends = []
    for up, down in ((w_plus, w_minus), (w_minus, w_plus)):    # lam > 0, lam < 0
        bounds = ((_quot(dom.upper, up), dom.upper_closed),
                  (_quot(-dom.lower, down), dom.lower_closed))
        cap = min(b for b, _ in bounds)
        ends.append((cap, math.isfinite(cap) and all(c for b, c in bounds if b == cap)))
    (hi, hi_closed), (lo, lo_closed) = ends
    return DomainInterval(-lo, hi, lower_closed=lo_closed, upper_closed=hi_closed)


def slope_edges(model: CgfModel, domain: DomainInterval, split: tuple, grad,
                sides: tuple = (False, True)) -> list:
    """(slope edge, conjugate there or None) of g on each of ``sides``, False
    for the lower side and True for the upper one.

    ``domain`` is the tilt domain of the weights and split = (mu{w > 0},
    mu{w < 0}, int_{w > 0} w dmu, int_{w < 0} w dmu).  g' is nondecreasing,
    so the upper (lower) slope edge is its limit at the cap: g' there at a
    closed cap, +-inf at an open one (a log-MGF is lower semicontinuous, so
    K and K' blow up at an open edge).  At an infinite cap each weight w != 0
    sends K'(lam w) to the support edge b picked by the sign of lam w
    (monotone convergence), read from ``rate_dom`` with no call to K', so
    the slope edge is the split integrals times those b, and the conjugate
    there (stated only where I is closed-form) the split measures times I(b).
    """
    def edge(upper):
        side = 1.0 if upper else -1.0
        cap = domain.upper if upper else -domain.lower
        if math.isfinite(cap):
            if not (domain.upper_closed if upper else domain.lower_closed):
                return side * math.inf, None
            val = float(grad(side * cap))
            return (val if math.isfinite(val) else math.copysign(math.inf, val)), None
        if model.rate_dom is None:
            raise DomainError(f"model {model.id} has an infinite domain edge but no "
                              "rate_dom, so K' has no known limit there")
        pos, neg, pos_int, neg_int = split
        glo, ghi = model.rate_dom
        limits = ((pos, pos_int, ghi if upper else glo), (neg, neg_int, glo if upper else ghi))
        slope = sum(w * b for _, w, b in limits if w != 0.0)
        if model.closed_rate is None:
            return slope, None
        return slope, sum(m * (float(model.rate(b)) if math.isfinite(b) else math.inf)
                          for m, _, b in limits if m != 0.0)

    return [edge(upper) for upper in sides]


def weighted_oracle(model: CgfModel, domain: DomainInterval, split: tuple, value, grad,
                    hess, edges: tuple = None) -> ConvexOracle:
    """The oracle of g on its tilt ``domain``, with the slope range and edge
    values of ``slope_edges``, or the (lower, upper) ``edges`` it found
    before, in which case ``split`` is not read."""
    (lo, v_lo), (hi, v_hi) = edges or slope_edges(model, domain, split, grad)
    return ConvexOracle(domain, value, grad, hess, grad_range=(lo, hi),
                        edge_values=(v_lo, v_hi))


def _log_middle(a, b):
    """The point halfway between a and b in sign(v) log(1 + |v|): from an end
    at 0 it halves log(1 + distance)."""
    half = 0.5 * (np.copysign(np.log1p(np.abs(a)), a) + np.copysign(np.log1p(np.abs(b)), b))
    return np.copysign(np.expm1(np.abs(half)), half)


def solve_monotone(grad: Callable, hess: Optional[Callable], target, lo, hi, start,
                   atol, kink=0.0, max_iter: int = 400):
    """Elementwise root v of grad(v) = target, grad nondecreasing, known to
    lie in (lo, hi); returned with its residual r = grad(v) - target.

    Bracketed Newton-bisection (``rtsafe``, Numerical Recipes 9.4) from
    ``start`` in [lo, hi]: a Newton step on ``hess`` is taken if it stays
    inside the bracket and, in a finite bracket, is at most half the move
    before last (alone, Newton crawls about 1 a step down an exponential
    grad); else the bracket is bisected or, on an infinite side, the
    distance from ``start`` doubled plus one.  A finite bracket over many
    decades, where bisection would take a bit a step, is cut instead where
    sign(v) log(1 + |v|) is halfway: from an end at 0 that halves
    log(1 + distance), as doubling plus one adds log 2 to it.  An element
    settles once |r| <= atol and r^2 <= atol h (the conjugate misses by
    about r^2 / 2h), once Newton stays put or a finite grad is unchanged
    over a move with r within its rounding (where grad has saturated in
    floating point away from the target, the bracket goes on shrinking), or
    once its bracket is one ulp wide or v has overflowed to +-inf.
    ``start`` may be an array, one start per element.  A ``kink`` element (+1 or -1) has grad flat at
    the target from the root up or down: it seeks where hess vanishes,
    settles on its bracket alone, and returns the bracket end on the flat
    side.
    """
    # a number steps on numpy scalars: on 0-d arrays each numpy call costs
    # a microsecond, 30 % of the d = 1 Legendre solve's throughput
    if np.ndim(target) == 0:
        where, every, some, after, least = ((lambda c, x, y: x if c else y), bool, bool,
                                            math.nextafter, min)
        cast, v = np.float64, np.float64(start)
    else:
        where, every, some, after, least = (np.where, np.ndarray.all, np.ndarray.any,
                                            np.nextafter, np.fmin)
        cast = partial(np.asarray, dtype=float)
        v = np.full(np.shape(target), start, dtype=float)
    t, a, b, kink = map(cast, (target, lo, hi, kink))
    plain, up = kink == 0, kink > 0
    rounding = _ROUNDING * (1.0 + abs(t))
    g_last, moved, before = np.nan, math.inf, math.inf
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            g = cast(grad(v))
            h = cast(hess(v)) if hess is not None else np.nan
            r = g - t
            below = where(plain, r < 0, (h > 0) == up)
            a, b = where(below, v, a), where(below, b, v)
            step = v - r / h
            # |r| <= atol and r^2 <= atol h (a nan h, as without hess, drops out)
            close = r * r <= atol * least(atol, h)
            # g - g_last is 0 for an unchanged finite grad, never for inf
            flat = (g - g_last == 0) & (abs(r) <= rounding)
            done = ((plain & (close | (step == v) | flat))
                    | (abs(v) == math.inf) | (after(a, math.inf) >= b))
            if every(done):
                return where(up, b, where(plain, v, a)), r
            width = b - a
            newton = (a < step) & (step < b) & ((2.0 * abs(step - v) <= before)
                                                | (width == math.inf))
            if not every(newton | done):
                mid = 0.5 * (a + b)
                wide = (width > _WIDE * (1.0 + least(abs(a), abs(b)))) & (width < math.inf)
                if some(wide):
                    mid = where(wide, _log_middle(a, b), mid)
                step = where(newton, step, where(b == math.inf, 2.0 * a + (1.0 - start),
                                                 where(a == -math.inf, 2.0 * b - (1.0 + start),
                                                       mid)))
            v, last = where(done, v, step), v
            g_last, before, moved = g, moved, abs(v - last)
    raise NonConvergenceError(f"monotone solve did not settle in {max_iter} iterations")


def _solve_grad_1d(oracle: ConvexOracle, x: float, tol: float, max_iter: int = 200,
                   start: float = 0.0):
    """(u, grad g(u) - x) at the root of grad g = x, which lies strictly inside
    the domain, the bracket, as x lies strictly inside the stated range.
    Newton starts at ``start``, a point of the domain.

    A residual r above sqrt(atol) stands when the root lies within one ulp
    of u: the conjugate at u then misses by at most |r| ulp(u), which near
    an open cap is far below what |r| suggests.
    """
    atol = tol * max(1.0, abs(x))
    u, r = solve_monotone(oracle.grad, oracle.hess, x, oracle.domain.lower,
                          oracle.domain.upper, start, atol, max_iter=max_iter)
    if abs(r) > math.sqrt(atol) and (
            oracle.grad(math.nextafter(u, math.copysign(math.inf, -r))) - x) * r > 0:
        raise NonConvergenceError(f"gradient equation settled {r:.3g} from x at tol={tol}")
    return float(u), float(r)


def _boundary_value(oracle: ConvexOracle, x: float, endpoint: float) -> ConjugateResult:
    gv = float(oracle.eval(endpoint))
    if not math.isfinite(gv):
        raise DomainError("oracle value at its closed boundary is not finite")
    return ConjugateResult(x * endpoint - gv, endpoint, True)


def legendre(oracle: ConvexOracle, x, tol: float = None,
             max_iter: int = 200) -> ConjugateResult:
    """sup_u { x.u - g(u) } with argmax and boundary/divergence reporting."""
    if isinstance(oracle.domain, FullSpace):
        return _legendre_nd(oracle, np.asarray(x, dtype=float),
                            1e-8 if tol is None else tol, max_iter)
    if tol is None:
        tol = 1e-10
    x = float(x)
    dom = oracle.domain
    glo, ghi = _stated_range(oracle)
    for side, edge, end, index in ((1.0, ghi, dom.upper, 1),
                                   (-1.0, glo, dom.lower, 0)):
        gap = side * (x - edge)     # how far x lies beyond this edge
        if gap < 0:
            continue
        if math.isfinite(end):
            return _boundary_value(oracle, x, end)
        if gap > 0:
            return ConjugateResult(math.inf, None, True)
        value = (oracle.edge_values or (None, None))[index]
        if value is None:
            raise DomainError("no conjugate value stated at this slope edge")
        return ConjugateResult(value, None, True)

    u = _solve_grad_1d(oracle, x, tol, max_iter)[0]
    # + 0.0 turns the -0.0 that x u - g(u) gives at u = 0 for x <= 0 into 0.0
    return ConjugateResult(x * u - float(oracle.eval(u)) + 0.0, u, False)


def _legendre_nd(oracle: ConvexOracle, x: np.ndarray, tol: float,
                 max_iter: int) -> ConjugateResult:
    lam = np.zeros_like(x)
    scale = max(1.0, float(np.linalg.norm(x)))
    phi = float(x @ lam) - float(oracle.eval(lam))
    for _ in range(max_iter):
        grad = x - np.asarray(oracle.grad(lam), dtype=float)
        if np.linalg.norm(grad) <= tol * scale:
            return ConjugateResult(phi, lam, False)
        hess = np.asarray(oracle.hess(lam), dtype=float)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = grad
        alpha = 1.0
        for _ in range(60):
            cand = lam + alpha * step
            val = float(x @ cand) - float(oracle.eval(cand))
            if math.isfinite(val) and val > phi:
                lam, phi = cand, val
                break
            alpha *= 0.5
        else:
            raise NonConvergenceError("multivariate conjugate line search stalled")
        if np.linalg.norm(lam) > 1e9 * scale or phi > _VALUE_CAP:
            return ConjugateResult(math.inf, None, True)
    raise NonConvergenceError(f"multivariate conjugate did not meet tol={tol} "
                              f"in {max_iter} iterations")


def grad_inverse(oracle: ConvexOracle, x, tol: float = None, max_iter: int = 200):
    """Solve grad g = x; 1-D raises GradientRangeError naming the violated side."""
    if isinstance(oracle.domain, FullSpace):
        res = _legendre_nd(oracle, np.asarray(x, dtype=float),
                           1e-8 if tol is None else tol, max_iter)
        if res.argmax is None:
            raise GradientRangeError("above", "gradient target unreachable")
        return res.argmax
    if tol is None:
        tol = 1e-10
    x = float(x)
    glo, ghi = _stated_range(oracle)
    if x >= ghi:
        raise GradientRangeError("above")
    if x <= glo:
        raise GradientRangeError("below")
    return _solve_grad_1d(oracle, x, tol, max_iter)[0]
