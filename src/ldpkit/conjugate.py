"""Legendre-Fenchel transforms of convex oracles.

In one dimension the caller states the slope range (g'(lower+), g'(upper-))
and the conjugate at each slope edge whose domain side is unbounded, and x
is compared with the range exactly.  At or beyond an edge, a finite domain
endpoint is the argmax, and an infinite one gives +inf, or the stated value
exactly at the edge, with no argmax.  Inside, the root of grad g = x lies
strictly inside the domain, which is the bracket (no probing) of
``solve_monotone``, the one safeguarded Newton for every monotone 1-D
equation in ldpkit.  ``maximiser`` makes these decisions and returns the
argmax with its residual grad g - x; ``legendre`` adds the value x.u - g(u)
there, which ``maximiser`` leaves out wherever it would need g.

Every d = 1 function ldpkit transforms is a weighted cumulant g(lam) =
int K(lam w) dmu(w): K (mu = delta_1), E_f, the tail sampler's finite-n
cumulant and the variational dual, whose argmin is the minimizer's path.
All but E_f have a finite mu, and ``atomic_oracle`` states g from its
atoms and masses for each of them: K itself (one unit atom), the tail
tilt, and both sides of the discrete dual, ``minimizer``'s from K and
``variational_rate``'s from K read off I; for K and the discrete dual also
in d > 1, with a vector tilt.  ``tilt_domain`` and
``slope_edges`` state its domain and slope range from dom K and mu alone,
once for all, and ``_one_atom_start`` where the solve of g' = x starts,
from mu's first two moments: the root for the one atom with those moments.
Every oracle, E_f's included, is built from these three, and only
``maximiser`` compares x with the slope range.  For a finite mu,
``atomic_facts`` gathers the slope range and the two moments: numbers
only, which ``kernel_rate`` keeps once per grid of the discrete dual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .cgf import CgfModel, Domain, DomainInterval, FullSpace
from .errors import DomainError, GradientRangeError, NonConvergenceError

_MAX_ITER = 200
_EPS = float(np.finfo(float).eps)
# a grad at its target to within this times 1 + |target| is there to
# rounding: a solve asked for less cannot tell where its sign changes
_ROUNDING = 4.0 * _EPS
# a finite bracket spans many decades once it is wider than this times 1 + |v|
# at its end nearer 0: when its ends share a sign, 1 + |v| at the far end is
# then over 2^8 times that at the near one
_WIDE = 255.0
# the edge a nonzero ``ConjugateResult.side`` names
_SIDES = {1: "above", -1: "below"}


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
    # d=1: x -> a point of the domain where the solve of grad = x starts
    # (0.0 if None)
    start: Optional[Callable] = None


@dataclass(frozen=True)
class ConjugateResult:
    # None from ``maximiser`` where pricing its argmax needs one more
    # evaluation of g, which it leaves to ``legendre``
    value: Optional[float]
    argmax: Optional[object]   # float (d=1) or ndarray (d>1); None if not attained
    # the branch ``maximiser`` took: +1 at or past the upper slope edge (in
    # d > 1 where the Newton tilt runs off), -1 at or past the lower, 0 inside
    side: int
    # grad g(argmax) - x; None where no argmax is attained
    residual: Optional[object] = None


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


def slope_edges(model: CgfModel, domain: DomainInterval, split: tuple, grad) -> tuple:
    """((lower slope edge, conjugate there or None), (upper ..., ...)) of g.

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

    return edge(False), edge(True)


def _first_moment(atoms: np.ndarray, masses: np.ndarray) -> float:
    """m1 = sum_j m_j a_j, summed elementwise, or 0.0 where |m1| is within
    its rounding bound n eps sum_j |m_j a_j|: there its sign is noise, and
    so is the one-cell slope x / m1 it would give."""
    terms = masses * atoms
    m1 = float(np.sum(terms))
    return 0.0 if abs(m1) <= terms.size * _EPS * float(np.sum(np.abs(terms))) else m1


def one_cell_slope(model: CgfModel, m1: float, x: float):
    """(v*, I'(v*)) at v* = x / m1, the slope at which one cell of weight m1
    pairs to x, or None where the model states no rate_grad or rate_dom, m1
    is 0, or v* is not strictly inside ``rate_dom`` (nan and +-inf included)."""
    if model.rate_grad is None or model.rate_dom is None or m1 == 0.0:
        return None
    v = x / m1
    lo, hi = model.rate_dom
    return (v, float(model.rate_grad(v))) if lo < v < hi else None


def _one_atom_start(model: CgfModel, domain: DomainInterval, m1: float, m2: float,
                    known: tuple = None):
    """x -> lam0 = I'(x / m1) m1 / m2, or None where the model or moments give
    no start.

    The atom of mass m1^2 / m2 at w = m2 / m1 has mu's first two moments
    m1 = int w dmu and m2 = int w^2 dmu, and its g' = m1 K'(lam m2 / m1)
    meets x at lam0.  lam0 is the root of g' = x itself where mu is one atom
    or I' is affine (every Gaussian law), and a first-order start elsewhere;
    it is 0.0 where ``one_cell_slope`` gives none or lam0 is not strictly
    inside ``domain`` (nan and +-inf included).  ``known`` is
    ``one_cell_slope`` at an x the caller has solved already, read there.
    """
    if model.rate_grad is None or model.rate_dom is None or m1 == 0.0 or not m2 > 0.0:
        return None

    def start(x):
        at = known if known is not None and known[0] == x / m1 else one_cell_slope(model, m1, x)
        if at is None:
            return 0.0
        lam = at[1] * m1 / m2
        return lam if domain.lower < lam < domain.upper else 0.0

    return start


def _atomic_grad(atoms: np.ndarray, masses: np.ndarray, kp: Callable, lam: float) -> float:
    """g'(lam) = sum_j m_j a_j k'(lam a_j) in d = 1: one array call of k'."""
    return float(masses @ (atoms * kp(lam * atoms)))


def atomic_facts(model: CgfModel, domain: DomainInterval, atoms: np.ndarray,
                 masses: np.ndarray, cumulant: tuple = None) -> tuple:
    """(grad_range, edge_values, m1, m2) of the d = 1 cumulant of
    ``atomic_oracle``: ``slope_edges`` on mu's sign split, with g' on k' of
    ``cumulant`` (the model's K' by default) at a closed cap, and mu's
    moments m1 (``_first_moment``) and m2 = sum_j m_j a_j^2.  They are law
    facts, numbers only, so a caller may keep them for every level on one
    (mu, domain, cumulant) and pass them back to ``atomic_oracle``."""
    a, m = atoms, masses
    kp = (cumulant or (None, model.cgf_grad))[1]
    pos, neg = a > 0, a < 0
    grad_range, edge_values = zip(*slope_edges(
        model, domain, (np.sum(m[pos]), np.sum(m[neg]), m[pos] @ a[pos], m[neg] @ a[neg]),
        partial(_atomic_grad, a, m, kp)))
    return grad_range, edge_values, _first_moment(a, m), float(m @ (a * a))


def atomic_oracle(model: CgfModel, domain: Domain, atoms: np.ndarray, masses: np.ndarray,
                  cumulant: tuple = None, known: tuple = None, facts: tuple = None) -> ConvexOracle:
    """The oracle of g(lam) = sum_j m_j k(lam a_j), the cumulant of the
    finite measure mu = sum_j m_j delta_{a_j}, on the caller's tilt
    ``domain``: each of g, g' and g'' is one array call of k, k' or k''.

    ``cumulant`` is (k, k', k'') on an array of points, rows lam a_j in
    d > 1: K itself, by default the model's own formulas, or K read another
    way (``kernel_rate._rate_cumulant`` reads it from I), as the slope range
    and the start are read from the model.  In d = 1 the slope range and
    mu's first two moments are ``atomic_facts``, ``facts`` where the caller
    kept them from an earlier call on the same mu, domain and cumulant,
    else found here, and the solve starts at ``_one_atom_start`` for those
    moments and the ``known`` one-cell slope; there is no g'' where k'' is
    None.  In d > 1 it is a plain oracle over ``domain``.
    """
    a, m = atoms, masses
    k, kp, kpp = cumulant or (model.cgf, model.cgf_grad, model.cgf_hess)
    if model.dimension > 1:
        col = a[:, None]
        return ConvexOracle(domain, lambda lam: float(m @ k(col * lam)),
                            lambda lam: m @ (col * kp(col * lam)),
                            lambda lam: np.tensordot(m * a * a, kpp(col * lam), axes=1))
    grad_range, edge_values, m1, m2 = facts or atomic_facts(model, domain, a, m, cumulant)
    return ConvexOracle(
        domain, lambda lam: float(m @ k(lam * a)), partial(_atomic_grad, a, m, kp),
        None if kpp is None else lambda lam: float(m @ (a * a * kpp(lam * a))),
        grad_range=grad_range, edge_values=edge_values,
        start=_one_atom_start(model, domain, m1, m2, known))


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
    about r^2 / 2h), or once its bracket is one ulp wide or v has overflowed
    to +-inf.  Where Newton stays put short of that, a plain element steps
    one ulp toward its root instead, so the one-ulp bracket decides it.
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
    moved, before = math.inf, math.inf
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            g = cast(grad(v))
            h = cast(hess(v)) if hess is not None else np.nan
            r = g - t
            below = where(plain, r < 0, (h > 0) == up)
            a, b = where(below, v, a), where(below, b, v)
            # |r| <= atol and r^2 <= atol h (a nan h, as without hess, drops out)
            close = r * r <= atol * least(atol, h)
            done = (plain & close) | (abs(v) == math.inf) | (after(a, math.inf) >= b)
            if every(done):
                return where(up, b, where(plain, v, a)), r
            step = v - r / h
            width = b - a
            newton = (a < step) & (step < b) & ((2.0 * abs(step - v) <= before)
                                                | (width == math.inf))
            if not every(newton | done):
                mid = 0.5 * (a + b)
                wide = (width > _WIDE * (1.0 + least(abs(a), abs(b)))) & (width < math.inf)
                if some(wide):
                    mid = where(wide, _log_middle(a, b), mid)
                # v is a bracket end, so a Newton step that stays put is never
                # taken: a plain element steps one ulp toward its root instead
                step = where(newton, step, where(
                    plain & (step == v), after(v, -r * math.inf),
                    where(b == math.inf, 2.0 * a + (1.0 - start),
                          where(a == -math.inf, 2.0 * b - (1.0 + start), mid))))
            v, last = where(done, v, step), v
            before, moved = moved, abs(v - last)
    raise NonConvergenceError(f"monotone solve did not settle in {max_iter} iterations")


def maximiser(oracle: ConvexOracle, x, tol: float = 1e-10) -> ConjugateResult:
    """The argmax of x.u - g(u), its branch and its ``residual``, with the
    value only where it needs no further evaluation of g: +inf, a stated
    conjugate at a slope edge, or in d > 1 the Newton's own value.  A nan
    level, or a nan component, raises ValueError.

    In d = 1, x at or past a slope edge is decided by exact comparison: a
    finite domain end is the argmax, with the stated slope edge minus x for
    residual; an infinite one, or an infinite x, gives +inf, or the stated
    conjugate exactly at the edge, with no argmax.  Inside the range the
    argmax is the root of grad g = x, with the residual of its solve from
    the oracle's start (0.0 if none) to atol = tol max(1, |x|).  In d > 1
    ``tol`` is not read: ``_maximiser_nd`` stops on its Newton decrement.
    """
    if isinstance(oracle.domain, FullSpace):
        x = np.asarray(x, dtype=float)
        if np.isnan(x).any():
            raise ValueError(f"level x must not be nan, got {x}")
        return _maximiser_nd(oracle, x)
    x = float(x)
    if math.isnan(x):
        raise ValueError("level x must not be nan")
    dom = oracle.domain
    if oracle.grad_range is None:
        raise ValueError("a one-dimensional oracle must state its grad_range")
    glo, ghi = oracle.grad_range
    for side, edge, end in ((1, ghi, dom.upper), (-1, glo, dom.lower)):
        if side * x < side * edge:      # x lies inside this edge
            continue
        if math.isfinite(end) and math.isfinite(x):
            return ConjugateResult(None, end, side, edge - x)
        if x != edge or math.isinf(x):
            return ConjugateResult(math.inf, None, side)
        value = (oracle.edge_values or (None, None))[side > 0]
        if value is None:
            raise GradientRangeError(_SIDES[side], "no conjugate value stated at this slope edge")
        return ConjugateResult(value, None, side)
    start = 0.0 if oracle.start is None else oracle.start(x)
    u, r = solve_monotone(oracle.grad, oracle.hess, x, dom.lower, dom.upper, start,
                          tol * max(1.0, abs(x)), max_iter=_MAX_ITER)
    return ConjugateResult(None, float(u), 0, float(r))


def legendre(oracle: ConvexOracle, x, tol: float = 1e-10) -> ConjugateResult:
    """sup_u { x.u - g(u) }: ``maximiser`` with the value x.u - g(u) at its
    argmax."""
    res = maximiser(oracle, x, tol)
    if res.value is not None:
        return res
    u = res.argmax      # d = 1: in d > 1 the maximiser states its value
    gu = float(oracle.eval(u))
    if res.side and not math.isfinite(gu):
        raise DomainError("oracle value at its closed boundary is not finite")
    # + 0.0 turns the -0.0 that x u - g(u) gives at u = 0 for x <= 0 into 0.0
    return ConjugateResult(float(x) * u - gu + 0.0, u, res.side, res.residual)


def _maximiser_nd(oracle: ConvexOracle, x: np.ndarray) -> ConjugateResult:
    """Damped Newton from 0 on x.lam - g(lam).  It returns lam, without the
    last step, once the Newton decrement r.H^-1 r / 2 is within the value's
    rounding, ``_ROUNDING`` (|x.lam| + |g(lam)| + 1) (Boyd and Vandenberghe,
    *Convex Optimization*, 9.5.1).  The line search halves a step until its
    value is within that rounding of the current one, as a small enough
    step gains about alpha r.H^-1 r > 0.  A tilt past 1e9 max(1, |x|) gives
    +inf."""
    lam = np.zeros_like(x)
    scale = max(1.0, float(np.linalg.norm(x)))
    phi = -float(oracle.eval(lam))
    for _ in range(_MAX_ITER):
        resid = np.asarray(oracle.grad(lam), dtype=float) - x
        hess = np.asarray(oracle.hess(lam), dtype=float)
        try:
            step = np.linalg.solve(hess, -resid)
        except np.linalg.LinAlgError:
            step = -resid
        decrement, xl = -0.5 * float(resid @ step), float(x @ lam)
        rounding = _ROUNDING * (abs(xl) + abs(xl - phi) + 1.0)
        if decrement <= rounding:
            return ConjugateResult(phi, lam, 0, resid)
        if not math.isfinite(decrement):
            break
        alpha, val = 2.0, -math.inf
        while not val >= phi - rounding:
            alpha *= 0.5
            cand = lam + alpha * step
            val = float(x @ cand) - float(oracle.eval(cand))
        lam, phi = cand, val
        if np.linalg.norm(lam) > 1e9 * scale:
            return ConjugateResult(math.inf, None, 1)
    raise NonConvergenceError(f"multivariate conjugate did not settle in {_MAX_ITER} "
                              "Newton steps")


def grad_inverse(oracle: ConvexOracle, x, tol: float = 1e-10):
    """The root of grad g = x: ``maximiser``'s argmax, or GradientRangeError
    naming the edge its ``side`` is at where that is not 0."""
    res = maximiser(oracle, x, tol)
    if res.side:
        raise GradientRangeError(_SIDES[res.side])
    return res.argmax
