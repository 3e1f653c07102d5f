"""Kernel-weighted rate functions.

For a model with log-MGF K and a piecewise-linear weight f, the weighted
rate I_f is the Legendre transform of the scaled cumulant E_f(lam) =
int_0^1 K(lam f(t)) dt.  Its tilt domain d_f = (-M_minus, M_plus) and slope
range [inf E_f', sup E_f'] follow from the domain of K and the weights
alone, with no search: ``conjugate`` states that rule once for every d = 1
weighted cumulant (``tilt_domain``, ``slope_edges``, ``_one_atom_start``),
and ``KernelRateProblem`` caches its answers.  I_f is computed by three
routes that share no value formula:

  * i_f_conjugate: Legendre transform of E_f via the generic solver;
  * i_f_explicit: int_0^1 I(K'(lam f(t))) dt + lam (x - E_f'(lam)) at the
    tilt lam the same solver's ``maximiser`` returns, clamped to the caps:
    the closed rate integrated along the tilt's slopes, plus the jump priced
    at the cap past a slope edge, one formula in every dimension; in d = 1
    next to a finite domain edge of K it integrates in the slope v = K'(u),
    as int I(v) I''(v) dv, so the rounding of u next to the edge never
    enters;
  * variational_rate: the discretised path action minimised under the
    pairing constraint, as the Legendre transform of its discrete dual on
    the same solver (uses only the rate function, its derivatives, the
    domain and the recession prices, never K).

In d = 1 one walker, ``_walk``, takes every integral of f^j phi(lam f) over
a linear interval of f: u = lam f turns its mean into the bracket [Psi] /
(lam^j du) of a primitive, d Psi / du = u^j phi(u), read from model
formulas evaluated once per node.  E_f, E_f' and E_f'' pass Psi = P, uK - P
and u^2 K' - 2uK + 2P (P = int_0^u K, ``cgf_int``), the clamp uK - 2P on
its flat and touched pieces.  A bracket stands when its rounding bound,
eps (|term| + 1 + |u|) summed over its terms at both ends over |lam^j du|,
is within tol max(1, |mean|); else the adaptive rule takes it.

``minimizer`` and ``variational_rate`` share one discrete problem on a grid
of cells: the action of a path with one slope per cell, plus jumps, under
the pairing.  Its dual is the cumulant of the cells' finite measure, one
``conjugate.atomic_oracle`` fed two cumulants: ``variational_rate`` prices
it with K read off I (``_rate_cumulant``), and ``minimizer`` returns its
argmin with the model's K, so they are two codes for one number.  The
dual's law facts for each cumulant are built once per (model, kernel,
cells) by ``_dual``; a call builds only its closures and its start.

The tilt domain d_f decides where lam f lies, exactly: it leaves the
closed domain of K iff lam lies outside d_f, and it touches a finite edge e
iff lam is the cap of d_f that e binds, at the nodes where f is the weight
running into e; u is e itself there.  Lower semicontinuity then decides a
touched piece: where a term of Psi is not finite at e, Psi(e), the integral
of u^j phi up to e, diverges with the sign of e^(j+1) phi(e).  At an open
edge K and K' blow up, so the K' integral is sign(lam) inf, the K'' integral
+inf, and the K integral the bracket of P (1/2 for cexp with f(t) = t).  At a
closed edge K(e) and P(e) are finite, so only the integral of K'' (the
moment's) can diverge, exactly when K'(e) does.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from . import quadrature as quad
from .cgf import CgfModel, DomainInterval
from .conjugate import (_EPS, _ROUNDING, ConjugateResult, ConvexOracle, _one_atom_start,
                        _quot, atomic_facts, atomic_oracle, legendre, maximiser,
                        one_cell_slope, slope_edges, solve_monotone, tilt_domain)
from .errors import AmbiguityError, DomainError, NonConvergenceError
from .kernels import Kernel


# ----------------------------------------------------------------------
# Moments int_0^1 f^k K^(k)(lam f(t)) dt over the kernel pieces
# ----------------------------------------------------------------------

def _trace(model: CgfModel, kernel: Kernel, lam: float, values: np.ndarray):
    """(u, touched) for u = lam * values, values of f; None once lam f leaves
    the closed domain of K, exactly when lam lies outside d_f.  lam f touches
    a finite edge e, and u is set to e, exactly where lam is the cap |e| / |w|
    of d_f and a value is the weight w running into e (max_plus or
    -max_minus): fl(e / w) w can miss e by an ulp."""
    caps = _problem(model, kernel).d_f
    if not caps.lower <= lam <= caps.upper:
        return None
    u = lam * values
    touched = np.zeros(u.shape, dtype=bool)
    if lam in (caps.lower, caps.upper):
        for edge in (model.domain.lower, model.domain.upper):
            w = kernel.max_plus if (edge > 0) == (lam > 0) else -kernel.max_minus
            hit = (values == w) & (_quot(abs(edge), abs(w)) == abs(lam))
            u[hit] = edge
            touched |= hit
    return u, touched


def _walk(model: CgfModel, kernel: Kernel, lam: float, values: np.ndarray):
    """``bracket`` for the intervals between the nodes where f takes
    ``values``, from one ``_trace`` at lam; None once lam f leaves the domain.

    ``bracket(j, (formulas, terms), point, tol)`` returns (mean, rough) per
    interval as the module docstring says, Psi being the sum of terms(u,
    *formulas at u); a flat interval takes fbar^j point(u), fbar the mean of
    f there.  If the model lacks a formula, every other interval is rough,
    and a touched one raises DomainError."""
    if (trace := _trace(model, kernel, lam, values)) is None:
        return None
    u, touched = trace
    du, scale_u, at = u[1:] - u[:-1], 1.0 + abs(u), {}
    flat = du == 0
    n_flat, touch = np.count_nonzero(flat), np.count_nonzero(touched)

    def bracket(j, psi, point, tol):
        if n_flat:
            at_flat = (0.5 * (values[:-1] + values[1:])[flat]) ** j * point(u[:-1][flat])
            if n_flat == len(du):
                return at_flat, ~flat
        names, terms = psi
        if any(getattr(model, n) is None for n in names):
            if touch and np.count_nonzero(~flat & (touched[:-1] | touched[1:])):
                raise DomainError(f"model {model.id} lacks a primitive for a touched piece")
            value, rough = np.full(len(du), math.nan), ~flat
        else:
            at.update({n: np.asarray(getattr(model, n)(u), dtype=float)
                       for n in names if n not in at})
            with np.errstate(invalid="ignore", divide="ignore"):
                parts = terms(u, *map(at.get, names))
                psi_u, scale = sum(parts[1:], parts[0]), sum(map(abs, parts), len(parts) * scale_u)
                if touch and (decided := touched & ~np.isfinite(parts).all(axis=0)).any():
                    # Psi(u) = int^u v^j point(v) dv diverges there, with the
                    # sign of u^(j+1) point(u)
                    e, psi_u, scale[decided] = u[decided], psi_u.copy(), 0.0
                    psi_u[decided] = np.copysign(np.inf, e ** (j + 1)) * np.sign(point(e))
                den = lam ** j * du if j else du
                value, bound = (psi_u[1:] - psi_u[:-1]) / den, _EPS * (scale[:-1] + scale[1:])
                rough = ~(flat | (bound <= tol * np.maximum(1.0, abs(value)) * abs(den)))
        if n_flat:
            value[flat] = at_flat
        return value, rough

    return bracket


_last_walk = {}     # a dict, as an lru_cache wrapper costs microseconds a call


def _node_walk(model: CgfModel, kernel: Kernel, lam: float):
    """``_walk`` over the kernel's nodes at lam, kept for the last (model,
    kernel, lam): E_f'' right after E_f' at one Newton tilt, E_f at the root
    and the clamp's closed pieces reuse its formula values.  The model and
    kernel are matched by identity, so a copy of a model with other
    callables walks its own formulas."""
    last = _last_walk
    if not (last.get("lam") == lam and last["model"] is model and last["kernel"] is kernel):
        last.update(model=model, kernel=kernel, lam=lam,
                    bracket=_walk(model, kernel, lam, kernel._vals))
    return last["bracket"]


# (formulas, terms) of the primitive Psi_k, d Psi_k / du = u^k K^(k)(u)
_MOMENT_PSI = ((("cgf_int",), lambda u, p: (p,)),
               (("cgf", "cgf_int"), lambda u, k, p: (u * k, -p)),
               (("cgf_grad", "cgf", "cgf_int"),
                lambda u, kp, k, p: (u * u * kp, -2.0 * (u * k), 2.0 * p)))


def _moment(model: CgfModel, kernel: Kernel, lam, k: int, tol: float):
    """int_0^1 f^k D^k K(lam f(t)) dt, +inf once lam f leaves the domain, and
    E_f is +inf at lam = +-inf for a law charging both sides of 0: one
    array-valued adaptive pass per kernel piece in d > 1; in d = 1 the
    brackets of Psi_k of ``_node_walk``, with the adaptive rule on the rough
    pieces.  ValueError for a nan lam, or a nan component, and for a tol
    that is not finite and positive."""
    deriv = (model.cgf, model.cgf_grad, model.cgf_hess)[k]
    lam = float(lam) if model.dimension == 1 else np.asarray(lam, dtype=float)
    if math.isnan(lam) if model.dimension == 1 else np.isnan(lam).any():
        raise ValueError(f"tilt lam must not be nan, got {lam}")
    tol = _tolerance(tol)

    def fn(ts):
        fv = kernel.eval(ts)
        vals = np.asarray(deriv(np.multiply.outer(fv, lam)), dtype=float)
        return (fv ** k).reshape((-1,) + (1,) * (vals.ndim - 1)) * vals

    if model.dimension > 1:
        return sum(quad.adaptive_gl(fn, a, b, tol=tol) for a, b, _, _ in kernel.pieces())
    if k < 2 and math.isinf(lam):
        # limits along a ray, where the walk would form lam f = inf * 0 at
        # f = 0: E_f' is nondecreasing, so inside d_f it tends to the slope
        # edge on that side, and past a finite cap it is +inf; a law charging
        # both sides of 0 has K(u) -> +inf as u -> +-inf, and f does not
        # vanish identically, so E_f -> +inf along either ray
        if k == 1:
            prob = _problem(model, kernel)
            inside = prob.d_f.lower <= lam <= prob.d_f.upper
            return prob.edges[lam > 0][0] if inside else math.inf
        lo, hi = model.rate_dom or (0.0, 0.0)
        if lo < 0.0 < hi:
            return math.inf
    if lam == 0.0:
        return (1.0, kernel.m1, kernel.m2)[k] * float(deriv(0.0))
    if kernel.lipschitz == 0.0:     # f = c: the walk's all-flat value at a third of its cost
        u = _trace(model, kernel, lam, kernel._vals[:1])
        return math.inf if u is None else kernel.values[0] ** k * float(deriv(u[0][0]))
    bracket = _node_walk(model, kernel, lam)
    if bracket is None:
        return math.inf
    mean, rough = bracket(k, _MOMENT_PSI[k], deriv, tol)
    value = mean * kernel._widths
    if np.count_nonzero(rough):
        bp = kernel.breakpoints
        for i in np.flatnonzero(rough):
            value[i] = quad.adaptive_gl(fn, bp[i], bp[i + 1], tol)
    return sum(value.tolist())


def e_f(model: CgfModel, kernel: Kernel, lam, tol: float = 1e-12) -> float:
    """int_0^1 K(lam f(t)) dt, +inf when lam f leaves the domain; ValueError
    for a nan lam or a tol that is not finite and positive."""
    return _moment(model, kernel, lam, 0, tol)


def e_f_grad(model: CgfModel, kernel: Kernel, lam, tol: float = 1e-12):
    """int f(t) K'(lam f(t)) dt; +-inf flags an infinite one-sided slope.  At
    lam = +-inf in d = 1 it is the limit, the slope edge on that side
    (``ef_prime_range``) inside an infinite cap and +inf past a finite one.
    ValueError for a nan lam or a tol that is not finite and positive."""
    return _moment(model, kernel, lam, 1, tol)


def _e_f_hess(model: CgfModel, kernel: Kernel, lam):
    """int f(t)^2 K''(lam f(t)) dt.  It only shapes Newton steps, so in d = 1
    its brackets and fallback are held to 1e-10."""
    return _moment(model, kernel, lam, 2, 1e-10 if model.dimension == 1 else 1e-12)


# ----------------------------------------------------------------------
# Cached per-(model, kernel) analysis
# ----------------------------------------------------------------------

class KernelRateProblem:
    """The law facts of E_f for one (model, kernel), each found on first use:
    the tilt domain d_f and one ``edges`` pair, the (lower, upper) slope
    edges of E_f' each with I_f there (None where unknown), by the rules of
    ``conjugate``.  It keeps no formula: ``_e_f_oracle`` binds E_f to the
    caller's model on every call, so a model equal to the first but with
    other callables runs its own."""

    def __init__(self, model: CgfModel, kernel: Kernel):
        self.model = model
        self.kernel = kernel

    @property
    def m_plus_minus(self):
        if self.model.dimension > 1:
            return math.inf, math.inf
        return self.d_f.upper, -self.d_f.lower

    @cached_property
    def d_f(self):
        model, k = self.model, self.kernel
        if model.dimension == 1:
            return tilt_domain(model, k.max_plus, k.max_minus)
        return model.domain     # the full space, the only d > 1 domain

    @cached_property
    def edges(self) -> tuple:
        model, kernel = self.model, self.kernel
        if model.dimension > 1:
            return (-math.inf, None), (math.inf, None)
        return slope_edges(model, self.d_f, _sign_split(kernel), partial(e_f_grad, model, kernel))

    @property
    def sup_ef_prime(self) -> float:
        return self.edges[1][0]

    @property
    def inf_ef_prime(self) -> float:
        return self.edges[0][0]


@lru_cache(maxsize=256)
def _problem(model: CgfModel, kernel: Kernel) -> KernelRateProblem:
    return KernelRateProblem(model, kernel)


def _e_f_oracle(model: CgfModel, kernel: Kernel) -> ConvexOracle:
    """The oracle of E_f on ``model``'s own formulas (``e_f``, ``e_f_grad``
    and ``_e_f_hess``, which share ``_node_walk`` in d = 1), with the cached
    facts, in every dimension.  Its solves of E_f' = x start at the one-atom
    root I'(x / m1) m1 / m2 for the kernel's moments m1 = int f and
    m2 = int f^2 (``_one_atom_start``): the root itself on a constant kernel
    and for every Gaussian law, where m1 != 0."""
    prob = _problem(model, kernel)
    grad_range, edge_values = zip(*prob.edges)
    fns = (partial(fn, model, kernel) for fn in (e_f, e_f_grad, _e_f_hess))
    return ConvexOracle(prob.d_f, *fns, grad_range=grad_range, edge_values=edge_values,
                        start=_one_atom_start(model, prob.d_f, kernel.m1, kernel.m2))


def d_f(model: CgfModel, kernel: Kernel):
    return _problem(model, kernel).d_f


def m_plus_minus(model: CgfModel, kernel: Kernel):
    return _problem(model, kernel).m_plus_minus


def ef_prime_range(model: CgfModel, kernel: Kernel):
    prob = _problem(model, kernel)
    return prob.inf_ef_prime, prob.sup_ef_prime


# ----------------------------------------------------------------------
# Rate function results
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class KernelRateResult:
    """I_f(x) with its branch and the tilt the route stopped at.

    ``lambda_star`` is pinned only to |r| / E_f''(lambda_star), r being the
    pairing residual the solve stops at (up to its tol max(1, |x|)): next to
    a slope edge with an infinite cap, where E_f'' is tiny, it holds a few
    digits while ``value`` holds to tol.  At rademacher x identity, x =
    +-0.499999 (E_f'' = 3.1e-9), solves of ``i_f_conjugate`` from two starts
    stop at tilts 1.5e-4 relative apart.
    """

    x: object
    value: float
    branch: str               # interior | singular_plus | singular_minus | infinite
    lambda_star: object
    m_plus: float
    m_minus: float
    sup_ef_prime: float
    inf_ef_prime: float


def i_f_conjugate(model: CgfModel, kernel: Kernel, x, tol: float = 1e-9) -> KernelRateResult:
    """I_f(x) as the Legendre transform of E_f.  In d = 1 the solve of
    E_f' = x starts at the one-atom root of ``_e_f_oracle``: the root itself
    on a constant kernel, or for a Gaussian law with int f != 0, where the
    solve settles on its first E_f' evaluation.  ValueError for a
    non-finite x or a tol that is not finite and positive."""
    x, tol = _level(model, x), _tolerance(tol)
    res = legendre(_e_f_oracle(model, kernel), x, tol=tol)
    return _result(model, kernel, x, res.value, res)


def _level(model: CgfModel, x):
    """x as a float, or an array in d > 1; ValueError where it is not finite."""
    x = float(x) if model.dimension == 1 else np.asarray(x, dtype=float)
    if not (math.isfinite(x) if model.dimension == 1 else np.isfinite(x).all()):
        raise ValueError(f"level x must be finite, got {x}")
    return x


def _tolerance(tol) -> float:
    """tol as a float; ValueError where it is not finite and positive."""
    tol = float(tol)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    return tol


def _result(model: CgfModel, kernel: Kernel, x, value: float,
            res: ConjugateResult) -> KernelRateResult:
    """The result of a route that prices the tilt ``res`` of E_f at ``value``,
    on the branch of ``res.side`` where the value is finite."""
    prob = _problem(model, kernel)
    branch = ("infinite" if math.isinf(value)
              else ("singular_minus", "interior", "singular_plus")[res.side + 1])
    return KernelRateResult(x, value, branch, res.argmax, *prob.m_plus_minus,
                            prob.sup_ef_prime, prob.inf_ef_prime)


def _sign_pieces(kernel: Kernel):
    """The pieces (a, b, f(a), f(b)) of f, each split at its root where f
    changes sign inside it, so f keeps one sign on every piece."""
    for a, b, va, vb in kernel.pieces():
        if va * vb < 0:
            root = a + (b - a) * va / (va - vb)
            yield from ((a, root, va, 0.0), (root, b, 0.0, vb))
        else:
            yield a, b, va, vb


def _sign_split(kernel: Kernel):
    """Exact measures and integrals of f over {f > 0} and {f < 0}.

    Returns (pos_measure, neg_measure, pos_integral, neg_integral), the last
    one <= 0.
    """
    pos = neg = pos_int = neg_int = 0.0
    for a, b, u, v in _sign_pieces(kernel):
        if u > 0 or v > 0:
            pos += b - a
            pos_int += 0.5 * (b - a) * (u + v)
        elif u < 0 or v < 0:
            neg += b - a
            neg_int += 0.5 * (b - a) * (u + v)
    return pos, neg, pos_int, neg_int


def _dyadic_gl(fn, lo: float, hi: float, tol: float) -> float:
    """``adaptive_gl`` of fn over [lo, hi], split first where |s| crosses 2^k,
    k >= 0, s the variable of integration: in u = lam f, where K'(u) leaves
    its saturated value; in v = K'(u), where I(v) I''(v) decays toward a
    finite domain edge of K."""
    cuts = 2.0 ** np.arange(math.ceil(math.log2(max(1.0, -lo, hi))) + 1)
    cuts = np.concatenate((-cuts[::-1], cuts))
    return quad.adaptive_gl(fn, lo, hi, tol, cuts=cuts[(cuts > lo) & (cuts < hi)])


def _clamp_integral(model: CgfModel, kernel: Kernel, lam_bar, tol: float) -> float:
    """int_0^1 I(K'(lam_bar f(t))) dt for a lam_bar in d_f, a cap only where
    it is closed, as ``maximiser`` returns for a finite level (at an open cap
    the slope edge is infinite).

    In d > 1 each kernel piece takes one array-valued adaptive pass.  In
    d = 1 an untouched piece takes ``_dyadic_gl`` in u = lam_bar f, so this
    route shares no value formula with E_f, but within |e| / 2 of a finite
    domain edge e of K in v = K'(u): u = I'(v), so du = I''(v) dv and that
    layer is int I(v) I''(v) dv, whose nodes are v's, so the rounding of u
    next to e never enters.  A flat piece, or one touching a (closed) edge,
    where K'(e) and so v can be infinite, is a ``_node_walk`` bracket of
    uK - 2P, d/du (uK - 2P) = I(K'(u)) = u K'(u) - K(u).
    """
    def g(u):
        return model.closed_rate(model.cgf_grad(u))

    if model.dimension > 1:
        return sum(quad.adaptive_gl(lambda ts: g(kernel.eval(ts)[:, None] * lam_bar), a, b, tol)
                   for a, b, _, _ in kernel.pieces())
    u, touched = _trace(model, kernel, lam_bar, kernel._vals)
    closed = touched[:-1] | touched[1:] | (u[:-1] == u[1:])
    if np.count_nonzero(closed):
        mean, rough = _node_walk(model, kernel, lam_bar)(
            0, (("cgf", "cgf_int"), lambda u, k, p: (u * k, -2.0 * p)), g, tol)
        value = mean * kernel._widths
    total = 0.0
    for i, (a, b, _, _) in enumerate(kernel.pieces()):
        if closed[i]:
            total += (quad.adaptive_gl(lambda ts: g(lam_bar * kernel.eval(ts)), a, b, tol)
                      if rough[i] else float(value[i]))
            continue
        lo, hi = sorted(u[i:i + 2].tolist())
        rate = (hi - lo) / (b - a)      # |du / dt|
        for edge in (model.domain.lower, model.domain.upper):
            near = hi if edge > 0 else lo
            if not abs(edge - near) < 0.5 * abs(edge) < math.inf:
                continue
            far = max(lo, 0.5 * edge) if edge > 0 else min(hi, 0.5 * edge)
            lo, hi = (lo, far) if edge > 0 else (far, hi)
            v_lo, v_hi = sorted(model.cgf_grad(np.array([near, far])).tolist())
            total += _dyadic_gl(lambda v: model.closed_rate(v) * model.rate_hess(v),
                                v_lo, v_hi, tol * rate) / rate
        total += _dyadic_gl(g, lo, hi, tol * rate) / rate
    return total


def _require(model: CgfModel, route: str, *names: str) -> None:
    """DomainError naming the formulas ``route`` needs that ``model`` leaves out."""
    missing = [name for name in names if getattr(model, name) is None]
    if missing:
        raise DomainError(f"{route} needs the model's {', '.join(missing)}, which model "
                          f"{model.id} does not state")


def i_f_explicit(model: CgfModel, kernel: Kernel, x, tol: float = 1e-9) -> KernelRateResult:
    """I_f(x) = int_0^1 I(K'(lam f(t))) dt + lam (x - E_f'(lam)) at the tilt
    lam that ``maximiser`` returns on E_f, in every dimension: lam is clamped
    to the caps, so the second term vanishes up to the solve's residual at an
    interior root and is the jump priced at the cap past a slope edge.  With
    no tilt attained the value is the maximiser's own, +inf or the stated
    I_f at a slope edge with an infinite cap.  A d = 1 model with a finite
    domain edge must state ``rate_hess``, the du / dv of the edge layer of
    ``_clamp_integral``.  ValueError for a non-finite x or a tol that is not
    finite and positive."""
    _require(model, "i_f_explicit", "closed_rate",
             *(("rate_hess",) if model.dimension == 1
               and min(-model.domain.lower, model.domain.upper) < math.inf else ()))
    x, tol = _level(model, x), _tolerance(tol)
    res = maximiser(_e_f_oracle(model, kernel), x, min(tol, 1e-10))
    if res.argmax is None:
        return _result(model, kernel, x, res.value, res)
    lam = res.argmax
    value = _clamp_integral(model, kernel, lam, 0.1 * tol) - float(np.dot(lam, res.residual))
    return _result(model, kernel, x, value, res)


# ----------------------------------------------------------------------
# Minimizing trajectory
# ----------------------------------------------------------------------

def _refined_grid(kernel: Kernel, total: int) -> np.ndarray:
    """About ``total`` cells, spread over the pieces of ``_sign_pieces`` by
    length: every breakpoint of f and every root where f changes sign inside
    a piece is a grid point, so f keeps one sign on each cell.  A flat piece,
    f(a) = f(b), is one cell: every cell there would take the same slope."""
    pts = [np.zeros(1)]
    for a, b, va, vb in _sign_pieces(kernel):
        if a == b:
            continue    # a root rounded onto a piece end
        n = 1 if va == vb else max(1, int(round(total * (b - a))))
        cell = a + (b - a) * np.arange(1, n + 1) / n
        cell[-1] = b
        pts.append(cell)
    return np.concatenate(pts)


@lru_cache(maxsize=256)
def _dual(model: CgfModel, kernel: Kernel, cells: int, rate: bool) -> tuple:
    """(grid, w, lens, fbar, caps, facts) of the discrete dual on
    ``_refined_grid(kernel, cells)``, built once per (model, kernel, cells)
    and cumulant: the read-only grid, the integrals w_i of f over its cells,
    their lengths l_i and means fbar_i = w_i / l_i; the caps of the tilts nu
    of Phi(nu) = sum_i l_i K(nu fbar_i), whose jumps are priced there,
    [-M_minus, M_plus] closed where finite (fbar_i lies inside f's range, so
    nu fbar_i stays inside the domain of K at a finite cap unless f is
    extreme on the whole cell; there, at an open edge, Phi and Phi' are +inf
    at the cap), the full space in d > 1; and, in d = 1,
    ``conjugate.atomic_facts`` for the model's K, or for K read off I
    (``_rate_cumulant``) where ``rate`` is set, else None.  These are law
    facts only: the I-side slope edge at a closed cap is solved from the
    mean, with no anchor, so no fact depends on the level first asked, and
    every call binds its closures to the caller's model."""
    grid = _refined_grid(kernel, cells)
    w = kernel.integrals(grid)
    lens = np.diff(grid)
    fbar = w / lens
    for a in (grid, w, lens, fbar):
        a.flags.writeable = False
    if model.dimension > 1:
        return grid, w, lens, fbar, model.domain, None
    m_plus, m_minus = _problem(model, kernel).m_plus_minus
    caps = DomainInterval(-m_minus, m_plus, lower_closed=math.isfinite(m_minus),
                          upper_closed=math.isfinite(m_plus))
    facts = atomic_facts(model, caps, fbar, lens, _rate_cumulant(model) if rate else None)
    return grid, w, lens, fbar, caps, facts


def minimizer(model: CgfModel, kernel: Kernel, x, tol: float = 1e-8):
    """The path attaining I_f(x), on a grid of 400 to 4000 cells set by tol,
    with one cell on each flat piece of f (``_refined_grid``, built once per
    (model, kernel, cell count) by ``_dual``); tol sets nothing else.

    The path is the argmin of the discretised action that
    ``variational_rate`` prices: sum_i l_i I(v_i) plus jumps priced at the
    caps, under the pairing sum_i w_i v_i = x (cell lengths l_i, kernel
    integrals w_i, means fbar_i = w_i / l_i).  By Fenchel duality its slopes
    are v_i = K'(nu fbar_i), nu the argmax of nu x - Phi(nu) over the caps,
    Phi(nu) = sum_i l_i K(nu fbar_i): the cumulant of the finite measure
    sum_i l_i delta_{fbar_i}, solved by one ``maximiser`` call on its
    ``conjugate.atomic_oracle`` over the caps (the full space in d > 1),
    built on the grid and law facts that ``_dual`` keeps per (model, kernel,
    cell count), so only the first call on a grid finds Phi' at a closed
    cap.  The solve reads only Phi' and Phi'' in d = 1, run to rounding:
    the path pairs to x within a few ulp, or where Phi' is steep, next to an
    open cap, within Phi'' ulp(nu) / 2, as far as the nearest float tilt.
    Its i_d misses I_f by about c / N^2 on N cells (2.3e-8 for gaussian x
    identity at the default tol).  Past Phi' at a finite cap the path takes
    the slopes there and one jump by the rest of x at the first extremizer
    of f; if f stays extreme over a whole piece the site is not determined
    (AmbiguityError).  Where ``maximiser`` attains no tilt, at or past a
    slope edge of Phi with an infinite cap, there is no path (DomainError):
    Phi's edge, not E_f's, as the grid's edge can round an ulp inside it.
    A non-finite x, or a tol that is not finite and positive, raises
    ValueError.
    """
    from .paths import CadlagPath

    x, tol = _level(model, x), _tolerance(tol)
    total = int(min(4000, max(400, round(0.5 / math.sqrt(max(tol, 1e-12))))))
    grid, w, lens, fbar, caps, facts = _dual(model, kernel, total, False)
    oracle = atomic_oracle(model, caps, fbar, lens, facts=facts)
    res = maximiser(oracle, x, _EPS)
    if res.argmax is None:
        raise DomainError("x is at or past a slope edge with an infinite tilt cap; "
                          "no minimizing path")
    if model.dimension > 1:
        # ``maximiser`` stops on its Newton decrement before taking the last
        # step; taking it here pairs the path to x within rounding
        nu = res.argmax - np.linalg.solve(oracle.hess(res.argmax), res.residual)
        return CadlagPath(model.dimension, grid, model.cgf_grad(np.outer(fbar, nu)), ())

    slopes = model.cgf_grad(res.argmax * fbar)
    if not res.side:
        return CadlagPath(1, grid, slopes, ())
    # the jump sits at the first node where cap f touches the binding edge,
    # unless f runs along that edge over a whole piece
    touched = _trace(model, kernel, res.argmax, kernel._vals)[1]
    if (touched[:-1] & touched[1:]).any():
        raise AmbiguityError(
            "the extremizer set of f has positive measure; the jump location is not determined")
    first = int(np.argmax(touched))
    return CadlagPath(1, grid, slopes, ((kernel.breakpoints[first],
                                         (x - float(w @ slopes)) / kernel.values[first]),))


# ----------------------------------------------------------------------
# Variational route: the discrete action through its Legendre dual
# ----------------------------------------------------------------------

def _inner_slopes(model: CgfModel, s: np.ndarray, start: np.ndarray = None) -> np.ndarray:
    """The v nearest the mean with I'(v) = s, elementwise: I*(s) = s v - I(v).

    I' maps the rate domain onto the domain of K, so s is reachable iff it
    lies in ``model.domain``, a closed edge included; else v = sign(s) inf.
    At a closed edge I is affine beyond v = K'(edge), where I'' vanishes, and
    the root nearest the mean is that kink.  The root lies in (mean, rate_dom
    edge) on the side of s: that is the bracket, with no probing.  Each
    solve starts at its element of ``start`` where that lies strictly inside
    the bracket, else (nan and +-inf included) at the mean, and stops at
    the solver's rounding of its target, atol = ``_ROUNDING`` (1 + |s|):
    closer, the sign of I'(v) - s is rounding noise.  Where no element needs
    a solve (every s is 0 or unreachable) I' is not called.
    """
    dom, mean = model.domain, float(model.mean)
    lo, hi = model.rate_dom
    at_edge = (((s == dom.upper) & dom.upper_closed)
               | ((s == dom.lower) & dom.lower_closed))
    reach = ((s > dom.lower) & (s < dom.upper)) | at_edge
    out = np.where(s == 0, mean, np.copysign(math.inf, s))
    live = np.flatnonzero(reach & (s != 0))
    if not live.size:
        return out
    t, up = s[live], s[live] > 0
    a, b = np.where(up, mean, lo), np.where(up, hi, mean)
    guess = mean if start is None else start[live]
    out[live], _ = solve_monotone(model.rate_grad, model.rate_hess, t, a, b,
                                  np.where((a < guess) & (guess < b), guess, mean),
                                  _ROUNDING * (1.0 + np.abs(t)),
                                  kink=np.where(at_edge[live], np.sign(t), 0.0))
    return out


def _inner_slopes_nd(model: CgfModel, targets: np.ndarray) -> np.ndarray:
    """Rows v with grad I(v) = u, u the rows of ``targets``, by Newton from
    the mean batched over the rows.  I*(u) = sup_v u.v - I(v) is a conjugate
    too, so the stop is ``conjugate._maximiser_nd``'s: v is returned, without
    the last step, once the Newton decrement r.step / 2 of every row is
    within the rounding of its value, ``_ROUNDING`` (|u.v| + |I(v)| + 1)."""
    v = np.broadcast_to(model.mean_vec, targets.shape).copy()
    for _ in range(100):
        g = np.asarray(model.rate_grad(v), dtype=float) - targets
        hess = np.broadcast_to(model.rate_hess(v), targets.shape + targets.shape[-1:])
        step = np.linalg.solve(hess, g[..., None])[..., 0]
        rounding = _ROUNDING * (np.abs(np.sum(targets * v, axis=-1)) + np.abs(model.rate(v)) + 1.0)
        if np.all(0.5 * np.sum(g * step, axis=-1) <= rounding):
            return v
        v = v - step
    raise NonConvergenceError("inner slope solve did not settle in d > 1")


def _rate_cumulant(model: CgfModel, known: tuple = None) -> tuple:
    """(K, K', K'') on an array of points u, rows in d > 1, read from I alone
    (I* = K): K(u) = u.v - I(v), +inf where v is not finite, K'(u) = v and
    K''(u) = 1 / I''(v), v solving I'(v) = u by ``_inner_slopes`` or
    ``_inner_slopes_nd``.

    The last point array is kept with its v and, once asked, I''(v), so K,
    K' and K'' at one tilt share one inner solve.  In d = 1 each solve
    continues from the last points u0 (at first u0 = 0, where every v is
    the mean): an element starts at the Euler prediction v(u0) + (u - u0) /
    I''(v(u0)) (predictor-corrector continuation, Allgower and Georg,
    ch. 2), or, where u lies nearer s* than u0 does, at the one from the
    anchor, v* + (u - s*) / I''(v*), for the ``known`` one-cell slope
    (v*, s*) = (x / m1, I'(v*)) of ``conjugate.one_cell_slope``: the root
    itself on one cell.
    """
    last = dict(u=0.0, v=float(model.mean_vec[0]))
    anchor = (*known, float(model.rate_hess(known[0]))) if known else (math.nan,) * 3

    def slopes(u):
        key = u.tobytes()
        if last.get("key") != key:
            if model.dimension > 1:
                v = _inner_slopes_nd(model, u)
            else:   # Euler predictor, dv / du = 1 / I''(v), from the anchor or
                # the last points, whichever lies nearer u
                near = abs(u - anchor[1]) < abs(u - last["u"])
                with np.errstate(divide="ignore", invalid="ignore"):
                    start = anchor[0] + (u - anchor[1]) / anchor[2]
                    if not near.all():
                        start = np.where(near, start, last["v"] + (u - last["u"]) / curvature())
                v = _inner_slopes(model, u, start)
            last.clear()
            last.update(key=key, u=u, v=v)
        return last["v"]

    def curvature():
        if "curv" not in last:
            last["curv"] = np.asarray(model.rate_hess(last["v"]), dtype=float)
        return last["curv"]

    def k(u):
        v = slopes(u)
        finite = np.isfinite(v) if model.dimension == 1 else np.isfinite(v).all(axis=-1)
        with np.errstate(invalid="ignore"):
            uv = u * v if model.dimension == 1 else np.sum(u * v, axis=-1)
            return np.where(finite, uv - model.rate(v), math.inf)

    def k_hess(u):
        slopes(u)
        with np.errstate(divide="ignore"):
            if model.dimension == 1:
                return 1.0 / curvature()
        return np.broadcast_to(np.linalg.inv(curvature()), u.shape + u.shape[-1:])

    return k, slopes, k_hess


def variational_rate(model: CgfModel, kernel: Kernel, x, pieces: int = 200,
                     tol: float = 1e-9) -> float:
    """Minimum of the discretised action over paths pairing to x.

    On the grid of about ``pieces`` cells that ``minimizer`` uses
    (``_refined_grid``, built once per (model, kernel, pieces) by ``_dual``),
    a flat piece of f being one cell, as cells with one fbar take one optimal slope
    (lengths l_i, kernel integrals w_i, averages fbar_i = w_i / l_i), slopes
    v_i plus jumps priced at the recession constants cost
    sup_nu [nu x - Phi(nu)] over nu in the caps [-M_minus, M_plus],
    Phi(nu) = sum_i l_i I*(nu fbar_i) (Fenchel duality).  As I* = K, Phi is
    the cumulant of the finite measure sum_i l_i delta_{fbar_i}, whose oracle
    ``conjugate.atomic_oracle`` builds, as for ``minimizer``, but fed the
    cumulant that ``_rate_cumulant`` reads from I: with I'(v_i) = nu fbar_i,
    Phi' = sum l_i fbar_i v_i and Phi'' = sum l_i fbar_i^2 / I''(v_i), so K
    never enters.  ``minimizer`` returns the argmin of the same problem from
    K, v_i = K'(nu fbar_i), so on ``pieces`` equal to its cell count its i_d
    is this value from an independent code.  The generic solver takes the
    transform, ``tol`` being its tolerance on the pairing residual Phi' - x.
    A finite cap prices the rest of x as a jump; at an infinite one the slope
    edge is sum l_i fbar_i times the rate_dom edge that the sign of fbar_i
    picks.  In d = 1 the outer solve starts at I'(x / m1) m1 / m2, m1 =
    sum_i l_i fbar_i (``conjugate._first_moment``: 0 where it is rounding
    noise) and m2 = sum_i l_i fbar_i^2, the root for one cell with the
    grid's first two moments (``conjugate._one_atom_start``): the root
    itself on one cell (a constant kernel) or for an affine I' (a Gaussian
    law), and 0.0 where it is not strictly inside the caps.  The inner
    solves read the same one-cell slope (v*, s*) = (x / m1, I'(v*))
    (``conjugate.one_cell_slope``) as their anchor.  The grid's cells, caps,
    slope edges and moments are built once per (model, kernel, pieces) by
    ``_dual``, which solves Phi' at a closed cap from the mean, with no
    anchor, so the value does not depend on which level came first; a call
    builds only its closures, its anchor and its start.  ValueError for a
    ``pieces`` that is not an integer >= 1, a tol that is not finite and
    positive, or a non-finite x.
    """
    if not isinstance(pieces, numbers.Integral) or pieces < 1:
        raise ValueError(f"pieces must be an integer >= 1, got {pieces!r}")
    tol = _tolerance(tol)
    _require(model, "variational_rate", "rate_grad", "rate_hess",
             *(("rate_dom",) if model.dimension == 1 else ()))
    x = _level(model, x)
    _, _, lens, fbar, caps, facts = _dual(model, kernel, pieces, True)
    known = one_cell_slope(model, facts[2], x) if facts else None
    oracle = atomic_oracle(model, caps, fbar, lens, _rate_cumulant(model, known), known, facts)
    return legendre(oracle, x, tol=tol).value


def x_grid(model: CgfModel, kernel: Kernel, count: int = 50, span: float = 3.0):
    """Test grid of x values centered at m1 * mean, clipped to where the
    weighted rate can be finite.

    When the tilt cap is infinite the rate blows up steeply approaching the
    slope-range edge (the local slope of I_f is the tilt itself), so the clip
    backs off by a relative 1e-6: any closer and the value is no longer
    determined to useful accuracy by a double-precision x.
    """
    prob = _problem(model, kernel)
    center = kernel.m1 * float(model.mean)
    lo, hi = center - span, center + span
    m_plus, m_minus = prob.m_plus_minus
    if math.isinf(m_plus) and math.isfinite(edge := prob.sup_ef_prime):
        hi = min(hi, edge - 1e-6 * max(1.0, abs(edge)))
    if math.isinf(m_minus) and math.isfinite(edge := prob.inf_ef_prime):
        lo = max(lo, edge + 1e-6 * max(1.0, abs(edge)))
    return np.linspace(lo, hi, count)
