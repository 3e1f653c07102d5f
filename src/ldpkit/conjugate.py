"""Legendre-Fenchel transforms of convex oracles.

In one dimension the caller states the slope range (g'(lower+), g'(upper-))
and the conjugate at each slope edge whose domain side is unbounded, and x
is compared with the range exactly.  At or beyond an edge, a finite domain
endpoint is evaluated directly and an infinite one gives +inf, or the stated
value exactly at the edge.  Inside, grad g = x is solved by safeguarded
Newton in an expanding bracket, bisecting whenever a step leaves it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cgf import Domain, FullSpace
from .errors import DomainError, GradientRangeError, NonConvergenceError

_VALUE_CAP = 1e14


@dataclass
class ConvexOracle:
    """Evaluation access to a finite convex function on its domain."""

    domain: Domain
    eval: Callable
    grad: Callable
    hess: Optional[Callable] = None
    strict: bool = True
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


def _approach(endpoint: float, n: int = 56):
    """Geometric sequence approaching a finite endpoint from 0."""
    return [endpoint - endpoint * 2.0 ** (-k) for k in range(1, n + 1)]


def _stated_range(oracle: ConvexOracle) -> tuple:
    if oracle.grad_range is None:
        raise ValueError("a one-dimensional oracle must state its grad_range")
    return oracle.grad_range


def _solve_grad_1d(oracle: ConvexOracle, x: float, tol: float, max_iter: int) -> float:
    """Root of grad g = x strictly inside the domain (caller checked range)."""
    dom = oracle.domain
    g = oracle.grad
    atol = tol * max(1.0, abs(x))

    # Bracket the root starting from the interior point 0: approach a finite
    # domain end geometrically, or step out by doubling lengths (+-1, 3, 7, ...)
    r0 = float(g(0.0)) - x
    if abs(r0) <= atol:
        return 0.0
    side = 1.0 if r0 < 0 else -1.0     # the side of 0 the root lies on
    end = dom.upper if side > 0 else dom.lower
    probes = (_approach(end) if math.isfinite(end)
              else [side * (2.0 ** k - 1.0) for k in range(1, 201)])
    inner, outer = 0.0, None
    for u in probes:
        if side * (float(g(u)) - x) >= 0:
            outer = u
            break
        inner = u
    if outer is None:
        raise NonConvergenceError("failed to bracket gradient equation")
    a, b = min(inner, outer), max(inner, outer)

    # Safeguarded Newton: accept Newton steps inside the bracket, bisect
    # otherwise.  The gradient is nondecreasing, so the bracket is valid.
    u = 0.5 * (a + b)
    for _ in range(max_iter):
        r = float(g(u)) - x
        h = float(oracle.hess(u)) if oracle.hess is not None else math.nan
        # x u - g(u) misses the conjugate by about r^2 / (2h); near a slope
        # edge h is tiny, so |r| <= atol alone would leave the value loose
        if abs(r) <= atol and not r * r > atol * h:
            return u
        if r > 0:
            b = u
        else:
            a = u
        step = None
        if math.isfinite(h) and h > 0:
            step = u - r / h
        if step is None or not (a < step < b):
            step = 0.5 * (a + b)
        if b - a <= 1e-17 * max(1.0, abs(a), abs(b)):
            if abs(r) <= math.sqrt(atol):
                return u
            raise NonConvergenceError("gradient equation stalled on an ulp-wide bracket")
        u = step
    raise NonConvergenceError(f"gradient inversion did not meet tol={tol} "
                              f"in {max_iter} iterations")


def _boundary_value(oracle: ConvexOracle, x: float, endpoint: float) -> ConjugateResult:
    gv = float(oracle.eval(endpoint))
    if not math.isfinite(gv):
        raise DomainError("oracle value at its closed boundary is not finite")
    return ConjugateResult(x * endpoint - gv, endpoint, True)


def legendre(oracle: ConvexOracle, x, tol: float = None,
             max_iter: int = 200) -> ConjugateResult:
    """sup_u { x.u - g(u) } with argmax and boundary/divergence reporting."""
    if not oracle.strict:
        raise ValueError("non-strict convex oracle refused")
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

    u = _solve_grad_1d(oracle, x, tol, max_iter)
    return ConjugateResult(x * u - float(oracle.eval(u)), u, False)


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
    if not oracle.strict:
        raise ValueError("non-strict convex oracle refused")
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
    return _solve_grad_1d(oracle, x, tol, max_iter)
