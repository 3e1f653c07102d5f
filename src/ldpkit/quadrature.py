"""Gauss-Legendre quadrature, and the guard that lets a closed form replace it.

Integrands here are smooth inside their interval.  ``adaptive_gl`` bisects
with a fixed 32-node rule.  ``integrate_piece`` takes the caller's closed
form of an integral when the caller's bound on its rounding error is within
``tol`` (relative to the value once it exceeds 1), and falls back to
``adaptive_gl`` otherwise.  For the E_f-type integrals the closed form is a
bracket of the model primitive (see ``kernel_rate``); it loses digits only
where the tilt is small and the integrand nearly constant, which is where
the adaptive rule is cheapest.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(32)


def gl32(fn: Callable, a: float, b: float) -> float:
    """Single 32-node Gauss-Legendre pass over [a, b]."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    vals = np.asarray(fn(mid + half * _NODES), dtype=float)
    return half * float(np.dot(_WEIGHTS, vals))


def scaled_nodes(a: float, b: float):
    """32-point nodes and weights mapped onto [a, b]."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return mid + half * _NODES, half * _WEIGHTS


def adaptive_gl(fn: Callable, a: float, b: float, tol: float = 1e-12,
                max_depth: int = 30) -> float:
    """Adaptive bisection built on gl32.

    Accepts a subinterval once halving changes its estimate by less than the
    length-prorated share of ``tol``.  Depth is capped, so an endpoint
    singularity costs at most ``max_depth`` levels of panels.
    """
    if a == b:
        return 0.0
    total_len = b - a
    stack = [(a, b, gl32(fn, a, b), 0)]
    acc = 0.0
    while stack:
        lo, hi, whole, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = gl32(fn, lo, mid)
        right = gl32(fn, mid, hi)
        fine = left + right
        if not math.isfinite(fine) or not math.isfinite(whole):
            acc += fine
            continue
        share = tol * (hi - lo) / total_len
        if abs(fine - whole) <= max(share, 1e-17 * (1.0 + abs(fine))) or depth >= max_depth:
            acc += fine
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    return acc


def integrate_piece(fn: Callable, a: float, b: float, closed: float | None = None,
                    bound: float = math.inf, tol: float = 1e-12) -> float:
    """int_a^b fn: ``closed`` if its error ``bound`` is within
    tol * max(1, |closed|), else ``adaptive_gl`` to absolute accuracy ``tol``."""
    if closed is not None and bound <= tol * max(1.0, abs(closed)):
        return closed
    return adaptive_gl(fn, a, b, tol)
