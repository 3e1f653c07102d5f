"""Gauss-Legendre quadrature, plus a tanh-sinh rule for pieces with a touched end.

Integrands here are smooth inside their interval.  An untouched piece gets
adaptive bisection with a fixed 32-node rule.  A piece with a flagged end,
where lam f touches a domain edge of K, may carry an integrable singularity
there, or a blow-up that is not integrable.  Such a piece gets one fixed
tanh-sinh table (Takahasi & Mori 1974), whose nodes crowd doubly
exponentially toward both ends.  The table stores each node as its distance
from the nearer end, so a node keeps its digits right up to the end; a node
that rounds onto an end is dropped.

Whether the integral over a touched piece is finite is the caller's to say,
since it follows from the model (see ``kernel_rate``).  Where the caller
cannot say, the terms at the flagged ends decide: if they have not fallen
below ``tol``, the integral is reported as +-inf.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(32)


def _tanh_sinh_table():
    """Distances from the nearer end and weights of tanh-sinh on [0, 1].

    Step h = 1/64 in t; node t sits 1 / (1 + exp(pi sinh t)) from an end
    with weight h (pi/4) cosh t sech^2((pi/2) sinh t).  Entry 0 is the
    midpoint, each later entry stands for two mirrored nodes.  Entries stop
    once the distance no longer moves 1.0 off itself.
    """
    h = 1.0 / 64.0
    t = np.arange(0.0, 8.0, h)
    q = np.exp(-math.pi * np.sinh(t))
    dist = q / (1.0 + q)
    weight = h * math.pi * np.cosh(t) * q / (1.0 + q) ** 2
    keep = 1.0 - dist < 1.0
    return dist[keep], weight[keep]


_TS_DIST, _TS_WEIGHT = _tanh_sinh_table()


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
                max_depth: int = 30, coarse: float | None = None) -> float:
    """Adaptive bisection built on gl32.

    Accepts a subinterval once halving changes its estimate by less than the
    length-prorated share of ``tol``.  Depth is capped; the cap is generous
    enough that only a genuine endpoint singularity (handled elsewhere) would
    hit it.  ``coarse`` is ``gl32(fn, a, b)`` when the caller already has it.
    """
    if a == b:
        return 0.0
    total_len = b - a
    if coarse is None:
        coarse = gl32(fn, a, b)
    stack = [(a, b, coarse, 0)]
    acc = 0.0
    while stack:
        lo, hi, coarse, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = gl32(fn, lo, mid)
        right = gl32(fn, mid, hi)
        fine = left + right
        if not math.isfinite(fine) or not math.isfinite(coarse):
            acc += fine
            continue
        share = tol * (hi - lo) / total_len
        if abs(fine - coarse) <= max(share, 1e-17 * (1.0 + abs(fine))) or depth >= max_depth:
            acc += fine
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    return acc


def integrate_piece(fn: Callable, a: float, b: float,
                    singular_left: bool = False, singular_right: bool = False,
                    tol: float = 1e-12, coarse: float | None = None) -> float:
    """Integrate fn over [a, b], whose flagged ends may be singular.

    An unflagged piece goes to ``adaptive_gl`` with absolute accuracy
    ``tol``.  A flagged piece goes through the tanh-sinh table; it returns
    +-inf (the sign of the term) when the outermost term at a flagged end is
    larger than ``tol``.  Pass ``tol=math.inf`` when the integral is known to
    be finite.  ``fn`` must be vectorised and finite strictly inside (a, b);
    a node where it is not finite has rounded onto a singular end.
    ``coarse`` passes a gl32 pass over [a, b] on to ``adaptive_gl``.
    """
    if a >= b:
        return 0.0
    if not (singular_left or singular_right):
        return adaptive_gl(fn, a, b, tol=tol, coarse=coarse)
    length = b - a
    total = 0.0
    for flagged, nodes, weights in (
            (singular_left, a + length * _TS_DIST, _TS_WEIGHT),
            (singular_right, b - length * _TS_DIST[1:], _TS_WEIGHT[1:])):
        inside = (nodes > a) & (nodes < b)
        terms = length * weights[inside] * np.asarray(fn(nodes[inside]), dtype=float)
        # fn sees t, not the distance to the end, so a node next to a singular
        # end can round onto the singularity; such a node is dropped
        terms = terms[np.isfinite(terms)]
        if flagged and abs(terms[-1]) > tol:
            return math.copysign(math.inf, terms[-1])
        total += float(np.sum(terms))
    return total
