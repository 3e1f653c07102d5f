"""Gauss-Legendre quadrature.

Integrands here are smooth inside their interval.  ``adaptive_gl`` bisects
with a fixed 32-node rule, one level at a time, and takes scalar or
array-valued integrands.  In d = 1 the choice between a closed form and
quadrature for the E_f-type integrals is made in ``kernel_rate._walk``, the
one piece walker, for all intervals at once: the closed form is a bracket of
a primitive of K, which loses digits only where the tilt is small and the
integrand nearly constant, where ``adaptive_gl`` (E_f and its derivatives,
the clamp integral) takes over.  ``integrate_piece``, the per-interval form of that
choice, is called nowhere in the library; it stays only because the
benchmark's layer tracer (``benchmarks/tracer.py``) looks the name up, and
goes with the next change to the benchmark.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(32)
_MAX_DEPTH = 30


def gl32(fn: Callable, a, b):
    """32-node Gauss-Legendre passes over the panels [a, b] (numbers, or
    arrays of panel ends) from one call of fn, which maps a 1-D array of
    times to values with the times on the leading axis."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[..., None] + half[..., None] * _NODES
    vals = np.asarray(fn(nodes.reshape(-1)), dtype=float)
    sums = np.tensordot(vals.reshape(nodes.shape + vals.shape[1:]), _WEIGHTS,
                        axes=([a.ndim], [0]))
    out = half.reshape(half.shape + (1,) * (sums.ndim - half.ndim)) * sums
    return float(out) if out.ndim == 0 else out


def scaled_nodes(a: float, b: float):
    """32-point nodes and weights mapped onto [a, b]."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return mid + half * _NODES, half * _WEIGHTS


def adaptive_gl(fn: Callable, a: float, b: float, tol: float = 1e-12, cuts=()):
    """Adaptive bisection built on gl32, over [a, b] split first at ``cuts``.

    Accepts a panel once halving changes its estimate (its largest
    component, for an array-valued fn) by less than the length-prorated
    share of ``tol``.  All panels of one level go to one gl32 call.  Depth
    is capped, so an endpoint singularity costs at most ``_MAX_DEPTH`` levels.
    """
    if a == b:
        return 0.0
    edges = np.concatenate(([a], np.asarray(cuts, dtype=float), [b]))
    lo, hi = edges[:-1], edges[1:]
    whole = gl32(fn, lo, hi)
    acc = 0.0
    for depth in range(_MAX_DEPTH + 1):
        mid = 0.5 * (lo + hi)
        halves = gl32(fn, np.concatenate((lo, mid)), np.concatenate((mid, hi)))
        left, right = halves[:len(lo)], halves[len(lo):]
        fine = left + right
        # a panel with a non-finite estimate is accepted as it is
        change = np.abs(fine - whole).reshape(len(lo), -1)
        scale = np.abs(fine).reshape(len(lo), -1).max(axis=1)
        split = np.isfinite(change).all(axis=1) & (depth < _MAX_DEPTH) & (
            change.max(axis=1) > np.maximum(tol * (hi - lo) / (b - a), 1e-17 * (1.0 + scale)))
        acc = acc + fine[~split].sum(axis=0)
        if not split.any():
            break
        lo, hi = (np.concatenate((lo[split], mid[split])),
                  np.concatenate((mid[split], hi[split])))
        whole = np.concatenate((left[split], right[split]))
    return float(acc) if np.ndim(acc) == 0 else acc


def integrate_piece(fn: Callable, a: float, b: float, closed: float | None = None,
                    bound: float = math.inf, tol: float = 1e-12) -> float:
    """int_a^b fn: ``closed`` if its error ``bound`` is within
    tol * max(1, |closed|), else ``adaptive_gl`` to absolute accuracy ``tol``."""
    if closed is not None and bound <= tol * max(1.0, abs(closed)):
        return closed
    return adaptive_gl(fn, a, b, tol)
