"""Gauss-Legendre quadrature.

Integrands here are smooth inside their panels.  ``adaptive_gl`` bisects
with a fixed 32-node rule, one level at a time, over any number of panels
under one error budget (QUADPACK's design), and takes scalar or array-valued
integrands.  In d = 1 ``kernel_rate._walk``, the one piece walker, chooses
between a closed form and quadrature for the E_f-type integrals over all
intervals at once: a bracket of a primitive of K loses digits only where the
tilt is small and the integrand nearly constant, and the rough intervals of
one integral share one ``adaptive_gl`` pass.  ``integrate_piece``, the
per-interval form of that choice, is called nowhere in the library; it stays
only because the benchmark's layer tracer (``benchmarks/tracer.py``) looks
the name up, and goes with the next change to the benchmark.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import NonConvergenceError

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(32)
_MAX_DEPTH = 30
# panels of one level past the first, which holds the caller's panels (5003
# in the explicit route's one pass on a 5000-piece kernel): the tests,
# ``ldpkit selftest`` and the benchmark workloads peak at 30, 136 times
# below, and that pass at 22; an integrand that is rounding noise would
# split every panel down to _MAX_DEPTH, 2^30 of them
_MAX_PANELS = 4096


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


def adaptive_gl(fn: Callable, a, b, tol: float = 1e-12):
    """Adaptive bisection built on gl32, summed over the panels [a, b]
    (numbers, or equal-length arrays of panel ends).

    Accepts a panel once halving changes its estimate (its largest component,
    for an array-valued fn) by less than its length's share of ``tol``, the
    absolute budget of the pass.  All panels of one level go to one gl32
    call.  Depth is capped, so an endpoint singularity costs at most
    ``_MAX_DEPTH`` levels, and a level past the first with more than
    ``_MAX_PANELS`` panels raises NonConvergenceError.
    """
    lo, hi = np.array(a, dtype=float, ndmin=1), np.array(b, dtype=float, ndmin=1)
    if not (span := float((hi - lo).sum())):
        return 0.0
    whole, acc = gl32(fn, lo, hi), 0.0
    for depth in range(_MAX_DEPTH + 1):
        if depth and len(lo) > _MAX_PANELS:
            raise NonConvergenceError(f"adaptive quadrature needs over {_MAX_PANELS} "
                                      "panels in one level")
        mid = 0.5 * (lo + hi)
        halves = gl32(fn, np.concatenate((lo, mid)), np.concatenate((mid, hi)))
        left, right = halves[:len(lo)], halves[len(lo):]
        fine = left + right
        # a panel with a non-finite estimate is accepted as it is
        with np.errstate(invalid="ignore"):     # inf - inf
            change = np.abs(fine - whole).reshape(len(lo), -1)
        scale = np.abs(fine).reshape(len(lo), -1).max(axis=1)
        split = np.isfinite(change).all(axis=1) & (depth < _MAX_DEPTH) & (
            change.max(axis=1) > np.maximum(tol * (hi - lo) / span, 1e-17 * (1.0 + scale)))
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
