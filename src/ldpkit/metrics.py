"""Distances between paths: completed-graph Hausdorff metrics and the
integral metric ``rho_star``.

Graphs live in [0,1] x R^d with the Euclidean metric.  The Hausdorff
distances are computed by branch and bound over chain segments with a
certified absolute error below 1e-9: the distance-to-chain function is
1-Lipschitz along a segment, and the distance to any single target
segment is convex, which gives two cheap upper bounds for pruning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError
from .paths import CadlagPath

_CERT = 5e-10          # pruning slack; total error stays below 1e-9
_MAX_NODES = 500_000


@dataclass(frozen=True)
class GraphChain:
    """Connected polygonal chain of vertices (t, x) with t nondecreasing."""

    vertices: tuple

    def __post_init__(self):
        verts = tuple(tuple(float(c) for c in v) for v in self.vertices)
        if len(verts) < 2:
            raise ValueError("a chain needs at least two vertices")
        for a, b in zip(verts, verts[1:]):
            if b[0] < a[0]:
                raise ValueError("time coordinates must be nondecreasing")
        object.__setattr__(self, "vertices", verts)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.vertices, dtype=float)


def completed_graph(path: CadlagPath, modified: bool = False) -> GraphChain:
    """Polygonal chain through the graph of the path, jumps as vertical
    segments; modified=True prepends the segment from (0, 0) to (0, h(0))."""
    events = path._event_times()
    verts = []

    def push(t, x):
        v = (float(t), *np.atleast_1d(x).tolist())
        if not verts or verts[-1] != v:
            verts.append(v)

    if modified:
        push(0.0, np.zeros(path.dimension))
    push(0.0, path.values([0.0])[0])
    for t in events:
        if t == 0.0:
            continue
        push(t, path.values([t], side="left")[0])
        push(t, path.values([t])[0])
    if len(verts) == 1:
        push(1.0, path.values([1.0])[0])
    return GraphChain(tuple(verts))


class _ChainGeometry:
    """Precomputed segment arrays for fast point-to-chain distances."""

    def __init__(self, chain: GraphChain):
        pts = chain.as_array()
        self.verts = pts
        a, b = pts[:-1], pts[1:]
        keep = np.linalg.norm(b - a, axis=1) > 0
        if not np.any(keep):
            keep = np.zeros(len(a), dtype=bool)
            keep[0] = True
        self.a = a[keep]
        self.ab = b[keep] - a[keep]
        self.den = np.maximum(np.sum(self.ab * self.ab, axis=1), 1e-300)

    def dist(self, p: np.ndarray):
        """(min distance from p to the chain, index of the nearest segment)."""
        tt = np.clip(np.sum((p - self.a) * self.ab, axis=1) / self.den, 0.0, 1.0)
        gap = self.a + tt[:, None] * self.ab - p
        d2 = np.sum(gap * gap, axis=1)
        j = int(np.argmin(d2))
        return math.sqrt(float(d2[j])), j

    def dist_to_segment(self, p: np.ndarray, j: int) -> float:
        tt = min(max(float((p - self.a[j]) @ self.ab[j] / self.den[j]), 0.0), 1.0)
        return float(np.linalg.norm(self.a[j] + tt * self.ab[j] - p))


def _directed_sup(src: GraphChain, tgt: _ChainGeometry) -> float:
    """sup over points of src of the distance to tgt, within _CERT."""
    verts = src.as_array()
    best = 0.0
    dists = []
    for v in verts:
        d, _ = tgt.dist(v)
        dists.append(d)
        best = max(best, d)

    stack = []
    for i in range(len(verts) - 1):
        if np.any(verts[i + 1] != verts[i]):
            stack.append((verts[i], verts[i + 1], dists[i], dists[i + 1]))

    nodes = 0
    while stack:
        nodes += 1
        if nodes > _MAX_NODES:
            raise NonConvergenceError("hausdorff refinement did not certify")
        p, q, dp, dq = stack.pop()
        half = 0.5 * float(np.linalg.norm(q - p))
        if 0.5 * (dp + dq) + half <= best + _CERT:
            continue
        m = 0.5 * (p + q)
        dm, jm = tgt.dist(m)
        best = max(best, dm)
        # distance to one target segment is convex along [p, q], so its
        # endpoint max dominates the true sup whenever that segment rules
        if max(tgt.dist_to_segment(p, jm), tgt.dist_to_segment(q, jm)) <= best + _CERT:
            continue
        stack.append((p, m, dp, dm))
        stack.append((m, q, dm, dq))
    return best


def _hausdorff(ca: GraphChain, cb: GraphChain) -> float:
    ga, gb = _ChainGeometry(ca), _ChainGeometry(cb)
    return max(_directed_sup(ca, gb), _directed_sup(cb, ga))


def rho_2(g: CadlagPath, h: CadlagPath) -> float:
    """Hausdorff distance between the completed graphs."""
    return _hausdorff(completed_graph(g), completed_graph(h))


def rho_2_prime(g: CadlagPath, h: CadlagPath) -> float:
    """Hausdorff distance between the modified completed graphs, which
    include the vertical segment from (0, 0) to (0, h(0))."""
    return _hausdorff(completed_graph(g, modified=True),
                      completed_graph(h, modified=True))


def _integral_norm_affine(u: np.ndarray, w: np.ndarray, dt: float) -> float:
    """Exact integral of |u + s w| for s in [0, dt]."""
    aa = float(w @ w)
    if aa == 0.0:
        return float(np.linalg.norm(u)) * dt
    shift = float(u @ w) / aa
    k2 = max(float(u @ u) / aa - shift * shift, 0.0)
    s0, s1 = shift, dt + shift
    root = math.sqrt(aa)
    if k2 <= 0.0 or math.sqrt(k2) < 1e-15 * max(abs(s0), abs(s1), 1.0):
        # segment passes through (or starts at) zero: integrate |s| directly
        return root * 0.5 * (s1 * abs(s1) - s0 * abs(s0))
    k = math.sqrt(k2)

    def anti(s):
        return 0.5 * (s * math.hypot(s, k) + k2 * math.asinh(s / k))

    return root * (anti(s1) - anti(s0))


def rho_star(g: CadlagPath, h: CadlagPath) -> float:
    """Integral of |g - h| over [0, 1] plus the terminal gap |g(1) - h(1)|."""
    if g.dimension != h.dimension:
        raise ValueError("dimension mismatch")
    diff = g.shift(h, sign=-1.0)
    events = np.asarray(diff._event_times())
    starts = diff.values(events[:-1])
    rows = diff._slopes[diff._cells(0.5 * (events[:-1] + events[1:]))]
    total = sum(_integral_norm_affine(u, w, dt)
                for u, w, dt in zip(starts, rows, np.diff(events).tolist()))
    return total + float(np.linalg.norm(diff.values([1.0])[0]))


METRICS = {"rho2": rho_2, "rho2p": rho_2_prime, "rhostar": rho_star}
