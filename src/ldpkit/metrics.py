"""Distances between paths: completed-graph Hausdorff metrics and the
integral metric ``rho_star``.

Graphs live in [0,1] x R^d with the Euclidean metric.  The Hausdorff
distances are computed by branch and bound over chain segments with a
certified absolute error below 1e-9: the distance-to-chain function is
1-Lipschitz along a segment, and the distance to any single target
segment is convex, which gives two cheap upper bounds for pruning.  The
bound runs one level at a time on arrays: each level prunes the whole
frontier of live segments, measures all their midpoints against all
target segments in one (point x segment) array, and halves the
survivors.  ``rho_star`` integrates |g - h| exactly on every cell of the
merged grid in one array expression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError
from .paths import CadlagPath

_CERT = 5e-10          # pruning slack; total error stays below 1e-9
_MAX_NODES = 500_000
_BLOCK = 1 << 13       # (point, segment) pairs per distance array


@dataclass(frozen=True)
class GraphChain:
    """Connected polygonal chain of vertices (t, x) with t nondecreasing."""

    vertices: tuple

    def __post_init__(self):
        pts = np.array(self.vertices, dtype=float, ndmin=2)
        if len(pts) < 2:
            raise ValueError("a chain needs at least two vertices")
        if (pts[1:, 0] < pts[:-1, 0]).any():
            raise ValueError("time coordinates must be nondecreasing")
        pts.setflags(write=False)
        object.__setattr__(self, "vertices", tuple(map(tuple, pts.tolist())))
        object.__setattr__(self, "_pts", pts)

    def as_array(self) -> np.ndarray:
        return self._pts


def completed_graph(path: CadlagPath, modified: bool = False) -> GraphChain:
    """Polygonal chain through the graph of the path, jumps as vertical
    segments; modified=True prepends the segment from (0, 0) to (0, h(0))."""
    ts, vals = path._event_values()
    rows = np.column_stack((ts, vals))
    if modified:
        rows = np.concatenate((np.zeros((1, rows.shape[1])), rows))
    keep = np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1)))
    return GraphChain(rows[keep])


def _dot(u, v):
    """Inner products along the first (coordinate) axis."""
    return np.add.reduce(u * v)


def _gap2(p, a, ab, den):
    """Squared distance from points p to segments a + [0, 1] ab.

    Coordinates run along the first axis; the other axes broadcast.
    """
    pa = p - a
    gap = pa - np.minimum(np.maximum(_dot(pa, ab) / den, 0.0), 1.0) * ab
    return _dot(gap, gap)


class _ChainGeometry:
    """Segment arrays of a chain for point-to-chain distances, shaped
    (coordinate, 1, segment)."""

    def __init__(self, pts: np.ndarray):
        a, b = pts[:-1], pts[1:]
        keep = (b != a).any(axis=1)
        if not keep.any():
            keep[0] = True
        self.a = a[keep].T[:, None]
        self.ab = (b[keep] - a[keep]).T[:, None]
        self.den = np.maximum(_dot(self.ab, self.ab)[0], 1e-300)

    def dist(self, p: np.ndarray):
        """(distance from each column of p to the chain, nearest segment)."""
        rows = max(1, _BLOCK // self.den.size)
        if p.shape[1] > rows:
            d, j = zip(*(self.dist(p[:, s:s + rows]) for s in range(0, p.shape[1], rows)))
            return np.concatenate(d), np.concatenate(j)
        d2 = _gap2(p[:, :, None], self.a, self.ab, self.den)
        return np.sqrt(d2.min(axis=1)), d2.argmin(axis=1)

    def seg_dist(self, p: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Distance from the points p[:, ..., i] to segment j[i]."""
        return np.sqrt(_gap2(p, self.a[..., j], self.ab[..., j], self.den[j]))


def _directed_sup(src: np.ndarray, tgt: _ChainGeometry) -> float:
    """sup over points of the src chain of the distance to tgt, within _CERT.

    Branch and bound on the src segments, a whole level of halves at a
    time.  The frontier has shape (coordinate or distance, end, segment):
    each end of a live segment is its coordinates and its distance to tgt.
    """
    pts = src.T
    dim = len(pts)
    dv, _ = tgt.dist(pts)
    best = float(dv.max())
    ends = np.concatenate((pts, dv[None]))
    i = np.flatnonzero((pts[:, 1:] != pts[:, :-1]).any(axis=0))
    front = ends[:, np.array((i, i + 1))]

    nodes = 0
    while front.shape[2]:
        nodes += front.shape[2]
        if nodes > _MAX_NODES:
            raise NonConvergenceError("hausdorff refinement did not certify")
        # the distance to the chain is 1-Lipschitz along [p, q]
        step = front[:dim, 1] - front[:dim, 0]
        reach = 0.5 * (front[dim, 0] + front[dim, 1] + np.sqrt(_dot(step, step)))
        front = front[..., reach > best + _CERT]
        m = 0.5 * (front[:dim, 0] + front[:dim, 1])
        dm, jm = tgt.dist(m)
        best = float(dm.max(initial=best))
        # distance to one target segment is convex along [p, q], so its
        # endpoint max dominates the true sup whenever that segment rules
        split = tgt.seg_dist(front[:dim], jm).max(axis=0) > best + _CERT
        mid = np.concatenate((m, dm[None]))[:, None, split]
        three = np.concatenate((front[:, :1, split], mid, front[:, 1:, split]), axis=1)
        front = np.concatenate((three[:, :2], three[:, 1:]), axis=2)
    return best


def _hausdorff(ca: GraphChain, cb: GraphChain) -> float:
    pa, pb = ca.as_array(), cb.as_array()
    if pa.shape[1] != pb.shape[1]:
        raise ValueError("dimension mismatch")
    return max(_directed_sup(pa, _ChainGeometry(pb)),
               _directed_sup(pb, _ChainGeometry(pa)))


def rho_2(g: CadlagPath, h: CadlagPath) -> float:
    """Hausdorff distance between the completed graphs."""
    return _hausdorff(completed_graph(g), completed_graph(h))


def rho_2_prime(g: CadlagPath, h: CadlagPath) -> float:
    """Hausdorff distance between the modified completed graphs, which
    include the vertical segment from (0, 0) to (0, h(0))."""
    return _hausdorff(completed_graph(g, modified=True),
                      completed_graph(h, modified=True))


def _integral_norm_affine(u: np.ndarray, w: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Exact integral of |u + s w| for s in [0, dt], one cell per column
    (coordinates run along the first axis)."""
    uu, uw, ww = _dot(u, u), _dot(u, w), _dot(w, w)
    flat = ww == 0.0
    ww = np.where(flat, 1.0, ww)
    shift = uw / ww
    s = np.stack((shift, dt + shift))
    k = np.sqrt(np.maximum(uu / ww - shift * shift, 0.0))
    # a segment through (or from) zero integrates |s|: there k counts as 0
    through = k < 1e-15 * np.maximum(abs(s).max(axis=0), 1.0)
    k, safe = np.where(through, 0.0, k), np.where(through, 1.0, k)
    anti = 0.5 * (s * np.hypot(s, k) + k * k * np.arcsinh(s / safe))
    return np.where(flat, np.sqrt(uu) * dt, np.sqrt(ww) * (anti[1] - anti[0]))


def rho_star(g: CadlagPath, h: CadlagPath) -> float:
    """Integral of |g - h| over [0, 1] plus the terminal gap |g(1) - h(1)|;
    ``CadlagPath.shift`` raises ValueError on a dimension mismatch."""
    diff = g.shift(h, sign=-1.0)
    events = np.asarray(diff._event_times())          # events[-1] == 1.0
    vals = diff.values(events)
    rows = diff._slopes[diff._cells(0.5 * (events[:-1] + events[1:]))]
    total = float(np.sum(_integral_norm_affine(vals[:-1].T, rows.T, np.diff(events))))
    return total + float(np.linalg.norm(vals[-1]))


METRICS = {"rho2": rho_2, "rho2p": rho_2_prime, "rhostar": rho_star}
