"""Distances between paths: completed-graph Hausdorff metrics and the
integral metric ``rho_star``.

Graphs live in [0,1] x R^d with the Euclidean metric.  The Hausdorff
distances are computed by branch and bound over chain segments with a
certified absolute error below 1e-9.  Each end of a live interval carries
its nearest target segment; the distance to any single target segment is
convex, so an interval whose ends share that segment is done, and else the
chords of the two ends' segment distances bound the distance to the chain
from above.  The bound runs one level at a time on arrays: each level
prunes the whole frontier by the chords' crossing value, splits the
survivors there and measures all split points against all target segments
in one (point x segment) array.  The second directed sup starts from the
first one's value.  ``rho_star`` integrates |g - h| exactly on every cell
of the merged grid in one array expression.
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
        if not np.isfinite(pts).all():
            raise ValueError("vertices must be finite")
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
    (coordinate, segment)."""

    def __init__(self, pts: np.ndarray):
        a, b = pts[:-1], pts[1:]
        keep = (b != a).any(axis=1)
        if not keep.any():
            keep[0] = True
        # contiguous copies, not transposed views: over the views rho_2 of
        # two 1600-step walks took twice as long
        self.a = np.ascontiguousarray(a[keep].T)
        self.ab = np.ascontiguousarray((b[keep] - a[keep]).T)
        self.den = np.maximum(_dot(self.ab, self.ab), 1e-300)

    def dist(self, p: np.ndarray):
        """(distance from each column of p to the chain, nearest segment)."""
        rows = max(1, _BLOCK // self.den.size)
        if p.shape[1] > rows:
            d, j = zip(*(self.dist(p[:, s:s + rows]) for s in range(0, p.shape[1], rows)))
            return np.concatenate(d), np.concatenate(j)
        d2 = _gap2(p[:, :, None], self.a[:, None], self.ab[:, None], self.den)
        return np.sqrt(d2.min(axis=1)), d2.argmin(axis=1)

    def seg_dist(self, p: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Distance from the points p[:, ...] to the segments j[...]."""
        return np.sqrt(_gap2(p, self.a[:, j], self.ab[:, j], self.den[j]))


def _directed_sup(src: np.ndarray, tgt: _ChainGeometry, floor: float = 0.0) -> float:
    """max(floor, sup over points of the src chain of the distance d to
    tgt), within _CERT.

    Branch and bound on the src segments, a whole level at a time.  The
    frontier has shape (row, end, interval): each end of a live interval
    [p, q] is its coordinates, its d and the index j of its nearest tgt
    segment (stored as a float).  The distance d_j to one segment is convex
    along [p, q], so where jp == jq the sup is at an end.  Else d <=
    min(d_jp, d_jq) lies below the lesser of the two chords of d_jp and
    d_jq, whose max is where the chords cross: an interval whose crossing
    value cannot beat best is pruned, the rest split at the crossing.
    Where both distances are affine the chords are exact, so a kink maximum
    is measured in one split.
    """
    pts = src.T
    dim = len(pts)
    dv, jv = tgt.dist(pts)
    best = float(dv.max(initial=floor))
    ends = np.concatenate((pts, dv[None], jv[None]))
    i = np.flatnonzero((pts[:, 1:] != pts[:, :-1]).any(axis=0))
    front = ends[:, np.array((i, i + 1))]

    nodes = 0
    while True:
        nodes += front.shape[2]
        if nodes > _MAX_NODES:
            raise NonConvergenceError("hausdorff refinement did not certify")
        d, j = front[dim], front[dim + 1].astype(np.intp)
        # d_jq(p) and d_jp(q) in one call: how far each chord rises above
        # the other end's own distance
        rise = np.maximum(tgt.seg_dist(front[:dim], j[::-1]) - d, 0.0)
        s = rise[0] / np.maximum(rise.sum(axis=0), 1e-300)
        top = d[0] + s * (rise[1] + d[1] - d[0])
        live = (top > best + _CERT) & (j[0] != j[1])
        if not live.any():
            return best
        # split at the crossing, kept a tenth of the interval from its ends so
        # that every split shrinks the interval by that much at least
        front, s = front[..., live], np.minimum(np.maximum(s[live], 0.1), 0.9)
        m = front[:dim, 0] + s * (front[:dim, 1] - front[:dim, 0])
        dm, jm = tgt.dist(m)
        best = float(dm.max(initial=best))
        mid = np.concatenate((m, dm[None], jm[None]))[:, None]
        front = np.concatenate((np.concatenate((front[:, :1], mid), axis=1),
                                np.concatenate((mid, front[:, 1:]), axis=1)), axis=2)


def _hausdorff(ca: GraphChain, cb: GraphChain) -> float:
    pa, pb = ca.as_array(), cb.as_array()
    if pa.shape[1] != pb.shape[1]:
        raise ValueError("dimension mismatch")
    # the metric is the max of the two directed sups: the first one is a
    # floor that the second need not beat
    return _directed_sup(pb, _ChainGeometry(pa), _directed_sup(pa, _ChainGeometry(pb)))


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
    events = diff._event_times()                      # events[-1] == 1.0
    vals = diff.values(events)
    rows = diff._slopes[diff._cells(0.5 * (events[:-1] + events[1:]))]
    total = float(np.sum(_integral_norm_affine(vals[:-1].T, rows.T, np.diff(events))))
    return total + float(np.linalg.norm(vals[-1]))


METRICS = {"rho2": rho_2, "rho2p": rho_2_prime, "rhostar": rho_star}
