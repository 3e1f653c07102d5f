"""Cadlag paths of bounded variation with piecewise-constant slopes and jumps.

A path starts from h(0-) = 0, moves with a constant slope on each grid
interval, and jumps at finitely many times (a jump at 0 encodes h(0) != 0,
a jump at 1 is allowed).  Construction canonicalises: adjacent intervals
with equal slopes merge, same-time jumps add up, zero jumps vanish.

A path keeps its canonical grid, slopes and jumps as read-only numpy
arrays, and every method computes from those.  ``grid``, ``slopes`` and
``jumps`` are read-only tuple views of them, built on first read and kept,
so a caller who only prices or pairs a path never pays for the tuples.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property

import numpy as np

from .cgf import CgfModel
from .kernels import Kernel


def _vec(x, dimension):
    if dimension == 1:
        return float(x) if np.ndim(x) == 0 else float(np.asarray(x).reshape(()))
    arr = tuple(float(c) for c in np.asarray(x).reshape(-1))
    if len(arr) != dimension:
        raise ValueError("component count does not match dimension")
    return arr


def _norm(x) -> float:
    if np.ndim(x) == 0:
        return abs(float(x))
    return float(np.linalg.norm(np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class SphericalMeasure:
    """Finite measure on unit directions, as (direction, mass) atoms."""

    dimension: int
    atoms: tuple

    def __post_init__(self):
        cleaned = []
        for direction, mass in self.atoms:
            mass = float(mass)
            if mass <= 0:
                raise ValueError("atom masses must be positive")
            d = _vec(direction, self.dimension)
            if abs(_norm(d) - 1.0) > 1e-12:
                raise ValueError("directions must be unit vectors")
            cleaned.append((d, mass))
        object.__setattr__(self, "atoms", tuple(cleaned))

    def total(self) -> float:
        return sum(m for _, m in self.atoms)


class CadlagPath:
    """A path h on [0, 1] with h(0-) = 0: a slope per grid cell, plus jumps.

    ``CadlagPath(dimension, grid, slopes, jumps=())`` checks and
    canonicalises its input.  The canonical numpy arrays are its state:
    ``_grid`` (the nodes), ``_slopes`` (one row of d components per cell),
    ``_jump_times`` and ``_jump_vals`` (one row per jump), all read-only.
    ``grid``, ``slopes`` and ``jumps`` are read-only tuple views of them
    (floats, one tuple per slope or jump value in d > 1), built on first
    read and then kept.  Only serialisation, equality, the hash and
    ``repr`` read them; those go by (dimension, grid, slopes, jumps).
    Assigning to an attribute raises ``FrozenInstanceError``.
    """

    def __init__(self, dimension: int, grid, slopes, jumps=()):
        d = dimension
        if d < 1:
            raise ValueError("dimension must be >= 1")
        grid = np.asarray(grid, dtype=float).reshape(-1)
        if len(grid) < 2 or grid[0] != 0.0 or grid[-1] != 1.0:
            raise ValueError("grid must run from 0 to 1")
        if not (grid[:-1] < grid[1:]).all():     # a nan node fails every compare
            raise ValueError("grid must increase strictly")
        slopes = np.asarray(slopes, dtype=float)
        if slopes.size != d * len(slopes):
            raise ValueError("component count does not match dimension")
        slopes = slopes.reshape(len(slopes), d)
        if len(slopes) != len(grid) - 1:
            raise ValueError("need one slope per grid interval")

        # Merge adjacent intervals carrying identical slopes: a grid point
        # stays where the slope changes.  Boolean indexing copies, so the
        # arrays kept are never the caller's.
        keep = np.concatenate(([True], (slopes[1:] != slopes[:-1]).any(axis=1)))
        slopes = slopes[keep]
        grid = grid[np.concatenate((keep, [True]))]

        # Combine jumps at equal times (added in the order given: np.add.at
        # is unbuffered), drop zero jumps, sort by time.
        times, vals = np.zeros(0), np.zeros((0, d))
        if jumps:
            ts = [float(t) for t, _ in jumps]
            if not all(0.0 <= t <= 1.0 for t in ts):
                raise ValueError("jump times must lie in [0, 1]")
            rows = [np.asarray(v, dtype=float).reshape(-1) for _, v in jumps]
            if any(r.size != d for r in rows):
                raise ValueError("jump component count does not match dimension")
            times = np.array(sorted(set(ts)))
            vals = np.zeros((len(times), d))
            np.add.at(vals, np.searchsorted(times, ts), rows)
            keep = vals.any(axis=1)
            times, vals = times[keep], vals[keep]
        if not (np.isfinite(slopes).all() and np.isfinite(vals).all()):
            raise ValueError("slopes and jump values must be finite")

        for arr in (grid, slopes, times, vals):
            arr.setflags(write=False)
        vars(self).update(dimension=d, _grid=grid, _slopes=slopes,
                          _jump_times=times, _jump_vals=vals)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    # -- tuple views, built on first read --------------------------------

    @cached_property
    def grid(self) -> tuple:
        return tuple(self._grid.tolist())

    @cached_property
    def slopes(self) -> tuple:
        s = self._slopes
        return tuple(s[:, 0].tolist() if self.dimension == 1 else map(tuple, s.tolist()))

    @cached_property
    def jumps(self) -> tuple:
        v = self._jump_vals
        return tuple(zip(self._jump_times.tolist(),
                         v[:, 0].tolist() if self.dimension == 1 else map(tuple, v.tolist())))

    def _key(self) -> tuple:
        return self.dimension, self.grid, self.slopes, self.jumps

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"{type(self).__qualname__}(dimension={self.dimension!r}, grid={self.grid!r}, "
                f"slopes={self.slopes!r}, jumps={self.jumps!r})")

    # -- cached numeric views -------------------------------------------

    @cached_property
    def _jump_cum(self) -> np.ndarray:
        """Sum of the jumps up to each jump, from h(0-) = 0."""
        return np.concatenate([np.zeros((1, self.dimension)),
                               np.cumsum(self._jump_vals, axis=0)])

    @cached_property
    def _ac_nodes(self) -> np.ndarray:
        """Absolutely continuous part evaluated at the grid nodes."""
        inc = self._slopes * np.diff(self._grid)[:, None]
        return np.concatenate([np.zeros((1, self.dimension)), np.cumsum(inc, axis=0)])

    # -- evaluation -------------------------------------------------------

    def _cells(self, ts) -> np.ndarray:
        """Index of the grid cell holding each time (t = 1 in the last cell)."""
        idx = np.searchsorted(self._grid, ts, side="right") - 1
        return np.maximum(np.minimum(idx, len(self._slopes) - 1), 0)

    def _ac_at(self, ts: np.ndarray) -> np.ndarray:
        idx = self._cells(ts)
        base = self._ac_nodes[idx]
        return base + self._slopes[idx] * (ts - self._grid[idx])[:, None]

    def values(self, ts, side: str = "right") -> np.ndarray:
        """Path values at times ts; side='left' gives left limits (h(0-) = 0)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = self._ac_at(ts)
        if len(self._jump_times):
            cmp = "right" if side == "right" else "left"
            counts = np.searchsorted(self._jump_times, ts, side=cmp)
            out = out + self._jump_cum[counts]
        return out

    def value(self, t: float, side: str = "right"):
        v = self.values([t], side=side)[0]
        return float(v[0]) if self.dimension == 1 else v

    # -- functionals --------------------------------------------------------

    def var(self) -> float:
        """Total variation, counting h(0) as a jump from h(0-) = 0."""
        dt = np.diff(self._grid)
        ac = float(np.sum(np.linalg.norm(self._slopes, axis=1) * dt))
        return ac + float(np.sum(np.linalg.norm(self._jump_vals, axis=1)))

    def sup_norm(self) -> float:
        """Max of |h(t)| over [0, 1] (exact: linear between events)."""
        _, rows = self._event_values()
        return max(map(_norm, rows[:, 0] if self.dimension == 1 else rows))

    def _event_times(self) -> np.ndarray:
        """Sorted union of the grid and the jump times.  The sort is stable
        and the grid comes first, so a node wins a tie (0.0 over a jump at
        -0.0), as in a set of the grid joined by the jump times."""
        events = np.concatenate((self._grid, self._jump_times))
        events.sort(kind="stable")
        return events[np.concatenate(([True], events[1:] != events[:-1]))]

    def _event_values(self):
        """(times, values): h(0), then h(t-) and h(t) at each later event.

        h(0-) = 0 is a convention, not an attained value, so it is left out.
        """
        events = self._event_times()                   # events[0] == 0.0
        ts = np.repeat(events, 2)[1:]
        rows = np.empty((len(ts), self.dimension))
        rows[0::2] = self.values(events)
        rows[1::2] = self.values(events[1:], side="left")
        return ts, rows

    def lebesgue_split(self):
        """(absolutely continuous part, pure-jump part)."""
        d = self.dimension
        ac = CadlagPath(d, self._grid, self._slopes, ())
        sj = CadlagPath(d, (0.0, 1.0), np.zeros((1, d)),
                        tuple(zip(self._jump_times, self._jump_vals)))
        return ac, sj

    def directional(self) -> SphericalMeasure:
        """Image of the singular part: mass |jump| at direction jump/|jump|."""
        acc = {}
        vals = self._jump_vals[:, 0] if self.dimension == 1 else self._jump_vals
        for v in vals.tolist():
            m = _norm(v)
            if self.dimension == 1:
                d = 1.0 if v > 0 else -1.0
            else:
                d = tuple(c / m for c in v)
            acc[d] = acc.get(d, 0.0) + m
        return SphericalMeasure(self.dimension, tuple(acc.items()))

    def i_d(self, model: CgfModel) -> float:
        """Action of the path: rate of the slopes plus priced jump masses."""
        if model.dimension != self.dimension:
            raise ValueError("model dimension does not match path")
        slopes = self._slopes[:, 0] if self.dimension == 1 else self._slopes
        rates = np.atleast_1d(np.asarray(model.rate(slopes), dtype=float))
        if not np.all(np.isfinite(rates)):
            return math.inf
        total = float(np.sum(rates * np.diff(self._grid)))
        for direction, mass in self.directional().atoms:
            price = model.recession(direction)
            if not math.isfinite(price):
                return math.inf
            total += price * mass
        return total

    def pair(self, kernel: Kernel) -> object:
        """Pairing integral of f d h: exact on pieces plus f at jump times."""
        ints = kernel.integrals(self._grid)
        out = np.zeros(self.dimension)
        out += np.sum(self._slopes * ints[:, None], axis=0)
        if len(self._jump_times):
            f_at = np.asarray(kernel.eval(self._jump_times), dtype=float)
            out = out + np.sum(f_at[:, None] * self._jump_vals, axis=0)
        return float(out[0]) if self.dimension == 1 else out

    def sup_functional(self, direction) -> float:
        """sup over t of <h(t), l>, scanning event left/right values."""
        l = np.atleast_1d(np.asarray(direction, dtype=float))
        _, rows = self._event_values()
        return max(float(v @ l) for v in rows)

    def shift(self, other: "CadlagPath", sign: float = 1.0) -> "CadlagPath":
        """self + sign * other on the merged grid."""
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        grid = np.union1d(self._grid, other._grid)
        mids = (grid[:-1] + grid[1:]) / 2.0
        slopes = (self._slopes[self._cells(mids)]
                  + sign * other._slopes[other._cells(mids)])
        times = np.concatenate([self._jump_times, other._jump_times])
        vals = np.concatenate([self._jump_vals, sign * other._jump_vals])
        return CadlagPath(self.dimension, grid, slopes, tuple(zip(times, vals)))

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        lines = ["grid: " + " ".join(repr(t) for t in self.grid)]
        for i, s in enumerate(self.slopes):
            comps = (s,) if self.dimension == 1 else s
            lines.append(f"slope {i}: " + " ".join(repr(c) for c in comps))
        for t, v in self.jumps:
            comps = (v,) if self.dimension == 1 else v
            lines.append(f"jump {t!r}: " + " ".join(repr(c) for c in comps))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "CadlagPath":
        grid = None
        slopes = {}
        jumps = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            head, _, rest = line.partition(":")
            parts = rest.split()
            if head == "grid":
                grid = tuple(float(p) for p in parts)
            elif head.startswith("slope"):
                idx = int(head.split()[1])
                slopes[idx] = tuple(float(p) for p in parts)
            elif head.startswith("jump"):
                t = float(head.split()[1])
                jumps.append((t, tuple(float(p) for p in parts)))
            else:
                raise ValueError(f"unrecognised path line {line!r}")
        if grid is None or not slopes:
            raise ValueError("path text needs a grid line and slope lines")
        dim = len(slopes[0])
        ordered = []
        for i in range(len(slopes)):
            if i not in slopes:
                raise ValueError("slope indices must be contiguous")
            ordered.append(slopes[i] if dim > 1 else slopes[i][0])
        if dim == 1:
            jumps = [(t, v[0]) for t, v in jumps]
        return CadlagPath(dim, grid, tuple(ordered), tuple(jumps))

    def to_dict(self) -> dict:
        return {
            "grid": list(self.grid),
            "slopes": [list(s) if self.dimension > 1 else s for s in self.slopes],
            "jumps": [[t, list(v) if self.dimension > 1 else v] for t, v in self.jumps],
        }

    @staticmethod
    def from_dict(data: dict) -> "CadlagPath":
        slopes = data["slopes"]
        dim = len(slopes[0]) if slopes and isinstance(slopes[0], (list, tuple)) else 1
        jumps = tuple((t, tuple(v) if isinstance(v, (list, tuple)) else v)
                      for t, v in data.get("jumps", []))
        return CadlagPath(dim, tuple(data["grid"]),
                          tuple(tuple(s) if dim > 1 else s for s in slopes), jumps)


# ----------------------------------------------------------------------
# Module-level operations (thin wrappers; the methods do the work)
# ----------------------------------------------------------------------

def var(path: CadlagPath) -> float:
    return path.var()


def lebesgue_split(path: CadlagPath):
    return path.lebesgue_split()


def directional(path: CadlagPath) -> SphericalMeasure:
    return path.directional()


def i_d(path: CadlagPath, model: CgfModel) -> float:
    return path.i_d(model)


def pair(kernel: Kernel, path: CadlagPath):
    return path.pair(kernel)


def sup_functional(path: CadlagPath, direction) -> float:
    return path.sup_functional(direction)


def random_path(dimension: int, max_pieces: int, max_jumps: int, seed: int,
                max_var: float = 8.0) -> CadlagPath:
    """Reproducible random path with total variation capped at max_var."""
    rng = np.random.default_rng(seed)
    npieces = int(rng.integers(1, max_pieces + 1))
    interior = np.sort(rng.uniform(0.05, 0.95, size=npieces - 1))
    interior = interior[np.diff(np.concatenate([[0.0], interior])) > 1e-6]
    grid = (0.0, *interior.tolist(), 1.0)
    m = len(grid) - 1
    slopes = rng.normal(0.0, 2.0, size=(m, dimension))

    njumps = int(rng.integers(0, max_jumps + 1))
    times = rng.uniform(0.0, 1.0, size=njumps)
    if njumps and rng.random() < 0.15:
        times[0] = 0.0      # exercise the jump-at-zero convention
    if njumps > 1 and rng.random() < 0.15:
        times[-1] = 1.0     # terminal jumps are allowed
    vals = rng.normal(0.0, 1.5, size=(njumps, dimension))

    def build(slopes, vals):
        s = [tuple(row) if dimension > 1 else row[0] for row in slopes]
        j = [(t, tuple(row) if dimension > 1 else row[0])
             for t, row in zip(times, vals)]
        return CadlagPath(dimension, grid, tuple(s), tuple(j))

    path = build(slopes, vals)
    v = path.var()
    if v > max_var:
        scale = max_var / v
        path = build(slopes * scale, vals * scale)
    return path


# ----------------------------------------------------------------------
# Partition-based evaluation (supremum-form consistency checks)
# ----------------------------------------------------------------------

def variation_on_partition(path: CadlagPath, points) -> float:
    """Variation of the polygonal interpolant through (t, h(t)), h^t(0) = 0."""
    ts = np.asarray(sorted({float(t) for t in points} | {1.0}))
    ts = ts[(ts > 0.0) & (ts <= 1.0)]
    vals = path.values(ts)
    prev = np.zeros(path.dimension)
    total = 0.0
    for v in vals:
        total += _norm(v - prev)
        prev = v
    return total


def action_on_partition(path: CadlagPath, model: CgfModel, points) -> float:
    """Rate-integral of the polygonal interpolant (h^t(0) = 0 convention)."""
    ts = np.asarray(sorted({float(t) for t in points} | {1.0}))
    ts = ts[(ts > 0.0) & (ts <= 1.0)]
    vals = path.values(ts)
    full_t = np.concatenate([[0.0], ts])
    full_v = np.concatenate([np.zeros((1, path.dimension)), vals])
    dt = np.diff(full_t)
    slopes = np.diff(full_v, axis=0) / dt[:, None]
    if path.dimension == 1:
        rates = np.atleast_1d(np.asarray(model.rate(slopes[:, 0]), dtype=float))
    else:
        rates = np.atleast_1d(np.asarray(model.rate(slopes), dtype=float))
    if not np.all(np.isfinite(rates)):
        return math.inf
    return float(np.sum(rates * dt))


def refinement_partition(path: CadlagPath, level: int) -> list:
    """Nested partitions: dyadic points, events, and left approaches to jumps."""
    pts = {i / 2.0 ** level for i in range(1, 2 ** level + 1)}
    pts |= set(path._grid[1:].tolist())
    events = path._event_times().tolist()
    for t in path._jump_times.tolist():
        if t == 0.0:
            continue
        i = events.index(t)
        gap = t - (events[i - 1] if i > 0 else 0.0)
        base = min(t, max(gap, 1e-3))
        for j in range(1, level + 1):
            pts.add(t - base * 8.0 ** (-j))
        pts.add(t)
    return sorted(p for p in pts if 0.0 < p <= 1.0)
