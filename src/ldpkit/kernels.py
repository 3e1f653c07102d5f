"""Piecewise-linear weight kernels on [0, 1] with exact moment arithmetic."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Kernel:
    """A non-zero piecewise-linear function given by node values.

    ``breakpoints`` must start at 0, end at 1, and increase strictly; the
    function interpolates linearly between node values.
    """

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        bp = tuple(float(t) for t in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        if len(bp) != len(vals):
            raise ValueError("breakpoints and values differ in length")
        if len(bp) < 2 or bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must run from 0 to 1")
        if any(b >= c for b, c in zip(bp, bp[1:])):
            raise ValueError("breakpoints must increase strictly")
        if all(v == 0.0 for v in vals):
            raise ValueError("kernel must not vanish identically")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    # -- cached geometry -------------------------------------------------

    @cached_property
    def _bp(self) -> np.ndarray:
        return np.asarray(self.breakpoints)

    @cached_property
    def _vals(self) -> np.ndarray:
        return np.asarray(self.values)

    @cached_property
    def max_plus(self) -> float:
        return max(0.0, float(self._vals.max()))

    @cached_property
    def max_minus(self) -> float:
        return max(0.0, -float(self._vals.min()))

    @cached_property
    def _widths(self) -> np.ndarray:
        return np.diff(self._bp)

    @cached_property
    def _slopes(self) -> np.ndarray:
        return np.diff(self._vals) / self._widths

    @cached_property
    def lipschitz(self) -> float:
        return float(np.abs(self._slopes).max())

    @cached_property
    def m1(self) -> float:
        """Exact first moment: integral of f over [0, 1]."""
        dt = np.diff(self._bp)
        v = self._vals
        return float(np.sum(dt * (v[:-1] + v[1:]) / 2.0))

    @cached_property
    def m2(self) -> float:
        """Exact second moment: integral of f^2 over [0, 1]."""
        dt = np.diff(self._bp)
        a, b = self._vals[:-1], self._vals[1:]
        return float(np.sum(dt * (a * a + a * b + b * b) / 3.0))

    @cached_property
    def _antideriv(self) -> np.ndarray:
        dt = np.diff(self._bp)
        v = self._vals
        return np.concatenate([[0.0], np.cumsum(dt * (v[:-1] + v[1:]) / 2.0)])

    # -- evaluation --------------------------------------------------------

    def eval(self, t):
        return np.interp(t, self._bp, self._vals)

    def __call__(self, t):
        return self.eval(t)

    def pieces(self):
        """Iterate (t0, t1, f(t0), f(t1)) over linear pieces."""
        bp, v = self.breakpoints, self.values
        for i in range(len(bp) - 1):
            yield bp[i], bp[i + 1], v[i], v[i + 1]

    def integral(self, a: float, b: float) -> float:
        """Exact integral of f over [a, b] within [0, 1]."""
        if b < a:
            raise ValueError("integral endpoints out of order")
        return float(self.integrals((a, b))[0])

    def integrals(self, grid) -> np.ndarray:
        """Exact integrals of f over the cells [grid[i], grid[i + 1]].

        Takes differences of the antiderivative F(t) = int_0^t f, evaluated
        at all grid points at once: on the piece [t0, t1] holding t,
        F(t) = F(t0) + f(t0) s + slope s^2 / 2 with s = t - t0, F = 0 for
        t <= 0 and F = F(1) for t >= 1.  The grid must be nondecreasing.
        """
        t = np.asarray(grid, dtype=float)
        # index of the piece holding t, clamped to the first and last piece
        i = np.searchsorted(self._bp[1:-1], t, side="right")
        s = t - self._bp[i]
        anti = self._antideriv[i] + self._vals[i] * s + 0.5 * self._slopes[i] * s * s
        anti = np.where(t <= 0.0, 0.0, np.where(t >= 1.0, self._antideriv[-1], anti))
        return np.diff(anti)

    # -- extremal structure -------------------------------------------------

    def _level_intervals(self, level: float):
        """Maximal intervals (possibly points) on which f equals ``level``."""
        out = []
        bp, v = self.breakpoints, self.values
        cur = None
        for i, (t, val) in enumerate(zip(bp, v)):
            if val == level:
                flat = i + 1 < len(v) and v[i + 1] == level
                if cur is None:
                    cur = [t, t]
                if flat:
                    cur[1] = bp[i + 1]
                else:
                    cur[1] = max(cur[1], t)
                    out.append((cur[0], cur[1]))
                    cur = None
        if cur is not None:
            out.append((cur[0], cur[1]))
        return out

    @cached_property
    def argmax_intervals(self):
        return self._level_intervals(float(self._vals.max()))

    @cached_property
    def argmin_intervals(self):
        return self._level_intervals(float(self._vals.min()))

    def describe(self) -> str:
        parts = [f"{t:g}:{v:g}" for t, v in zip(self.breakpoints, self.values)]
        return "pwl:" + ",".join(parts)


def affine(a: float, b: float) -> Kernel:
    """f(t) = a + b t."""
    return Kernel((0.0, 1.0), (float(a), float(a) + float(b)))


def constant(c: float) -> Kernel:
    return Kernel((0.0, 1.0), (float(c), float(c)))


def identity() -> Kernel:
    return affine(0.0, 1.0)


def parse_kernel(spec: str) -> Kernel:
    """Build a kernel from ``affine:a,b``, ``const:c`` or ``pwl:t0:v0,...``."""
    name, _, rest = spec.partition(":")
    name = name.strip()
    if name == "affine":
        try:
            a, b = (float(p) for p in rest.split(","))
        except ValueError:
            raise ValueError(f"affine kernel needs two numbers, got {rest!r}") from None
        return affine(a, b)
    if name == "const":
        try:
            return constant(float(rest))
        except ValueError:
            raise ValueError(f"const kernel needs one number, got {rest!r}") from None
    if name == "pwl":
        ts, vs = [], []
        for item in rest.split(","):
            bits = item.split(":")
            if len(bits) != 2:
                raise ValueError(f"malformed pwl node {item!r}")
            ts.append(float(bits[0]))
            vs.append(float(bits[1]))
        return Kernel(tuple(ts), tuple(vs))
    raise ValueError(f"unknown kernel form {name!r}; known: affine, const, pwl")
