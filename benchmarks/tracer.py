"""Spans and per-name aggregates recorded around calls into ldpkit.

The tracer replaces each layer's public functions by timing wrappers in
every ldpkit module that holds a reference to them, so a call is caught
where the calling module looks the name up (``kernel_rate`` and
``montecarlo`` import ``legendre`` and ``grad_inverse`` by name).  It also
wraps the callables of the ``CgfModel`` objects the benchmark builds.

Every wrapped call adds to its name's aggregate: calls, points (array size
of the first argument, for CGF callables), inclusive seconds and self
seconds, the latter being the duration minus the part covered by wrapped
calls made inside it.  Calls outside ``HOT`` also leave a span
``[name, start, end, parent]``; the hot leaves (CGF callables, quadrature
rules, ``e_f``/``e_f_grad``) run millions of times in one analysis, so they
are aggregated without a span each.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYERS = {
    "cgf": ("parse_model",),
    "kernels": ("parse_kernel",),
    "quadrature": ("gl32", "scaled_nodes", "adaptive_gl", "integrate_piece"),
    "kernel_rate": ("e_f", "e_f_grad", "ef_prime_range", "d_f", "m_plus_minus",
                    "i_f_conjugate", "i_f_explicit", "minimizer", "variational_rate",
                    "x_grid"),
    "conjugate": ("legendre", "grad_inverse"),
    "paths": ("i_d", "pair", "var", "random_path"),
    "metrics": ("rho_2", "rho_2_prime", "rho_star"),
    "montecarlo": ("estimate_tail", "exact_tail_oracle", "_projected_tilt"),
}

HOT = {"quadrature.gl32", "quadrature.scaled_nodes", "quadrature.adaptive_gl",
       "quadrature.integrate_piece", "kernel_rate.e_f", "kernel_rate.e_f_grad"}

# CgfModel fields wrapped per model: K, K', K'', I and I'.
MODEL_CALLABLES = {"cgf": "cgf.K", "cgf_grad": "cgf.K1", "cgf_hess": "cgf.K2",
                   "closed_rate": "cgf.rate", "rate_grad": "cgf.rate1"}


def _singular_flags(args, kwargs):
    left = args[3] if len(args) > 3 else kwargs.get("singular_left", False)
    right = args[4] if len(args) > 4 else kwargs.get("singular_right", False)
    return bool(left or right)


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.stats = {}        # name -> [calls, points, inclusive s, self s]
        self.counts = {}       # extra counters, e.g. singular quadrature pieces
        self._stack = []       # per open call: seconds covered by its children
        self._parent = -1
        self._undo = []

    # -- recording ----------------------------------------------------------

    def _open(self, name, span):
        self._stack.append([0.0])
        if not span:
            return None
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._parent])
        outer, self._parent = self._parent, idx
        return idx, outer

    def _close(self, name, token, t0, t1, points=0):
        child = self._stack.pop()[0]
        dur = t1 - t0
        if self._stack:
            self._stack[-1][0] += dur
        st = self.stats.setdefault(name, [0, 0, 0.0, 0.0])
        st[0] += 1
        st[1] += points
        st[2] += dur
        st[3] += dur - child
        if token is not None:
            idx, outer = token
            self.spans[idx][1], self.spans[idx][2] = t0, t1
            self._parent = outer

    def wrap(self, name, fn, span=True, points=False, counter=None):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if counter is not None and counter[1](args, kwargs):
                self.counts[counter[0]] = self.counts.get(counter[0], 0) + 1
            token = self._open(name, span)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, token, t0, clock(),
                            int(np.size(args[0])) if points and args else 0)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name):
        """A span around one of the benchmark's own operations."""
        token = self._open(name, True)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, token, t0, time.perf_counter())

    # -- patching -------------------------------------------------------------

    def patch(self):
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "ldpkit" or n.startswith("ldpkit."))]
        for layer, names in LAYERS.items():
            home = sys.modules["ldpkit." + layer]
            for attr in names:
                fn = getattr(home, attr)
                name = f"{layer}.{attr}"
                counter = (("quadrature.singular_piece_calls", _singular_flags)
                           if name == "quadrature.integrate_piece" else None)
                wrapped = self.wrap(name, fn, span=name not in HOT, counter=counter)
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, key, wrapped)
                            self._undo.append((mod, key, fn))
        cls = sys.modules["ldpkit.kernel_rate"].KernelRateProblem
        init = cls.__init__
        cls.__init__ = self.wrap("kernel_rate.KernelRateProblem", init, span=False)
        self._undo.append((cls, "__init__", init))

    def unpatch(self):
        for obj, key, val in reversed(self._undo):
            setattr(obj, key, val)
        self._undo.clear()

    def wrap_model(self, model):
        """Copy of a CgfModel whose callables (and tilted sampler) are traced."""
        fields = {f: self.wrap(name, getattr(model, f), span=False, points=True)
                  for f, name in MODEL_CALLABLES.items() if getattr(model, f) is not None}
        if model.tilted_sampler is not None:
            fields["tilted_sampler"] = self.wrap("cgf.tilted_draw", model.tilted_sampler,
                                                 span=False)
        return dataclasses.replace(model, **fields)

    # -- reading --------------------------------------------------------------

    def total(self, names, field):
        """Sum of one aggregate field (0 calls, 1 points, 2 inclusive s,
        3 self s) over names, or over every name with a given prefix."""
        if isinstance(names, str):
            names = [n for n in self.stats if n.startswith(names)]
        return sum(self.stats[n][field] for n in names if n in self.stats)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "stats": self.stats, "counts": self.counts},
                      fh)
