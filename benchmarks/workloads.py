"""Workloads, their seeded inputs, and the timed rounds that drive ldpkit.

A run repeats whole rounds until its time is spent.  A round first parses
every rate pair of the workload afresh from its spec strings, as the CLI
does, and times the first answer of both i_f routes (the cold operation,
which starts from an empty analysis cache); then it runs each kind of
operation a fixed number of times, spread evenly through the round: more
cold parses each followed by the pair's i_f sweep over its level grid,
minimizing paths priced by i_d together with ``variational_rate``, the path
metrics, and the tail estimates.  Every workload runs every kind, so that it
reports every end-to-end metric; what sets a workload apart is which inputs
carry the weight (see README.md).  Every timing is scaled to a reference
speed of the host (see ``reference_seconds``); an end-to-end timing takes the
median repetition of each case and sums or averages over cases.
"""

from __future__ import annotations

import math
import statistics
import time
import traceback
from dataclasses import dataclass, field
from functools import partial

import numpy as np

import ldpkit as lp


@dataclass(frozen=True)
class Pair:
    model: str
    kernel: str
    span: tuple         # (lo, hi) of the seeded warm grid
    fixed: tuple = ()   # levels always on the grid


PAIRS = {
    "gaussian-identity": Pair("gaussian:mu=0,sigma=1", "affine:0,1", (-2.0, 2.0)),
    "gaussian-affine": Pair("gaussian:mu=0,sigma=1", "affine:0.5,1", (-2.0, 2.0)),
    "gaussian2-affine": Pair("gaussian:mu=0.5,sigma=2", "affine:0.5,1", (-1.5, 2.5)),
    "gaussian-tent": Pair("gaussian:mu=0,sigma=1", "pwl:0:0,0.5:1,1:0", (-1.5, 1.5)),
    "cexp-const1": Pair("cexp", "const:1", (-0.8, 2.5)),
    "cexp-identity": Pair("cexp", "affine:0,1", (-0.4, 2.0)),
    "rademacher-identity": Pair("rademacher", "affine:0,1", (-0.4, 0.4)),
    "rademacher-const1": Pair("rademacher", "const:1", (-0.8, 0.8)),
    "poisson-const1": Pair("poisson:rate=1", "const:1", (-0.8, 2.5)),
    "poisson-identity": Pair("poisson:rate=1", "affine:0,1", (-0.4, 2.0)),
    "synthetic-identity": Pair("synthetic-boundary", "affine:0,1", (-1.0, 1.5), (1.0,)),
}


SAMPLES = 10_000   # per tail estimate


@dataclass(frozen=True)
class McCase:
    pair: str
    n: int
    a: float
    # A fixed estimator seed marks a case that fails today whatever the seed;
    # it keeps its seed so that it fails in every run, and it is left out of
    # mc.time_to_1pct_s so that mending it adds no term.
    fixed_seed: int = None

    @property
    def name(self):
        return f"{self.pair}-n{self.n}"


@dataclass(frozen=True)
class Reps:
    """Repetitions per round of each kind of operation.  Each warm sweep
    follows a cold operation of its pair, so ``warm`` is at most ``cold``."""
    cold: int = 1
    warm: int = 1
    path: int = 1
    metrics: int = 1
    mc: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    rate_pairs: tuple
    grid: int               # seeded levels per pair in the warm sweep
    path_cases: tuple       # (pair, level): minimizer + pair + i_d, variational_rate
    triples: tuple          # (dimension, count) of seeded random_path triples
    closed: tuple           # (kind, n): path pairs with known distances
    mc_cases: tuple
    reps: Reps
    cold_once: tuple = ()   # pairs whose cold operation takes seconds: parsed once a round


CATALOG = ("gaussian-identity", "gaussian-affine", "gaussian2-affine", "gaussian-tent",
           "cexp-const1", "cexp-identity", "rademacher-identity", "poisson-const1",
           "poisson-identity", "synthetic-identity")
TAIL_PAIRS = ("gaussian-identity", "rademacher-const1", "poisson-const1", "cexp-const1")
CLOSED = (("two-block", 10), ("two-block", 50), ("two-block", 200),
          ("oscillation", 4), ("oscillation", 8))

WORKLOADS = {w.name: w for w in (
    Workload("rate-catalog", CATALOG, grid=24,
             path_cases=(("gaussian-affine", 1.0), ("poisson-identity", 1.0)),
             triples=(), closed=CLOSED,
             mc_cases=(McCase("gaussian-affine", 400, 0.5),
                       McCase("poisson-const1", 400, 0.5)),
             reps=Reps(cold=4, warm=4, path=5, metrics=5, mc=4),
             cold_once=("cexp-identity", "gaussian-tent")),
    Workload("path-geometry", ("gaussian-identity", "cexp-const1", "synthetic-identity"),
             grid=16,
             path_cases=(("gaussian-identity", 0.5), ("gaussian-identity", 1.0),
                         ("cexp-const1", -0.5), ("cexp-const1", 0.5), ("cexp-const1", 1.5),
                         ("synthetic-identity", 0.15), ("synthetic-identity", 0.5)),
             triples=((1, 40), (2, 40)), closed=(("two-block", 50), ("oscillation", 16)),
             mc_cases=(McCase("gaussian-identity", 400, 0.5),
                       McCase("cexp-const1", 400, 0.5)),
             reps=Reps(cold=5, warm=3, mc=2)),
    Workload("tail-mc", TAIL_PAIRS, grid=24,
             path_cases=(("gaussian-identity", 0.5), ("rademacher-const1", 0.5)),
             triples=(), closed=CLOSED,
             mc_cases=tuple(McCase(p, n, 0.5) for p in TAIL_PAIRS for n in (50, 200, 800))
             + (McCase("gaussian-identity", 2000, 0.5, fixed_seed=0),),
             reps=Reps(cold=4, warm=4, path=3, metrics=3, mc=3)),
)}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

def two_block(n):
    """Indicator of [1/2, 1/2 + 2/n): both graph metrics put it 1/n from
    ``four_block``."""
    return lp.CadlagPath(1, (0.0, 1.0), (0.0,), ((0.5, 1.0), (0.5 + 2.0 / n, -1.0)))


def four_block(n):
    return lp.CadlagPath(1, (0.0, 1.0), (0.0,), ((0.5, 1.0), (0.5 + 0.5 / n, -1.0),
                                                 (0.5 + 1.5 / n, 1.0), (0.5 + 2.0 / n, -1.0)))


def oscillation(n):
    """sin(2 pi n t) / (2 pi n) on 16 n cells: rho_star to zero is ~1/(pi^2 n)."""
    m = 16 * n
    grid = tuple(i / m for i in range(m + 1))
    xs = [math.sin(2.0 * math.pi * n * t) / (2.0 * math.pi * n) for t in grid]
    return lp.CadlagPath(1, grid, tuple((xs[i + 1] - xs[i]) * m for i in range(m)))


@dataclass
class Inputs:
    levels: dict                 # pair -> grid levels, the first one timed cold
    triples: list                # (label, (a, b, c)) of paths
    closed: list                 # (label, kind, n, g, h)
    mc_seeds: dict               # case name -> estimator seed


def build_inputs(wl: Workload, seed: int) -> Inputs:
    """Everything a run feeds the program, drawn from the seed alone."""
    rng = np.random.default_rng(seed)
    levels = {}
    for name in wl.rate_pairs:
        pair = PAIRS[name]
        lo, hi = pair.span
        grid = lo + (hi - lo) * (np.arange(wl.grid) + rng.uniform(0.05, 0.95)) / wl.grid
        levels[name] = [float(x) for x in grid] + list(pair.fixed)
    triples = []
    for dim, count in wl.triples:
        for i in range(count):
            seeds = rng.integers(0, 2**31 - 1, size=3)
            triples.append((f"d{dim}-triple{i}",
                            tuple(lp.random_path(dim, 3, 2, seed=int(s)) for s in seeds)))
    zero = lp.CadlagPath(1, (0.0, 1.0), (0.0,))
    closed = [(f"{kind}-n{n}", kind, n,
               *((two_block(n), four_block(n)) if kind == "two-block" else (oscillation(n), zero)))
              for kind, n in wl.closed]
    mc_seeds = {c.name: (c.fixed_seed if c.fixed_seed is not None
                         else int(rng.integers(0, 2**31 - 1))) for c in wl.mc_cases}
    return Inputs(levels, triples, closed, mc_seeds)


def setup(wl: Workload, seed: int):
    """What setup_s times in a fresh interpreter: the inputs plus every
    model and kernel the workload parses."""
    build_inputs(wl, seed)
    for name in wl.rate_pairs:
        lp.parse_model(PAIRS[name].model), lp.parse_kernel(PAIRS[name].kernel)


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------

# The host this was built on changes speed by up to 2x within seconds (the
# same minimizer call took 62-152 ms in one minute), while the ratio of a
# program call's time to a fixed loop of small numpy calls run beside it
# moves far less.  So every timed operation is scaled to the reference speed:
# its seconds times REFERENCE_S over the loop's time around it.  The loop
# uses numpy and the interpreter only, never ldpkit.  A tail estimate or a
# set-up interpreter lasts long enough for the speed to change while it
# runs, so the loop times around it say little: those times are scaled by
# the run's median factor instead (``run_factor``).
REFERENCE_S = 0.0035   # the loop's typical time on that host


def reference_seconds():
    """Wall time of a fixed loop of small numpy calls, like ldpkit's own."""
    x = np.linspace(0.0, 1.0, 32)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(400):
        acc += float(np.sum(np.exp(-x * (i % 7)) * x)) + math.sqrt(i)
    return time.perf_counter() - t0


def speed_factor(before, after):
    """Scale factor of an operation from the loop times around it."""
    return REFERENCE_S / (0.5 * (before + after))


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------

@dataclass
class Record:
    """Timings (seconds) and outputs of a run, filled round by round."""
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)     # key -> first value seen
    changed: list = field(default_factory=list)     # keys whose value moved
    ops: dict = field(default_factory=dict)         # (kind, case) -> [s per op]
    calls: dict = field(default_factory=dict)       # function -> [s per call]

    def keep(self, key, value):
        if key not in self.outputs:
            self.outputs[key] = value
        elif not _same(self.outputs[key], value):
            self.changed.append(key)

    raw_ops: dict = field(default_factory=dict)     # ops before scaling
    pending: list = field(default_factory=list)     # (table, key, s, scaled) of the running op
    speeds: list = field(default_factory=list)      # scale factor of each op

    def add(self, table, key, seconds, scaled=True):
        """Note a time of the running operation."""
        self.pending.append((table, key, seconds, scaled))

    def settle(self, factor):
        """File the running operation's times, those to be scaled times
        ``factor``."""
        for table, key, seconds, scaled in self.pending:
            table.setdefault(key, []).append(seconds * factor if scaled else seconds)
            if table is self.ops:
                self.raw_ops.setdefault(key, []).append(seconds)
        self.pending.clear()
        self.speeds.append(factor)


def unscaled(rec: Record) -> Record:
    """The record with its operation times as measured, before scaling."""
    return Record(ops=rec.raw_ops, outputs=rec.outputs, speeds=[1.0])


def run_factor(rec: Record) -> float:
    """Median scale factor over the run's operations."""
    return statistics.median(rec.speeds)


def _mc_walls(rec: Record) -> dict:
    """Median time of each tail case, scaled by the run's factor."""
    return {name: t * run_factor(rec) for (name,), t in _per_case(rec, "mc").items()}


def _same(a, b):
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b or (a != a and b != b)


class Runner:
    def __init__(self, wl: Workload, inputs: Inputs, tracer=None):
        self.wl = wl
        self.inputs = inputs
        self.tracer = tracer
        self.rec = Record()
        # i_f vanishes at m1 * mean; the benchmark's own moments place it
        from checks import center
        self.centers = {n: center(PAIRS[n].model, PAIRS[n].kernel) for n in wl.rate_pairs}

    def _op(self, label, fn):
        """One operation: counted, timed inside fn, failures recorded."""
        self.rec.attempted += 1
        try:
            if self.tracer is None:
                return fn()
            with self.tracer.span("op." + label.split(" ")[0]):
                return fn()
        except Exception:   # the run goes on and reports the failure
            self.rec.failed += 1
            self.rec.errors.append(f"{label}: {traceback.format_exc(limit=2)}")
            return None

    def run(self, seconds: float):
        start = time.perf_counter()
        while True:
            self.round()
            if time.perf_counter() - start >= seconds:
                return self.rec

    def round(self):
        """Every pair parsed cold and swept once, then the repetitions of
        every kind of operation, spread evenly through the round so that
        each kind samples the whole of it.  A cold operation empties ldpkit's
        analysis cache, so a warm sweep runs right after a cold operation of
        its pair.  The pairs in ``cold_once`` take seconds to analyse: they
        are parsed once, in the middle of the round, and swept right after,
        so the other kinds are sampled both before and after that stretch.

        Each operation's times are scaled to the reference speed by the
        reference loop timed just before and just after it."""
        wl, reps = self.wl, self.wl.reps
        models = {}
        steady = [n for n in wl.rate_pairs if n not in wl.cold_once]
        first = [self.unit(models, n, 1 if reps.warm else 0) for n in steady]
        spread = [
            [self.unit(models, n, 1 if i + 1 < reps.warm else 0)
             for i in range(reps.cold - 1) for n in steady],
            [[partial(self.path_case, models, n, x)] for _ in range(reps.path) for n, x in wl.path_cases],
            [[partial(self.metric_job, *job)] for _ in range(reps.metrics) for job in self.jobs],
            [[partial(self.estimate, models, c)] for _ in range(reps.mc) for c in wl.mc_cases],
        ]
        slots = [((i + 0.5) / len(units), k, unit)
                 for k, units in enumerate(spread) for i, unit in enumerate(units)]
        slots += [(0.5, -1, self.unit(models, n, reps.warm)) for n in wl.cold_once]
        units = first + [unit for _, _, unit in sorted(slots, key=lambda s: s[:2])]
        before = reference_seconds()
        for op in (op for unit in units for op in unit):
            op()
            after = reference_seconds()
            self.rec.settle(speed_factor(before, after))
            before = after
        self.rec.rounds += 1

    def unit(self, models, name, sweeps):
        """A cold operation on a pair followed by ``sweeps`` warm sweeps."""
        return [partial(self.cold, models, name)] + [partial(self.warm_sweep, models, name)] * sweeps

    # -- operations -------------------------------------------------------------

    def cold(self, models, name):
        """Parse a pair afresh, analyse it from an empty analysis cache, and
        answer both routes at its first level."""
        pair, rec, clock = PAIRS[name], self.rec, time.perf_counter
        x0 = self.inputs.levels[name][0]

        def run():
            forget_analyses()
            t0 = clock()
            model, kernel = lp.parse_model(pair.model), lp.parse_kernel(pair.kernel)
            if self.tracer is not None:
                model = self.tracer.wrap_model(model)
            ta = clock()
            lp.ef_prime_range(model, kernel)
            tb = clock()
            conj = lp.i_f_conjugate(model, kernel, x0).value
            expl = lp.i_f_explicit(model, kernel, x0).value
            t1 = clock()
            rec.add(rec.ops, ("cold", name), t1 - t0)
            rec.add(rec.ops, ("analysis", name), tb - ta)
            rec.keep(("rate", name, x0), (conj, expl))
            rec.keep(("sup_ef_prime", name), lp.ef_prime_range(model, kernel)[1])
            return model, kernel

        models[name] = self._op(f"cold {name}", run)

    def warm_sweep(self, models, name):
        """Both routes at every level of the pair's grid and at its center;
        seconds per successful evaluation go to the record."""
        rec, clock = self.rec, time.perf_counter
        model, kernel = models[name] or (None, None)   # a failed cold op fails these too
        busy, evals = 0.0, 0
        for x in self.inputs.levels[name] + [self.centers[name]]:
            def sweep(x=x):
                t0 = clock()
                conj = lp.i_f_conjugate(model, kernel, x).value
                t1 = clock()
                expl = lp.i_f_explicit(model, kernel, x).value
                return conj, expl, t1 - t0, clock() - t1
            out = self._op(f"warm {name} x={x!r}", sweep)
            if out is not None:
                rec.keep(("rate", name, x), out[:2])
                rec.add(rec.calls, "i_f_conjugate", out[2])
                rec.add(rec.calls, "i_f_explicit", out[3])
                busy += out[2] + out[3]
                evals += 2
        if evals:
            rec.add(rec.ops, ("warm", name), busy / evals)

    def path_case(self, models, name, x):
        rec, clock = self.rec, time.perf_counter
        model, kernel = models[name] or (None, None)

        def path():
            lp.ef_prime_range(model, kernel)   # untimed: the analysis is cached, as after any i_f
            t0 = clock()
            h = lp.minimizer(model, kernel, x)
            t1 = clock()
            paired = lp.pair(kernel, h)
            t2 = clock()
            action = lp.i_d(h, model)
            return h, paired, action, (t1 - t0, t2 - t1, clock() - t2)

        out = self._op(f"path {name} x={x!r}", path)
        if out is not None:
            h, paired, action, times = out
            slopes = tuple(np.asarray(h.slopes, dtype=float).reshape(-1).tolist())
            jumps = tuple((t, float(v)) for t, v in h.jumps)
            rec.keep(("path", name, x), (h.grid, slopes, jumps, paired, action))
            for fn, t in zip(("minimizer", "pair", "i_d"), times):
                rec.add(rec.calls, fn, t)
            rec.add(rec.ops, ("path", name, x), sum(times))

        def variational():
            lp.ef_prime_range(model, kernel)
            t0 = clock()
            value = lp.variational_rate(model, kernel, x)
            return value, clock() - t0

        out = self._op(f"variational {name} x={x!r}", variational)
        if out is not None:
            rec.keep(("variational", name, x), out[0])
            rec.add(rec.calls, "variational", out[1])
            rec.add(rec.ops, ("variational", name, x), out[1])

    @property
    def jobs(self):
        """(label, which, g, h): the path pairs put through all three metrics."""
        out = []
        for label, (a, b, c) in self.inputs.triples:
            out += [(label, "ab", a, b), (label, "ba", b, a), (label, "bc", b, c),
                    (label, "ac", a, c), (label, "aa", a, a)]
        return out + [(label, "gh", g, h) for label, _, _, g, h in self.inputs.closed]

    def metric_job(self, label, which, g, h):
        rec, clock = self.rec, time.perf_counter

        def distances():
            times, vals = [], []
            for fn in (lp.rho_2, lp.rho_2_prime, lp.rho_star):
                t0 = clock()
                vals.append(fn(g, h))
                times.append(clock() - t0)
            return tuple(vals), times

        out = self._op(f"metrics {label} {which}", distances)
        if out is not None:
            rec.keep(("metrics", label, which), out[0])
            for fn, t in zip(("rho_2", "rho_2_prime", "rho_star"), out[1]):
                rec.add(rec.calls, fn, t)
            rec.add(rec.ops, ("metrics", label, which), sum(out[1]))

    def estimate(self, models, case):
        rec, clock = self.rec, time.perf_counter
        model, kernel = models[case.pair] or (None, None)

        def run():
            lp.ef_prime_range(model, kernel)   # untimed: the analysis is cached, as after any i_f
            t0 = clock()
            try:
                est = lp.estimate_tail(model, kernel, case.n, case.a, samples=SAMPLES,
                                       seed=self.inputs.mc_seeds[case.name])
            finally:
                rec.add(rec.ops, ("mc", case.name), clock() - t0, scaled=False)   # a failed call spent it too
            if not math.isfinite(est.log_prob):
                raise FloatingPointError(f"estimate_tail returned log_prob={est.log_prob}, "
                                         f"std_error={est.std_error}")
            return est

        est = self._op(f"mc {case.name}", run)
        if est is not None:
            rec.keep(("mc", case.name), (est.log_prob, est.std_error, est.samples))


def forget_analyses():
    """Empty ldpkit's cache of slope-range analyses, so that a cold
    operation is cold whatever the cache is keyed on.  A change that moves
    the cache must empty the new one here."""
    lp.kernel_rate._problem.cache_clear()


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

# A figure with no successful operation behind it reads 0; verify() then
# reports the missing outputs, so such a run is not correct.

def geomean(values):
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


def per_second(times):
    """Cases per second, from the median repetition of each case."""
    times = list(times)
    return len(times) / sum(times) if times else 0.0


def _per_case(rec: Record, kind: str) -> dict:
    """Median repetition of each case of one kind of operation (scaled,
    except for tail estimates: see ``_mc_walls``)."""
    return {k[1:]: statistics.median(v) for k, v in rec.ops.items() if k[0] == kind}


def end_to_end(wl: Workload, rec: Record) -> dict:
    """The end-to-end metrics except setup_s, from one run's record."""
    out = {"rate.cold_s": geomean(_per_case(rec, "cold").values()),
           "rate.evals_per_s": geomean(1.0 / t for t in _per_case(rec, "warm").values())}
    for metric, kind in (("paths.minimizer_per_s", "path"),
                         ("paths.variational_per_s", "variational"),
                         ("metrics.pairs_per_s", "metrics")):
        out[metric] = per_second(_per_case(rec, kind).values())
    walls = _mc_walls(rec)
    out["mc.sample_steps_per_s"] = (sum(SAMPLES * c.n for c in wl.mc_cases if c.name in walls)
                                    / sum(walls.values()) if walls else 0.0)
    out["mc.time_to_1pct_s"] = sum(
        walls[c.name] * (rec.outputs[("mc", c.name)][1] / 0.01) ** 2
        for c in wl.mc_cases if c.fixed_seed is None and ("mc", c.name) in rec.outputs)
    return out


def detail(wl: Workload, rec: Record) -> dict:
    """Per-pair and per-case figures printed beside the result."""
    return {
        "rounds": rec.rounds,
        "speed_factor": {"median": median(rec.speeds), "min": min(rec.speeds),
                         "max": max(rec.speeds)},
        "cold_s": {p: t for (p,), t in _per_case(rec, "cold").items()},
        "analysis_s": {p: t for (p,), t in _per_case(rec, "analysis").items()},
        "estimate_ms": {c: 1e3 * t for c, t in _mc_walls(rec).items()},
        "rel_se": {c.name: rec.outputs[("mc", c.name)][1] for c in wl.mc_cases
                   if ("mc", c.name) in rec.outputs},
    }


def per_layer(wl: Workload, rec: Record, tracer) -> dict:
    """Per-layer metrics of a traced run; counts and busy times are per round."""
    r = rec.rounds
    cgf = ["cgf.K", "cgf.K1", "cgf.K2", "cgf.rate", "cgf.rate1"]
    passing = [c for c in wl.mc_cases if c.fixed_seed is None]

    def per_round(names, field):
        return tracer.total(names, field) / r

    def calls(name):
        return rec.calls.get(name, [])

    return {
        "cgf.calls": per_round(cgf, 0),
        "cgf.points": per_round(cgf, 1),
        "cgf.self_s": per_round(cgf, 3),
        "cgf.tilted_draw_calls": per_round(["cgf.tilted_draw"], 0),
        "cgf.tilted_draw_s": per_round(["cgf.tilted_draw"], 2),
        "quadrature.gl32_calls": per_round(["quadrature.gl32"], 0),
        "quadrature.adaptive_gl_calls": per_round(["quadrature.adaptive_gl"], 0),
        "quadrature.singular_piece_calls":
            tracer.counts.get("quadrature.singular_piece_calls", 0) / r,
        "quadrature.self_s": per_round("quadrature.", 3),
        "kernel_rate.analysis_s": sum(_per_case(rec, "analysis").values()),
        "kernel_rate.problem_builds": per_round(["kernel_rate.KernelRateProblem"], 0),
        "kernel_rate.e_f_grad_calls": per_round(["kernel_rate.e_f_grad"], 0),
        "kernel_rate.i_f_conjugate_ms": 1e3 * median(calls("i_f_conjugate")),
        "kernel_rate.i_f_explicit_ms": 1e3 * median(calls("i_f_explicit")),
        "kernel_rate.minimizer_ms": 1e3 * median(calls("minimizer")),
        "kernel_rate.variational_ms": 1e3 * median(calls("variational")),
        "conjugate.legendre_calls": per_round(["conjugate.legendre"], 0),
        "conjugate.legendre_s": per_round(["conjugate.legendre"], 2),
        "conjugate.grad_inverse_calls": per_round(["conjugate.grad_inverse"], 0),
        "conjugate.grad_inverse_s": per_round(["conjugate.grad_inverse"], 2),
        "paths.i_d_us": 1e6 * median(calls("i_d")),
        "paths.pair_us": 1e6 * median(calls("pair")),
        "metrics.rho_2_ms": 1e3 * median(calls("rho_2")),
        "metrics.rho_2_prime_ms": 1e3 * median(calls("rho_2_prime")),
        "metrics.rho_star_ms": 1e3 * median(calls("rho_star")),
        "montecarlo.estimate_ms": 1e3 * statistics.mean(_mc_walls(rec).values()),
        "montecarlo.tilt_s": per_round(["montecarlo._projected_tilt"], 2),
        "montecarlo.rel_se": geomean(rec.outputs[("mc", c.name)][1] for c in passing
                                     if ("mc", c.name) in rec.outputs),
    }


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------

SYNTHETIC_SUP = 7.0 / 30.0   # sup E_f' for synthetic-boundary x identity
SYNTHETIC_AT_1 = 0.9         # i_f(1.0) on the same pair


def verify(wl: Workload, inputs: Inputs, rec: Record, centers: dict) -> list:
    """Failure messages from comparing a run's outputs with the benchmark's
    own references.  Operations that failed are counted in ``failed`` and
    have no output here; an output that no repetition produced is a failure
    too, except that of the tail case known to fail."""
    import checks as ck

    out = [f"output changed between repetitions: {key}" for key in rec.changed]
    out += [f"no output: {key}" for key in expected(wl, inputs, centers)
            if key not in rec.outputs]
    out += _verify_rates(ck, wl, inputs, rec, centers)
    for name, x in wl.path_cases:
        pair = PAIRS[name]
        want = ck.reference_rate(pair.model, pair.kernel, x)
        if ("path", name, x) in rec.outputs:
            grid, slopes, jumps, paired, action = rec.outputs[("path", name, x)]
            own = ck.pairing(pair.kernel, grid, slopes, jumps)
            out += ck.check_path(f"{name} x={x!r}", x, paired, own, action, want)
        if ("variational", name, x) in rec.outputs:
            out += ck.check_close(f"{name} x={x!r} variational_rate",
                                  rec.outputs[("variational", name, x)], want,
                                  ck.VARIATIONAL_TOL)
    for label, _ in inputs.triples:
        got = [rec.outputs.get(("metrics", label, w)) for w in ("ab", "ba", "bc", "ac", "aa")]
        if None not in got:
            out += ck.check_triple(label, *got)
    for label, kind, n, _, _ in inputs.closed:
        got = rec.outputs.get(("metrics", label, "gh"))
        if got is None:
            continue
        if kind == "two-block":
            out += ck.check_two_block(label, n, got[0], got[1])
        else:
            out += ck.check_oscillation(label, n, got[2])
    for case in wl.mc_cases:
        if ("mc", case.name) in rec.outputs:
            pair = PAIRS[case.pair]
            log_prob, std_error, _ = rec.outputs[("mc", case.name)]
            exact = ck.exact_log_tail(pair.model, pair.kernel, case.n, case.a)
            out += ck.check_tail(case.name, log_prob, std_error, exact)
    return out


def expected(wl: Workload, inputs: Inputs, centers: dict) -> list:
    """Keys of the outputs a run must produce."""
    keys = [("rate", n, x) for n in wl.rate_pairs for x in inputs.levels[n] + [centers[n]]]
    keys += [("sup_ef_prime", n) for n in wl.rate_pairs]
    keys += [(kind, n, x) for n, x in wl.path_cases for kind in ("path", "variational")]
    keys += [("metrics", label, w) for label, _ in inputs.triples
             for w in ("ab", "ba", "bc", "ac", "aa")]
    keys += [("metrics", label, "gh") for label, *_ in inputs.closed]
    return keys + [("mc", c.name) for c in wl.mc_cases if c.fixed_seed is None]


def _verify_rates(ck, wl, inputs, rec, centers):
    out = []
    for name in wl.rate_pairs:
        pair = PAIRS[name]
        xs, curve = [], []
        for x in inputs.levels[name] + [centers[name]]:
            got = rec.outputs.get(("rate", name, x))
            if got is None:
                continue
            conj, expl = got
            xs.append(x)
            curve.append(conj)
            if x == centers[name]:
                out += ck.check_center(name, conj, expl)
            else:
                want = ck.reference_rate(pair.model, pair.kernel, x)
                out += ck.check_rate(name, x, conj, expl, want)
        out += ck.check_curve(name, xs, curve)
        if name == "synthetic-identity":
            sup = rec.outputs.get(("sup_ef_prime", name))
            if sup is not None:
                out += ck.check_close(f"{name} sup E_f'", sup, SYNTHETIC_SUP, 1e-9)
            at_1 = rec.outputs.get(("rate", name, 1.0))
            if at_1 is not None:
                out += ck.check_close(f"{name} i_f(1.0) conjugate", at_1[0], SYNTHETIC_AT_1, 1e-9)
                out += ck.check_close(f"{name} i_f(1.0) explicit", at_1[1], SYNTHETIC_AT_1, 1e-9)
    return out
