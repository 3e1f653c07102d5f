"""Benchmark of ldpkit: one command, three workloads, one JSON result line.

    python3 benchmarks/run.py --workload rate-catalog --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output carries every end-to-end
metric; with ``--trace 1`` the layers are wrapped and it carries every
per-layer metric instead.  The line before it holds per-pair and per-case
figures.  Result and trace files go to ``benchmarks/results/``.
"""

import os
import sys

# One process, no extra threads: BLAS pinned to one thread, and the
# estimator's worker-count knob left unset.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("LDPKIT_THREADS", None)
# One core: on the host this was built on, timings moved far more when the
# process could move between cores, so the process, the set-up interpreters
# it starts (they inherit this) and the reference loops that scale its
# timings all stay on the lowest one.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = (2, 1)   # fresh interpreters before and after the rounds; setup_s is their median
CHILD_TIMEOUT = 120


def _load_program():
    """Import ldpkit from this checkout's src/ and nowhere else."""
    if not (SRC / "ldpkit" / "__init__.py").is_file():
        sys.exit(f"run.py: no ldpkit sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import ldpkit
    if Path(ldpkit.__file__).resolve().parent != (SRC / "ldpkit").resolve():
        sys.exit(f"run.py: ldpkit was imported from {ldpkit.__file__}, not {SRC}")


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _child(args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          check=True, timeout=CHILD_TIMEOUT)


def measure_setup(workload, seed, count):
    """Wall times of ``count`` fresh interpreters that import ldpkit and
    build the workload's models, kernels and paths."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        _child([str(Path(__file__).resolve()), "--setup-child", "--workload", workload,
                "--seed", str(seed)])
        times.append(time.perf_counter() - t0)
    return times


def measure_imports():
    """Median cumulative import times of ldpkit and of the scipy.stats it
    pulls in, from ``python -X importtime`` in fresh interpreters."""
    ldpkit_s, stats_s = [], []
    for _ in range(sum(SETUP_REPEATS)):
        err = _child(["-X", "importtime", "-c", "import ldpkit"]).stderr
        cumulative = {}
        for line in err.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        ldpkit_s.append(cumulative["ldpkit"])
        stats_s.append(cumulative.get("scipy.stats", 0.0))
    return statistics.median(ldpkit_s), statistics.median(stats_s)


def _declared(trace):
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _value(v, unit):
    """Counts per round print as integers when they are whole."""
    return int(v) if unit == "count" and float(v).is_integer() else v


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _load_program()
    import workloads as W
    if args.workload not in W.WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; known: {sorted(W.WORKLOADS)}")
    wl = W.WORKLOADS[args.workload]
    if args.setup_child:
        W.setup(wl, args.seed)
        return 0

    if args.trace:
        import_ldpkit_s, import_stats_s = measure_imports()
    else:
        setup_times = measure_setup(wl.name, args.seed, SETUP_REPEATS[0])

    inputs = W.build_inputs(wl, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.patch()
    runner = W.Runner(wl, inputs, tracer)
    try:
        rec = runner.run(args.seconds)
    finally:
        if tracer is not None:
            tracer.unpatch()

    if not args.trace:
        setup_times += measure_setup(wl.name, args.seed, SETUP_REPEATS[1])
    failures = W.verify(wl, inputs, rec, runner.centers)
    for msg in rec.errors + failures:
        print(msg, file=sys.stderr)

    e2e = W.end_to_end(wl, rec)
    detail = W.detail(wl, rec)
    detail["unscaled_end_to_end"] = W.end_to_end(wl, W.unscaled(rec))
    if args.trace:
        detail["traced_end_to_end"] = e2e
        values = W.per_layer(wl, rec, tracer)
        values["startup.import_ldpkit_s"] = import_ldpkit_s
        values["startup.import_scipy_stats_s"] = import_stats_s
    else:
        detail["setup_unscaled_s"] = setup_times
        values = {"setup_s": statistics.median(setup_times) * W.run_factor(rec), **e2e}
    units = _declared(args.trace)
    if values.keys() != units.keys():
        sys.exit(f"run.py: measured {sorted(values.keys() ^ units.keys())} differ "
                 "from BENCHMARK.json")
    result = {
        "correct": not failures,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": _value(v, units[k]), "unit": units[k]}
                    for k, v in sorted(values.items())},
    }

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
    if tracer is not None:
        tracer.dump(f"{stem}.spans.json")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
