"""Check that the benchmark is steady: two sets of runs of the same code
must agree within the bounds in BENCHMARK.json.

    python3 benchmarks/steady.py              # 2 sets x 10 seeds, every workload
    python3 benchmarks/steady.py --overhead   # traced against untraced, same seed

For each workload and end-to-end metric it reports, per set, the median and
the spread (distance between the first and third quartile of
``statistics.quantiles(values, n=4)`` as a share of the median), and it
passes the metric when every spread, setup_s's too, is within the bound and
the two sets' medians differ by no more than the bound, in either direction.
The share of failed operations must be the same in every run.  Runs are
sequential; every set uses its own seeds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS, RUNS, SEED0 = 2, 10, 101


def run_once(spec, workload, seed, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share."""
    return (second - first) / first if better == "lower" else (first - second) / first


def steadiness(spec, workloads, runs, sets, seed0):
    report, ok = {}, True
    for wl in workloads:
        sets_out = []
        for s in range(sets):
            results = []
            for i in range(runs):
                seed = seed0 + 1000 * s + i
                result, _ = run_once(spec, wl, seed, 0)
                results.append(result)
                print(f"{wl} set {s} seed {seed}: " + json.dumps(
                    {k: round(v["value"], 6) for k, v in result["metrics"].items()}),
                    file=sys.stderr, flush=True)
            sets_out.append(results)
        rows = {}
        shares = {(r["failed"], r["attempted"]) for rs in sets_out for r in rs}
        fractions = {f / a for f, a in shares}
        correct = all(r["correct"] for rs in sets_out for r in rs)
        for m in spec["end_to_end"]:
            name = m["name"]
            per_set = [[r["metrics"][name]["value"] for r in rs] for rs in sets_out]
            row = {"medians": [statistics.median(v) for v in per_set],
                   "spreads": [spread(v) for v in per_set], "bound": m["bound"]}
            row["ok"] = all(sp <= m["bound"] for sp in row["spreads"])
            if sets > 1:
                row["worse_by"] = worse_by(row["medians"][0], row["medians"][1], m["better"])
                row["ok"] = row["ok"] and abs(row["worse_by"]) <= m["bound"]
            ok = ok and row["ok"]
            rows[name] = row
        ok = ok and correct and len(fractions) == 1
        report[wl] = {"metrics": rows, "correct": correct,
                      "failed_share": sorted(fractions)}
    return report, ok


def overhead(spec, workloads, seed0):
    """Traced end-to-end figures against untraced ones for the same seed."""
    report = {}
    for wl in workloads:
        plain, _ = run_once(spec, wl, seed0, 0)
        _, detail = run_once(spec, wl, seed0, 1)
        traced = detail["traced_end_to_end"]
        report[wl] = {}
        for m in spec["end_to_end"]:
            if m["name"] in traced:
                base = plain["metrics"][m["name"]]["value"]
                report[wl][m["name"]] = worse_by(base, traced[m["name"]], m["better"])
    return report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--overhead", action="store_true",
                    help="measure tracing overhead instead of steadiness")
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]

    (HERE / "results").mkdir(exist_ok=True)
    if args.overhead:
        report, ok = overhead(spec, workloads, SEED0), True
        for wl, rows in report.items():
            for name, share in rows.items():
                print(f"{wl:14s} {name:26s} traced is worse by {100 * share:7.1f}%")
    else:
        report, ok = steadiness(spec, workloads, RUNS, SETS, SEED0)
        for wl, r in report.items():
            print(f"{wl}: correct={r['correct']} failed share={r['failed_share']}")
            for name, row in r["metrics"].items():
                spreads = " ".join(f"{s:.3f}" for s in row["spreads"])
                extra = f" worse_by={row['worse_by']:+.3f}" if "worse_by" in row else ""
                print(f"  {name:26s} bound={row['bound']:.2f} spreads={spreads}{extra}"
                      f" {'ok' if row['ok'] else 'OUT OF BOUND'}")
    name = "overhead" if args.overhead else "steady"
    with open(HERE / "results" / f"{name}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
