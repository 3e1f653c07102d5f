"""The committed bench files: every summary figure recomputes from its runs.

Each ``BENCH_*.json`` at the root of the repo states, per workload and
metric, the runs of each side (``parent_runs``, ``change_runs``), their
median and quartiles (numpy percentile, linear) and ``change_wins``, the
pairs of runs where the change reads better.  Its ``claim`` block restates
the claimed metric's figures on the claimed workload: both medians and
``change_wins`` as stated there, ``ratio_of_medians`` (where present) as
change median / parent median, and ``parent_quartile_spread`` or
``parent_iqr`` (where present) as the parent's q3 - q1.  A figure copied or
typed by hand, not computed from the runs next to it, fails here.
"""

import json
from pathlib import Path

import numpy as np
import pytest

BENCH_FILES = sorted(Path(__file__).resolve().parent.parent.glob("BENCH_*.json"))


def _mismatches(bench: dict) -> list:
    """[(workload, metric, figure, stated, recomputed)] for every summary
    figure of ``bench`` that its runs do not give exactly."""
    out = []
    for workload, body in bench["workloads"].items():
        for name, metric in body["metrics"].items():
            runs = {side: np.asarray(metric[f"{side}_runs"], dtype=float)
                    for side in ("parent", "change")}
            for side, values in runs.items():
                q1, median, q3 = np.percentile(values, [25, 50, 75])
                for stat, want in (("median", median), ("q1", q1), ("q3", q3)):
                    if metric[side][stat] != float(want):
                        out.append((workload, name, f"{side}.{stat}", metric[side][stat],
                                    float(want)))
            better = np.greater if metric["better"] == "higher" else np.less
            wins = f"{int(np.sum(better(runs['change'], runs['parent'])))}/{len(runs['parent'])}"
            if metric["change_wins"] != wins:
                out.append((workload, name, "change_wins", metric["change_wins"], wins))
    return out


def _claim_mismatches(bench: dict) -> list:
    """[(figure, stated, recomputed)] for every figure of the ``claim`` block
    that the claimed workload's metric does not give exactly."""
    claim = bench["claim"]
    metric = bench["workloads"][claim["workload"]]["metrics"][claim["metric"]]
    parent, change = metric["parent"], metric["change"]
    want = {"parent_median": parent["median"], "change_median": change["median"],
            "change_wins": metric["change_wins"],
            "ratio_of_medians": change["median"] / parent["median"],
            "parent_quartile_spread": parent["q3"] - parent["q1"],
            "parent_iqr": parent["q3"] - parent["q1"]}
    return [(name, claim[name], value) for name, value in want.items()
            if name in claim and claim[name] != value]


def test_there_are_bench_files():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_figures_recompute_from_their_runs(path):
    assert _mismatches(json.loads(path.read_text())) == []


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_claims_restate_their_workload(path):
    bench = json.loads(path.read_text())
    assert {"metric", "workload", "parent_median", "change_median",
            "change_wins"} <= set(bench["claim"])
    assert _claim_mismatches(bench) == []


@pytest.mark.parametrize("figure", ["median", "q1", "q3", "change_wins"])
def test_a_perturbed_bench_file_fails(tmp_path, figure):
    bench = json.loads(BENCH_FILES[0].read_text())
    workload = next(iter(bench["workloads"]))
    name, metric = next(iter(bench["workloads"][workload]["metrics"].items()))
    if figure == "change_wins":
        wins, pairs = metric["change_wins"].split("/")
        metric["change_wins"] = f"{(int(wins) + 1) % (int(pairs) + 1)}/{pairs}"
    else:
        metric["parent"][figure] = np.nextafter(metric["parent"][figure], np.inf)
    copy = tmp_path / BENCH_FILES[0].name
    copy.write_text(json.dumps(bench))
    found = _mismatches(json.loads(copy.read_text()))
    assert [(w, n, f) for w, n, f, _, _ in found] == [
        (workload, name, figure if figure == "change_wins" else f"parent.{figure}")]


@pytest.mark.parametrize("figure", ["parent_median", "change_median", "change_wins",
                                    "ratio_of_medians", "parent_quartile_spread",
                                    "parent_iqr"])
def test_a_perturbed_claim_fails(tmp_path, figure):
    path = next(p for p in BENCH_FILES if figure in json.loads(p.read_text())["claim"])
    bench = json.loads(path.read_text())
    claim = bench["claim"]
    if figure == "change_wins":
        wins, pairs = claim["change_wins"].split("/")
        claim["change_wins"] = f"{(int(wins) + 1) % (int(pairs) + 1)}/{pairs}"
    else:
        claim[figure] = np.nextafter(claim[figure], np.inf)
    copy = tmp_path / path.name
    copy.write_text(json.dumps(bench))
    assert [f for f, _, _ in _claim_mismatches(json.loads(copy.read_text()))] == [figure]
