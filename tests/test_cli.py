"""Command line interface: outputs, formats, exit codes, determinism."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import ldpkit
from ldpkit.cli import main


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr()


# -- rate ---------------------------------------------------------------------------


def test_rate_csv(capsys):
    code, cap = _run(capsys, ["rate", "--model", "gaussian:mu=0,sigma=1",
                              "--kernel", "affine:0,1", "--x", "1.0"])
    assert code == 0
    lines = cap.out.strip().splitlines()
    assert lines[0] == "x,i_f_conjugate,i_f_explicit,branch,lambda_star"
    x, conj, expl, branch, lam = lines[1].split(",")
    assert float(conj) == pytest.approx(1.5, abs=1e-9)
    assert float(expl) == pytest.approx(1.5, abs=1e-9)
    assert branch == "interior"
    assert float(lam) == pytest.approx(3.0, abs=1e-6)


def test_rate_at_center_is_zero(capsys):
    code, cap = _run(capsys, ["rate", "--model", "cexp",
                              "--kernel", "const:1", "--x", "0.0"])
    assert code == 0
    row = cap.out.strip().splitlines()[1].split(",")
    assert float(row[1]) == pytest.approx(0.0, abs=1e-12)
    assert float(row[2]) == pytest.approx(0.0, abs=1e-12)


def test_rate_json_matches_csv_digits(capsys):
    args = ["rate", "--model", "gaussian:mu=0.5,sigma=2",
            "--kernel", "affine:0.5,1", "--x", "1.3"]
    code, cap = _run(capsys, args + ["--format", "json"])
    assert code == 0
    payload = json.loads(cap.out)
    assert len(payload) == 1
    rec = payload[0]

    code, cap = _run(capsys, args)
    vals = cap.out.strip().splitlines()[1].split(",")
    # both writers round to 12 significant digits, so they agree exactly
    assert rec["i_f_conjugate"] == float(vals[1])
    assert rec["i_f_explicit"] == float(vals[2])
    assert rec["branch"] == vals[3] == "interior"


def test_json_writes_non_finite_numbers_as_strings(capsys):
    code, cap = _run(capsys, ["rate", "--model", "cexp", "--kernel", "const:1",
                              "--x", "-1.5", "--format", "json"])
    assert code == 0

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    rec, = json.loads(cap.out, parse_constant=refuse)
    assert rec["i_f_conjugate"] == rec["i_f_explicit"] == "inf"
    assert rec["branch"] == "infinite"


@pytest.mark.parametrize("model,x,want", [("rademacher", "0.5", "0.69314718056"),
                                          ("poisson:rate=1", "-0.5", "1")])
def test_rate_routes_print_alike_at_a_slope_edge(capsys, model, x, want):
    code, cap = _run(capsys, ["rate", "--model", model,
                              "--kernel", "affine:0,1", "--x", x])
    assert code == 0
    row = cap.out.strip().splitlines()[1].split(",")
    assert row[1] == row[2] == want


def test_ef_command(capsys):
    code, cap = _run(capsys, ["ef", "--model", "gaussian:mu=0,sigma=1",
                              "--kernel", "affine:0,1", "--lam", "3.0"])
    assert code == 0
    row = cap.out.strip().splitlines()[1].split(",")
    assert float(row[1]) == pytest.approx(1.5, abs=1e-9)     # lam^2/6
    assert float(row[2]) == pytest.approx(1.0, abs=1e-9)


def test_ef_at_an_open_edge(capsys):
    # lam = 1 touches the open edge of cexp at t = 1: E_f is the improper
    # integral 1/2, and the slope is infinite
    code, cap = _run(capsys, ["ef", "--model", "cexp",
                              "--kernel", "affine:0,1", "--lam", "1"])
    assert code == 0
    assert cap.out.strip().splitlines()[1] == "1,0.5,inf"


# -- path commands ----------------------------------------------------------------


def test_metric_command_on_files(tmp_path, capsys):
    left = tmp_path / "ramp.path"
    left.write_text("grid: 0.0 1.0\nslope 0: 1.0\n")
    right = tmp_path / "zero.path"
    right.write_text("grid: 0.0 1.0\nslope 0: 0.0\n")
    code, cap = _run(capsys, ["metric", "rhostar", "--left", str(left),
                              "--right", str(right)])
    assert code == 0
    assert float(cap.out.strip().splitlines()[1]) == pytest.approx(1.5, abs=1e-9)


def test_minimizer_idcost_round_trip(tmp_path, capsys):
    pfile = tmp_path / "opt.path"
    code, _ = _run(capsys, ["minimizer", "--model", "gaussian:mu=0,sigma=1",
                            "--kernel", "affine:0,1", "--x", "0.9",
                            "--out", str(pfile)])
    assert code == 0
    code, cap = _run(capsys, ["idcost", "--model", "gaussian:mu=0,sigma=1",
                              "--path", str(pfile)])
    assert code == 0
    row = cap.out.strip().splitlines()[1].split(",")
    assert float(row[2]) == pytest.approx(1.5 * 0.81, abs=1e-5)


def test_path_commands_read_the_json_minimizer_writes(tmp_path, capsys):
    rows = {}
    for fmt in ("csv", "json"):
        pfile = tmp_path / f"opt.{fmt}"
        code, _ = _run(capsys, ["minimizer", "--model", "cexp", "--kernel", "const:1",
                                "--x", "0.9", "--format", fmt, "--out", str(pfile)])
        assert code == 0
        code, cap = _run(capsys, ["idcost", "--model", "cexp", "--path", str(pfile)])
        assert code == 0, cap.err
        rows[fmt] = cap.out
    assert rows["json"] == rows["csv"]
    code, cap = _run(capsys, ["metric", "rhostar", "--left", str(tmp_path / "opt.json"),
                              "--right", str(tmp_path / "opt.csv")])
    assert code == 0, cap.err
    assert float(cap.out.strip().splitlines()[1]) == 0.0
    bad = tmp_path / "bad.json"
    bad.write_text('{"grid": [0.0, 1.0], "slopes": 5}')
    code, cap = _run(capsys, ["idcost", "--model", "cexp", "--path", str(bad)])
    assert code == 2 and "malformed JSON path file" in cap.err


def test_minimizer_json_reads_back(capsys):
    code, cap = _run(capsys, ["minimizer", "--model", "rademacher",
                              "--kernel", "affine:0,1", "--x", "0.3",
                              "--format", "json"])
    assert code == 0
    path = ldpkit.CadlagPath.from_dict(json.loads(cap.out))
    assert path.dimension == 1 and path.jumps == ()
    assert ldpkit.pair(ldpkit.identity(), path) == pytest.approx(0.3, abs=1e-10)


# -- monte carlo -------------------------------------------------------------------


def test_sweep_csv_shape(capsys):
    code, cap = _run(capsys, ["sweep", "--model", "gaussian:mu=0,sigma=1",
                              "--kernel", "affine:0,1",
                              "--levels", "0.3,0.5", "--n-list", "10,20",
                              "--samples", "2000"])
    assert code == 0
    lines = cap.out.strip().splitlines()
    assert lines[0] == "n,a,rate_estimate,std_error,i_f,exact_rate"
    assert len(lines) == 5
    for line in lines[1:]:
        n, a, rate_est, se, i_f, exact = line.split(",")
        assert int(n) in (10, 20)
        assert float(i_f) > 0.0 and float(exact) > 0.0


def test_mc_reproducible_under_thread_cap(capsys):
    argv = ["mc", "--model", "rademacher", "--kernel", "const:1",
            "--n", "20", "--a", "0.5", "--samples", "2000", "--seed", "5"]
    code, cap1 = _run(capsys, argv)
    assert code == 0
    code, cap2 = _run(capsys, argv)
    assert code == 0
    assert cap1.out == cap2.out
    row = cap1.out.strip().splitlines()[1].split(",")
    assert float(row[5]) == pytest.approx(
        -math.log(math.comb(20, 15) + math.comb(20, 16) + math.comb(20, 17)
                  + math.comb(20, 18) + math.comb(20, 19) + math.comb(20, 20))
        / 20 + math.log(2.0), abs=1e-9)


# -- selftest and exit codes --------------------------------------------------------


def test_selftest_passes(capsys):
    code, cap = _run(capsys, ["selftest"])
    assert code == 0
    lines = cap.out.strip().splitlines()
    assert all(line.startswith("ok") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_selftest_json(capsys):
    code, cap = _run(capsys, ["selftest", "--format", "json"])
    assert code == 0
    rows = json.loads(cap.out)
    assert len(rows) == 17
    assert all(set(row) == {"check", "status", "error"} for row in rows)
    assert all(row["status"] == "ok" and row["error"] is None for row in rows)


def test_selftest_checks_the_cgf_primitive(capsys):
    code, cap = _run(capsys, ["selftest"])
    assert code == 0
    assert "ok   cgf primitive" in cap.out.splitlines()


def test_selftest_checks_the_variational_route(capsys):
    code, cap = _run(capsys, ["selftest"])
    assert code == 0
    assert "ok   variational vs conjugate" in cap.out.splitlines()


def test_selftest_checks_the_gaussian_routes_in_d2(capsys):
    code, cap = _run(capsys, ["selftest"])
    assert code == 0
    assert "ok   gaussian routes in d = 2" in cap.out.splitlines()


def test_selftest_checks_the_minimizer_near_a_slope_edge(capsys):
    code, cap = _run(capsys, ["selftest"])
    assert code == 0
    assert "ok   minimizer near a slope edge" in cap.out.splitlines()


def test_selftest_checks_the_minimizer_is_the_variational_argmin(capsys):
    code, cap = _run(capsys, ["selftest"])
    assert code == 0
    assert "ok   minimizer is the variational argmin" in cap.out.splitlines()


def test_selftest_checks_an_open_cap_far_out(capsys):
    code, cap = _run(capsys, ["selftest"])
    assert code == 0
    assert "ok   open cap far out" in cap.out.splitlines()


def test_selftest_checks_a_constant_kernel_far_out(capsys):
    code, cap = _run(capsys, ["selftest"])
    assert code == 0
    assert "ok   constant kernel far out" in cap.out.splitlines()


def test_selftest_checks_the_finite_n_tilt(capsys):
    code, cap = _run(capsys, ["selftest"])
    assert code == 0
    assert "ok   finite-n tilt" in cap.out.splitlines()


def test_selftest_checks_a_convolved_flat_kernel_tail(capsys):
    code, cap = _run(capsys, ["selftest"])
    assert code == 0
    assert "ok   convolved flat-kernel tail" in cap.out.splitlines()


def test_import_leaves_scipy_special_out():
    # scipy.special is imported where it is used, so start-up does not pay it
    src = str(Path(ldpkit.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import ldpkit; "
            "print('scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_bad_model_exits_2(capsys):
    code, cap = _run(capsys, ["rate", "--model", "wiggle:3",
                              "--kernel", "affine:0,1", "--x", "1.0"])
    assert code == 2
    assert "error:" in cap.err


def test_bad_kernel_exits_2(capsys):
    code, cap = _run(capsys, ["rate", "--model", "cexp",
                              "--kernel", "pwl:0.5", "--x", "1.0"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["rate", "--model", "cexp", "--kernel", "affine:0,1", "--x", "nan"],
    ["minimizer", "--model", "cexp", "--kernel", "affine:0,1", "--x", "nan"],
    ["minimizer", "--model", "cexp", "--kernel", "affine:0,1", "--x", "inf"],
    ["minimizer", "--model", "gaussian:mu=0,sigma=1", "--kernel", "affine:0,1", "--x", "nan"],
    ["mc", "--model", "rademacher", "--kernel", "const:1", "--n", "10", "--a", "nan"]])
def test_non_finite_level_exits_2(capsys, argv):
    code, cap = _run(capsys, argv)
    assert code == 2
    assert "must be finite" in cap.err


def test_minimizer_at_the_grids_slope_edge_exits_3(capsys):
    # 1 ulp inside E_f's edge 1/2, the level is the slope edge of the
    # 500-cell grid's dual, so no path attains it
    code, cap = _run(capsys, ["minimizer", "--model", "rademacher", "--kernel", "affine:0,1",
                              "--x", "0.49999999999999994", "--tol", "1e-6"])
    assert code == 3
    assert "error:" in cap.err


def test_mc_without_sampler_exits_3(capsys):
    code, cap = _run(capsys, ["mc", "--model", "synthetic-boundary",
                              "--kernel", "affine:0,1", "--n", "10",
                              "--a", "0.5", "--samples", "500"])
    assert code == 3
    assert "error:" in cap.err


def test_undetermined_jump_site_exits_3(capsys):
    # f = 1 is extremal on all of [0, 1], so the singular jump has no site
    code, cap = _run(capsys, ["minimizer", "--model", "synthetic-boundary",
                              "--kernel", "const:1", "--x", "2"])
    assert code == 3
    assert "error:" in cap.err


def test_unknown_command_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
