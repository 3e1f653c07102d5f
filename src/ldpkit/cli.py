"""Command line front end.

Subcommands cover the main library entry points: rate evaluations,
kernel transforms, minimizing paths, path costs, path metrics, Monte
Carlo tail estimates, rate-curve sweeps, and a quick self test.

Exit codes: 0 success, 2 configuration problems (bad flags, unparsable
model or kernel strings), 3 domain errors and an undetermined jump site,
4 solver non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import montecarlo as mc
from .cgf import parse_model
from .errors import LdpkitError, NonConvergenceError
from .kernel_rate import (e_f, e_f_grad, i_f_conjugate, i_f_explicit, minimizer,
                          variational_rate)
from .kernels import parse_kernel
from .metrics import METRICS, rho_2, rho_2_prime
from .paths import CadlagPath, random_path


def _fmt(v) -> str:
    """Twelve significant digits, or inf, -inf, nan; shared by both writers."""
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    x = float(v)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return f"{x:.12g}"


def _json_value(v):
    """The csv cell as JSON: a number if finite, else the string "inf", "-inf"
    or "nan", since JSON (RFC 8259) has no non-finite numbers."""
    if v is None or isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    text = _fmt(v)
    return float(text) if math.isfinite(float(v)) else text


def _emit(header, rows, fmt: str, out) -> None:
    if fmt == "json":
        payload = [{k: _json_value(v) for k, v in zip(header, row)}
                   for row in rows]
        out.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    else:
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(_fmt(v) for v in row) + "\n")


def _open_out(args):
    if getattr(args, "out", None):
        return open(args.out, "w"), True
    return sys.stdout, False


def _load_path(fname: str) -> CadlagPath:
    """A path file in the JSON form of ``minimizer --format json`` or in text."""
    with open(fname) as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except ValueError:
        data = None
    if not isinstance(data, dict):
        return CadlagPath.from_text(text)
    try:
        return CadlagPath.from_dict(data)
    except TypeError as err:    # a JSON object of the wrong shape is bad input too
        raise ValueError(f"malformed JSON path file: {err}") from None


# ----------------------------------------------------------------------
# Subcommand handlers
# ----------------------------------------------------------------------

def _cmd_rate(args, out) -> int:
    model = parse_model(args.model)
    kernel = parse_kernel(args.kernel)
    conj = i_f_conjugate(model, kernel, args.x)
    expl = i_f_explicit(model, kernel, args.x)
    header = ("x", "i_f_conjugate", "i_f_explicit", "branch", "lambda_star")
    rows = [(args.x, conj.value, expl.value, conj.branch, conj.lambda_star)]
    _emit(header, rows, args.format, out)
    return 0


def _cmd_ef(args, out) -> int:
    model = parse_model(args.model)
    kernel = parse_kernel(args.kernel)
    lam = args.lam
    val = e_f(model, kernel, lam)
    grad = e_f_grad(model, kernel, lam) if math.isfinite(val) else None
    _emit(("lam", "e_f", "e_f_grad"), [(lam, val, grad)], args.format, out)
    return 0


def _cmd_minimizer(args, out) -> int:
    model = parse_model(args.model)
    kernel = parse_kernel(args.kernel)
    path = minimizer(model, kernel, args.x, tol=args.tol)
    if args.format == "json":
        out.write(json.dumps(path.to_dict(), indent=2) + "\n")
    else:
        out.write(path.to_text())
    return 0


def _cmd_idcost(args, out) -> int:
    model = parse_model(args.model)
    path = _load_path(args.path)
    header = ("var", "sup_norm", "i_d")
    rows = [(path.var(), path.sup_norm(), path.i_d(model))]
    _emit(header, rows, args.format, out)
    return 0


def _cmd_metric(args, out) -> int:
    left = _load_path(args.left)
    right = _load_path(args.right)
    _emit((args.name,), [(METRICS[args.name](left, right),)], args.format, out)
    return 0


def _emit_curve(args, out, levels, n_list) -> int:
    rows = mc.empirical_rate_curve(parse_model(args.model), parse_kernel(args.kernel),
                                   levels, n_list, samples=args.samples, seed=args.seed)
    header = ("n", "a", "rate_estimate", "std_error", "i_f", "exact_rate")
    _emit(header, rows, args.format, out)
    return 0


def _cmd_mc(args, out) -> int:
    # the one-row rate curve: its row is drawn with seed + 0
    return _emit_curve(args, out, [args.a], [args.n])


def _cmd_sweep(args, out) -> int:
    return _emit_curve(args, out, [float(s) for s in args.levels.split(",") if s],
                       [int(s) for s in args.n_list.split(",") if s])


# ----------------------------------------------------------------------
# Self test
# ----------------------------------------------------------------------

def _selftest_checks():
    from .cgf import MODEL_FACTORIES
    from .kernels import affine, constant, identity
    from .quadrature import adaptive_gl

    def gaussian_rate():
        model = parse_model("gaussian:mu=0,sigma=1")
        r = i_f_conjugate(model, identity(), 1.0)
        assert abs(r.value - 1.5) < 1e-9, r.value

    def cexp_zero():
        model = parse_model("cexp")
        r = i_f_conjugate(model, constant(1.0), 0.0)
        assert abs(r.value) < 1e-12, r.value

    def route_agreement():
        model = parse_model("gaussian:mu=0,sigma=1")
        kern = affine(0.5, 1.0)
        for x in (-1.0, -0.25, 0.0, 0.7, 2.0):
            c = i_f_conjugate(model, kern, x).value
            e = i_f_explicit(model, kern, x).value
            assert abs(c - e) < 1e-8, (x, c, e)
        # at the slope edges +-1/2 both routes state the same exact limit
        model = parse_model("rademacher")
        for x in (-0.5, 0.5):
            c = i_f_conjugate(model, identity(), x).value
            e = i_f_explicit(model, identity(), x).value
            assert c == e, (x, c, e)

    def pairing_identity():
        model = parse_model("rademacher")
        kern = affine(0.0, 1.0)
        for seed in (0, 1, 2):
            ws = mc.sample_weighted_sum(model, kern, 64, seed)
            traj = mc.sample_traj(model, 64, seed)
            assert ws == traj.pair(kern), seed
            assert abs(traj.var() - 1.0) < 1e-12

    def var_split():
        for seed in range(4):
            p = random_path(1, 4, 3, seed)
            ac, jp = p.lebesgue_split()
            assert abs(p.var() - ac.var() - jp.var()) < 1e-12

    def metric_example():
        g = CadlagPath(dimension=1, grid=(0.0, 1.0), slopes=((0.0,),),
                       jumps=((0.0, 1.0),))
        h = CadlagPath(dimension=1, grid=(0.0, 1.0), slopes=((0.0,),),
                       jumps=((0.1, 1.0),))
        assert abs(rho_2_prime(g, h) - 0.1) < 1e-6
        assert abs(rho_2(g, h) - 1.0) < 1e-6

    def duality_touch():
        model = parse_model("gaussian:mu=0.3,sigma=2")
        for u in (-1.0, 0.2, 1.5):
            v = model.grad(u)
            assert abs(model.rate(v) - (u * v - model.k(u))) < 1e-10

    def cgf_primitive():
        # P = int_0^u K, whose brackets give E_f, E_f' and E_f'' exactly
        for name in MODEL_FACTORIES:
            model = parse_model(name)
            for a, b in ((-1.5, 0.5), (0.2, 0.9)):
                want = adaptive_gl(model.cgf, a, b)
                got = model.cgf_int(b) - model.cgf_int(a)
                assert abs(got - want) < 1e-12 * max(1.0, abs(want)), (name, a, b, got)

    def variational_route():
        # one interior level, and one past the slope range priced as a jump
        for spec, x in (("gaussian:mu=0,sigma=1", 1.0), ("synthetic-boundary", 1.2)):
            model = parse_model(spec)
            gap = (variational_rate(model, identity(), x)
                   - i_f_conjugate(model, identity(), x).value)
            assert abs(gap) < 5e-3, (spec, x, gap)

    def minimizer_near_edge():
        # lam* ~ 10: many cell averages of K' sit on the support edge +-1
        model, kern = parse_model("rademacher"), identity()
        gap = (minimizer(model, kern, 0.497).i_d(model)
               - i_f_conjugate(model, kern, 0.497).value)
        assert abs(gap) < 1e-5, gap

    def open_cap_far_out():
        # lam* lies within an ulp of the open cap 1 of cexp x identity, where
        # I_f = x - 1/2 up to rounding
        r = i_f_conjugate(parse_model("cexp"), identity(), 40.0)
        assert abs(r.value - 39.5) < 1e-12 * 39.5, r.value

    def finite_n_tilt():
        # a = 1/2 is the continuum slope edge of rademacher x identity, but
        # inside the finite-n range (n + 1) / (2n)
        model = parse_model("rademacher")
        est = mc.estimate_tail(model, identity(), 20, 0.5, samples=10_000, seed=0)
        exact = mc.exact_tail_oracle(model, identity(), 20, 0.5)
        assert abs(est.log_prob - exact) <= 4.0 * est.std_error, (est.log_prob, exact)

    def convolved_tail():
        # the 10^4 steps of a flat kernel share one tilted law: each sample is
        # one Gamma(n) draw, and n (W_n + 1) ~ Gamma(n, 1) gives the exact tail
        from scipy.special import gammaincc

        n, a = 10_000, 0.1
        est = mc.estimate_tail(parse_model("cexp"), constant(1.0), n, a, samples=10_000, seed=0)
        exact = math.log(gammaincc(n, n * (1.0 + a)))
        assert abs(est.log_prob - exact) <= 4.0 * est.std_error, (est.log_prob, exact)

    def gaussian_any_kernel_tail():
        # n <W_n> is one normal draw per sample, whatever the kernel
        model, kern = parse_model("gaussian:mu=0,sigma=1"), identity()
        est = mc.estimate_tail(model, kern, 100_000, 0.1, samples=10_000, seed=0)
        exact = mc.exact_tail_oracle(model, kern, 100_000, 0.1)
        assert abs(est.log_prob - exact) <= 4.0 * est.std_error, (est.log_prob, exact)

    return [("gaussian identity rate", gaussian_rate),
            ("cexp flat kernel at zero", cexp_zero),
            ("conjugate vs explicit routes", route_agreement),
            ("pairing identity", pairing_identity),
            ("variation split", var_split),
            ("graph metric example", metric_example),
            ("pointwise duality", duality_touch),
            ("cgf primitive", cgf_primitive),
            ("variational vs conjugate", variational_route),
            ("minimizer near a slope edge", minimizer_near_edge),
            ("open cap far out", open_cap_far_out),
            ("finite-n tilt", finite_n_tilt),
            ("convolved flat-kernel tail", convolved_tail),
            ("gaussian any-kernel tail", gaussian_any_kernel_tail)]


def _cmd_selftest(args, out) -> int:
    rows = []
    for name, fn in _selftest_checks():
        try:
            fn()
        except Exception as err:    # report and keep going
            rows.append((name, "FAIL", str(err)))
        else:
            rows.append((name, "ok", None))
    passed = sum(status == "ok" for _, status, _ in rows)
    if args.format == "json":
        _emit(("check", "status", "error"), rows, "json", out)
    else:
        for name, status, err in rows:
            out.write(f"ok   {name}\n" if err is None else f"FAIL {name}: {err}\n")
        out.write(f"{passed}/{len(rows)} checks passed\n")
    return 0 if passed == len(rows) else 1


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ldpkit",
        description="rate functions, path costs and tail estimates "
                    "for kernel-weighted sums")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, model=True, kernel=True):
        if model:
            p.add_argument("--model", required=True,
                           help="model spec, e.g. gaussian:mu=0,sigma=1")
        if kernel:
            p.add_argument("--kernel", required=True,
                           help="kernel spec, e.g. affine:0,1 or const:1")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="write output to this file")

    p = sub.add_parser("rate", help="rate function value at a point")
    add_common(p)
    p.add_argument("--x", type=float, required=True)
    p.set_defaults(fn=_cmd_rate)

    p = sub.add_parser("ef", help="kernel transform value and slope")
    add_common(p)
    p.add_argument("--lam", type=float, required=True)
    p.set_defaults(fn=_cmd_ef)

    p = sub.add_parser("minimizer", help="optimal path for a level")
    add_common(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(fn=_cmd_minimizer)

    p = sub.add_parser("idcost", help="variation and action of a path file")
    add_common(p, kernel=False)
    p.add_argument("--path", required=True, help="path file to read")
    p.set_defaults(fn=_cmd_idcost)

    p = sub.add_parser("metric", help="distance between two path files")
    p.add_argument("name", choices=tuple(METRICS))
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_metric)

    p = sub.add_parser("mc", help="importance-sampling tail estimate")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_mc)

    p = sub.add_parser("sweep", help="rate curve over levels and sizes")
    add_common(p)
    p.add_argument("--levels", required=True, help="comma list of levels")
    p.add_argument("--n-list", required=True, help="comma list of sizes")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("selftest", help="run the built-in sanity checks")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_selftest)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    out, should_close = _open_out(args)
    try:
        return args.fn(args, out)
    except (ValueError, KeyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NonConvergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except LdpkitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    finally:
        if should_close:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
