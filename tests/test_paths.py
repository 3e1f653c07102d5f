"""Bounded-variation cadlag paths: variation, decomposition, action, pairing."""

import math
import re

import numpy as np
import pytest

from ldpkit import (
    CadlagPath,
    constant,
    gaussian,
    i_d,
    identity,
    minimizer,
    pair,
    parse_kernel,
    parse_model,
    random_path,
    rho_star,
    sup_functional,
    var,
)
from ldpkit.paths import (action_on_partition, refinement_partition,
                          variation_on_partition)

ID = identity()
CONST1 = constant(1.0)


def _random_paths(count, dims=(1, 2), seed0=0):
    out = []
    for i in range(count):
        d = dims[i % len(dims)]
        out.append(random_path(d, max_pieces=5, max_jumps=4, seed=seed0 + i))
    return out


# -- construction and canonical form ------------------------------------------------


def test_construction_canonicalises():
    p = CadlagPath(1, (0.0, 0.3, 0.6, 1.0), (2.0, 2.0, -1.0),
                   ((0.5, 1.0), (0.5, -1.0), (0.2, 0.0)))
    assert p.grid == (0.0, 0.6, 1.0)          # equal slopes merged
    assert p.slopes == (2.0, -1.0)
    assert p.jumps == ()                      # cancelling and zero jumps dropped


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        CadlagPath(1, (0.0, 0.5), (1.0,))             # grid must end at 1
    with pytest.raises(ValueError):
        CadlagPath(1, (0.0, 0.5, 0.5, 1.0), (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        CadlagPath(1, (0.0, 1.0), (1.0, 2.0))         # slope count off
    with pytest.raises(ValueError):
        CadlagPath(1, (0.0, 1.0), (1.0,), ((1.5, 1.0),))
    with pytest.raises(ValueError):
        CadlagPath(2, (0.0, 1.0), ((1.0, 2.0, 3.0),))


def _merged_reference(dimension, grid, slopes):
    """Canonical (grid, slopes) by the one-interval-at-a-time merge loop."""
    grid = tuple(float(t) for t in grid)
    if dimension == 1:
        slopes = tuple(float(np.asarray(s).reshape(())) for s in slopes)
    else:
        slopes = tuple(tuple(float(c) for c in np.asarray(s).reshape(-1))
                       for s in slopes)
    merged_grid, merged_slopes = [grid[0]], []
    for i, s in enumerate(slopes):
        if merged_slopes and merged_slopes[-1] == s:
            merged_grid[-1] = grid[i + 1]
        else:
            merged_slopes.append(s)
            merged_grid.append(grid[i + 1])
    return tuple(merged_grid), tuple(merged_slopes)


def test_construction_matches_the_reference_merge():
    cases = []
    for p in _random_paths(50, seed0=300):
        # split every interval in two so that each slope appears twice
        mids = [(a + b) / 2.0 for a, b in zip(p.grid, p.grid[1:])]
        fine = sorted(set(p.grid) | set(mids))
        slopes = [s for s in p.slopes for _ in range(2)]
        cases.append((p.dimension, p.grid, p.slopes, p.jumps))
        cases.append((p.dimension, tuple(fine), tuple(slopes), p.jumps))
    rng = np.random.default_rng(8)
    grid = (0.0, *np.sort(rng.uniform(0.0, 1.0, size=3999)).tolist(), 1.0)
    runs = rng.choice([-1.5, -0.0, 0.0, 2.0], size=4000, p=[0.1, 0.1, 0.1, 0.7])
    cases.append((1, grid, tuple(runs.tolist()), ((0.5, 1.0),)))
    cases.append((1, grid, tuple((s,) for s in runs.tolist()), ()))
    cases.append((2, grid, tuple(zip(runs.tolist(), np.roll(runs, 1).tolist())), ()))
    for d, grid, slopes, jumps in cases:
        p = CadlagPath(d, grid, slopes, jumps)
        assert (p.grid, p.slopes) == _merged_reference(d, grid, slopes)
        assert all(type(t) is float for t in p.grid)
        assert all(type(s) is (float if d == 1 else tuple) for s in p.slopes)
        assert p.jumps == CadlagPath(d, (0.0, 1.0), ((0.0,) * d,), jumps).jumps
    assert len(CadlagPath(1, grid, tuple(runs.tolist())).slopes) < 4000


def _jumps_reference(dimension, jumps):
    """Canonical jumps by the dict loop: same-time jumps added in the order
    given, zero sums dropped, sorted by time."""
    acc = {}
    for t, delta in jumps:
        acc[float(t)] = acc.get(float(t), np.zeros(dimension)) + np.ravel(delta)
    return tuple((t, float(v[0]) if dimension == 1 else tuple(v.tolist()))
                 for t, v in sorted(acc.items()) if np.any(v != 0.0))


def test_jumps_match_the_reference_loop():
    # sums of same-time jumps must be bit-identical to adding them in turn
    rng = np.random.default_rng(9)
    for trial in range(300):
        d, n = 1 + trial % 2, int(rng.integers(0, 8))
        times = rng.choice([0.0, 0.3, 1.0, float(rng.uniform())], size=n)
        vals = rng.normal(size=(n, d)) * rng.choice([0.0, 1e-300, 1.0, 1e300], size=(n, 1))
        if n > 1:
            times[1], vals[1] = times[0], -vals[0]     # a cancelling pair
        jumps = tuple((float(t), float(v[0]) if d == 1 else tuple(v.tolist()))
                      for t, v in zip(times, vals))
        p = CadlagPath(d, (0.0, 1.0), ((1.0,) * d,), jumps)
        assert repr(p.jumps) == repr(_jumps_reference(d, jumps))
        assert p._jump_times.tolist() == [t for t, _ in p.jumps]


@pytest.mark.parametrize("args,message", [
    ((1, (0.0, 0.5), (1.0,)), "grid must run from 0 to 1"),
    ((1, (0.1, 1.0), (1.0,)), "grid must run from 0 to 1"),
    ((1, (0.0, 0.5, 0.5, 1.0), (1.0, 2.0, 3.0)), "grid must increase strictly"),
    ((1, (0.0, 0.7, 0.3, 1.0), (1.0, 2.0, 3.0)), "grid must increase strictly"),
    ((1, (0.0, math.nan, 1.0), (1.0, 2.0)), "grid must increase strictly"),
    ((1, (0.0, 1.0), (1.0, 2.0)), "need one slope per grid interval"),
    ((2, (0.0, 0.5, 1.0), ((1.0, 2.0),)), "need one slope per grid interval"),
    ((2, (0.0, 1.0), ()), "need one slope per grid interval"),
    ((2, (0.0, 1.0), ((1.0, 2.0, 3.0),)), "component count does not match dimension"),
    ((2, (0.0, 1.0), (1.0,)), "component count does not match dimension"),
    ((0, (0.0, 1.0), (1.0,)), "dimension must be >= 1"),
    ((1, (0.0, 1.0), (1.0,), ((1.5, 1.0),)), "jump times must lie in [0, 1]"),
    ((2, (0.0, 1.0), ((1.0, 2.0),), ((0.5, (1.0, 2.0, 3.0)),)),
     "jump component count does not match dimension"),
    ((1, (0.0, 1.0), (math.nan,)), "slopes and jump values must be finite"),
    ((2, (0.0, 0.5, 1.0), ((1.0, 2.0), (math.inf, 0.0))), "slopes and jump values must be finite"),
    ((1, (0.0, 1.0), (1.0,), ((0.5, -math.inf),)), "slopes and jump values must be finite"),
    ((2, (0.0, 1.0), ((1.0, 2.0),), ((0.5, (0.0, math.nan)),)),
     "slopes and jump values must be finite"),
])
def test_construction_error_messages(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CadlagPath(*args)


def test_values_sides_and_jump_at_zero():
    p = CadlagPath(1, (0.0, 1.0), (1.0,), ((0.0, 0.5), (0.5, -2.0)))
    assert p.value(0.0) == pytest.approx(0.5)             # h(0) carries the jump
    assert p.value(0.5, side="left") == pytest.approx(1.0)
    assert p.value(0.5) == pytest.approx(-1.0)
    assert p.value(1.0) == pytest.approx(-0.5)


# -- total variation -----------------------------------------------------------------


def test_var_examples():
    assert var(CadlagPath(1, (0.0, 1.0), (2.0,))) == pytest.approx(2.0)
    assert var(CadlagPath(1, (0.0, 1.0), (-3.5,))) == pytest.approx(3.5)
    p = CadlagPath(1, (0.0, 0.5, 1.0), (2.0, -1.0),
                   ((0.25, -0.5), (1.0, 1.0)))
    # 2 * 0.5 + 1 * 0.5 + 0.5 + 1.0
    assert var(p) == pytest.approx(3.0)


def test_partition_variation_monotone_below_var():
    for p in _random_paths(40):
        coarse = variation_on_partition(p, [0.5])
        mid = variation_on_partition(p, [0.25, 0.5, 0.75])
        fine = variation_on_partition(p, [i / 16 for i in range(1, 17)])
        assert coarse <= mid + 1e-12
        assert mid <= fine + 1e-12
        assert fine <= p.var() + 1e-12


def test_partition_variation_converges_to_var():
    for p in _random_paths(12, seed0=100):
        lo = variation_on_partition(p, refinement_partition(p, 10))
        assert lo <= p.var() + 1e-12
        assert p.var() - lo <= 1e-5 * max(1.0, p.var())


# -- Lebesgue decomposition ----------------------------------------------------------


def test_lebesgue_split_examples():
    p = CadlagPath(1, (0.0, 0.5, 1.0), (2.0, 0.0), ((0.3, -1.0),))
    ac, sj = p.lebesgue_split()
    assert ac.jumps == ()
    assert sj.slopes == (0.0,)
    assert ac.value(1.0) == pytest.approx(1.0)
    assert sj.value(1.0) == pytest.approx(-1.0)
    ts = np.linspace(0.0, 1.0, 17)
    assert np.allclose(p.values(ts), ac.values(ts) + sj.values(ts), atol=1e-14)


def test_variation_splits_additively():
    for p in _random_paths(1000):
        ac, sj = p.lebesgue_split()
        assert p.var() == pytest.approx(ac.var() + sj.var(), abs=1e-10)
        assert sj.var() == pytest.approx(p.directional().total(), abs=1e-12)


def test_directional_masses():
    p = CadlagPath(1, (0.0, 1.0), (0.0,),
                   ((0.2, 0.5), (0.6, -2.0), (0.8, 0.25)))
    atoms = dict(p.directional().atoms)
    assert atoms[1.0] == pytest.approx(0.75)
    assert atoms[-1.0] == pytest.approx(2.0)

    q = CadlagPath(2, (0.0, 1.0), ((0.0, 0.0),), ((0.5, (3.0, 4.0)),))
    ((direction, mass),) = q.directional().atoms
    assert direction == pytest.approx((0.6, 0.8))
    assert mass == pytest.approx(5.0)


# -- path action -------------------------------------------------------------------


def test_i_d_quadratic_profile():
    # slopes sample h'(t) = 3t at cell midpoints; action = int (3t)^2/2 = 1.5
    n = 200
    grid = tuple(i / n for i in range(n + 1))
    slopes = tuple(3.0 * (i + 0.5) / n for i in range(n))
    p = CadlagPath(1, grid, slopes)
    m = parse_model("gaussian:mu=0,sigma=1")
    assert i_d(p, m) == pytest.approx(1.5, abs=1e-4)


def test_i_d_jump_prices():
    m_gauss = parse_model("gaussian:mu=0,sigma=1")
    m_cexp = parse_model("cexp")
    with_jump = CadlagPath(1, (0.0, 1.0), (0.0,), ((0.5, 1.0),))
    assert i_d(with_jump, m_gauss) == math.inf      # gaussian prices jumps at inf
    assert i_d(with_jump, m_cexp) == pytest.approx(1.0)   # upward price is 1
    down = CadlagPath(1, (0.0, 1.0), (0.0,), ((0.5, -0.25),))
    assert i_d(down, m_cexp) == math.inf            # no downward jumps for cexp


def test_i_d_infinite_slope_region():
    m = parse_model("rademacher")
    ok = CadlagPath(1, (0.0, 1.0), (0.5,))
    too_steep = CadlagPath(1, (0.0, 1.0), (1.5,))
    assert math.isfinite(i_d(ok, m))
    assert i_d(too_steep, m) == math.inf


def test_i_d_minorant_bound():
    models = [parse_model(s) for s in
              ("gaussian:mu=0,sigma=1", "cexp", "rademacher", "poisson:rate=1")]
    for p in _random_paths(120, dims=(1,)):
        for m in models:
            val = i_d(p, m)
            c1, c2 = m.minorant
            assert val >= c1 * p.var() - c2 - 1e-9


def test_i_d_midpoint_convexity():
    m = parse_model("cexp")
    rng = np.random.default_rng(7)
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    for _ in range(50):
        sa = rng.uniform(-0.8, 3.0, size=4)
        sb = rng.uniform(-0.8, 3.0, size=4)
        jump_t, ja, jb = 0.4, rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)
        pa = CadlagPath(1, grid, tuple(sa), ((jump_t, ja),))
        pb = CadlagPath(1, grid, tuple(sb), ((jump_t, jb),))
        pm = CadlagPath(1, grid, tuple((sa + sb) / 2.0), ((jump_t, (ja + jb) / 2.0),))
        lhs = i_d(pm, m)
        rhs = 0.5 * (i_d(pa, m) + i_d(pb, m))
        assert lhs <= rhs + 1e-9


def test_refined_action_converges():
    m = parse_model("cexp")
    p = CadlagPath(1, (0.0, 0.3, 0.7, 1.0), (0.5, -0.2, 1.0),
                   ((0.4, 0.8), (0.9, 0.3)))
    want = i_d(p, m)
    prev = -math.inf
    for level in range(2, 11):
        got = action_on_partition(p, m, refinement_partition(p, level))
        assert got >= prev - 1e-12       # nested partitions never lose action
        assert got <= want + 1e-12
        prev = got
    assert want - prev <= 1e-6


# -- pairing ------------------------------------------------------------------------


def test_pair_examples():
    ramp = CadlagPath(1, (0.0, 1.0), (2.0,))
    assert pair(ID, ramp) == pytest.approx(1.0)          # int t * 2 dt
    unit_jump = CadlagPath(1, (0.0, 1.0), (0.0,), ((0.5, 1.0),))
    assert pair(ID, unit_jump) == pytest.approx(0.5)     # f at the jump time
    assert pair(CONST1, unit_jump) == pytest.approx(1.0)


def test_pair_with_constant_recovers_endpoint():
    for p in _random_paths(60, dims=(1,)):
        assert pair(CONST1, p) == pytest.approx(p.value(1.0), abs=1e-10)


def test_pair_matches_quadrature():
    from ldpkit import parse_kernel
    k = parse_kernel("pwl:0:0,0.5:1,1:0")
    p = CadlagPath(1, (0.0, 0.4, 1.0), (1.5, -0.5), ((0.25, 2.0),))
    # ac part: int f(t) h'(t) dt, plus f(0.25) * 2
    want = 1.5 * k.integral(0.0, 0.4) - 0.5 * k.integral(0.4, 1.0) + 2.0 * k.eval(0.25)
    assert pair(k, p) == pytest.approx(float(want), abs=1e-12)


# -- supremum functional ------------------------------------------------------------


def test_sup_functional_scans_both_sides():
    p = CadlagPath(1, (0.0, 0.6, 1.0), (2.0, -3.0), ((0.3, -2.0),))
    # h: rises to 0.6 at 0.3-, drops to -1.4, rises to -0.8 at 0.6, falls to -2
    assert sup_functional(p, 1.0) == pytest.approx(0.6)
    assert sup_functional(p, -1.0) == pytest.approx(2.0)
    q = CadlagPath(2, (0.0, 1.0), ((1.0, -1.0),))
    assert sup_functional(q, (1.0, 0.0)) == pytest.approx(1.0)
    assert sup_functional(q, (0.0, 1.0)) == pytest.approx(0.0)


def test_sup_norm_bounded_by_var():
    for p in _random_paths(300):
        assert p.sup_norm() <= p.var() + 1e-12


def test_sups_equal_the_per_event_scan():
    # h(0) and then h(t-), h(t) at every later event, one values call each
    rng = np.random.default_rng(3)
    for p in _random_paths(150, dims=(1, 2, 3), seed0=900):
        rows = [p.values([0.0])[0]]
        for t in p._event_times()[1:]:
            rows += [p.values([t], side="left")[0], p.values([t])[0]]
        l = rng.normal(size=p.dimension)
        norms = [abs(float(v[0])) if p.dimension == 1 else float(np.linalg.norm(v))
                 for v in rows]
        assert p.sup_norm() == max(norms)
        assert sup_functional(p, l) == max(float(v @ l) for v in rows)


# -- shift --------------------------------------------------------------------------


def test_shift_adds_pointwise():
    rng = np.random.default_rng(3)
    ts = np.linspace(0.0, 1.0, 23)
    for i in range(40):
        p = random_path(1, 4, 3, seed=500 + i)
        q = random_path(1, 4, 3, seed=900 + i)
        s = p.shift(q)
        assert np.allclose(s.values(ts), p.values(ts) + q.values(ts), atol=1e-12)
        d = p.shift(q, sign=-1.0)
        assert np.allclose(d.values(ts), p.values(ts) - q.values(ts), atol=1e-12)
        assert s.var() <= p.var() + q.var() + 1e-12


# -- random paths and serialization ---------------------------------------------------


def test_random_path_reproducible_and_canonical():
    for seed in (1, 17, 4242):
        p = random_path(1, 6, 5, seed=seed)
        q = random_path(1, 6, 5, seed=seed)
        assert p == q
        assert p.grid[0] == 0.0 and p.grid[-1] == 1.0
        assert all(a < b for a, b in zip(p.grid, p.grid[1:]))
        assert all(s1 != s2 for s1, s2 in zip(p.slopes, p.slopes[1:]))
        assert all(v != 0.0 for _, v in p.jumps)
        assert p.var() <= 8.0 + 1e-9


def test_text_round_trip():
    for p in _random_paths(40):
        q = CadlagPath.from_text(p.to_text())
        assert q == p and hash(q) == hash(p)
    with pytest.raises(ValueError):
        CadlagPath.from_text("grid: 0.0 1.0\nwobble 0: 1.0\n")


def test_dict_round_trip():
    import json
    for p in _random_paths(40, seed0=60):
        blob = json.dumps(p.to_dict())
        q = CadlagPath.from_dict(json.loads(blob))
        assert q == p and hash(q) == hash(p)


def test_vector_path_action():
    m = gaussian(mu=(0.0, 0.0), cov=((1.0, 0.0), (0.0, 1.0)))
    p = CadlagPath(2, (0.0, 1.0), ((0.6, 0.8),))
    assert i_d(p, m) == pytest.approx(0.5)     # |v|^2 / 2 with |v| = 1
    assert var(p) == pytest.approx(1.0)
    with_jump = CadlagPath(2, (0.0, 1.0), ((0.0, 0.0),), ((0.5, (1.0, 1.0)),))
    assert i_d(with_jump, m) == math.inf


# -- the arrays are the state, the tuples are views -----------------------------------

VIEWS = ("grid", "slopes", "jumps")


def test_a_path_from_arrays_equals_the_path_from_tuples():
    for p in _random_paths(40, dims=(1, 2, 3), seed0=700):
        d = p.dimension
        rows = p._slopes[:, 0] if d == 1 else p._slopes
        jumps = tuple(zip(p._jump_times, p._jump_vals[:, 0] if d == 1 else p._jump_vals))
        q = CadlagPath(d, np.array(p.grid), rows.copy(), jumps)
        assert q == p and hash(q) == hash(p)
        assert (q.grid, q.slopes, q.jumps) == (p.grid, p.slopes, p.jumps)


def test_a_merged_path_equals_its_fine_grid_twin():
    coarse = CadlagPath(1, (0.0, 0.5, 1.0), (1.0, -2.0), ((0.25, 3.0),))
    fine = CadlagPath(1, np.linspace(0.0, 1.0, 9), np.repeat([1.0, -2.0], 4),
                      ((0.25, 1.0), (0.25, 2.0), (0.75, 0.0)))
    assert fine == coarse and hash(fine) == hash(coarse)
    assert len({coarse, fine}) == 1
    assert fine != CadlagPath(1, (0.0, 0.5, 1.0), (1.0, -2.0))
    assert fine != "a path"


def test_views_keep_their_types():
    p = CadlagPath(1, (0.0, 0.5, 1.0), np.array([1.0, -2.0]), ((0.25, np.float64(3.0)),))
    assert p.grid == (0.0, 0.5, 1.0) and p.slopes == (1.0, -2.0) and p.jumps == ((0.25, 3.0),)
    assert all(type(v) is float for v in p.grid + p.slopes + p.jumps[0])
    q = CadlagPath(2, (0.0, 1.0), np.array([[1.0, 2.0]]), ((0.5, np.array([0.0, 1.0])),))
    assert q.slopes == ((1.0, 2.0),) and q.jumps == ((0.5, (0.0, 1.0)),)
    assert all(type(c) is float for c in q.slopes[0] + q.jumps[0][1])


def test_repr_keeps_the_dataclass_form():
    p = CadlagPath(1, (0.0, 0.5, 1.0), (1.0, -2.0), ((0.25, 3.0),))
    assert repr(p) == ("CadlagPath(dimension=1, grid=(0.0, 0.5, 1.0), slopes=(1.0, -2.0), "
                       "jumps=((0.25, 3.0),))")
    assert repr(CadlagPath(2, (0.0, 1.0), ((0.0, 1.0),))) == (
        "CadlagPath(dimension=2, grid=(0.0, 1.0), slopes=((0.0, 1.0),), jumps=())")


def test_a_path_is_immutable():
    p = CadlagPath(1, (0.0, 0.5, 1.0), (1.0, -2.0))
    for name in VIEWS + ("dimension", "_grid"):
        with pytest.raises(AttributeError):
            setattr(p, name, ())
        with pytest.raises(AttributeError):
            delattr(p, name)
    for arr in (p._grid, p._slopes, p._jump_times, p._jump_vals):
        with pytest.raises(ValueError):
            arr[...] = 0.0
    assert p.grid == (0.0, 0.5, 1.0)


def test_a_path_keeps_no_reference_to_the_callers_arrays():
    grid, slopes = np.array([0.0, 0.5, 1.0]), np.array([1.0, -2.0])
    p = CadlagPath(1, grid, slopes)
    grid[1], slopes[0] = 0.25, 7.0
    assert p.grid == (0.0, 0.5, 1.0) and p.slopes == (1.0, -2.0)


def test_computing_never_builds_the_tuple_views():
    model, kernel = parse_model("gaussian"), parse_kernel("affine:0.5,1")
    h = minimizer(model, kernel, 1.0)
    jumped = minimizer(parse_model("cexp"), parse_kernel("affine:0,1"), 20.0)
    others = _random_paths(6, dims=(1, 2), seed0=40)
    for p in (h, jumped):
        pair(kernel, p), i_d(p, model), var(p), p.sup_norm(), rho_star(p, h)
        p.sup_functional(1.0), p.values([0.3, 1.0]), p.lebesgue_split(), p.directional()
    for p, q in zip(others, others[2:]):
        var(p), p.sup_norm(), rho_star(p, q), p.directional()
    for p in (h, jumped, *others):
        assert not set(VIEWS) & set(vars(p)), p
    h.grid
    assert set(vars(h)) >= {"grid"} and not {"slopes", "jumps"} & set(vars(h))
