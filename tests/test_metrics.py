"""Path metrics: completed graphs, Hausdorff distances, the integral metric."""

import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from ldpkit import (
    CadlagPath,
    CgfModel,
    DomainInterval,
    NonConvergenceError,
    completed_graph,
    i_d,
    identity,
    pair,
    parse_model,
    random_path,
    rho_2,
    rho_2_prime,
    rho_star,
    var,
)
from ldpkit import metrics

ID = identity()
ZERO = CadlagPath(1, (0.0, 1.0), (0.0,))


def _random_pairs(count, dims=(1, 2), seed0=0):
    out = []
    for i in range(count):
        d = dims[i % len(dims)]
        out.append((random_path(d, 3, 2, seed=seed0 + 2 * i),
                    random_path(d, 3, 2, seed=seed0 + 2 * i + 1)))
    return out


# -- completed graphs ---------------------------------------------------------------


def test_completed_graph_vertices():
    p = CadlagPath(1, (0.0, 1.0), (0.0,), ((0.5, 1.0),))
    assert completed_graph(p).vertices == (
        (0.0, 0.0), (0.5, 0.0), (0.5, 1.0), (1.0, 1.0))
    q = CadlagPath(1, (0.0, 1.0), (0.0,), ((0.0, 0.5),))
    assert completed_graph(q).vertices == ((0.0, 0.5), (1.0, 0.5))
    assert completed_graph(q, modified=True).vertices == (
        (0.0, 0.0), (0.0, 0.5), (1.0, 0.5))


def _per_event_graph(path, modified):
    """The completed graph built one event time and one side at a time."""
    verts = []

    def push(t, x):
        v = (float(t), *np.atleast_1d(x).tolist())
        if not verts or verts[-1] != v:
            verts.append(v)

    if modified:
        push(0.0, np.zeros(path.dimension))
    push(0.0, path.values([0.0])[0])
    for t in path._event_times():
        if t > 0.0:
            push(t, path.values([t], side="left")[0])
            push(t, path.values([t])[0])
    return tuple(verts)


def test_completed_graph_matches_per_event_construction():
    for i in range(90):
        p = random_path(1 + i % 3, 4, 3, seed=5000 + i)
        for modified in (False, True):
            assert completed_graph(p, modified).vertices == _per_event_graph(p, modified)


def test_graph_chain_rejects_time_reversal():
    from ldpkit import GraphChain
    with pytest.raises(ValueError):
        GraphChain(((0.5, 0.0), (0.2, 1.0)))
    with pytest.raises(ValueError):
        GraphChain(((0.0, 0.0),))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^vertices must be finite$"):
            GraphChain(((0.0, 0.0), (bad, 1.0)))
        with pytest.raises(ValueError, match="^vertices must be finite$"):
            GraphChain(((0.0, 0.0, 0.0), (1.0, 0.5, -bad)))


@pytest.mark.parametrize("metric", [rho_2, rho_2_prime, rho_star])
def test_metrics_reject_paths_of_two_dimensions(metric):
    # rho_2 and rho_2_prime once failed inside numpy broadcasting
    line, plane = ZERO, CadlagPath(2, (0.0, 1.0), ((1.0, 0.5),))
    for g, h in ((line, plane), (plane, line)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            metric(g, h)


# -- closed-form distances -----------------------------------------------------------


def test_rho2_constant_offset():
    for c in (0.75, -1.25):
        g = CadlagPath(1, (0.0, 1.0), (0.0,), ((0.0, c),))
        assert rho_2(g, ZERO) == pytest.approx(abs(c), abs=1e-9)
        assert rho_star(g, ZERO) == pytest.approx(2.0 * abs(c), abs=1e-12)


def test_rho2_indicator_block():
    block = CadlagPath(1, (0.0, 1.0), (0.0,), ((0.5, 1.0), (1.0, -1.0)))
    assert rho_2(block, ZERO) == pytest.approx(1.0, abs=1e-9)


def test_rho2_prime_separates_initial_jump():
    # constant 1 versus the indicator of [0.1, 1]: the ordinary graph metric
    # sees the unmatched level-1 start, the modified one only the 0.1 shift
    g = CadlagPath(1, (0.0, 1.0), (0.0,), ((0.0, 1.0),))
    h = CadlagPath(1, (0.0, 1.0), (0.0,), ((0.1, 1.0),))
    assert rho_2(g, h) == pytest.approx(1.0, abs=1e-9)
    assert rho_2_prime(g, h) == pytest.approx(0.1, abs=1e-9)


def test_rho_star_examples():
    ramp = CadlagPath(1, (0.0, 1.0), (1.0,))
    assert rho_star(ramp, ZERO) == pytest.approx(1.5, abs=1e-12)
    assert rho_star(ramp, ramp) == 0.0
    vee = CadlagPath(1, (0.0, 0.5, 1.0), (1.0, -1.0))
    # int |t - (1-t) wedge| against zero: area 1/4, terminal gap 0
    assert rho_star(vee, ZERO) == pytest.approx(0.25, abs=1e-12)


def _cell_integral(u, w, dt):
    """Integral of |u + s w| over s in [0, dt], one cell at a time."""
    aa = float(w @ w)
    if aa == 0.0:
        return float(np.linalg.norm(u)) * dt
    shift = float(u @ w) / aa
    k2 = max(float(u @ u) / aa - shift * shift, 0.0)
    s0, s1 = shift, dt + shift
    if k2 <= 0.0 or math.sqrt(k2) < 1e-15 * max(abs(s0), abs(s1), 1.0):
        return math.sqrt(aa) * 0.5 * (s1 * abs(s1) - s0 * abs(s0))
    k = math.sqrt(k2)

    def anti(s):
        return 0.5 * (s * math.hypot(s, k) + k2 * math.asinh(s / k))

    return math.sqrt(aa) * (anti(s1) - anti(s0))


def test_rho_star_cells_match_the_per_cell_formula():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3):
        u, w = rng.normal(size=(40, d)), rng.normal(size=(40, d))
        dt = rng.uniform(0.0, 0.5, size=40)
        w[:5] = 0.0                       # flat cells
        u[5:10] = -w[5:10] * dt[5:10, None] * rng.uniform(0, 1, size=(5, 1))
        u[10:15] = 0.0                    # cells through or from zero
        got = metrics._integral_norm_affine(u.T, w.T, dt)
        want = [_cell_integral(*cell) for cell in zip(u, w, dt.tolist())]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


# -- sampled oracles -----------------------------------------------------------------


def _sample_chain(chain, per_unit=2000.0):
    rows = []
    pts = chain.as_array()
    for a, b in zip(pts[:-1], pts[1:]):
        n = max(2, int(math.ceil(float(np.linalg.norm(b - a)) * per_unit)))
        s = np.linspace(0.0, 1.0, n)[:, None]
        rows.append(a + s * (b - a))
    return np.vstack(rows)


def _hausdorff_oracle(g, h, modified):
    pa = _sample_chain(completed_graph(g, modified))
    pb = _sample_chain(completed_graph(h, modified))
    da = cKDTree(pb).query(pa)[0].max()
    db = cKDTree(pa).query(pb)[0].max()
    return max(float(da), float(db))


def test_hausdorff_matches_dense_sampling():
    for g, h in _random_pairs(15, seed0=0):
        assert rho_2(g, h) == pytest.approx(
            _hausdorff_oracle(g, h, False), abs=2e-3)
        assert rho_2_prime(g, h) == pytest.approx(
            _hausdorff_oracle(g, h, True), abs=2e-3)


def test_rho_star_matches_riemann_sum():
    n = 200_000
    ts = (np.arange(n) + 0.5) / n
    for g, h in _random_pairs(12, seed0=400):
        gap = g.values(ts) - h.values(ts)
        oracle = float(np.mean(np.linalg.norm(gap, axis=1)))
        oracle += float(np.linalg.norm(g.values([1.0])[0] - h.values([1.0])[0]))
        assert rho_star(g, h) == pytest.approx(oracle, abs=3e-3)


# -- metric axioms -------------------------------------------------------------------


def test_metric_axioms():
    metrics = (rho_2, rho_2_prime, rho_star)
    for i in range(34):
        d = 1 if i % 2 == 0 else 2
        a = random_path(d, 3, 2, seed=1000 + 3 * i)
        b = random_path(d, 3, 2, seed=1001 + 3 * i)
        c = random_path(d, 3, 2, seed=1002 + 3 * i)
        for rho in metrics:
            assert rho(a, a) <= 1e-12
            ab, ba = rho(a, b), rho(b, a)
            assert ab == pytest.approx(ba, abs=2e-9)
            assert ab >= 0.0
            assert rho(a, c) <= ab + rho(b, c) + 2e-9


def test_distinct_paths_have_positive_distance():
    g = CadlagPath(1, (0.0, 1.0), (1.0,))
    h = CadlagPath(1, (0.0, 1.0), (1.0,), ((0.5, 0.01),))
    for rho in (rho_2, rho_2_prime, rho_star):
        assert rho(g, h) > 1e-4


# -- relations between the metrics -----------------------------------------------------


def test_modified_metric_bounded_by_plain_and_start_gap():
    # adding the initial vertical segment can move the distance by at most
    # the gap between the starting values
    for g, h in _random_pairs(100, seed0=800):
        start = float(np.linalg.norm(
            np.atleast_1d(g.values([0.0])[0] - h.values([0.0])[0])))
        assert rho_2_prime(g, h) <= max(rho_2(g, h), start) + 1e-9


def test_integral_metric_identity():
    # rho_star is exactly the L1 gap plus the terminal gap, in any dimension
    n = 200_000
    ts = (np.arange(n) + 0.5) / n
    for g, h in _random_pairs(8, seed0=1600):
        l1 = float(np.mean(np.linalg.norm(g.values(ts) - h.values(ts), axis=1)))
        terminal = float(np.linalg.norm(g.values([1.0])[0] - h.values([1.0])[0]))
        assert rho_star(g, h) - terminal == pytest.approx(l1, abs=3e-3)
        assert rho_star(g, h) >= terminal - 1e-12


# -- oscillation collapses in the metrics but not in variation -------------------------


def _oscillation(n):
    m = 16 * n
    grid = tuple(i / m for i in range(m + 1))

    def x(t):
        return math.sin(2.0 * math.pi * n * t) / (2.0 * math.pi * n)

    slopes = tuple((x(grid[i + 1]) - x(grid[i])) * m for i in range(m))
    return CadlagPath(1, grid, slopes)


def test_oscillating_paths_vanish_in_metric_not_variation():
    prev = math.inf
    for n in (4, 8, 16, 32, 64):
        g = _oscillation(n)
        d = rho_star(g, ZERO)
        assert d == pytest.approx(1.0 / (math.pi ** 2 * n), rel=0.05)
        assert d < prev
        prev = d
        assert rho_2(g, ZERO) <= 1.1 / (2.0 * math.pi * n)
        assert abs(var(g) - 2.0 / math.pi) <= 0.02   # variation does not vanish
        assert abs(pair(ID, g)) <= 1e-2              # smooth pairings vanish too
    assert rho_star(_oscillation(64), ZERO) < 1e-2
    assert rho_2(_oscillation(64), ZERO) < 1e-2


def _two_block(n):
    return CadlagPath(1, (0.0, 1.0), (0.0,), ((0.5, 1.0), (0.5 + 2.0 / n, -1.0)))


def _four_block(n):
    return CadlagPath(1, (0.0, 1.0), (0.0,), ((0.5, 1.0), (0.5 + 0.5 / n, -1.0),
                                              (0.5 + 1.5 / n, 1.0), (0.5 + 2.0 / n, -1.0)))


@pytest.mark.parametrize("n", [10, 50, 200, 1000])
def test_narrow_blocks_sit_one_over_n_apart(n):
    # the indicator of [1/2, 1/2 + 2/n) against the same block with a dip to
    # zero over its middle half: the bottom of the dip lies 1/n from the
    # vertical jumps of the plain block
    assert rho_2(_two_block(n), _four_block(n)) == pytest.approx(1.0 / n, abs=1e-9)
    assert rho_2_prime(_two_block(n), _four_block(n)) == pytest.approx(1.0 / n, abs=1e-9)


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_oscillation_is_its_amplitude_from_zero(n):
    assert rho_2(_oscillation(n), ZERO) == pytest.approx(1.0 / (2.0 * math.pi * n), abs=1e-9)


@pytest.mark.parametrize("p,a", [(0.3, 0.5), (0.3, 1.0), (0.6, 0.2)])
def test_kink_maximum_is_exact(p, a):
    # the zero path's graph against the tent (0,0) -> (p,a) -> (1,0): the
    # distance to either tent segment is affine along [0, 1], and the sup
    # sits where the two cross, at height a over the summed segment lengths
    tent = metrics._ChainGeometry(np.array(((0.0, 0.0), (p, a), (1.0, 0.0))))
    got = metrics._directed_sup(completed_graph(ZERO).as_array(), tent)
    assert got == pytest.approx(a / (math.hypot(p, a) + math.hypot(1.0 - p, a)), abs=1e-15)


def test_refinement_budget_raises(monkeypatch):
    monkeypatch.setattr(metrics, "_MAX_NODES", 20)
    with pytest.raises(NonConvergenceError):
        rho_2(_oscillation(8), ZERO)


# -- metric-close paths with far-apart actions ------------------------------------------


def _bounded_support_model():
    def k(u):
        u = np.asarray(u, dtype=float)
        with np.errstate(all="ignore"):
            val = -np.log1p(-u * u)
        out = np.where(np.abs(u) < 1.0, val, np.inf)
        return out if out.ndim else float(out)

    def kp(u):
        u = np.asarray(u, dtype=float)
        val = 2.0 * u / (1.0 - u * u)
        return val if val.ndim else float(val)

    def kpp(u):
        u = np.asarray(u, dtype=float)
        val = 2.0 * (1.0 + u * u) / (1.0 - u * u) ** 2
        return val if val.ndim else float(val)

    return CgfModel(id="bounded-test", domain=DomainInterval(-1.0, 1.0),
                    cgf=k, cgf_grad=kp, cgf_hess=kpp)


def test_two_vs_four_jumps():
    n = 50.0
    a = 0.5
    two = CadlagPath(1, (0.0, 1.0), (0.0,),
                     ((a, 1.0), (a + 2.0 / n, -1.0)))
    four = CadlagPath(1, (0.0, 1.0), (0.0,),
                      ((a, 1.0), (a + 0.5 / n, -1.0),
                       (a + 1.5 / n, 1.0), (a + 2.0 / n, -1.0)))
    # the notch floor sits exactly 1/n from either vertical of the block
    assert rho_2_prime(two, four) == pytest.approx(1.0 / n, abs=1e-9)
    assert rho_2(two, four) == pytest.approx(1.0 / n, abs=1e-9)

    m = parse_model("cexp")
    assert i_d(two, m) == math.inf       # downward jumps are forbidden
    assert i_d(four, m) == math.inf

    bounded = _bounded_support_model()
    assert i_d(two, bounded) == pytest.approx(2.0, abs=1e-12)
    assert i_d(four, bounded) == pytest.approx(4.0, abs=1e-12)
