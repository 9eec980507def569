"""Path metric, balls, inradius/covering radius, and geometry estimates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specbounds import (
    DEFAULT_SEED,
    EmptyCenters,
    EmptyOmega,
    WeightedGraph,
    ball,
    check_homogeneity,
    complete_graph,
    compute_metric,
    generate,
    covering_radius,
    geodesic,
    geometric_comb,
    apex_ray,
    inradius,
    lattice_box,
    make_report,
    path_graph,
    rows_pass,
)
from specbounds.metric import MAX_CENTERS, MetricData
from helpers import random_instance, random_proper_subset, weight


def path_length(g: WeightedGraph, path) -> float:
    """Sum of 1/b over consecutive edges of an explicit vertex path."""
    total = 0.0
    for u, v in zip(path, path[1:]):
        w = weight(g, u, v)
        assert w > 0.0, f"path uses missing edge {u!r}-{v!r}"
        total += 1.0 / w
    return total


def vol_of_ball(md, x: str, r: float) -> float:
    """m(B_r(x)), read off one row of the distances."""
    return float(md.graph.m[md.dist[md.graph.index[x]] <= r].sum())


def test_path_distance_two_unit_edges():
    md = compute_metric(path_graph(3))
    assert md.d("v0", "v2") == 2.0


def test_single_heavy_edge_distance():
    g = WeightedGraph.from_edge_list(("a", "b"), 1.0, [("a", "b", 4.0)])
    assert compute_metric(g).d("a", "b") == 0.25


def test_comb_distances_match_closed_form():
    md = compute_metric(geometric_comb(6))
    for n in range(1, 7):
        want = 2.0 / 3.0 + (1.0 / 3.0) * 4.0 ** (1 - n)
        got = md.d(f"{n},0", "1,1")
        assert abs(got - want) <= 1e-12 * want


def test_apex_ray_distances_shrink_toward_the_far_end():
    md = compute_metric(apex_ray(8))
    previous = np.inf
    for n in range(1, 9):
        got = md.d(f"{n},0", "1,1")
        assert got == pytest.approx(1.0 + 1.0 / n, rel=1e-12)
        assert got < previous
        previous = got


def test_balls_on_the_path():
    g = path_graph(3)
    md = compute_metric(g)
    assert ball(md, "v1", 0.0, closed=True) == ("v1",)
    assert ball(md, "v1", 1.0, closed=True) == ("v0", "v1", "v2")
    assert ball(md, "v1", 1.0, closed=False) == ("v1",)


def test_inradius_hand_cases():
    k2 = complete_graph(2)
    md = compute_metric(k2)
    assert inradius(md, ("v0",)) == 1.0
    p = path_graph(3)
    mdp = compute_metric(p)
    assert inradius(mdp, ("v0", "v1")) == 2.0
    with pytest.raises(EmptyCenters):
        inradius(mdp, ("v0", "v1", "v2"))
    with pytest.raises(EmptyOmega):
        inradius(mdp, ())


def test_covering_radius_hand_cases():
    p = path_graph(3)
    md = compute_metric(p)
    assert covering_radius(md, p.vertices) == 0.0
    assert covering_radius(md, ("v2",)) == 2.0
    assert covering_radius(md, ("v2",)) == inradius(md, ("v0", "v1"))
    k2 = complete_graph(2)
    assert covering_radius(compute_metric(k2), ("v1",)) == 1.0
    with pytest.raises(EmptyCenters):
        covering_radius(md, ())


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6))
def test_covering_radius_equals_inradius_exactly(seed):
    g = random_instance(seed, n_lo=2, n_hi=40)
    md = compute_metric(g)
    d_set = random_proper_subset(g, seed + 13)
    omega = g.complement(d_set)
    assert covering_radius(md, d_set) == inradius(md, omega)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10**6))
def test_triangle_inequality(seed):
    g = random_instance(seed, n_lo=2, n_hi=35)
    dist = compute_metric(g).dist
    for k in range(g.n):
        via = dist[:, k][:, None] + dist[k, :][None, :]
        assert np.all(dist <= via + 1e-12)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10**6))
def test_metric_structure(seed):
    g = random_instance(seed, n_lo=2, n_hi=35)
    c = g.constants
    dist = compute_metric(g).dist
    assert np.allclose(dist, dist.T, rtol=1e-12, atol=0.0)
    assert np.all(np.diag(dist) == 0.0)
    off = dist[~np.eye(g.n, dtype=bool)]
    assert np.all(off >= 1.0 / c.b_max)


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 10**6))
def test_geodesic_reconstruction(seed):
    g = random_instance(seed, n_lo=2, n_hi=30)
    md = compute_metric(g)
    rng = np.random.default_rng(seed)
    for _ in range(100):
        i, j = rng.integers(0, g.n, size=2)
        x, y = g.vertices[int(i)], g.vertices[int(j)]
        path = geodesic(md, x, y)
        assert path[0] == x and path[-1] == y
        want = md.d(x, y)
        assert abs(path_length(g, path) - want) <= 1e-12 * max(want, 1.0)


def test_geodesic_between_components_is_refused():
    """The predecessor is negative where there is none: at the source and
    at every vertex it cannot reach.  geodesic refuses such a pair."""
    g = WeightedGraph.from_edge_list(
        ("a", "b", "c", "d"), 1.0, [("a", "b", 1.0), ("c", "d", 1.0)]
    )
    md = compute_metric(g)
    assert geodesic(md, "a", "b") == ("a", "b")
    assert geodesic(md, "c", "c") == ("c",)
    with pytest.raises(ValueError, match="^no path recorded from 'a' to 'd'$"):
        geodesic(md, "a", "d")


def _floyd_warshall(g):
    n = g.n
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for i, j, w in g.edges:
        dist[i, j] = dist[j, i] = 1.0 / w
    for k in range(n):
        for i in range(n):
            for j in range(n):
                alt = dist[i, k] + dist[k, j]
                if alt < dist[i, j]:
                    dist[i, j] = alt
    return dist


@pytest.mark.parametrize("seed", range(12))
def test_distances_match_floyd_warshall_oracle(seed):
    g = random_instance(seed, n_lo=2, n_hi=14)
    got = compute_metric(g).dist
    want = _floyd_warshall(g)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-13)


def test_ball_volume_basics():
    g = random_instance(42, n_lo=5, n_hi=20, m_weighted=True)
    md = compute_metric(g)
    c = g.constants
    for v in g.vertices[:5]:
        assert vol_of_ball(md, v, 0.0) == g.m[g.index[v]]
    radii = np.quantile(md.dist[md.dist > 0], [0.2, 0.5, 0.9])
    for x in g.vertices[:3]:
        vols = [vol_of_ball(md, x, r) for r in radii]
        assert vols == sorted(vols)
    brackets = [md.vol_bracket(r) for r in radii]
    assert brackets == sorted(brackets)
    assert all(b >= c.m_max for b in brackets)


def test_homogeneity_k2_equality_case():
    g = complete_graph(2)
    md = compute_metric(g)
    # By hand: #B_1 = 2 and the cardinality bound is (1*1*1)^(1*1) + 1 = 2.
    count = len(ball(md, "v0", 1.0))
    assert count == 2
    rows = check_homogeneity(g, md)
    assert rows_pass(rows)


def test_homogeneity_on_a_single_vertex_is_vacuous():
    g = path_graph(1)
    rows = check_homogeneity(g, compute_metric(g))
    assert rows == [
        make_report(
            "homogeneity/min_distance", 0.0, 0.0, ">=", vacuous=True, note="single vertex; no pairs"
        ),
        make_report("homogeneity/ball_count", 1.0, 2.0, "<=", vacuous=True, note="no radii sampled"),
    ]
    assert rows_pass(rows)


def test_homogeneity_lattice_count():
    g = lattice_box(2, 10)
    md = compute_metric(g)
    center = "5,5"
    count = len(ball(md, center, 3.0))
    assert count == 25
    assert count <= (3.0 * 4.0 * 1.0) ** 3 + 1  # = 1729
    assert rows_pass(check_homogeneity(g, md))


def test_tiny_radius_ball_is_a_singleton():
    g = random_instance(3, n_lo=2, n_hi=20)
    c = g.constants
    md = compute_metric(g)
    r = 0.5 / c.b_max
    for v in g.vertices:
        assert ball(md, v, r) == (v,)


@pytest.mark.parametrize("spec_seed", range(8))
def test_homogeneity_rows_pass_on_random_graphs(spec_seed):
    g = random_instance(100 + spec_seed, n_lo=2, n_hi=40, m_weighted=True)
    md = compute_metric(g)
    assert rows_pass(check_homogeneity(g, md))


def test_homogeneity_radii_match_one_quantile_call_per_radius(monkeypatch):
    """The radii come from one np.quantile call over all distances; the
    rows equal, bit for bit, those of one call per quantile."""
    g = generate("random:200")
    md = compute_metric(g)
    rows = check_homogeneity(g, md)
    quantile, calls = np.quantile, []

    def one_call_per_quantile(a, q):
        calls.append(q)
        return np.array([quantile(a, x) for x in q])

    monkeypatch.setattr(np, "quantile", one_call_per_quantile)
    # A fresh metric: md has its quartiles cached already.
    assert check_homogeneity(g, MetricData(g, md.dist, md.pred)) == rows
    assert calls == [(0.25, 0.5, 0.75, 1.0)]


def _loop_ball_count(g, md, seed=DEFAULT_SEED):
    """Reference for check_homogeneity's ball_count row: one ball at a
    time, centre-major, keeping the first strictly smaller margin.  Also
    returns every margin."""
    c = g.constants
    rng = np.random.default_rng(seed)
    if g.n <= MAX_CENTERS:
        centers = np.arange(g.n)
    else:
        centers = rng.choice(g.n, size=MAX_CENTERS, replace=False)
        centers.sort()
    finite = np.sort(md.dist[md.dist > 0.0])
    radii = [0.5 / c.b_max]
    radii.extend(float(q) for q in np.quantile(finite, (0.25, 0.5, 0.75, 1.0)))
    worst, margins = None, []
    for x in centers:
        row = md.dist[x]
        for r in radii:
            count = float(np.count_nonzero(row <= r))
            base = r * c.delta * c.m_max
            exponent = r * c.b_max
            with np.errstate(over="ignore"):
                bound = float(np.power(base, exponent)) + 1.0
            bound = float(min(bound, np.finfo(float).max))
            margin = bound - count
            margins.append(margin)
            if worst is None or margin < worst[0]:
                worst = (margin, count, bound, g.vertices[int(x)], r)
    _, count, bound, vid, r = worst
    row = make_report(
        "homogeneity/ball_count", count, bound, "<=",
        note=f"tightest sample at x={vid} r={r!r}",
    )
    return row, margins


def _overflowing_path():
    """Edge lengths 1e308: the longer distances overflow to inf and the
    upper quantile radii come out NaN."""
    ids = tuple(f"v{i}" for i in range(6))
    return WeightedGraph.from_edge_list(ids, 1.0, [(a, b, 1e-308) for a, b in zip(ids, ids[1:])])


@pytest.mark.parametrize(
    "g",
    [
        generate("random:120"),
        generate("lattice:2:5"),
        generate("comb:12"),
        path_graph(40),
        random_instance(11, n_lo=30, n_hi=60, weight_range=(1e-3, 1e3), m_weighted=True),
        _overflowing_path(),
    ],
    ids=["random120", "lattice", "comb", "path40", "measured", "overflow"],
)
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_ball_count_matches_ball_loop_bit_for_bit(g):
    """One broadcast count and argmin over (centre, radius) give the row of
    the per-ball loop, bit for bit, ties and NaN radii included."""
    md = compute_metric(g)
    rows = check_homogeneity(g, md)
    expected, margins = _loop_ball_count(g, md)
    assert rows[1] == expected
    for seed in (1, 2):
        assert check_homogeneity(g, md, seed=seed)[1] == _loop_ball_count(g, md, seed=seed)[0]
    # The smallest margin is tied on every graph here (every ball of radius
    # 0.5 / b_max is one vertex); on the overflow path the first tied pair
    # is not the first one sampled.
    margins = np.array(margins)
    ties = np.flatnonzero(margins == np.nanmin(margins))
    assert ties.size > 1
    assert rows[1].note == expected.note


@pytest.mark.parametrize(
    "g",
    [
        random_instance(7, n_lo=30, n_hi=60),
        random_instance(8, n_lo=30, n_hi=60, weight_range=(1e-3, 1e3), m_weighted=True),
        random_instance(9, n_lo=30, n_hi=60, m_weighted=True, potential_range=(-2.0, 3.0)),
        lattice_box(2, 6),
        geometric_comb(12),
        generate("random:200"),
    ],
    ids=["weighted", "measured", "potential", "lattice", "comb", "random200"],
)
def test_min_distance_is_the_shortest_edge(g):
    """homogeneity/min_distance, read off the edge list, is the dense
    minimum over distinct pairs bit for bit."""
    md = compute_metric(g)
    row = check_homogeneity(g, md)[0]
    assert row.name == "homogeneity/min_distance"
    assert row.true_value == md.dist[~np.eye(g.n, dtype=bool)].min()
    assert row.passed and not row.vacuous


def test_quartiles_are_computed_once_per_metric(monkeypatch):
    md = compute_metric(random_instance(4, n_lo=20, n_hi=30))
    quantile, calls = np.quantile, []

    def recording_quantile(a, q):
        calls.append(q)
        return quantile(a, q)

    monkeypatch.setattr(np, "quantile", recording_quantile)
    quartiles = md.quartiles
    assert quartiles is md.quartiles
    assert calls == [(0.25, 0.5, 0.75, 1.0)]
    finite = np.sort(md.dist[md.dist > 0.0])
    assert quartiles == tuple(float(quantile(finite, q)) for q in (0.25, 0.5, 0.75, 1.0))
    assert all(type(q) is float for q in quartiles)
    assert compute_metric(path_graph(1)).quartiles == ()
