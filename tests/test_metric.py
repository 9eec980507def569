"""Path metric, balls, inradius/covering radius, and geometry estimates."""

import os
import signal
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra
from hypothesis import example, given, settings
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
    random_connected,
    rows_pass,
)
from specbounds import metric
from specbounds.metric import (
    MAX_CENTERS,
    QUARTILE_LEVELS,
    MetricData,
    ball_mass_max,
    positive_quantiles,
)
from helpers import (
    assert_no_child_left,
    deadline,
    dijkstra_raising,
    needs_fork,
    random_instance,
    random_proper_subset,
    usable_cpus,
    weight,
)


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
    with pytest.raises(KeyError):
        inradius(mdp, ("v0", "v9"))


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
    """The edge lengths along a geodesic, added from x on, give d(x, y) bit
    for bit: each step of the chain is a tight Dijkstra relaxation."""
    g = random_instance(seed, n_lo=2, n_hi=30)
    md = compute_metric(g)
    rng = np.random.default_rng(seed)
    for _ in range(100):
        i, j = rng.integers(0, g.n, size=2)
        x, y = g.vertices[int(i)], g.vertices[int(j)]
        path = geodesic(md, x, y)
        assert path[0] == x and path[-1] == y
        assert path_length(g, path) == md.d(x, y)


# Lengths 1e-20 vanish in dist 1.0: b, a and e all lie at distance 1 from
# s, and a's first tight neighbour is b, whose only one is a.
ABSORBED = WeightedGraph.from_edge_list(
    ("b", "a", "e", "s"), 1.0, [("s", "e", 1.0), ("e", "a", 1e20), ("a", "b", 1e20)]
)
# Two components, joined by an edge whose length 1/b overflows to inf.
INF_BRIDGE = WeightedGraph.from_edge_list(
    ("a", "b", "c", "d"), 1.0, [("a", "b", 1.0), ("c", "d", 2.0), ("b", "c", 1e-320)]
)


@pytest.mark.parametrize(
    "g",
    [generate("lattice:2:6"), generate("apex_ray:12"), generate("comb:4"), ABSORBED],
    ids=["lattice", "apex_ray", "comb", "absorbed"],
)
def test_geodesics_on_graphs_with_ties_fold_to_the_distance(g):
    """Unit weights tie many predecessors, and an edge shorter than half an
    ulp of the distance ties a vertex with its neighbour; every pair's
    geodesic still folds to its distance bit for bit."""
    md = compute_metric(g)
    for x in g.vertices:
        for y in g.vertices:
            path = geodesic(md, x, y)
            assert (path[0], path[-1]) == (x, y)
            assert path_length(g, path) == md.d(x, y)


@pytest.mark.parametrize(
    "g",
    [
        generate("random:40"),
        generate("random:300"),
        generate("lattice:2:6"),
        generate("apex_ray:30"),
        ABSORBED,
        INF_BRIDGE,
    ],
    ids=["random40", "random300", "lattice", "apex_ray", "absorbed", "inf_bridge"],
)
def test_derived_predecessors_match_scipy_where_unique(g):
    """MetricData.pred is scipy's predecessor table everywhere, ties
    included: int32, read-only, -9999 at the source and at unreachable
    vertices, and formed only when first read."""
    md = compute_metric(g)
    assert "pred" not in md.__dict__
    dist, pred = dijkstra(g.lengths, directed=True, return_predecessors=True)
    assert np.array_equal(md.dist, dist)
    assert md.pred.dtype == np.int32 and not md.pred.flags.writeable
    assert np.array_equal(md.pred, pred)
    assert np.all(pred[(dist == 0.0) | np.isinf(dist)] == -9999)


def test_geodesic_between_components_is_refused():
    """The predecessor is negative where there is none: at the source and
    at every vertex it cannot reach.  geodesic refuses such a pair, and a
    chain that would pass n vertices (a cycle in the table) as well."""
    g = WeightedGraph.from_edge_list(
        ("a", "b", "c", "d"), 1.0, [("a", "b", 1.0), ("c", "d", 1.0)]
    )
    md = compute_metric(g)
    assert geodesic(md, "a", "b") == ("a", "b")
    assert geodesic(md, "c", "c") == ("c",)
    with pytest.raises(ValueError, match="^no path recorded from 'a' to 'd'$"):
        geodesic(md, "a", "d")
    # A table whose chain from d cycles through c: geodesic gives up at the
    # n-th lookup, and a walk that does not stop fails here at the next.
    table = np.array(md.pred)
    table[0, 2], table[0, 3] = 3, 2
    lookups = []

    class Cyclic:
        def __getitem__(self, key):
            lookups.append(key)
            assert len(lookups) <= g.n, "the chain passed n vertices"
            return table[key]

    cyclic = MetricData(g, md.dist)
    cyclic.__dict__["pred"] = Cyclic()
    with pytest.raises(ValueError, match="^no path recorded from 'a' to 'd'$"):
        geodesic(cyclic, "a", "d")
    assert len(lookups) == g.n


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
    rows = check_homogeneity(md)
    assert rows_pass(rows)


def test_homogeneity_on_a_single_vertex_is_vacuous():
    g = path_graph(1)
    rows = check_homogeneity(compute_metric(g))
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
    assert rows_pass(check_homogeneity(md))


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
    assert rows_pass(check_homogeneity(md))


def test_homogeneity_radii_match_one_quantile_call_per_radius():
    """The selected radii are, bit for bit, those of one np.quantile call
    per radius over all positive distances, and so are the rows."""
    g = generate("random:200")
    md = compute_metric(g)
    rows = check_homogeneity(md)
    positive = md.dist[md.dist > 0]
    # A fresh metric: md has its quartiles cached already.
    fresh = MetricData(g, md.dist)
    assert fresh.quartiles == tuple(float(np.quantile(positive, q)) for q in QUARTILE_LEVELS)
    assert check_homogeneity(fresh) == rows


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
    rows = check_homogeneity(md)
    expected, margins = _loop_ball_count(g, md)
    assert rows[1] == expected
    for seed in (1, 2):
        assert check_homogeneity(md, seed=seed)[1] == _loop_ball_count(g, md, seed=seed)[0]
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
    row = check_homogeneity(md)[0]
    assert row.name == "homogeneity/min_distance"
    assert row.true_value == md.dist[~np.eye(g.n, dtype=bool)].min()
    assert row.passed and not row.vacuous


def test_quartiles_are_computed_once_per_metric():
    """quartiles is one cached tuple of floats: later reads, check_homogeneity
    and vol_bracket included, get the same object back."""
    g = random_instance(4, n_lo=20, n_hi=30)
    md = compute_metric(g)
    quartiles = md.quartiles
    check_homogeneity(md)
    md.vol_bracket(quartiles[1])
    assert md.quartiles is quartiles
    finite = np.sort(md.dist[md.dist > 0.0])
    assert quartiles == tuple(float(np.quantile(finite, q)) for q in (0.25, 0.5, 0.75, 1.0))
    assert all(type(q) is float for q in quartiles)
    assert compute_metric(path_graph(1)).quartiles == ()


@st.composite
def distance_tables(draw):
    """n x n tables of zeros and positive entries from 1e-300 to 1e300 and
    inf, drawn from a pool of one, a few or n^2 values (ties, one distinct
    value, or mostly distinct)."""
    n = draw(st.integers(2, 24))
    size = draw(st.sampled_from([1, 3, n * n]))
    pool = draw(st.lists(st.floats(1e-300, 1e300) | st.just(np.inf), min_size=1, max_size=size))
    entries = draw(st.lists(st.sampled_from([0.0, *pool]), min_size=n * n, max_size=n * n))
    return np.array(entries).reshape(n, n)


@settings(deadline=None, max_examples=150)
@given(distance_tables(), st.integers(1, 9), st.sampled_from([1, 2, 5, metric._GATHER_MAX]))
@example(np.array([[0.0, 1.0], [1.0, 0.0]]), 1, 1)
@example(np.full((5, 5), 2.5), 2, 1)
@example(np.array([[0.0, np.inf], [np.inf, 0.0]]), 1, 1)
@example(np.array([[1e-300, 1e300, np.inf], [3.0, 0.0, 3.0], [5e-324, 1e-300, 2.0]]), 2, 2)
@example(np.zeros((3, 3)), 2, 1)
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_quartile_selection_is_np_quantile_bit_for_bit(dist, rows, gather):
    """The blocked selection returns the bits of np.quantile over the
    positive entries, whatever the block size and however few candidates
    it gathers before splitting a key range into buckets."""
    positive = dist[dist > 0]
    want = np.quantile(positive, QUARTILE_LEVELS) if positive.size else np.array([])
    with mock.patch.object(metric, "_GATHER_MAX", gather):
        got = positive_quantiles(dist, rows)
    assert all(type(q) is float for q in got)
    assert np.array(got, dtype=float).tobytes() == want.tobytes()


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6), st.sampled_from([8, 16, 24]))
def test_blocked_ball_masses_match_the_whole_table_product(seed, rows):
    """Under a non-unit measure the blocked ball masses equal the
    whole-table product bit for bit.  n stays below 96, where OpenBLAS
    runs the whole product on one thread (see ball_mass_max)."""
    g = random_instance(seed, n_lo=2, n_hi=60, m_weighted=True)
    md = compute_metric(g)
    restricted = g.m * (np.arange(g.n) % 3 == 0)
    for s in (0.5 / g.constants.b_max, *md.quartiles):
        for weights in (g.m, restricted):
            assert ball_mass_max(md.dist, s, weights, rows) == ((md.dist <= s) @ weights).max()
        assert md.vol_bracket(s) == ((md.dist <= s) @ g.m).max()
        assert md.vol_bracket_within(s, g.vertices[::3]) == ((md.dist <= s) @ restricted).max()


def test_quartiles_and_ball_masses_form_no_dense_copy():
    """On random:800 the quartiles, both all-centre brackets and the
    homogeneity rows stay below half of the n x n distance table in
    tracemalloc peak: they read it in row blocks."""
    g = generate("random:800")
    md = compute_metric(g)
    tracemalloc.start()
    try:
        radius = md.quartiles[1]
        md.vol_bracket(radius)
        md.vol_bracket_within(radius, g.vertices[::4])
        check_homogeneity(md)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < md.dist.nbytes / 2


def test_centre_ball_masses_read_the_centre_rows_in_blocks():
    """vol_bracket_centers equals the product over the whole |D| x n block
    of centre rows bit for bit, at the three quartile radii of an n = 850
    graph under a non-unit measure with every third vertex a centre, and
    its tracemalloc peak stays below one |D| x n float64 array: it copies
    and casts one row block of centres at a time."""
    g = random_connected(850, m_range=(0.5, 2.0))
    md = compute_metric(g)
    centers = g.vertices[::3]
    idx = g.indices(centers)
    for s in md.quartiles[:3]:
        want = ((md.dist[idx] <= s) @ g.m).max()
        tracemalloc.start()
        try:
            got = md.vol_bracket_centers(s, centers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < idx.size * g.n * 8


@needs_fork
@pytest.mark.parametrize("spec", ["random:800", "lattice:2:40"])
def test_forked_table_is_scipys_serial_table_bit_for_bit(spec):
    """At 1, 2 and 3 usable CPUs the table has the bits of one serial
    Dijkstra call, each worker after the first is one fork, and no child
    is left after the call."""
    g = generate(spec)
    want = dijkstra(g.lengths, directed=True)
    for cpus in (1, 2, 3):
        with usable_cpus(cpus), mock.patch("os.fork", wraps=os.fork) as fork, deadline(60):
            got = compute_metric(g).dist
        assert fork.call_count == cpus - 1
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
        assert_no_child_left()


@needs_fork
def test_graphs_below_two_worker_shares_never_fork():
    """Below 2 * ROWS_PER_WORKER = 512 vertices the table is one Dijkstra
    call in this process, however many CPUs are usable."""
    assert metric.ROWS_PER_WORKER == 256
    with usable_cpus(64), mock.patch("os.fork", side_effect=AssertionError("forked")):
        for g in (generate("random:511"), lattice_box(2, 20), path_graph(1)):
            assert compute_metric(g).dist.tobytes() == dijkstra(g.lengths, directed=True).tobytes()


@needs_fork
def test_a_failing_worker_raises_child_process_error(monkeypatch):
    """A worker whose Dijkstra raises exits nonzero, and the call raises
    ChildProcessError naming its rows and status; no child is left."""
    monkeypatch.setattr(metric, "_dijkstra", dijkstra_raising(MemoryError(), in_workers=True))
    with usable_cpus(2), deadline(60), pytest.raises(
        ChildProcessError, match=r"^distance rows 400-799: worker exited with status 1$"
    ):
        compute_metric(generate("random:800"))
    assert_no_child_left()


@needs_fork
def test_a_worker_killed_mid_share_raises_child_process_error(monkeypatch):
    """A worker killed by SIGKILL after its first block (as the OOM killer
    would kill it) never exits 0, so the call raises ChildProcessError with
    its signal status instead of returning a table with rows missing; no
    child is left."""
    parent, serial, calls = os.getpid(), metric._dijkstra, []

    def dijkstra(*args, **kwargs):
        calls.append(None)
        if os.getpid() != parent and len(calls) == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return serial(*args, **kwargs)

    monkeypatch.setattr(metric, "_dijkstra", dijkstra)
    with usable_cpus(2), deadline(60), pytest.raises(
        ChildProcessError, match=r"^distance rows 400-799: worker exited with status -9$"
    ):
        compute_metric(generate("random:800"))
    assert_no_child_left()


@needs_fork
def test_a_failing_parent_share_reaps_every_worker(monkeypatch):
    """When this process's own share raises (here SystemExit, as the
    benchmark's SIGTERM handler raises it), the call kills its workers and
    ends in that exception at once, instead of waiting out their shares
    (each sleeps 5 s before every block here), and every worker is
    reaped."""
    parent, serial = os.getpid(), metric._dijkstra

    def dijkstra(*args, **kwargs):
        if os.getpid() == parent:
            raise SystemExit(143)
        time.sleep(5)
        return serial(*args, **kwargs)

    monkeypatch.setattr(metric, "_dijkstra", dijkstra)
    g = generate("random:800")
    with usable_cpus(3), mock.patch("os.fork", wraps=os.fork) as fork, deadline(60):
        start = time.monotonic()
        with pytest.raises(SystemExit):
            compute_metric(g)
        assert time.monotonic() - start < 1.0
    assert fork.call_count == 2
    assert_no_child_left()
