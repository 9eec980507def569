"""Isoperimetric constants, the Voronoi bound, and the chain comparison."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from specbounds import (
    AnalysisContext,
    CapacityOverflow,
    EmptyCenters,
    EmptyOmega,
    IsoperimetricData,
    NotCombinatorial,
    WeightedGraph,
    cheeger_chain,
    complete_graph,
    compute_metric,
    generate,
    growth_diagnostic,
    is_combinatorial,
    lattice_box,
    path_graph,
    random_connected,
    region_constant,
    rows_pass,
)
from specbounds import cli
from specbounds.cheeger import _maximal_minimizer, _region_network


def neighbor_indices(g: WeightedGraph, i: int) -> list[int]:
    """The neighbors of vertex i: its row of the CSR adjacency."""
    W = g.adjacency
    return W.indices[W.indptr[i] : W.indptr[i + 1]].tolist()


def boundary_count(g: WeightedGraph, subset) -> int:
    """Ordered boundary pairs of a subset, counted by scanning neighbors:
    the independent check of a witness's boundary size."""
    inside = np.zeros(g.n, dtype=bool)
    inside[g.indices(subset)] = True
    count = 0
    for i in np.flatnonzero(inside):
        for j in neighbor_indices(g, int(i)):
            if not inside[j]:
                count += 1
    return count


def beta_exhaustive(g: WeightedGraph, omega) -> IsoperimetricData:
    """Exact infimum of boundary/volume over nonempty subsets of the region.

    Enumerates all 2^k - 1 nonempty subsets with a vectorized sweep:
    boundary(S) = sum of degrees over S minus twice the edges inside S,
    where inside-edge counts satisfy a one-bit recursion over masks.
    Ties go to the lowest bitmask, so the witness is deterministic.  Time
    and memory grow as 2^k: keep the region small.
    """
    assert is_combinatorial(g)
    omega = tuple(dict.fromkeys(omega))
    k = len(omega)
    if k == 0:
        raise ValueError("region must be nonempty")

    idx = [g.index[v] for v in omega]
    local = {gidx: pos for pos, gidx in enumerate(idx)}
    degrees = np.array([len(neighbor_indices(g, i)) for i in idx], dtype=np.int64)
    adj_mask = np.zeros(k, dtype=np.uint32)
    for pos, gidx in enumerate(idx):
        bits = 0
        for j in neighbor_indices(g, gidx):
            if j in local:
                bits |= 1 << local[j]
        adj_mask[pos] = bits

    full = 1 << k
    masks = np.arange(full, dtype=np.uint32)
    popcnt = np.bitwise_count(masks).astype(np.int64)
    low = masks & (~masks + np.uint32(1))
    rest = masks ^ low
    low_pos = np.zeros(full, dtype=np.int64)
    low_pos[1 << np.arange(k, dtype=np.uint64)] = np.arange(k)
    neighbors_in_rest = np.bitwise_count(adj_mask[low_pos[low]] & rest).astype(np.int64)

    inside_edges = np.zeros(full, dtype=np.int64)
    for c in range(2, k + 1):
        sel = np.flatnonzero(popcnt == c)
        inside_edges[sel] = inside_edges[rest[sel]] + neighbors_in_rest[sel]

    degree_sum = np.zeros(full, dtype=np.int64)
    for pos in range(k):
        degree_sum[(masks >> np.uint32(pos)) & np.uint32(1) == 1] += degrees[pos]

    boundary = degree_sum - 2 * inside_edges
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = boundary / popcnt
    ratio[0] = np.inf
    best = int(np.argmin(ratio))
    members = tuple(omega[pos] for pos in range(k) if best >> pos & 1)
    return IsoperimetricData(
        beta=float(ratio[best]),
        witness=members,
        boundary_size=int(boundary[best]),
        volume=float(popcnt[best]),
    )


def beta_connected_oracle(g: WeightedGraph, omega) -> float:
    """Slow oracle: infimum over connected nonempty subsets of the region.

    A disconnected subset never beats its best connected component, so this
    must agree with the exhaustive value.  Plain Python; keep the region
    small.
    """
    assert is_combinatorial(g)
    omega = tuple(dict.fromkeys(omega))
    k = len(omega)
    idx = [g.index[v] for v in omega]
    local = {gidx: pos for pos, gidx in enumerate(idx)}
    neighbors = [
        [local[j] for j in neighbor_indices(g, gidx) if j in local] for gidx in idx
    ]
    degrees = [len(neighbor_indices(g, i)) for i in idx]

    best = np.inf
    for mask in range(1, 1 << k):
        bits = [pos for pos in range(k) if mask >> pos & 1]
        seen = {bits[0]}
        stack = [bits[0]]
        while stack:
            u = stack.pop()
            for v in neighbors[u]:
                if mask >> v & 1 and v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != len(bits):
            continue
        inside = sum(1 for u in bits for v in neighbors[u] if mask >> v & 1)
        boundary = sum(degrees[u] for u in bits) - inside
        best = min(best, boundary / len(bits))
    return float(best)


def test_beta_on_path_region_by_hand():
    # S={a}: boundary {(a,b)} ratio 1; S={b}: two boundary pairs ratio 2;
    # S={a,b}: boundary {(b,c)} ratio 1/2.
    iso = region_constant(path_graph(3), ("v0", "v1"))
    assert iso.beta == 0.5
    assert iso.witness == ("v0", "v1")
    assert iso.boundary_size == 1
    assert beta_exhaustive(path_graph(3), ("v0", "v1")) == iso


def test_beta_single_vertex_region_is_its_degree():
    g = complete_graph(5)
    iso = region_constant(g, ("v2",))
    assert iso.beta == 4.0
    assert beta_exhaustive(g, ("v2",)) == iso


def test_beta_over_everything_degenerates_to_zero():
    # With the whole graph admissible the boundary of X is empty.
    g = generate("random:10", seed=2)
    comb = WeightedGraph.from_edge_list(
        g.vertices, 1.0, [(g.vertices[i], g.vertices[j], 1.0) for i, j, _ in g.edges]
    )
    iso = region_constant(comb, comb.vertices)
    assert iso.beta == 0.0
    assert iso.witness == comb.vertices
    assert iso.boundary_size == 0
    assert beta_exhaustive(comb, comb.vertices).beta == 0.0


@pytest.mark.parametrize("seed", range(8))
def test_exhaustive_matches_connected_subset_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 13))
    g = random_connected(n, seed=seed, weight_range=(1.0, 1.0))
    omega = tuple(g.vertices[i] for i in sorted(rng.choice(n, size=n - 1, replace=False)))
    assert beta_exhaustive(g, omega).beta == beta_connected_oracle(g, omega)
    assert region_constant(g, omega).beta == beta_exhaustive(g, omega).beta


@pytest.mark.parametrize("seed", range(6))
def test_boundary_counted_two_ways(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(4, 16))
    g = random_connected(n, seed=seed + 50, weight_range=(1.0, 1.0))
    omega = tuple(g.vertices[i] for i in sorted(rng.choice(n, size=n - 2, replace=False)))
    iso = region_constant(g, omega)
    assert boundary_count(g, iso.witness) == iso.boundary_size
    assert iso.beta == beta_exhaustive(g, omega).beta


def test_beta_invariant_under_relabeling():
    g = random_connected(10, seed=4, weight_range=(1.0, 1.0))
    omega = g.vertices[:7]
    base = region_constant(g, omega)
    assert base.beta == beta_exhaustive(g, omega).beta
    rng = np.random.default_rng(9)
    perm = rng.permutation(10)
    names = [f"w{k}" for k in range(10)]
    relabeled = WeightedGraph.from_edge_list(
        [names[perm[i]] for i in range(10)],
        1.0,
        [(names[perm[i]], names[perm[j]], 1.0) for i, j, _ in g.edges],
    )
    omega_new = tuple(names[perm[g.index[v]]] for v in omega)
    iso = region_constant(relabeled, omega_new)
    assert iso.beta == base.beta
    assert set(iso.witness) == {names[perm[g.index[v]]] for v in base.witness}


def test_region_constant_past_the_enumeration_size_on_path():
    # v0..v23 of a 25-vertex path: the whole region has one boundary pair,
    # and every smaller subset has at least one over fewer vertices.
    g = path_graph(25)
    iso = region_constant(g, g.vertices[:24])
    assert iso.beta == 1 / 24
    assert iso.witness == g.vertices[:24]
    assert iso.boundary_size == 1


def test_non_combinatorial_rejected():
    g = WeightedGraph.from_edge_list(("a", "b"), 1.0, [("a", "b", 2.0)])
    with pytest.raises(NotCombinatorial):
        region_constant(g, ("a",))


def _random_region(seed: int) -> tuple[WeightedGraph, tuple[str, ...]]:
    rng = np.random.default_rng(5_000 + seed)
    n = int(rng.integers(2, 18))
    g = random_connected(n, seed=seed, weight_range=(1.0, 1.0))
    k = int(rng.integers(1, n + 1))
    omega = tuple(g.vertices[i] for i in rng.permutation(n)[:k])
    return g, omega


def test_region_constant_matches_exhaustive_oracle_on_random_regions():
    for seed in range(150):
        g, omega = _random_region(seed)
        iso = region_constant(g, omega)
        assert iso.beta == beta_exhaustive(g, omega).beta, seed
        assert boundary_count(g, iso.witness) == iso.boundary_size
        assert iso.beta == iso.boundary_size / iso.volume


def test_witness_is_the_union_of_all_minimizers():
    for seed in range(40):
        g, omega = _random_region(seed)
        omega = omega[:10]
        ratios = {
            S: Fraction(boundary_count(g, S), len(S))
            for r in range(1, len(omega) + 1)
            for S in combinations(omega, r)
        }
        beta = min(ratios.values())
        union = {v for S, ratio in ratios.items() if ratio == beta for v in S}
        iso = region_constant(g, omega)
        assert Fraction(iso.boundary_size, int(iso.volume)) == beta
        assert set(iso.witness) == union


def test_min_cut_capacity_overflow_raises():
    g = path_graph(4)
    inner, out_degree = _region_network(g, ("v0", "v1", "v2"))
    # k p = 3 * 2^30 exceeds 2^31 - 1, which the solver would wrap silently.
    with pytest.raises(CapacityOverflow):
        _maximal_minimizer(inner, out_degree, 2**30, 1)
    assert _maximal_minimizer(inner, out_degree, 1, 3).all()


def _voronoi_bound_row(ctx):
    """The chain's row comparing the region constant with 1/vol[R]."""
    (row,) = [r for r in cheeger_chain(ctx) if r.name == "cheeger/region_constant_vs_volume"]
    return row


def test_voronoi_bound_on_path():
    g = path_graph(3)
    row = _voronoi_bound_row(AnalysisContext(g, ("v2",)))
    assert row.true_value == 0.5
    assert row.bound_value == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert row.passed and not row.vacuous


def test_chain_refuses_centers_covering_the_graph(capsys):
    g = path_graph(4)
    with pytest.raises(EmptyOmega, match="^penalty set covers the graph; no region remains$"):
        cheeger_chain(AnalysisContext(g, g.vertices))
    assert cli.main(["cheeger", "--generate", "path:4", "--centers", "every:1"]) == 1
    assert "no region remains" in capsys.readouterr().err


@pytest.mark.parametrize(
    "centers, error, message",
    [
        ((), EmptyCenters, "penalty set must be nonempty"),
        (None, EmptyOmega, "penalty set covers the graph; no region remains"),
    ],
    ids=["no-centers", "all-centers"],
)
def test_chain_checks_the_region_as_require_region_does(centers, error, message):
    """cheeger_chain refuses an empty D or an empty region with the
    context's own precondition, as every other bound function does."""
    g = path_graph(5)
    ctx = AnalysisContext(g, g.vertices if centers is None else centers)
    with pytest.raises(error, match=f"^{message}$"):
        ctx.require_region()
    with pytest.raises(error, match=f"^{message}$"):
        cheeger_chain(ctx)


def test_voronoi_bound_on_line_with_every_fourth_center():
    g = lattice_box(1, 12)
    d_set = tuple(v for v in g.vertices if int(v) % 4 == 0)
    row = _voronoi_bound_row(AnalysisContext(g, d_set))
    assert row.passed and not row.vacuous
    assert row.true_value == beta_exhaustive(g, g.complement(d_set)).beta


def test_chain_on_k2():
    g = complete_graph(2)
    rows = cheeger_chain(AnalysisContext(g, ("v1",)))
    by_name = {r.name: r for r in rows}
    assert by_name["cheeger/eigenvalue_vs_cheeger"].bound_value == 0.5
    assert by_name["cheeger/eigenvalue_vs_cheeger"].true_value == 1.0
    assert rows_pass(rows)


def test_chain_on_path_by_hand():
    g = path_graph(3)
    rows = cheeger_chain(AnalysisContext(g, ("v2",)))
    by_name = {r.name: r for r in rows}
    assert by_name["cheeger/eigenvalue_vs_cheeger"].bound_value == pytest.approx(0.0625)
    assert by_name["cheeger/eigenvalue_vs_ball_volume"].bound_value == pytest.approx(1.0 / 6.0)
    assert rows_pass(rows)


def test_chain_comparison_instance_lattice_with_coarse_sublattice():
    g = lattice_box(2, 8)
    d_set = tuple(v for v in g.vertices if all(int(c) % 3 == 0 for c in v.split(",")))
    rows = cheeger_chain(AnalysisContext(g, d_set))
    by_name = {r.name: r for r in rows}
    ball_row = by_name["cheeger/eigenvalue_vs_ball_volume"]
    comparison = by_name["cheeger/route_comparison"]
    assert ball_row.bound_value > comparison.bound_value
    assert "wins" in comparison.note and "does not win" not in comparison.note
    assert rows_pass(rows)


@pytest.mark.parametrize("seed", range(10))
def test_chain_on_random_combinatorial_instances(seed):
    rng = np.random.default_rng(777 + seed)
    n = int(rng.integers(4, 18))
    g = random_connected(n, seed=seed + 31, weight_range=(1.0, 1.0))
    k = int(rng.integers(1, n))
    d_set = tuple(g.vertices[i] for i in sorted(rng.choice(n, size=k, replace=False)))
    rows = cheeger_chain(AnalysisContext(g, d_set))
    assert rows_pass(rows)
    by_name = {r.name: r for r in rows}
    beta = beta_exhaustive(g, g.complement(d_set)).beta
    assert by_name["cheeger/region_constant_vs_volume"].true_value == beta


def test_growth_diagnostic_on_line_decreases():
    g = lattice_box(1, 20)
    md = compute_metric(g)
    table = growth_diagnostic(md, "10")
    ratios = [r for _, r in table]
    assert len(table) == 10
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_growth_diagnostic_on_binary_tree_plateaus_near_log2():
    depth = 7
    edges = []
    ids = ["r"]
    level = ["r"]
    for d in range(depth):
        nxt = []
        for v in level:
            for side in "lr":
                child = v + side
                ids.append(child)
                edges.append((v, child, 1.0))
                nxt.append(child)
        level = nxt
    g = WeightedGraph.from_edge_list(ids, 1.0, edges)
    md = compute_metric(g)
    table = growth_diagnostic(md, "r")
    mid = [r for n, r in table if 3 <= n <= depth]
    assert all(abs(r - np.log(2.0)) < 0.35 for r in mid)


def test_growth_diagnostic_single_vertex_empty():
    g = WeightedGraph.from_edge_list(("a",), 1.0, [])
    md = compute_metric(g)
    assert growth_diagnostic(md, "a") == ()
