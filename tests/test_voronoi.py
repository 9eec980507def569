"""Voronoi decomposition construction and verification."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specbounds import (
    EmptyCenters,
    build_voronoi,
    compute_metric,
    covering_radius,
    generate,
    lattice_box,
    path_graph,
    rows_pass,
    verify_voronoi,
)
from helpers import random_instance, random_proper_subset


def test_every_vertex_as_center_gives_singletons():
    g = path_graph(5)
    md = compute_metric(g)
    vd = build_voronoi(g, g.vertices)
    assert all(vd.cells[p] == (p,) for p in g.vertices)
    rows = verify_voronoi(vd, md)
    assert rows_pass(rows)
    assert covering_radius(md, g.vertices) == 0.0


def test_tie_on_the_path_goes_to_the_lower_indexed_center():
    g = path_graph(3)
    vd = build_voronoi(g, ("v0", "v2"))
    assert vd.cell_of("v1") == "v0"


def test_no_centers_rejected():
    with pytest.raises(EmptyCenters):
        build_voronoi(path_graph(3), ())


def test_lattice_corner_cells_match_exhaustive_distance_comparison():
    g = lattice_box(2, 4)
    md = compute_metric(g)
    corners = ("0,0", "0,4", "4,0", "4,4")
    vd = build_voronoi(g, corners)
    assert rows_pass(verify_voronoi(vd, md))
    gi = g.index
    corner_rows = {p: md.dist[gi[p]] for p in corners}
    for v in g.vertices:
        j = gi[v]
        dists = [(corner_rows[p][j], gi[p], p) for p in corners]
        best = min(dists)
        assert vd.cell_of(v) == best[2]


def test_corrupted_assignment_is_detected():
    g = generate("random:20", seed=9)
    md = compute_metric(g)
    d_set = (g.vertices[0], g.vertices[7])
    vd = build_voronoi(g, d_set)
    label = np.array(vd.label)
    a = g.index[d_set[0]]
    swapped = np.array(label)
    swapped[a] = 1 - swapped[a]
    broken = dataclasses.replace(vd, label=swapped)
    rows = verify_voronoi(broken, md)
    assert not rows_pass(rows)


def test_construction_is_deterministic():
    g = generate("random:40", seed=21)
    d_set = random_proper_subset(g, 5)
    a = build_voronoi(g, d_set)
    b = build_voronoi(g, d_set)
    assert np.array_equal(a.label, b.label)
    assert np.array_equal(a.pred, b.pred)
    assert np.array_equal(a.dist_to_center, b.dist_to_center)


def test_witness_prefix_property():
    g = generate("random:35", seed=33)
    d_set = random_proper_subset(g, 77)
    vd = build_voronoi(g, d_set)
    for v in g.vertices:
        path = vd.witness(v)
        if len(path) < 2:
            continue
        assert vd.witness(path[-2]) == path[:-1]


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6))
def test_axioms_on_random_graphs(seed):
    g = random_instance(seed, n_lo=2, n_hi=40)
    md = compute_metric(g)
    d_set = random_proper_subset(g, seed + 1)
    vd = build_voronoi(g, d_set)
    rows = verify_voronoi(vd, md)
    assert rows_pass(rows)
    # Nearest-center membership holds exactly, not just within tolerance.
    nearest_row = next(r for r in rows if r.name == "voronoi/nearest_center")
    assert nearest_row.true_value == 0.0


@pytest.mark.parametrize(
    "spec,centers",
    [
        ("lattice:1:6", ("0", "3", "6")),
        ("lattice:2:4", ("0,0", "2,2", "4,4")),
        ("path:9", ("v0", "v4")),
        ("cycle:8", ("v0", "v3")),
        ("complete:6", ("v2",)),
        ("normalized:cycle:8", ("v1", "v5")),
        ("apex_ray:6", ("1,1",)),
        ("comb:5", ("1,0", "5,0")),
    ],
)
def test_axioms_on_generator_families(spec, centers):
    g = generate(spec)
    md = compute_metric(g)
    vd = build_voronoi(g, centers)
    assert rows_pass(verify_voronoi(vd, md))


def test_cells_contain_geodesics_not_just_connectivity():
    # Every witness path must realize the metric distance edge by edge.
    g = generate("random:30", seed=4)
    md = compute_metric(g)
    d_set = random_proper_subset(g, 15)
    vd = build_voronoi(g, d_set)
    gi = g.index
    for v in g.vertices:
        path = vd.witness(v)
        total = 0.0
        for a, b in zip(path, path[1:]):
            w = g.b(a, b)
            assert w > 0.0
            total += 1.0 / w
        assert total == pytest.approx(md.dist[gi[path[0]], gi[v]], rel=1e-12, abs=1e-15)
