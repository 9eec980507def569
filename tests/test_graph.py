"""Graph model, validation, generators, and JSON round trips."""

import tracemalloc

import numpy as np
import pytest

from specbounds import (
    DisconnectedGraph,
    GraphFormatError,
    InvalidSpec,
    NegativeEdgeWeight,
    NonFinitePotential,
    NonPositiveMeasure,
    NonSymmetricWeights,
    NonzeroDiagonal,
    WeightedGraph,
    apex_ray,
    complete_graph,
    cycle_graph,
    dumps_graph,
    generate,
    geometric_comb,
    is_combinatorial,
    lattice_box,
    loads_graph,
    normalized,
    path_graph,
    random_connected,
)
from specbounds.graph import DEGREE_BLOCK
from specbounds.voronoi import build_voronoi

from helpers import dense_weights, weight


def test_validate_k2_constants():
    c = complete_graph(2).constants
    assert c.delta == 1.0
    assert c.b_max == 1.0
    assert c.m_max == 1.0
    assert c.operator_norm_bound == 2.0


def test_validate_path_delta_from_middle_vertex():
    c = path_graph(3).constants
    assert c.delta == 2.0
    assert c.b_max == 1.0
    assert c.max_degree == 2


def test_conflicting_orientations_rejected():
    with pytest.raises(NonSymmetricWeights):
        WeightedGraph.from_edge_list(
            ("a", "b"), 1.0, [("a", "b", 1.0), ("b", "a", 2.0)]
        )


def test_duplicate_identical_edge_rejected():
    with pytest.raises(GraphFormatError):
        WeightedGraph.from_edge_list(
            ("a", "b"), 1.0, [("a", "b", 1.0), ("b", "a", 1.0)]
        )


def test_self_loop_rejected():
    with pytest.raises(NonzeroDiagonal):
        WeightedGraph.from_edge_list(("a", "b"), 1.0, [("a", "a", 1.0), ("a", "b", 1.0)])


def test_nonpositive_measure_rejected():
    with pytest.raises(NonPositiveMeasure):
        WeightedGraph.from_edge_list(("a", "b"), {"a": 1.0, "b": 0.0}, [("a", "b", 1.0)])


def test_negative_weight_rejected():
    with pytest.raises(NegativeEdgeWeight):
        WeightedGraph.from_edge_list(("a", "b"), 1.0, [("a", "b", -1.0)])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_potential_rejected(value):
    with pytest.raises(NonFinitePotential, match="vertex 'b'"):
        WeightedGraph.from_edge_list(
            ("a", "b"), 1.0, [("a", "b", 1.0)], potential={"b": value}
        )
    # Built directly, bypassing from_edge_list: the constructor refuses it.
    with pytest.raises(NonFinitePotential, match="vertex 'b'"):
        WeightedGraph(("a", "b"), np.ones(2), ((0, 1, 1.0),), np.array([0.0, value]))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_weight_rejected_with_its_own_message(value):
    message = f"weight on edge 'a'-'b' is not finite: {value!r}"
    with pytest.raises(NegativeEdgeWeight, match=message):
        WeightedGraph.from_edge_list(("a", "b"), 1.0, [("a", "b", value)])
    with pytest.raises(NegativeEdgeWeight, match=message):
        WeightedGraph(("a", "b"), np.ones(2), ((0, 1, value),))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_measure_rejected_with_its_own_message(value):
    message = f"measure at vertex 'b' is not finite: {value!r}"
    with pytest.raises(NonPositiveMeasure, match=message):
        WeightedGraph.from_edge_list(("a", "b"), {"a": 1.0, "b": value}, [("a", "b", 1.0)])
    with pytest.raises(NonPositiveMeasure, match=message):
        WeightedGraph(("a", "b"), np.array([1.0, value]), ((0, 1, 1.0),))


@pytest.mark.parametrize(
    "vertices, m, edges, potential, error, message",
    [
        ((), [], (), None, GraphFormatError, "a graph needs at least one vertex"),
        (("a", "a"), [1, 1], (), None, GraphFormatError, "duplicate vertex identifiers"),
        (("a", "b"), [1], (), None, GraphFormatError, "measure array shape mismatch"),
        (("a", "b"), [1, 0], (), None, NonPositiveMeasure, "every vertex measure must be positive"),
        (("a", "b"), [1, 1], ((0, 2, 1.0),), None, GraphFormatError, "edge index out of range"),
        (("a", "b"), [1, 1], ((-1, 1, 1.0),), None, GraphFormatError, "edge index out of range"),
        (("a", "b"), [1, 1], ((1, 1, 1.0),), None, NonzeroDiagonal, "self-loop at 'b'"),
        (("a", "b"), [1, 1], ((1, 0, 1.0),), None, NonSymmetricWeights, "edges must be stored with i < j"),
        (("a", "b", "c"), [1, 1, 1], ((0, 1, 1.0), (1, 2, 1.0), (0, 1, 1.0)), None,
         NonSymmetricWeights, "duplicate stored pair 'a'-'b'"),
        (("a", "b"), [1, 1], ((0, 1, 1.0), (0, 1, 1.0)), None,
         NonSymmetricWeights, "duplicate stored pair 'a'-'b'"),
        (("a", "b"), [1, 1], ((0, 1, -1.0),), None, NegativeEdgeWeight, "negative weight on 'a'-'b'"),
        (("a", "b"), [1, 1], ((0, 1, 0.0),), None, NegativeEdgeWeight, "explicit zero weight on 'a'-'b'"),
        (("a", "b"), [1, 1], ((0, 1, 1.0),), [0.0], GraphFormatError, "potential array shape mismatch"),
    ],
)
def test_constructor_refuses_each_broken_hypothesis(vertices, m, edges, potential, error, message):
    pot = None if potential is None else np.array(potential)
    with pytest.raises(error, match=f"^{message}$"):
        WeightedGraph(vertices, np.array(m, dtype=float), edges, pot)


def test_constructor_accepts_edges_out_of_sorted_order():
    g = WeightedGraph(("a", "b", "c"), np.ones(3), ((1, 2, 2.0), (0, 1, 1.0)))
    assert g.constants.delta == 3.0


def test_disconnected_graph_rejected():
    g = WeightedGraph.from_edge_list(
        ("a", "b", "c", "d"), 1.0, [("a", "b", 1.0), ("c", "d", 1.0)]
    )
    with pytest.raises(DisconnectedGraph, match="^vertex 'c' is not reachable from 'a'$"):
        g.constants


@pytest.mark.parametrize("m_range", [None, (0.5, 2.0)], ids=["unit", "measure"])
@pytest.mark.parametrize(
    "n", [1, 2, DEGREE_BLOCK - 1, DEGREE_BLOCK, DEGREE_BLOCK + 1, 2 * DEGREE_BLOCK + 100]
)
def test_adjacency_and_weighted_degree_match_the_dense_weights(n, m_range):
    """The CSR adjacency is the dense weight matrix, and weighted_degree
    has the bits of its numpy row sums on one block, a block and one row,
    and more than two blocks."""
    g = random_connected(
        n, seed=n, weight_range=(1e-3, 1e3), m_range=m_range, extra_edge_factor=8.0
    )
    W = dense_weights(g)
    A = g.adjacency
    assert A.has_canonical_format
    assert not any(a.flags.writeable for a in (A.data, A.indices, A.indptr))
    assert np.array_equal(A.toarray(), W)
    assert np.array_equal(g.weighted_degree, W.sum(axis=1))
    assert g.constants.max_degree == int(np.count_nonzero(W, axis=1).max())


def test_validate_and_voronoi_form_no_dense_matrix():
    """The constants and build_voronoi on n = 3721 stay far below one n x n
    float64 array (110 MB): the graph layer keeps only its edges."""
    g = generate("lattice:2:60")
    tracemalloc.start()
    try:
        g.constants
        build_voronoi(g, g.vertices[::9])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_single_vertex_is_valid():
    g = WeightedGraph.from_edge_list(("a",), 2.0, [])
    c = g.constants
    assert c.delta == 0.0
    assert c.b_max == 0.0
    assert c.m_max == 2.0


FAMILIES = [
    "k2",
    "complete:5",
    "path:7",
    "cycle:6",
    "lattice:1:2",
    "lattice:2:4",
    "normalized:k2",
    "normalized:cycle:8",
    "apex_ray:6",
    "comb:5",
    "random:20",
]


@pytest.mark.parametrize("spec", FAMILIES)
def test_generated_families_validate(spec):
    g = generate(spec)
    c = g.constants
    # Exact inequality: every family here has either unit measure or the
    # normalized measure, both of which make the product exact.
    assert c.b_max <= c.delta * c.m_max


@pytest.mark.parametrize("spec", ["normalized:k2", "normalized:cycle:8", "normalized:path:5"])
def test_normalized_families_have_unit_delta(spec):
    assert generate(spec).constants.delta == 1.0


def test_normalized_k2_measures():
    g = normalized(complete_graph(2))
    assert list(g.m) == [1.0, 1.0]


def test_lattice_one_dimensional_is_a_path():
    g = lattice_box(1, 2)
    assert g.vertices == ("0", "1", "2")
    assert g.edges == ((0, 1, 1.0), (1, 2, 1.0))
    assert is_combinatorial(g)


def test_comb_truncation_weights():
    g = geometric_comb(3)
    assert g.n == 6
    assert weight(g, "1,1", "2,1") == 2.0
    assert weight(g, "2,1", "3,1") == 8.0
    assert weight(g, "1,1", "1,0") == 1.0
    assert weight(g, "2,1", "2,0") == 4.0
    assert weight(g, "3,1", "3,0") == 16.0


def test_apex_ray_weights():
    g = apex_ray(4)
    assert g.n == 5
    assert weight(g, "1,0", "2,0") == 2.0
    for n in range(1, 5):
        assert weight(g, f"{n},0", "1,1") == 1.0 / (1.0 + 1.0 / n)


def test_random_generation_is_reproducible():
    a = random_connected(25, seed=7, m_range=(0.5, 2.0))
    b = random_connected(25, seed=7, m_range=(0.5, 2.0))
    assert a.vertices == b.vertices
    assert a.edges == b.edges
    assert np.array_equal(a.m, b.m)
    c = random_connected(25, seed=8, m_range=(0.5, 2.0))
    assert a.edges != c.edges


def test_generate_same_spec_same_seed_bit_identical():
    a = generate("random:30", seed=11)
    b = generate("random:30", seed=11)
    assert a.edges == b.edges and np.array_equal(a.m, b.m)


def test_random_spec_with_a_weight_range_is_random_connected():
    g = generate("random:50:0.5:2")
    h = random_connected(50, weight_range=(0.5, 2.0))
    assert g.vertices == h.vertices and g.edges == h.edges
    assert np.array_equal(g.m, h.m)
    with pytest.raises(InvalidSpec) as info:
        generate("random:50:2:1")
    assert str(info.value) == (
        "random:50:2:1: expected random:n:wlo:whi with finite numbers 0 < wlo <= whi"
    )


@pytest.mark.parametrize(
    "spec",
    ["lattice:2:0", "lattice:0:4", "comb:1", "apex_ray:1", "path:0", "nope:3", "random:2:5:1"],
)
def test_invalid_specs_rejected(spec):
    with pytest.raises(InvalidSpec):
        generate(spec)


@pytest.mark.parametrize(
    "m, potential, message",
    [
        ({"a": 1.0}, None, "measure missing for vertex 'b'"),
        ([1.0], None, "measure list length mismatch"),
        (1.0, [0.0, 0.0, 0.0], "potential list length mismatch"),
    ],
    ids=["measure-mapping-lacks-a-vertex", "measure-list-length", "potential-list-length"],
)
def test_from_edge_list_refuses_a_measure_or_potential_of_the_wrong_form(m, potential, message):
    with pytest.raises(GraphFormatError) as info:
        WeightedGraph.from_edge_list(["a", "b"], m, [("a", "b", 1.0)], potential=potential)
    assert str(info.value) == message


def test_json_round_trip_plain():
    g = generate("random:12", seed=3)
    h = loads_graph(dumps_graph(g))
    assert h.vertices == g.vertices
    assert h.edges == g.edges
    assert np.array_equal(h.m, g.m)
    assert h.potential is None


def test_json_round_trip_with_potential():
    g = random_connected(8, seed=5, potential_range=(0.0, 2.0))
    h = loads_graph(dumps_graph(g))
    assert np.array_equal(h.potential, g.potential)


def test_json_rejects_duplicate_edges():
    text = """
    {"vertices": [{"id": "a", "m": 1.0}, {"id": "b", "m": 1.0}],
     "edges": [{"u": "a", "w": "b", "b": 1.0}, {"u": "b", "w": "a", "b": 1.0}]}
    """
    with pytest.raises(GraphFormatError):
        loads_graph(text)


def test_json_rejects_self_loops_and_nonpositive_weights():
    loop = '{"vertices": [{"id": "a", "m": 1.0}], "edges": [{"u": "a", "w": "a", "b": 1.0}]}'
    with pytest.raises(NonzeroDiagonal):
        loads_graph(loop)
    edge = """
    {"vertices": [{"id": "a", "m": 1.0}, {"id": "b", "m": 1.0}],
     "edges": [{"u": "a", "w": "b", "b": %s}]}
    """
    # The constructor names the defect, as it does for the same edge list.
    for weight, message in (("0.0", "explicit zero weight on 'a'-'b'"),
                            ("-1", "negative weight on 'a'-'b'")):
        with pytest.raises(NegativeEdgeWeight) as info:
            loads_graph(edge % weight)
        assert str(info.value) == message


def test_json_rejects_garbage():
    with pytest.raises(GraphFormatError):
        loads_graph("{not json")


def test_cycle_and_complete_shapes():
    assert len(cycle_graph(6).edges) == 6
    assert len(complete_graph(5).edges) == 10
