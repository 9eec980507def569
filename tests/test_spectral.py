"""Operator assembly, eigenvalue bounds, coupling limits, projections."""

import ctypes
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specbounds import (
    AnalysisContext,
    ConvergenceFailure,
    EmptyCenters,
    EmptyOmega,
    OperatorMatrix,
    PreconditionInterval,
    WeightedGraph,
    build_voronoi,
    cheeger_chain,
    complete_graph,
    compute_metric,
    coupling_rate,
    covering_radius,
    dirichlet_bounds_finite,
    dirichlet_energy,
    dirichlet_lower_bound,
    dumps_graph,
    eigdecompose,
    eigenvalues_of,
    inradius,
    is_combinatorial,
    lattice_box,
    make_report,
    path_graph,
    region_constant,
    resolvent_gap,
    rows_pass,
    sparse_ground_state,
    uncertainty_constant,
)
from specbounds import cli, generate, random_connected, spectral
from cli_matrix import FILES as CLI_MATRIX_FILES
from helpers import (
    dense_weights,
    lowest_eigenvalue,
    operator_norm,
    random_instance,
    random_proper_subset,
    record_coupled,
    reference_assemble,
    spectral_projection,
    uncertainty_grid,
    with_potential,
)

EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def test_assemble_k2_full():
    op = AnalysisContext(complete_graph(2)).operator
    assert np.array_equal(op.sym, np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert list(eigenvalues_of(op)) == [0.0, 2.0]


def test_assemble_k2_restriction_keeps_coupling_on_diagonal():
    op = AnalysisContext(complete_graph(2), ("v1",)).region_operator
    assert np.array_equal(op.sym, np.array([[1.0]]))
    assert lowest_eigenvalue(op) == 1.0


def test_assemble_coupling_adds_on_penalty_set_only():
    ctx = AnalysisContext(complete_graph(2), ("v1",))
    diff = ctx.coupled(18.0).sym - ctx.operator.sym
    assert diff[1, 1] == 18.0
    assert np.count_nonzero(diff) == 1


def test_coupling_term_is_projection_penalty_not_measure_weighted():
    # With nonuniform measure the penalty must still add exactly t.
    g = random_instance(5, n_lo=4, n_hi=8, m_weighted=True)
    assert not np.all(g.m == 1.0)
    ctx = AnalysisContext(g, (g.vertices[0],))
    diff = ctx.coupled(3.0).sym - ctx.operator.sym
    # Dividing by the measure would scale the penalty by 1/m(x); it must
    # instead add exactly t up to the rounding of the diagonal sum.
    assert diff[0, 0] == pytest.approx(3.0, rel=1e-15)
    assert np.count_nonzero(diff) == 1


def test_assemble_argument_validation():
    g = complete_graph(3)
    with pytest.raises(EmptyOmega):
        AnalysisContext(g, g.vertices).region_operator
    with pytest.raises(EmptyCenters):
        AnalysisContext(g).coupled(2.0)
    with pytest.raises(ValueError):
        AnalysisContext(g, ("v0",)).coupled(-1.0)


def _assembly_contexts():
    g = random_connected(40, seed=5, m_range=(0.5, 2.0), potential_range=(0.0, 3.0))
    yield AnalysisContext(g, cli.parse_centers(g, "every:3"))
    g = random_connected(30, seed=3, potential_range=(-3.0, -1.0))
    yield AnalysisContext(g, cli.parse_centers(g, "every:4"))
    g = random_connected(35, seed=8, m_range=(0.5, 2.0), potential_range=(-2.0, 2.0))
    yield AnalysisContext(g, cli.parse_centers(g, "every:5"))
    g = generate("lattice:2:5")
    yield AnalysisContext(g, cli.parse_centers(g, "sublattice:2"))
    g = generate("comb:12")
    yield AnalysisContext(g, cli.parse_centers(g, "every:3"))
    g = generate("random:20")
    yield AnalysisContext(g, ("v0", "v5", "v0"))


@pytest.mark.parametrize("ctx", _assembly_contexts(), ids=lambda ctx: f"n{ctx.graph.n}")
def test_cut_operators_match_a_direct_assembly(ctx):
    """H, its block on the region and H with t added on D's diagonal have
    the bits of the matrices assembled directly from the weight matrix."""
    g = ctx.graph

    def same(op, reference):
        return np.array_equal(op.sym, reference.sym) and np.array_equal(op.m, reference.m)

    assert same(ctx.operator, reference_assemble(g))
    assert same(ctx.region_operator, reference_assemble(g, omega=ctx.omega))
    for t in (ctx.threshold, 1.0e3 * ctx.threshold, 1.0e30):
        assert same(ctx.coupled(t), reference_assemble(g, t=t, d_set=ctx.centers))


@pytest.mark.parametrize("ctx", _assembly_contexts(), ids=lambda ctx: f"n{ctx.graph.n}")
def test_dense_operator_is_the_csc_operator_densified(ctx):
    """The dense H is the one CSC assembly of H, densified: same bits."""
    assert np.array_equal(ctx.operator.sym, ctx.sparse_operator.toarray())


def test_dense_and_sparse_cuts_raise_alike(monkeypatch):
    """A negative t, an empty D and an empty region raise the same
    exception on the dense operators as on the CSC ones, the resolvent
    row's included."""
    g = generate("random:20")

    def raised(fn):
        with pytest.raises(Exception) as info:
            fn()
        return type(info.value)

    def errors():
        ctx, no_d, no_omega = (
            AnalysisContext(g, ("v0", "v3")), AnalysisContext(g), AnalysisContext(g, g.vertices)
        )
        return (
            raised(lambda: resolvent_gap(ctx, -1.0)),
            raised(lambda: resolvent_gap(no_d, 1.0)),
            raised(lambda: no_omega.lambda_omega),
        )

    ctx, no_d = AnalysisContext(g, ("v0", "v3")), AnalysisContext(g)
    assert raised(lambda: ctx.coupled(-1.0)) is raised(lambda: ctx.coupled_sparse(-1.0)) is ValueError
    assert raised(lambda: no_d.coupled(-1.0)) is raised(lambda: no_d.coupled_sparse(-1.0)) is ValueError
    assert raised(lambda: no_d.coupled(1.0)) is raised(lambda: no_d.coupled_sparse(1.0)) is EmptyCenters
    assert raised(lambda: AnalysisContext(g, g.vertices).region_operator) is EmptyOmega
    dense = errors()
    monkeypatch.setattr(spectral, "SPARSE_MIN_N", 1)
    assert AnalysisContext(g).matrix_free
    assert errors() == dense == (ValueError, EmptyCenters, EmptyOmega)


@pytest.mark.parametrize("source, matrix_free", [("random:100", False), ("random:300", True)])
def test_every_invalid_coupling_raises_one_error(source, matrix_free):
    """A coupling strength that is not finite and >= 0 raises one
    ValueError naming it, through the coupling curve, the coupling grid
    and the resolvent row, on both sides of SPARSE_MIN_N."""
    g = generate(source)
    ctx = AnalysisContext(g, cli.parse_centers(g, "every:4"))
    assert ctx.matrix_free is matrix_free
    for t in (-1.0, -0.5, math.nan, math.inf):
        for call in (
            lambda: ctx.coupled_ground_energy(t),
            lambda: coupling_rate(ctx, [t, 2.0]),
            lambda: resolvent_gap(ctx, t),
        ):
            with pytest.raises(ValueError) as info:
                call()
            assert type(info.value) is ValueError
            assert str(info.value) == (
                f"coupling strength must be finite and nonnegative, got {t!r}"
            )


@pytest.mark.parametrize("source", ["random:100", "random:300"])
def test_coupling_curve_at_zero_is_lambda_0(source):
    """t = 0 on the coupling curve is lambda_0(H) bit for bit, on a fresh
    context and after other couplings were solved, on both sides of
    SPARSE_MIN_N."""
    g = generate(source)
    centers = cli.parse_centers(g, "every:4")
    fresh, used = AnalysisContext(g, centers), AnalysisContext(g, centers)
    assert fresh.coupled_ground_energy(0.0) == fresh.lambda_0
    used.coupled_ground_energy(2.0)
    assert used.coupled_ground_energy(0.0) == used.lambda_0 == fresh.lambda_0


EMPTY_CENTERS = "penalty set must be nonempty"
EMPTY_OMEGA = "penalty set covers the graph; no region remains"


@pytest.mark.parametrize(
    "error, message, call",
    [
        (EmptyCenters, EMPTY_CENTERS, lambda g: compute_metric(g).vol_bracket_centers(1.0, ())),
        (EmptyOmega, EMPTY_OMEGA, lambda g: inradius(compute_metric(g), ())),
        (EmptyCenters, EMPTY_CENTERS, lambda g: inradius(compute_metric(g), g.vertices)),
        (EmptyCenters, EMPTY_CENTERS, lambda g: covering_radius(compute_metric(g), ())),
        (EmptyCenters, EMPTY_CENTERS, lambda g: build_voronoi(g, ())),
        (EmptyOmega, EMPTY_OMEGA, lambda g: region_constant(g, ())),
        (EmptyOmega, EMPTY_OMEGA, lambda g: AnalysisContext(g, g.vertices).lambda_omega),
        (EmptyCenters, EMPTY_CENTERS, lambda g: AnalysisContext(g).coupled_ground_energy(1.0)),
        (EmptyCenters, EMPTY_CENTERS, lambda g: AnalysisContext(g).require_region()),
        (EmptyOmega, EMPTY_OMEGA, lambda g: AnalysisContext(g, g.vertices).require_region()),
    ],
    ids=[
        "vol_bracket_centers", "inradius-empty", "inradius-whole", "covering_radius",
        "build_voronoi", "region_constant", "region_indices", "penalty_indices",
        "require_region-no-centers", "require_region-no-region",
    ],
)
def test_each_degenerate_set_raises_its_one_error(error, message, call):
    """An empty penalty set raises EmptyCenters and an empty region
    EmptyOmega, each with its one message, whichever entry point reads it."""
    with pytest.raises(error) as info:
        call(path_graph(4))
    assert type(info.value) is error and str(info.value) == message


def test_weighted_self_adjointness():
    g = random_instance(8, n_lo=3, n_hi=25, m_weighted=True)
    A = reference_assemble(g).entries
    lhs = g.m[:, None] * A
    assert np.allclose(lhs, lhs.T, rtol=1e-12, atol=1e-15)


def test_constants_are_harmonic():
    g = random_instance(12, n_lo=2, n_hi=40, m_weighted=True)
    A = reference_assemble(g).entries
    residual = A @ np.ones(g.n)
    scale = np.abs(A).max()
    assert np.abs(residual).max() <= 1e-13 * max(scale, 1.0)


def test_norm_dominated_by_weighted_degree_bound():
    for seed in range(6):
        g = random_instance(seed, n_lo=2, n_hi=40, m_weighted=True)
        c = g.constants
        assert operator_norm(AnalysisContext(g).operator) <= c.operator_norm_bound + 1e-9


def test_norm_bound_with_potential_and_coupling():
    g = random_instance(19, n_lo=4, n_hi=20, m_weighted=True, potential_range=(0.0, 2.0))
    c = g.constants
    t = 5.0
    op = AnalysisContext(g, (g.vertices[0], g.vertices[1])).coupled(t)
    cap = c.operator_norm_bound + float(np.max(np.abs(g.V / g.m))) + t
    assert operator_norm(op) <= cap + 1e-9


# ---------------------------------------------------------------------------
# Eigendecomposition
# ---------------------------------------------------------------------------


def test_zero_matrix_spectrum():
    op = OperatorMatrix(sym=np.zeros((3, 3)), m=np.ones(3))
    assert list(eigenvalues_of(op)) == [0.0, 0.0, 0.0]


def test_path_laplacian_closed_form():
    n = 9
    op = AnalysisContext(path_graph(n)).operator
    got = eigenvalues_of(op)
    want = np.sort(2.0 * (1.0 - np.cos(np.pi * np.arange(n) / n)))
    assert np.allclose(got, want, atol=1e-9)


def test_eigdecompose_invariants():
    g = random_instance(31, n_lo=3, n_hi=30, m_weighted=True)
    op = reference_assemble(g)
    evals, vectors = eigdecompose(op)
    norm = operator_norm(op)
    for i in range(g.n):
        residual = op.entries @ vectors[:, i] - evals[i] * vectors[:, i]
        assert np.sqrt(np.sum(residual**2 * g.m)) <= 1e-9 * (norm + 1.0)
    gram = vectors.T @ (vectors * g.m[:, None])
    assert np.abs(gram - np.eye(g.n)).max() <= 1e-10


def test_min_eigenvalue_is_zero_on_connected_graphs():
    for spec_seed in range(5):
        g = random_instance(50 + spec_seed, n_lo=2, n_hi=30, m_weighted=True)
        assert abs(lowest_eigenvalue(AnalysisContext(g).operator)) <= 1e-12


# ---------------------------------------------------------------------------
# Dirichlet bounds
# ---------------------------------------------------------------------------


def test_finite_volume_bounds_tight_on_k2():
    g = complete_graph(2)
    lower, upper = dirichlet_bounds_finite(AnalysisContext(g, ("v1",)))
    assert lower.true_value == 1.0
    assert lower.bound_value == 1.0 / (1.0 * 1.0)
    assert upper.bound_value == 1.0
    assert lower.passed and upper.passed


def test_finite_volume_bounds_on_path():
    g = path_graph(3)
    lower, upper = dirichlet_bounds_finite(AnalysisContext(g, ("v2",)))
    lam = (3.0 - np.sqrt(5.0)) / 2.0
    assert lower.true_value == pytest.approx(lam, rel=1e-12)
    assert lower.bound_value == pytest.approx(0.25)
    assert lower.passed and upper.passed


def test_ball_volume_bound_hand_case():
    g = complete_graph(2)
    rows = dirichlet_lower_bound(AnalysisContext(g, ("v1",)))
    assert rows[0].bound_value == 0.5
    assert rows[0].true_value == 1.0


def test_ball_volume_bound_on_lattice_sublattice():
    g = lattice_box(2, 10)
    d_set = tuple(
        v for v in g.vertices if all(int(c) % 3 == 0 for c in v.split(","))
    )
    rows = dirichlet_lower_bound(AnalysisContext(g, d_set))
    assert rows_pass(rows)


@pytest.mark.parametrize("seed", range(10))
def test_bound_rows_pass_on_random_instances(seed):
    g = random_instance(200 + seed, n_lo=2, n_hi=50, m_weighted=seed % 2 == 0)
    ctx = AnalysisContext(g, random_proper_subset(g, seed))
    rows = list(dirichlet_bounds_finite(ctx))
    rows += dirichlet_lower_bound(ctx)
    assert rows_pass(rows)
    by_name = {r.name: r for r in rows}
    # The in-region refinement dominates the plain ball bound.
    assert (
        by_name["dirichlet/lower_ball_volume_in_region"].bound_value
        >= by_name["dirichlet/lower_ball_volume"].bound_value
    )
    assert (
        by_name["dirichlet/lower_center_balls"].bound_value
        >= by_name["dirichlet/lower_ball_volume"].bound_value
    )


# Potentials of both signs and none; measures in [0.2, 5] on the random graphs.
POTENTIAL_RANGES = [(5.0, 20.0), (-20.0, -5.0), (-10.0, 10.0), None]


def _potential_instance(seed: int) -> AnalysisContext:
    """A small graph and a random proper penalty set.  Seeds 4, 9, 14, ...
    give a unit lattice (combinatorial, so the Cheeger chain runs) with a
    uniform random potential in one of the first three ranges; the others
    a random graph with the range POTENTIAL_RANGES[seed % 4]."""
    rng = np.random.default_rng(seed)
    if seed % 5 == 4:
        box = lattice_box(int(rng.integers(1, 3)), int(rng.integers(2, 5)))
        lo, hi = POTENTIAL_RANGES[seed // 5 % 3]
        g = with_potential(box, rng.uniform(lo, hi, box.n))
    else:
        g = random_connected(
            int(rng.integers(2, 25)), seed=seed, m_range=(0.2, 5.0),
            potential_range=POTENTIAL_RANGES[seed % 4],
        )
    return AnalysisContext(g, random_proper_subset(g, seed))


@pytest.mark.parametrize("seed", range(50))
def test_potential_aware_rows_never_fail(seed):
    """The operator-norm row, the upper complement-fraction row and the
    Cheeger chain's rows pass or are not asserted on every graph with a
    potential, and their bounds hold for the dense eigvalsh values of H and
    of its region block as well."""
    ctx = _potential_instance(seed)
    g = ctx.graph
    rows = [*cli.STAGES["operator_norm"](SimpleNamespace(ctx=ctx)), dirichlet_bounds_finite(ctx)[1]]
    if is_combinatorial(g):
        rows += cheeger_chain(ctx)
    lam = lowest_eigenvalue(reference_assemble(g, omega=ctx.omega))
    reference = {
        "operator/norm_vs_weighted_degree": operator_norm(reference_assemble(g)),
        "dirichlet/upper_complement_fraction": lam,
        "cheeger/eigenvalue_vs_cheeger": lam,
        "cheeger/eigenvalue_vs_ball_volume": lam,
    }
    for row in rows:
        assert row.passed, row
        if row.name in reference and not row.vacuous:
            assert make_report(row.name, reference[row.name], row.bound_value, row.relation).passed


# ---------------------------------------------------------------------------
# Large coupling
# ---------------------------------------------------------------------------


def test_resolvent_gap_k2_hand_numbers():
    g = complete_graph(2)
    row = resolvent_gap(AnalysisContext(g, ("v1",)), 18.0)
    # Closed form: the difference matrix is [[1/2, 1], [1, 2]] / (3 + 2t).
    assert row.true_value == pytest.approx(2.5 / 39.0, rel=1e-12)
    assert row.bound_value == pytest.approx(36.0 / 19.0, rel=1e-15)
    assert row.passed and not row.vacuous


def test_resolvent_gap_below_threshold_is_flagged():
    row = resolvent_gap(AnalysisContext(complete_graph(2), ("v1",)), 1.0)
    assert row.vacuous


def test_resolvent_gap_rejects_full_penalty_set():
    g = complete_graph(2)
    with pytest.raises(EmptyOmega):
        resolvent_gap(AnalysisContext(g, ("v0", "v1")), 18.0)


def test_resolvent_gap_decay_slope_on_k2():
    g = complete_graph(2)
    threshold = AnalysisContext(g).threshold
    ts = np.geomspace(threshold, 10.0 * threshold, 8)
    gaps = [resolvent_gap(AnalysisContext(g, ("v1",)), float(t)).true_value for t in ts]
    slope = np.polyfit(np.log(ts), np.log(gaps), 1)[0]
    assert -1.2 <= slope <= -0.8


def _two_inverse_gap(ctx, t):
    """The gap by its definition: both resolvents inverted densely, the
    restricted one extended by zero, and the 2-norm (an SVD) of the
    difference."""
    g = ctx.graph
    resolvent_t = np.linalg.inv(ctx.coupled(t).sym + np.eye(g.n))
    idx = g.indices(ctx.omega)
    embedded = np.zeros((g.n, g.n))
    embedded[np.ix_(idx, idx)] = np.linalg.inv(ctx.region_operator.sym + np.eye(idx.size))
    return float(np.linalg.norm(resolvent_t - embedded, 2))


def _resolvent_oracle_contexts():
    for seed in range(3):
        g = random_instance(600 + seed, n_lo=10, n_hi=60)
        yield AnalysisContext(g, random_proper_subset(g, seed))
    g = random_instance(610, n_lo=20, n_hi=60, m_weighted=True)
    yield AnalysisContext(g, random_proper_subset(g, 610))
    g = random_connected(40, seed=5, m_range=(0.5, 2.0), potential_range=(0.0, 3.0))
    yield AnalysisContext(g, cli.parse_centers(g, "every:3"))
    # lambda_0(H) < -1 here, so A = H + t 1_D + 1 is indefinite but invertible.
    g = random_connected(30, seed=3, potential_range=(-3.0, -1.0))
    yield AnalysisContext(g, cli.parse_centers(g, "every:4"))


@pytest.mark.parametrize("ctx", _resolvent_oracle_contexts(), ids=lambda c: f"n{c.graph.n}")
def test_resolvent_gap_matches_two_inverse_oracle(ctx):
    for t in (1.0, ctx.threshold, 100.0 * ctx.threshold):
        a = np.linalg.eigvalsh(ctx.coupled(t).sym + np.eye(ctx.graph.n))
        resolvent_norm = 1.0 / np.min(np.abs(a))  # ||R_t||
        gap = resolvent_gap(ctx, t).true_value
        assert abs(gap - _two_inverse_gap(ctx, t)) <= ctx.graph.n * EPS * resolvent_norm


def test_resolvent_gap_matches_high_precision_reference():
    """On comb:12 the two-inverse formula is off by 1e-5 relative at the top
    of the auto grid; the Schur form agrees with 80 digits to 1e-12."""
    mp = pytest.importorskip("mpmath")
    g = generate("comb:12")
    ctx = AnalysisContext(g, cli.parse_centers(g, "every:3"))
    t = max(cli.parse_t_grid("auto", ctx.threshold))
    idx = g.indices(ctx.omega)
    with mp.workdps(80):
        diff = mp.matrix((ctx.coupled(t).sym + np.eye(g.n)).tolist()) ** -1
        restricted = mp.matrix((ctx.region_operator.sym + np.eye(idx.size)).tolist()) ** -1
        for a, i in enumerate(idx):
            for b, j in enumerate(idx):
                diff[int(i), int(j)] -= restricted[a, b]
        reference = float(max(abs(x) for x in mp.eigsy(diff, eigvals_only=True)))
    gap = resolvent_gap(ctx, t).true_value
    assert abs(gap - reference) <= 1e-12 * reference


@pytest.mark.parametrize(
    "g",
    [generate("random:100"), random_connected(30, seed=3, potential_range=(0.0, 2.0))],
    ids=["potential_free", "nonnegative_potential"],
)
def test_rows_stay_asserted_without_negative_potential(g):
    ctx = AnalysisContext(g, cli.parse_centers(g, "every:4"))
    if g.potential is None:
        # Rounding puts lambda_0(H) below zero; only the sign of V decides.
        assert eigenvalues_of(ctx.operator)[0] < 0.0
    rows = [
        dirichlet_bounds_finite(ctx)[0],
        *dirichlet_lower_bound(ctx),
        resolvent_gap(ctx, 100.0 * ctx.threshold),
    ]
    assert len(rows) == 5
    assert all(r.passed and not r.vacuous and "min V" not in r.note for r in rows)


@pytest.mark.parametrize("ordered", [False, True], ids=["mmd", "shared_order"])
def test_unit_column_solve_is_the_identity_solve_bit_for_bit(ordered):
    """The resolvent's solve writes its ones straight into factored order;
    the columns come out as solving with the identity's columns on D."""
    g = generate("random:300")
    ctx = AnalysisContext(g, cli.parse_centers(g, "every:4"))
    d_idx = ctx.penalty_indices
    e_d = np.zeros((g.n, d_idx.size))
    e_d[d_idx, np.arange(d_idx.size)] = 1.0
    order = ctx.ordering if ordered else None  # read from the ground solve
    lu = spectral._factor(ctx.coupled_sparse(7.0), -1.0, order, diagonal=False)
    assert (lu.order is not None) == ordered
    assert np.array_equal(lu.solve_unit_columns(d_idx), lu.solve(e_d))


def test_coupling_rate_k2_closed_form():
    g = complete_graph(2)
    ts = [0.0, 18.0, 50.0, 200.0]
    ctx = AnalysisContext(g, ("v1",))
    rows = coupling_rate(ctx, ts)
    assert rows_pass(rows)
    for t in ts[1:]:
        lam = lowest_eigenvalue(ctx.coupled(t))
        want = (2.0 + t) / 2.0 - np.sqrt(t * t + 4.0) / 2.0
        assert lam == pytest.approx(want, rel=1e-12)


def test_coarse_coupling_bound_where_the_fourth_power_of_the_norm_overflows():
    """On the path a-b-c-d with b(b, c) = 1e100 and D = {a}, 2 ||H+1||^2 is
    finite but 4 ||H+1||^4 is not: each rate#k bound at t >= the threshold
    is the finite lambda_Omega - (4 ||H+1||^2)(||H+1||^2 / (t+1))."""
    ids = ("a", "b", "c", "d")
    g = WeightedGraph.from_edge_list(ids, 1.0, list(zip(ids, ids[1:], (1.0, 1e100, 1.0))))
    ctx = AnalysisContext(g, ("a",))
    h1, threshold = ctx.shifted_norm, ctx.threshold
    assert math.isfinite(threshold) and math.isinf(spectral._power(h1, 4))
    ts = [threshold * 10.0**k for k in range(4)]
    rows = [r for r in coupling_rate(ctx, ts) if r.name.startswith("coupling/rate#")]
    assert len(rows) == 4
    for row, t in zip(rows, ts):
        assert row.bound_value == ctx.lambda_omega - (4.0 * h1 * h1) * (h1 * h1 / (t + 1.0))
        assert math.isfinite(row.bound_value) and row.passed and not row.vacuous


def test_coarse_coupling_bound_keeps_its_expression_where_finite():
    g = random_connected(20, seed=2, m_range=(0.5, 2.0))
    ctx = AnalysisContext(g, ("v0", "v7"))
    ts = [0.0, ctx.threshold, 1e3 * ctx.threshold]
    rows = [r for r in coupling_rate(ctx, ts) if r.name.startswith("coupling/rate#")]
    h1 = ctx.shifted_norm
    assert [r.bound_value for r in rows] == [
        ctx.lambda_omega - 4.0 * h1**4 / (t + 1.0) for t in ts
    ]


@pytest.mark.parametrize("seed", range(8))
def test_coupling_rate_random_instances(seed):
    g = random_instance(300 + seed, n_lo=2, n_hi=40, m_weighted=seed % 2 == 1)
    d_set = random_proper_subset(g, seed + 2)
    threshold = AnalysisContext(g).threshold
    ts = [0.0] + list(np.geomspace(threshold, 50.0 * threshold, 5))
    assert rows_pass(coupling_rate(AnalysisContext(g, d_set), ts))


# ---------------------------------------------------------------------------
# Sparse coupled ground energies
# ---------------------------------------------------------------------------


def _sparse_chain(ctx, ts):
    """sparse_ground_state over ts in order, each solve warm-started from
    the last ground state, as coupled_ground_energy does."""
    g, v0, out = ctx.graph, np.sqrt(ctx.graph.m), []
    for t in ts:
        lam, x, residual = sparse_ground_state(
            ctx.coupled_sparse(t), float(eigenvalues_of(ctx.operator)[0]) - 1.0, v0,
            g.n * EPS * (ctx.norm + t),
        )
        out.append((lam, residual))
        v0 = np.abs(x)
    return out


def _oracle_contexts():
    g = generate("random:60")
    yield AnalysisContext(g, cli.parse_centers(g, "every:4"))
    g = generate("lattice:2:7")
    yield AnalysisContext(g, cli.parse_centers(g, "sublattice:2"))
    g = generate("apex_ray:200")
    yield AnalysisContext(g, cli.parse_centers(g, "every:4"))
    g = random_connected(40, seed=5, m_range=(0.5, 2.0), potential_range=(0.0, 3.0))
    yield AnalysisContext(g, cli.parse_centers(g, "every:3"))
    g = random_connected(30, seed=3, potential_range=(-3.0, -1.0))
    yield AnalysisContext(g, cli.parse_centers(g, "every:4"))


@pytest.mark.parametrize("ctx", _oracle_contexts(), ids=lambda ctx: f"n{ctx.graph.n}")
def test_sparse_ground_state_matches_dense(ctx):
    assert ctx.graph.n < spectral.SPARSE_MIN_N  # the oracle is the dense path
    ts = [0.5] + list(np.geomspace(ctx.threshold, 1.0e4 * ctx.threshold, 5))
    for t, (lam, residual) in zip(ts, _sparse_chain(ctx, ts)):
        dense = eigenvalues_of(ctx.coupled(t))
        scale = max(abs(dense[0]), abs(dense[-1]))  # ||H + t 1_D||
        assert abs(lam - dense[0]) <= ctx.graph.n * EPS * scale + residual


def test_sparse_ground_energies_monotone_on_comb(monkeypatch):
    # The auto grids reach t ~ 7e34 on comb:26, where dense eigvalsh is off
    # by about eps * t and steps down by ~1e19.  The sparse values are
    # accurate, so they must be nondecreasing in t.
    g = generate("comb:26")
    ctx = AnalysisContext(g, cli.parse_centers(g, "every:3"))
    grids = set()
    original = AnalysisContext.coupled_ground_energy

    def recording(self, t):
        grids.add(t)
        return original(self, t)

    monkeypatch.setattr(AnalysisContext, "coupled_ground_energy", recording)
    coupling_rate(ctx, cli.parse_t_grid("auto", ctx.threshold))
    uncertainty_constant(ctx, cli.parse_interval("auto", ctx.lambda_omega))
    ts = sorted(grids)
    assert len(ts) >= 24 and ts[-1] > 1e30
    lams = [lam for lam, _ in _sparse_chain(ctx, ts)]
    assert all(b >= a for a, b in zip(lams, lams[1:]))


def test_sparse_ground_state_residual_over_budget_raises():
    ctx = AnalysisContext(generate("random:30"), ("v0", "v7"))
    with pytest.raises(ConvergenceFailure, match="residual"):
        sparse_ground_state(
            ctx.coupled_sparse(5.0), float(eigenvalues_of(ctx.operator)[0]) - 1.0,
            np.sqrt(ctx.graph.m), 0.0,
        )


def test_sparse_path_is_deterministic_above_crossover():
    # Guards the fixed ARPACK start vector: a random one (v0=None) gives
    # different bits for the same matrix on repeated calls.
    g = generate(f"random:{spectral.SPARSE_MIN_N}")
    centers = cli.parse_centers(g, "every:4")
    first, second = AnalysisContext(g, centers), AnalysisContext(g, centers)
    ts = list(np.geomspace(first.threshold, 1.0e4 * first.threshold, 6))
    values = [first.coupled_ground_energy(t) for t in ts]
    assert values == [second.coupled_ground_energy(t) for t in ts]
    lower, upper = float(eigenvalues_of(first.operator)[0]), first.lambda_omega
    assert all(lower <= v <= upper for v in values)


# ---------------------------------------------------------------------------
# The dense context below the crossover
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "g, centers",
    [
        (random_connected(60, seed=21, m_range=(0.5, 2.0), potential_range=(0.0, 3.0)), "every:4"),
        (random_connected(30, seed=3, potential_range=(-3.0, -1.0)), "every:4"),
        (generate("lattice:2:5"), "sublattice:2"),
    ],
    ids=["measure", "negative_potential", "lattice"],
)
def test_dense_context_reads_both_ends_of_h_from_its_one_eigh(
    monkeypatch, tmp_path, capsys, g, centers
):
    """Below the crossover lambda_0, lambda_max and ||H+1|| are read off the
    eigh that gives ground_pair and the window, so bounds solves H once."""
    assert g.n < spectral.SPARSE_MIN_N
    ctx = AnalysisContext(g, cli.parse_centers(g, centers))
    evals, _ = ctx.decomposition
    assert ctx.lambda_0 == ctx.ground_pair[0]
    assert ctx.lambda_max == evals[-1]
    assert ctx.shifted_norm == np.max(np.abs(evals + 1.0))

    solves = []
    coupled = record_coupled(monkeypatch)
    for name in ("eigenvalues_of", "eigdecompose"):
        original = getattr(spectral, name)

        def recording(op, name=name, original=original):
            solves.append((name, op.sym.shape[0], any(op is c for c in coupled)))
            return original(op)

        monkeypatch.setattr(spectral, name, recording)
    path = tmp_path / "g.json"
    path.write_text(dumps_graph(g), encoding="utf-8")
    argv = ["bounds", "--graph", str(path), "--centers", centers, "--t-grid", "auto"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert [s for s in solves if s[0] == "eigdecompose"] == [("eigdecompose", g.n, False)]
    assert ("eigenvalues_of", g.n, False) not in solves


# ---------------------------------------------------------------------------
# The matrix-free context above the crossover
# ---------------------------------------------------------------------------


def _matrix_free_contexts():
    for spec, centers in [
        ("random:300", "every:4"),
        ("random:800", "every:4"),
        # Degenerate eigenvalues: the auto window holds 8 of 441.
        ("lattice:2:20", "sublattice:3"),
        ("apex_ray:400", "every:4"),
    ]:
        g = generate(spec)
        yield AnalysisContext(g, cli.parse_centers(g, centers))
    g = random_connected(300, seed=12, m_range=(0.5, 2.0), potential_range=(0.0, 3.0))
    yield AnalysisContext(g, cli.parse_centers(g, "every:4"))
    g = random_connected(300, seed=3, potential_range=(-3.0, -1.0))
    yield AnalysisContext(g, cli.parse_centers(g, "every:4"))


def _oracle_interval(ctx):
    """The auto window, or one from below lambda_0 when lambda_Omega < 0."""
    if ctx.lambda_omega > 0.0:
        return (0.0, 0.5 * ctx.lambda_omega)
    return (ctx.lambda_0 - 1.0, 0.5 * (ctx.lambda_0 + ctx.lambda_omega))


@pytest.mark.parametrize(
    "ctx", _matrix_free_contexts(), ids=lambda ctx: f"n{ctx.graph.n}-V{ctx.min_potential:.2g}"
)
def test_matrix_free_context_matches_dense_oracle(ctx):
    """Each sparse value is within its residual budget of the eigenvalue
    the dense solvers give, which are themselves within n eps ||H||."""
    assert ctx.matrix_free
    dense = eigenvalues_of(ctx.operator)
    tol = ctx.budget + ctx.graph.n * EPS * max(abs(dense[0]), abs(dense[-1]))
    assert abs(ctx.lambda_0 - dense[0]) <= tol
    assert abs(ctx.lambda_max - dense[-1]) <= tol
    assert abs(ctx.lambda_omega - eigenvalues_of(ctx.region_operator)[0]) <= tol

    interval = _oracle_interval(ctx)
    evals, vectors = ctx.window(interval)
    # The window came from the sparse solver (no dense fallback).
    assert "decomposition" not in vars(ctx)
    assert evals.size >= 1
    selected = spectral.window_indices(dense, interval)
    assert np.all(np.abs(evals - dense[selected]) <= tol)
    # The eigenvectors are m-orthonormal.
    gram = vectors.T @ (vectors * ctx.graph.m[:, None])
    assert np.allclose(gram, np.eye(evals.size), rtol=0.0, atol=1e-12)

    # The exact uncertainty constant depends on the window's subspace only;
    # it moves by about tol / gap, the gap to the rest of the spectrum.
    full_evals, full_vectors = ctx.decomposition
    chosen = spectral.window_indices(full_evals, interval)
    oracle = np.linalg.eigvalsh(
        spectral.compressed_penalty_matrix(full_vectors[:, chosen], ctx.graph, ctx.centers)
    )[0]
    outside = np.delete(dense, selected)
    gap = np.min(np.abs(outside[:, None] - dense[selected][None, :]))
    rows = {row.name: row for row in uncertainty_constant(ctx, interval)}
    assert abs(rows["uncertainty/energy_form"].true_value - oracle) <= 4 * len(chosen) * tol / gap


def _near_shift_contexts():
    for spec, centers in [("random:300", "every:4"), ("lattice:2:20", "sublattice:3")]:
        g = generate(spec)
        yield AnalysisContext(g, cli.parse_centers(g, centers))
    g = random_connected(300, seed=3, potential_range=(-3.0, -1.0))
    yield AnalysisContext(g, cli.parse_centers(g, "every:4"))


@pytest.mark.parametrize(
    "ctx", _near_shift_contexts(), ids=lambda ctx: f"n{ctx.graph.n}-V{ctx.min_potential:.2g}"
)
def test_coupled_ground_energies_in_report_order_match_dense(ctx, monkeypatch):
    """The report's own sequence of couplings (the auto coupling grid, then
    the uncertainty grid with t_opt last, after larger couplings), each
    solved from a shift just below it, agrees with dense eigvalsh.  The
    coupling grid's t = 0 is read from the curve's seed, lambda_0(H), with
    no solve.  The report solves 8 of the 24 positive couplings; the 16
    uncertainty couplings it skips are then solved on the same
    warm-started chain and checked too."""
    assert ctx.matrix_free
    interval, threshold = _oracle_interval(ctx), ctx.threshold
    ts, solves = [], []
    energy, solve = AnalysisContext.coupled_ground_energy, spectral.sparse_ground_state

    def recording_energy(self, t):
        if t not in ts:
            ts.append(t)
        return energy(self, t)

    def recording_solve(A, *args, **kwargs):
        lam, x, residual = solve(A, *args, **kwargs)
        solves.append((A, lam, residual))
        return lam, x, residual

    monkeypatch.setattr(AnalysisContext, "coupled_ground_energy", recording_energy)
    monkeypatch.setattr(spectral, "sparse_ground_state", recording_solve)
    coupling_rate(ctx, cli.parse_t_grid("auto", threshold))
    uncertainty_constant(ctx, interval)
    assert ts[0] == 0.0
    assert ctx.coupled_ground_energy(0.0) == ctx.lambda_0
    assert len(ts) - 1 == len(solves) == 8
    skipped = [t for t in uncertainty_grid(ctx, interval) if t not in ts]
    assert len(skipped) == 16
    for t in skipped:
        ctx.coupled_ground_energy(t)
    assert len(ts) - 1 == len(solves) == 24
    for t, (A, lam, residual) in zip(ts[1:], solves):
        assert ctx.coupled_ground_energy(t) == lam
        dense = np.linalg.eigvalsh(A.toarray())
        assert abs(lam - dense[0]) <= ctx.graph.n * EPS * (ctx.norm + t) + residual


def test_near_shift_above_the_ground_energy_raises(monkeypatch):
    """A shift between lambda_0 and lambda_1 but nearer lambda_1 has one
    negative pivot, so the inertia check refuses it, naming the shift,
    before any Lanczos run (which would find lambda_1); nothing re-solves
    at another shift.  A shift certified below lambda_0 gives lambda_0
    within budget."""
    g = generate("random:300")
    ctx = AnalysisContext(g, cli.parse_centers(g, "every:4"))
    t = ctx.threshold
    A = ctx.coupled_sparse(t)
    dense = np.linalg.eigvalsh(A.toarray())
    sigma = float(dense[1] - 0.1 * (dense[1] - dense[0]))
    assert spectral.count_below(A, sigma) == 1
    budget = g.n * EPS * (ctx.norm + t)
    order = ctx.ordering
    shifts = []
    eigsh = spectral.eigsh

    def recording(*args, **kwargs):
        shifts.append(kwargs["sigma"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spectral, "eigsh", recording)
    with pytest.raises(ConvergenceFailure) as failure:
        sparse_ground_state(A, sigma, np.sqrt(g.m), budget, order, spectral.NEAR_SHIFT_NCV)
    assert str(failure.value) == f"the shift {sigma!r} is not below the spectrum"
    assert shifts == []
    near, _, residual = sparse_ground_state(A, dense[0] - 1e-3, np.sqrt(g.m), budget, order)
    assert shifts == [dense[0] - 1e-3]
    assert abs(near - dense[0]) <= g.n * EPS * max(abs(dense[0]), abs(dense[-1])) + residual


def test_lambda_omega_checks_the_inertia_at_its_shift(monkeypatch):
    """Above the crossover lambda_Omega's solve is certified by the inertia
    at its shift lambda_0 - 1, like every sparse ground solve: with a
    lambda_0 that puts the shift above the region's ground energy it
    raises before any Lanczos run."""
    g = generate("random:300")
    centers = cli.parse_centers(g, "every:4")
    checked = []
    negative_pivots = spectral._Factorization.negative_pivots

    def recording(self):
        count = negative_pivots(self)
        checked.append((self.shift, count))
        return count

    monkeypatch.setattr(spectral._Factorization, "negative_pivots", recording)
    ctx = AnalysisContext(g, centers)
    ctx.lambda_0
    assert checked == []  # H's own ground solve takes min V/m - 1
    lam = ctx.lambda_omega
    assert checked == [(ctx.lambda_0 - 1.0, 0)]
    assert abs(lam - eigenvalues_of(ctx.region_operator)[0]) <= 2 * ctx.budget

    runs = []
    monkeypatch.setattr(spectral, "_lanczos", lambda *args, **kwargs: runs.append(args))
    bad = AnalysisContext(g, centers)
    vars(bad)["lambda_0"] = lam + 2.0  # the shift lam + 1 lies above lambda_Omega
    with pytest.raises(ConvergenceFailure, match=r"the shift .* is not below the spectrum"):
        bad.lambda_omega
    assert checked[-1][0] == lam + 1.0 and checked[-1][1] >= 1
    assert runs == []


def test_inertia_with_the_cached_ordering_matches_superlus_own():
    """The ordering kept from the ground-state factorization of H gives the
    same inertia counts as SuperLU's own ordering, for H and for H + t 1_D."""
    g = generate("random:300")
    ctx = AnalysisContext(g, cli.parse_centers(g, "every:4"))
    assert "_ground_solve" not in vars(ctx)
    order = ctx.ordering
    assert "_ground_solve" in vars(ctx)
    assert sorted(order) == list(range(g.n))
    for A in (ctx.sparse_operator, ctx.coupled_sparse(ctx.threshold)):
        dense = np.linalg.eigvalsh(A.toarray())
        shifts = [dense[0] - 1.0] + [0.5 * (dense[k - 1] + dense[k]) for k in (1, 5, 150, 299)]
        for k, shift in zip((0, 1, 5, 150, 299), shifts):
            assert spectral.count_below(A, shift, order) == spectral.count_below(A, shift) == k
    assert ctx.ordering is order


def _query_order_graphs():
    g = generate("random:800")
    yield g, cli.parse_centers(g, "every:4")
    g = generate("lattice:2:20")
    yield g, cli.parse_centers(g, "sublattice:3")
    g = random_connected(400, seed=5, m_range=(0.5, 2.0), potential_range=(-2.0, 3.0))
    yield g, cli.parse_centers(g, "every:4")


@pytest.mark.parametrize("g, centers", _query_order_graphs(), ids=["random800", "lattice", "V400"])
def test_sparse_values_do_not_depend_on_which_is_read_first(g, centers):
    """Above the crossover, reading lambda_max or a window before lambda_0
    gives the same bits of lambda_0, the ground vector, lambda_max and the
    coupled ground energy at the threshold as reading lambda_0 first: the
    shared ordering is the ground solve's, not the first factorization's."""

    def values(first):
        ctx = AnalysisContext(g, centers)
        assert ctx.matrix_free
        first(ctx)
        lam, x = ctx.ground_pair
        return lam, x.tobytes(), ctx.lambda_max, ctx.coupled_ground_energy(ctx.threshold)

    want = values(lambda ctx: ctx.lambda_0)
    assert values(lambda ctx: ctx.lambda_max) == want
    assert values(lambda ctx: ctx.window((0.0, 0.1))) == want


def test_top_eigenvalue_on_a_unit_lattice():
    """On lattice:2:20 (m = 1, no potential) the constant vector is the null
    vector of H, from which ARPACK cannot start; the fixed start vector
    finds the top eigenvalue."""
    ctx = AnalysisContext(generate("lattice:2:20"))
    ones = np.ones(ctx.graph.n)
    assert not np.any(ctx.sparse_operator @ ones)
    dense = eigenvalues_of(ctx.operator)
    top = spectral.sparse_top_eigenvalue(ctx.sparse_operator, ctx.budget)
    assert abs(top - dense[-1]) <= ctx.budget + ctx.graph.n * EPS * dense[-1]


def test_inertia_counts_eigenvalues_below_a_shift():
    ctx = AnalysisContext(generate("random:300"))
    dense = eigenvalues_of(ctx.operator)
    for k in (0, 1, 4, 150, 299):
        shift = 0.5 * (dense[k - 1] + dense[k]) if k else dense[0] - 1.0
        assert spectral.count_below(ctx.sparse_operator, shift) == k
    assert spectral.count_below(ctx.sparse_operator, dense[-1] + 1.0) == 300


def _openblas_threads():
    """(getter, setter) of the thread count of the OpenBLAS copies bundled
    with scipy and with numpy, in that order; a copy not found is left
    out."""
    found = []
    for module, suffix in ((scipy, ""), (np, "64_")):
        libs = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            if hasattr(lib, "scipy_openblas_set_num_threads" + suffix):
                get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
                get.argtypes, get.restype = [], ctypes.c_int
                found.append((get, getattr(lib, "scipy_openblas_set_num_threads" + suffix)))
                break
    return found


def test_one_blas_thread_holds_after_a_sparse_solve():
    """scipy's and numpy's OpenBLAS are at one thread after a sparse solve,
    and stay there: the count is not restored after it."""
    blas = _openblas_threads()
    if len(blas) < 2:
        pytest.skip("scipy's or numpy's OpenBLAS is not found here")
    assert len(spectral._openblas_thread_setters()) == 2
    for _, set_threads in blas:
        set_threads(2)
    ctx = AnalysisContext(generate("random:300"), ("v0",))
    assert abs(ctx.lambda_0) <= ctx.budget
    assert [get() for get, _ in blas] == [1, 1]
    ctx.coupled_ground_energy(10.0)
    assert [get() for get, _ in blas] == [1, 1]


def test_one_blas_thread_without_the_library_does_nothing(monkeypatch):
    blas = _openblas_threads()
    for _, set_threads in blas:
        set_threads(2)
    before = [get() for get, _ in blas]
    monkeypatch.setattr(spectral, "_openblas_thread_setters", lambda: ())
    spectral._one_blas_thread()
    assert [get() for get, _ in blas] == before
    ctx = AnalysisContext(generate("random:300"), ())
    assert abs(ctx.lambda_0) <= ctx.budget
    assert [get() for get, _ in blas] == before


def test_reports_are_the_same_at_one_and_two_blas_threads():
    """With both OpenBLAS copies held at one thread, reports run under
    OPENBLAS_NUM_THREADS=1 and =2 print the same bytes outside timings
    (on a one-core machine both runs use one thread)."""
    tests = Path(__file__).resolve().parent
    script = (
        "import sys\n"
        "from cli_matrix import run_case\n"
        "for spec in ('random:100', 'apex_ray:200', 'random:800'):\n"
        "    sys.stdout.write(run_case(['report', '--generate', spec, '--centers', 'every:4']))\n"
    )
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    outputs = [
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for threads in ("1", "2")
    ]
    assert outputs[0].count("exit 0\n") == 3
    assert outputs[0] == outputs[1]


class _OffDiagonalPivots:
    """A SuperLU factorization that reports a row permutation differing
    from the column one, as after an off-diagonal pivot."""

    def __init__(self, lu):
        self._lu = lu
        self.perm_r = np.roll(lu.perm_r, 1)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def test_report_fails_without_dense_fallback_when_superlu_pivots(monkeypatch, capsys):
    """Without an inertia count the certificate fails, and the report ends
    in that ConvergenceFailure (exit 1), with no dense eigh behind it and
    the shift printed as a plain float."""
    splu = spectral.splu
    monkeypatch.setattr(spectral, "splu", lambda *a, **k: _OffDiagonalPivots(splu(*a, **k)))
    decompositions = []
    monkeypatch.setattr(spectral, "eigdecompose", decompositions.append)
    argv = ["report", "--generate", "random:300", "--centers", "every:4"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("specbounds: error: no inertia at ")
    assert "SuperLU pivoted off the diagonal" in err
    assert "np.float64" not in err
    assert decompositions == []


def test_report_fails_when_a_coupled_shift_is_not_below_the_spectrum(monkeypatch, capsys):
    """With the curve's floor at t = 0 lifted above every lambda_0(H + t 1_D)
    (to lambda_max(H)), the first coupled solve's shift is refused by its
    inertia, and the report ends in that ConvergenceFailure (exit 1): no
    solve is redone at another shift."""
    prop = vars(AnalysisContext)["_curve"]
    curve = prop.func

    def lifted(self):
        record = curve(self)
        lam, _, v0 = record[0.0]
        record[0.0] = (lam, self.lambda_max, v0)
        return record

    monkeypatch.setattr(prop, "func", lifted)
    shifts = []
    eigsh = spectral.eigsh

    def recording(*args, **kwargs):
        shifts.append(kwargs.get("sigma"))
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spectral, "eigsh", recording)
    argv = ["report", "--generate", "random:300", "--centers", "every:4"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("specbounds: error: the shift ")
    assert err.endswith(" is not below the spectrum\n")
    assert "np.float64" not in err
    # H's ground solve, lambda_max and lambda_Omega ran; no coupled solve did.
    assert len(shifts) == 3


@pytest.mark.filterwarnings("error")
def test_bounds_near_the_largest_couplings_print_no_overflow_warning(capsys):
    """At t near 1e300 the residual ||Ax - lambda x|| is about 1e282; its
    squares overflow, so a plain sqrt(x . x) warned and read inf, past the
    budget.  BLAS nrm2 scales as it sums: nothing reaches stderr and the
    rows parse.  The exit code is not pinned: these couplings lie in the
    regime where the coupled energies cannot be decided (exit 2)."""
    argv = ["bounds", "--generate", "random:300", "--centers", "every:4",
            "--t-grid", "1e300:1e308:3"]
    assert cli.main(argv) in (0, 2)
    out, err = capsys.readouterr()
    assert err == ""
    rows = json.loads(out)["rows"]
    assert sum(r["name"].startswith("coupling/rate#") for r in rows) == 3


def test_a_window_of_the_whole_spectrum_raises_instead_of_running_eigh():
    g = generate("random:300")
    ctx = AnalysisContext(g, cli.parse_centers(g, "every:4"))
    with pytest.raises(ConvergenceFailure, match="reaches 300 of 300 eigenvalues"):
        ctx.window((-1.0, 1e9))
    assert "decomposition" not in vars(ctx) and "operator" not in vars(ctx)


@pytest.mark.parametrize(
    "spec, centers", [("random:300", "every:4"), ("lattice:2:20", "sublattice:3")]
)
def test_a_matrix_free_report_forms_no_dense_h(monkeypatch, spec, centers):
    """Above the crossover no report stage reads the dense H or its eigh."""
    for name in ("operator", "decomposition"):
        dense = vars(AnalysisContext)[name].func

        def refuse(self, dense=dense, name=name):
            assert not self.matrix_free, f"a matrix-free context read {name}"
            return dense(self)

        monkeypatch.setattr(AnalysisContext, name, property(refuse))
    argv = ["report", "--generate", spec, "--centers", centers]
    report, _ = cli.run(cli.build_parser().parse_args(argv))
    assert report.rows


def test_matrix_free_empty_window_needs_no_decomposition(capsys):
    """An interval below the spectrum gives an empty window from the two
    inertia counts alone, and the uncertainty rows say so."""
    g = generate("random:300")
    ctx = AnalysisContext(g, cli.parse_centers(g, "every:4"))
    assert ctx.matrix_free
    evals, vectors = ctx.window((-4.0, -3.0))
    assert evals.shape == (0,) and vectors.shape == (300, 0)
    assert "decomposition" not in vars(ctx)
    argv = ["uncertainty", "--generate", "random:300", "--centers", "every:4", "--interval", "-4:-3"]
    assert cli.main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [(r["name"], r["true"], r["pass"], r["vacuous"], r["note"]) for r in rows] == [
        (name, 0, True, True, "no spectrum in the interval; statement vacuous")
        for name in ("uncertainty/energy_form", "uncertainty/geometry_form")
    ]


def test_coupled_sparse_adds_t_on_the_penalty_diagonal_only():
    """coupled_sparse(t) has the values of H + diags(t 1_D), bit for bit,
    and so gives the same ground energies."""
    from scipy import sparse

    g = generate("random:300")
    ctx = AnalysisContext(g, cli.parse_centers(g, "every:4"))
    penalty = np.zeros(g.n)
    penalty[g.indices(ctx.centers)] = 1.0
    for t in (0.5, ctx.threshold, 1.0e6 * ctx.threshold):
        fast = ctx.coupled_sparse(t)
        plain = ctx.sparse_operator + sparse.diags(t * penalty, format="csc")
        assert (fast != plain).nnz == 0
        sigma, v0 = ctx.lambda_0 - 1.0, np.sqrt(g.m)
        budget = g.n * EPS * (ctx.norm + t)
        assert (
            sparse_ground_state(fast, sigma, v0, budget)[0]
            == sparse_ground_state(plain, sigma, v0, budget)[0]
        )
    assert ctx.sparse_operator.nnz == g.n + 2 * len(g.edges)


# ---------------------------------------------------------------------------
# Projections and the uncertainty constant
# ---------------------------------------------------------------------------


def test_projection_whole_spectrum_is_identity():
    g = random_instance(77, n_lo=3, n_hi=15, m_weighted=True)
    evals, vectors = AnalysisContext(g).decomposition
    proj = spectral_projection(evals, vectors, g.m, (float(evals[0]), float(evals[-1])))
    assert np.allclose(proj.matrix, np.eye(g.n), atol=1e-10)


def test_projection_below_spectrum_is_zero():
    g = complete_graph(3)
    evals, vectors = AnalysisContext(g).decomposition
    proj = spectral_projection(evals, vectors, g.m, (-2.0, -1.0))
    assert proj.empty
    assert np.all(proj.matrix == 0.0)


def test_projection_k2_low_energy_is_rank_one_constants():
    g = complete_graph(2)
    evals, vectors = AnalysisContext(g).decomposition
    proj = spectral_projection(evals, vectors, g.m, (-0.1, 0.1))
    assert len(proj.indices) == 1
    assert np.allclose(proj.matrix, np.full((2, 2), 0.5), atol=1e-12)


def test_projection_idempotent_and_self_adjoint():
    g = random_instance(91, n_lo=4, n_hi=25, m_weighted=True)
    evals, vectors = AnalysisContext(g).decomposition
    mid = float(np.median(evals))
    proj = spectral_projection(evals, vectors, g.m, (0.0, mid))
    P = proj.matrix
    assert np.abs(P @ P - P).max() <= 1e-10
    MP = g.m[:, None] * P
    assert np.abs(MP - MP.T).max() <= 1e-10


def test_uncertainty_k2_hand_case():
    g = complete_graph(2)
    rows = uncertainty_constant(AnalysisContext(g, ("v1",)), (0.0, 0.25))
    by_name = {r.name: r for r in rows}
    energy = by_name["uncertainty/energy_form"]
    assert energy.bound_value == pytest.approx(0.75**2 / (16.0 * 9.0 * 4.0), rel=1e-15)
    assert energy.true_value == pytest.approx(0.5, rel=1e-12)
    assert rows_pass(rows)


def test_uncertainty_empty_interval_is_vacuous():
    g = complete_graph(2)
    rows = uncertainty_constant(AnalysisContext(g, ("v1",)), (0.3, 0.5))
    assert all(r.vacuous for r in rows)


def test_uncertainty_precondition_violation_raises():
    g = complete_graph(2)
    with pytest.raises(PreconditionInterval):
        uncertainty_constant(AnalysisContext(g, ("v1",)), (0.0, 1.5))


def test_uncertainty_on_lattice_line_with_sparse_centers():
    g = lattice_box(1, 30)
    d_set = tuple(v for v in g.vertices if int(v) % 3 == 0)
    omega = g.complement(d_set)
    lam = lowest_eigenvalue(reference_assemble(g, omega=omega))
    rows = uncertainty_constant(AnalysisContext(g, d_set), (0.0, 0.5 * lam))
    assert rows_pass(rows)
    assert not all(r.vacuous for r in rows)


def _ground_window(ctx):
    """From below lambda_0 to halfway to lambda_Omega: an interval that
    holds the ground state of H whatever the sign of V."""
    return (ctx.lambda_0 - 1.0, 0.5 * (ctx.lambda_0 + ctx.lambda_omega))


def _record_couplings(monkeypatch):
    """Patch coupled_ground_energy to keep each (context, t) it is asked for."""
    asked = set()
    energy = AnalysisContext.coupled_ground_energy

    def recording(self, t):
        asked.add((self, t))
        return energy(self, t)

    monkeypatch.setattr(AnalysisContext, "coupled_ground_energy", recording)
    return asked


def _record_cuts(monkeypatch):
    """Patch both coupled operators, dense and sparse, to keep each t they
    are cut at: one per coupled eigensolve."""
    cut = []
    for name in ("coupled", "coupled_sparse"):
        original = getattr(AnalysisContext, name)

        def recording(self, t, original=original):
            cut.append(t)
            return original(self, t)

        monkeypatch.setattr(AnalysisContext, name, recording)
    return cut


def _all_couplings(g, centers, interval):
    """(t, lambda_0(H + t 1_D)) at each of the 17 couplings of the
    uncertainty grid, every one solved, on a fresh context."""
    ctx = AnalysisContext(g, centers)
    return [(t, ctx.coupled_ground_energy(t)) for t in uncertainty_grid(ctx, interval)]


def _best_sample(couplings, interval):
    """The sampled constant without skipping: max() of every
    (lambda_t - max I)/t, which keeps the first of equal or NaN samples."""
    return max((lam_t - interval[1]) / t for t, lam_t in couplings)


def _matrix_input(source):
    """A generator spec, or the name of one of tests/cli_matrix.py's graph files."""
    if source + ".json" not in CLI_MATRIX_FILES:
        return generate(source)
    params = dict(CLI_MATRIX_FILES[source + ".json"])
    return random_connected(params.pop("n"), **params)


@pytest.mark.parametrize(
    "source, centers, solved",
    [
        ("random:100", "every:4", 8),
        ("random:300", "every:4", 8),
        ("measure60", "every:4", 8),
        ("measure300", "every:4", 8),
        ("negative30", "every:4", 8),
        ("negative300", "every:4", 8),
        ("comb:12", "every:3", 11),
        ("comb:26", "every:3", 24),
    ],
)
def test_sampled_coupling_skips_only_couplings_that_cannot_win(
    monkeypatch, source, centers, solved
):
    """In report order (the auto coupling grid, then the uncertainty grid),
    the sampled constant is exactly the best of all 17 samples, taken on a
    fresh context, while the report solves only the coupling grid's 8 of
    its 24 distinct positive couplings; where the budgets n eps t are wide
    it solves more (11 on comb:12), or all 24 (comb:26, t up to 1e33).
    The coupling grid's t = 0 is asked too, and read from the curve's
    seed, lambda_0(H), with no coupled operator cut."""
    g = _matrix_input(source)
    ctx = AnalysisContext(g, cli.parse_centers(g, centers))
    interval = _ground_window(ctx)
    asked = _record_couplings(monkeypatch)
    cut = _record_cuts(monkeypatch)
    coupling_rate(ctx, cli.parse_t_grid("auto", ctx.threshold))
    rows = {row.name: row for row in uncertainty_constant(ctx, interval)}
    assert (ctx, 0.0) in asked
    assert len(asked) - 1 == len(cut) == solved
    assert sorted(cut) == sorted(t for _, t in asked if t != 0.0)
    assert ctx.coupled_ground_energy(0.0) == ctx.lambda_0
    row = rows["uncertainty/sampled_coupling"]
    assert row.note == "best of 17 sampled couplings"
    assert row.bound_value == _best_sample(_all_couplings(g, ctx.centers, interval), interval)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(2, 40),
    st.integers(0, 10**6),
    st.floats(-8.0, 8.0),
    st.floats(-8.0, 8.0),
)
def test_pruned_sampled_constant_is_the_exhaustive_max(n, seed, lo, hi):
    """Weights log-uniform in [10^lo, 10^hi] within 1e-8..1e8, random
    measures and potentials of both signs: every coupling of the grid
    keeps the premise of the skipping rule as computed,
    lambda_t <= lambda_Omega + e_t with e_t = ctx.budget + n eps (||H|| + t),
    and the reported sampled constant is the max over all 17 samples."""
    lo, hi = sorted((lo, hi))
    rng = np.random.default_rng(seed)
    tree = random_connected(n, seed=seed)
    ids = tree.vertices
    edges = [(ids[i], ids[j], float(10.0 ** rng.uniform(lo, hi))) for i, j, _ in tree.edges]
    potential = 10.0 ** rng.uniform(lo, hi) * rng.uniform(-1.0, 1.0, n)
    g = WeightedGraph.from_edge_list(
        ids, list(10.0 ** rng.uniform(-1.0, 1.0, n)), edges, potential=list(potential)
    )
    centers = random_proper_subset(g, seed)
    ctx = AnalysisContext(g, centers)
    interval = _ground_window(ctx)
    assume(interval[1] < ctx.lambda_omega)
    rows = {row.name: row for row in uncertainty_constant(ctx, interval)}
    couplings = _all_couplings(g, centers, interval)
    for t, lam_t in couplings:
        e_t = ctx.budget + g.n * EPS * (ctx.norm + t)
        assert lam_t <= ctx.lambda_omega + e_t
    assert rows["uncertainty/sampled_coupling"].bound_value == _best_sample(couplings, interval)


# ---------------------------------------------------------------------------
# Form identities and structural facts
# ---------------------------------------------------------------------------


def _double_sum_energy(g, f):
    total = 0.0
    W = dense_weights(g)
    for x in range(g.n):
        for y in range(g.n):
            total += W[x, y] * (f[x] - f[y]) ** 2
    return 0.5 * total


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 10**6))
def test_form_consistency(seed):
    g = random_instance(seed, n_lo=2, n_hi=20, m_weighted=True)
    d_set = random_proper_subset(g, seed + 3)
    omega = g.complement(d_set)
    idx = g.indices(omega)
    A = reference_assemble(g).entries
    A_omega = reference_assemble(g, omega=omega).entries
    rng = np.random.default_rng(seed)
    for _ in range(10):
        f = np.zeros(g.n)
        f[idx] = rng.standard_normal(idx.size)
        energy = _double_sum_energy(g, f)
        quad = float((A @ f) @ (f * g.m))
        quad_omega = float((A_omega @ f[idx]) @ (f[idx] * g.m[idx]))
        scale = max(abs(energy), 1.0)
        assert abs(quad - energy) <= 1e-9 * scale
        assert abs(quad_omega - energy) <= 1e-9 * scale


def _loop_energy(g, f, include_potential=False):
    """Reference for dirichlet_energy: one edge at a time, in stored order."""
    fa = np.asarray(f, dtype=float)
    total = 0.0
    for i, j, w in g.edges:
        diff = fa[i] - fa[j]
        total += w * diff * diff
    if include_potential:
        total += float(np.sum(g.V * fa * fa))
    return total


ENERGY_GRAPHS = pytest.mark.parametrize(
    "g",
    [
        random_instance(23, n_lo=40, n_hi=80, m_weighted=True),
        random_instance(24, n_lo=40, n_hi=80, potential_range=(0.0, 2.0)),
        lattice_box(2, 7),
        path_graph(1),
    ],
    ids=["weighted", "potential", "combinatorial", "single_vertex"],
)


@ENERGY_GRAPHS
def test_energy_matches_edge_loop_bit_for_bit(g):
    rng = np.random.default_rng(g.n)
    for _ in range(50):
        f = rng.standard_normal(g.n)
        for include in (False, True):
            assert dirichlet_energy(g, f, include) == _loop_energy(g, f, include)


@ENERGY_GRAPHS
@pytest.mark.parametrize("k", [0, 1, 100])
def test_batched_energy_matches_one_call_per_row(g, k):
    """A (k, n) batch gives, row by row, the bits of the 1-D call."""
    f = np.random.default_rng(g.n + k).standard_normal((k, g.n))
    for include in (False, True):
        batch = dirichlet_energy(g, f, include)
        assert isinstance(batch, np.ndarray) and batch.shape == (k,)
        assert batch.tolist() == [dirichlet_energy(g, row, include) for row in f]
        assert batch.tolist() == [_loop_energy(g, row, include) for row in f]


def test_edge_sum_energy_matches_double_sum():
    g = random_instance(17, n_lo=2, n_hi=25, m_weighted=True)
    rng = np.random.default_rng(17)
    f = rng.standard_normal(g.n)
    assert dirichlet_energy(g, f) == pytest.approx(_double_sum_energy(g, f), rel=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_cellwise_energy_splitting(seed):
    # Summing the restricted ground energies over punctured Voronoi cells
    # under-counts the full energy of any function vanishing on the centers.
    g = random_instance(400 + seed, n_lo=4, n_hi=30)
    d_set = random_proper_subset(g, seed + 9)
    vd = build_voronoi(g, d_set)
    idx_d = set(g.indices(d_set).tolist())
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(g.n)
    for i in idx_d:
        f[i] = 0.0
    total = 0.0
    for p, members in vd.cells.items():
        punctured = tuple(v for v in members if v != p)
        if not punctured:
            continue
        lam_cell = lowest_eigenvalue(reference_assemble(g, omega=punctured))
        mask = g.indices(members)
        total += lam_cell * float(np.sum(f[mask] ** 2 * g.m[mask]))
    assert total <= dirichlet_energy(g, f) + 1e-9


def test_restriction_is_not_subadditive():
    # Fixed witness: splitting {a, b} of the path a-b-c into singletons
    # changes the restricted operator by an off-diagonal coupling, whose
    # presence gives the direct sum a strictly negative deficiency.
    g = path_graph(3)
    both = reference_assemble(g, omega=("v0", "v1")).sym
    split = np.diag(
        [
            reference_assemble(g, omega=("v0",)).sym[0, 0],
            reference_assemble(g, omega=("v1",)).sym[0, 0],
        ]
    )
    deficiency = np.linalg.eigvalsh(split - both)
    assert deficiency[0] < -1e-9


@pytest.mark.parametrize("seed", range(6))
def test_resolvent_comparison_lemma_standalone(seed):
    # Abstract eigenvalue perturbation: for 0 <= H2 and a compression H1
    # to a coordinate subspace, 0 <= lam1 - lam2 and the gap is bounded by
    # (lam1+1)^2 times the resolvent distance (restricted resolvent
    # extended by zero).
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    B = rng.standard_normal((n, n))
    H2 = B @ B.T
    k = int(rng.integers(1, n))
    idx = np.sort(rng.choice(n, size=k, replace=False))
    H1 = H2[np.ix_(idx, idx)]
    lam2 = float(np.linalg.eigvalsh(H2)[0])
    lam1 = float(np.linalg.eigvalsh(H1)[0])
    assert lam1 >= lam2 - 1e-12
    r2 = np.linalg.inv(H2 + np.eye(n))
    r1 = np.zeros((n, n))
    r1[np.ix_(idx, idx)] = np.linalg.inv(H1 + np.eye(k))
    delta = float(np.linalg.norm(r1 - r2, 2))
    assert lam1 - lam2 <= (lam1 + 1.0) ** 2 * delta + 1e-9
