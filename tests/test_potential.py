"""Ground states, the transform, and the potential Dirichlet bound."""

import math
import warnings

import numpy as np
import pytest

from specbounds import (
    DEFAULT_SEED,
    AnalysisContext,
    DoublingUnverified,
    WeightedGraph,
    compute_metric,
    dirichlet_lower_bound,
    generate,
    ground_state,
    ground_state_transform,
    ground_state_transform_check,
    lattice_box,
    make_report,
    potential_dirichlet_bound,
    random_connected,
    rows_pass,
)
from specbounds import potential
from specbounds.spectral import dirichlet_energy
from helpers import lowest_eigenvalue, random_proper_subset, reference_assemble


def _k2_with_potential():
    return WeightedGraph.from_edge_list(
        ("v0", "v1"), 1.0, [("v0", "v1", 1.0)], potential=(0.0, 3.0)
    )


def test_zero_potential_ground_state_is_constant():
    g = random_connected(12, seed=1, m_range=(0.5, 2.0))
    gs = ground_state(AnalysisContext(g))
    assert np.all(gs.phi == 1.0)
    assert gs.lambda_v == 0.0
    assert gs.c == 1.0


def test_k2_ground_state_closed_form():
    gs = ground_state(AnalysisContext(_k2_with_potential()))
    lam = (5.0 - np.sqrt(13.0)) / 2.0
    assert gs.lambda_v == pytest.approx(lam, rel=1e-12)
    assert np.all(gs.phi > 0.0)
    # phi is proportional to (1, 1 - lam); the pinching constant follows.
    assert gs.c == pytest.approx(np.sqrt(1.0 / (1.0 - lam)), rel=1e-12)
    assert gs.phi.max() * gs.phi.min() == pytest.approx(1.0, rel=1e-12)


def test_constant_potential_shifts_only():
    g = random_connected(10, seed=3, weight_range=(1.0, 1.0))
    shifted = WeightedGraph.from_edge_list(
        g.vertices, 1.0,
        [(g.vertices[i], g.vertices[j], w) for i, j, w in g.edges],
        potential=[0.7] * g.n,
    )
    gs = ground_state(AnalysisContext(shifted))
    assert gs.lambda_v == pytest.approx(0.7, abs=1e-12)
    assert gs.c == pytest.approx(1.0, abs=1e-9)


def test_measure_matched_shift_covariance():
    g = random_connected(14, seed=5, m_range=(0.5, 2.0), potential_range=(0.0, 2.0))
    kappa = 1.3
    shifted = WeightedGraph.from_edge_list(
        g.vertices,
        list(g.m),
        [(g.vertices[i], g.vertices[j], w) for i, j, w in g.edges],
        potential=list(g.potential + kappa * g.m),
    )
    a, b = ground_state(AnalysisContext(g)), ground_state(AnalysisContext(shifted))
    assert b.lambda_v == pytest.approx(a.lambda_v + kappa, rel=1e-12)
    assert np.allclose(a.phi, b.phi, rtol=1e-7)


def test_transform_with_constant_state_is_identity():
    g = random_connected(9, seed=8, m_range=(0.5, 2.0))
    gs = ground_state(AnalysisContext(g))
    h = ground_state_transform(g, gs)
    assert h.edges == g.edges
    assert np.array_equal(h.m, g.m)


def test_transform_metric_and_volume_equivalence():
    g = random_connected(16, seed=11, potential_range=(0.0, 2.0))
    gs = ground_state(AnalysisContext(g))
    h = ground_state_transform(g, gs)
    h.constants  # connected
    c2 = gs.c * gs.c
    d0 = compute_metric(g).dist
    d1 = compute_metric(h).dist
    off = ~np.eye(g.n, dtype=bool)
    assert np.all(d1[off] <= c2 * d0[off] * (1.0 + 1e-12))
    assert np.all(d1[off] >= d0[off] / c2 * (1.0 - 1e-12))
    rng = np.random.default_rng(0)
    for _ in range(100):
        size = int(rng.integers(1, g.n + 1))
        subset = [g.vertices[i] for i in rng.choice(g.n, size=size, replace=False)]
        v0, v1 = g.vol(subset), h.vol(subset)
        assert v1 <= c2 * v0 * (1.0 + 1e-12)
        assert v1 >= v0 / c2 * (1.0 - 1e-12)


def test_transform_identity_ground_state_saturates():
    g = _k2_with_potential()
    gs = ground_state(AnalysisContext(g))
    lhs = (
        dirichlet_energy(g, gs.phi, include_potential=True)
        - gs.lambda_v * float(np.sum(gs.phi**2 * g.m))
    )
    rhs = dirichlet_energy(ground_state_transform(g, gs), np.ones(g.n))
    assert abs(lhs) <= 1e-12 and abs(rhs) <= 1e-12


def test_transform_identity_k2_hand_value():
    g = _k2_with_potential()
    gs = ground_state(AnalysisContext(g))
    f = np.array([1.0, 0.0])
    lhs = (
        dirichlet_energy(g, f, include_potential=True)
        - gs.lambda_v * float(np.sum(f * f * g.m))
    )
    rhs = dirichlet_energy(ground_state_transform(g, gs), f / gs.phi)
    # Both sides equal 1 - lambda_V for this function.
    assert lhs == pytest.approx(1.0 - gs.lambda_v, rel=1e-12)
    assert rhs == pytest.approx(1.0 - gs.lambda_v, rel=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_transform_identity_random_instances(seed):
    g = random_connected(
        12 + seed, seed=seed, m_range=(0.5, 2.0), potential_range=(0.0, 2.0)
    )
    gs = ground_state(AnalysisContext(g))
    row = ground_state_transform_check(g, gs, samples=40, seed=seed)
    assert row.passed


def _loop_transform_check(g, gs, samples=100, seed=DEFAULT_SEED):
    """Reference for ground_state_transform_check: one sample at a time.
    A sample whose mismatch is NaN (an energy overflowed) is not counted."""
    transformed = ground_state_transform(g, gs)
    rng = np.random.default_rng(seed)
    worst, count = 0.0, 0
    for _ in range(samples):
        f = rng.standard_normal(g.n)
        lhs = (
            dirichlet_energy(g, f, include_potential=True)
            - gs.lambda_v * float(np.sum(f * f * g.m))
        )
        rhs = dirichlet_energy(transformed, f / gs.phi)
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12)
        if not math.isnan(rel):
            worst, count = max(worst, rel), count + 1
    note = f"worst relative mismatch over {samples} random functions"
    if 0 < count < samples:
        note = (
            f"worst relative mismatch over {count} of {samples} random functions; "
            f"the energies of the other {samples - count} overflow"
        )
    elif count < samples:
        note = f"the energies of all {samples} random functions overflow; not asserted"
    return make_report(
        "potential/transform_identity", worst, 1e-8, "<=", vacuous=count == 0 < samples, note=note
    )


@pytest.mark.parametrize(
    "g",
    [
        random_connected(60, seed=5, m_range=(0.5, 2.0)),
        random_connected(60, seed=6, m_range=(0.5, 2.0), potential_range=(0.0, 2.0)),
        random_connected(30, seed=7, potential_range=(-3.0, 1.0)),
        random_connected(300, seed=8, m_range=(0.5, 2.0), potential_range=(0.0, 2.0)),
        random_connected(20, seed=9, weight_range=(1e306, 1e307)),
        generate("random:800"),
    ],
    ids=["measure", "potential", "negative_potential", "sparse_potential", "overflow", "blocks"],
)
@pytest.mark.parametrize("samples", [0, 1, 100])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_transform_check_matches_sample_loop_bit_for_bit(g, samples):
    """Row blocks of draws and two batched energy calls per block give the
    row of the per-sample loop, bit for bit (random:800, with 1 199 edges,
    takes blocks of 54 samples); on the overflow graph some energies are
    inf and their NaN mismatches are skipped in both."""
    gs = ground_state(AnalysisContext(g))
    for seed in (DEFAULT_SEED, 3):
        row = ground_state_transform_check(g, gs, samples=samples, seed=seed)
        assert row == _loop_transform_check(g, gs, samples=samples, seed=seed)


@pytest.mark.parametrize("rows", [1, 7, 99, 100])
@pytest.mark.parametrize(
    "g",
    [
        random_connected(60, seed=6, m_range=(0.5, 2.0), potential_range=(0.0, 2.0)),
        random_connected(20, seed=9, weight_range=(1e306, 1e307)),
    ],
    ids=["potential", "overflow"],
)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_transform_check_in_row_blocks_matches_sample_loop(monkeypatch, g, rows):
    """With BLOCK_ENTRIES giving `rows` samples per block, the blocks draw
    the one stream in order, each block takes two energy calls, and the
    row keeps the per-sample loop's bits."""
    gs = ground_state(AnalysisContext(g))
    width = max(len(g.edges), g.n)
    monkeypatch.setattr(potential, "BLOCK_ENTRIES", rows * width + width - 1)
    calls = []

    def counting(graph, f, include_potential=False):
        calls.append(np.shape(f))
        return dirichlet_energy(graph, f, include_potential)

    monkeypatch.setattr(potential, "dirichlet_energy", counting)
    assert ground_state_transform_check(g, gs) == _loop_transform_check(g, gs)
    sizes = [min(rows, 100 - start) for start in range(0, 100, rows)]
    assert calls == [(size, g.n) for size in sizes for _ in range(2)]


def test_transform_check_names_the_samples_it_could_evaluate():
    """Where energies overflow float64, the row says how many of the samples
    it evaluated, is vacuous when it could evaluate none, and prints no
    overflow warning."""
    g = random_connected(20, seed=9, weight_range=(1e306, 1e307))
    ids = [f"v{i}" for i in range(10)]
    huge = WeightedGraph.from_edge_list(
        ids, 1.0, [(u, v, 1e308) for k, u in enumerate(ids) for v in ids[k + 1:]]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = ground_state_transform_check(g, ground_state(AnalysisContext(g)))
        none = ground_state_transform_check(huge, ground_state(AnalysisContext(huge)))
    assert row.note == (
        "worst relative mismatch over 14 of 100 random functions; "
        "the energies of the other 86 overflow"
    )
    assert row.passed and not row.vacuous
    assert none.note == "the energies of all 100 random functions overflow; not asserted"
    assert none.vacuous


def test_transform_check_makes_two_energy_calls(monkeypatch):
    g = random_connected(40, seed=4, potential_range=(0.0, 2.0))
    gs = ground_state(AnalysisContext(g))
    calls = []

    def counting(graph, f, include_potential=False):
        calls.append(np.shape(f))
        return dirichlet_energy(graph, f, include_potential)

    monkeypatch.setattr(potential, "dirichlet_energy", counting)
    ground_state_transform_check(g, gs)
    assert calls == [(100, g.n), (100, g.n)]


def test_potential_bound_k2_hand_case():
    g = _k2_with_potential()
    ctx = AnalysisContext(g, ("v1",))
    gs = ground_state(ctx)
    rows = potential_dirichlet_bound(ctx, gs)
    assert rows[0].true_value == 1.0
    c4 = gs.c**4
    want = gs.lambda_v + 1.0 / (c4 * 1.0 * 2.0)
    assert rows[0].bound_value == pytest.approx(want, rel=1e-12)
    assert rows_pass(rows)


def test_zero_potential_reduction_is_bit_exact():
    g = random_connected(18, seed=23, weight_range=(0.5, 4.0))
    ctx = AnalysisContext(g, random_proper_subset(g, 3))
    gs = ground_state(ctx)
    pot_rows = potential_dirichlet_bound(ctx, gs)
    plain_rows = dirichlet_lower_bound(ctx)
    assert pot_rows[0].bound_value == plain_rows[0].bound_value
    assert pot_rows[0].true_value == plain_rows[0].true_value


@pytest.mark.parametrize("seed", range(10))
def test_potential_bound_random_instances(seed):
    rng = np.random.default_rng(500 + seed)
    n = int(rng.integers(4, 30))
    g = random_connected(n, seed=seed, weight_range=(1.0, 1.0), potential_range=(0.0, 2.0))
    d_set = random_proper_subset(g, seed + 1)
    ctx = AnalysisContext(g, d_set)
    gs = ground_state(ctx)
    truth = lowest_eigenvalue(reference_assemble(g, omega=g.complement(d_set)))
    rows = potential_dirichlet_bound(ctx, gs)
    assert rows[0].true_value == pytest.approx(truth)
    assert rows_pass(rows)
    assert rows[0].bound_value > gs.lambda_v


def test_doubling_variant_on_lattice():
    g = lattice_box(2, 6)
    d_set = tuple(v for v in g.vertices if all(int(c) % 3 == 0 for c in v.split(",")))
    ctx = AnalysisContext(g, d_set)
    gs = ground_state(ctx)
    rows = potential_dirichlet_bound(ctx, gs, doubling_exponent=2.0)
    assert len(rows) == 2
    assert rows_pass(rows)
    with pytest.raises(DoublingUnverified):
        potential_dirichlet_bound(ctx, gs, doubling_exponent=0.0)


def test_doubling_scales_match_one_quantile_call_per_scale(monkeypatch):
    """The sampled doubling scales are the metric's cached quartiles, bit
    for bit the values of one np.quantile call per scale."""
    g = random_connected(60, seed=3, weight_range=(0.5, 3.0), potential_range=(0.0, 2.0))
    ctx = AnalysisContext(g, g.vertices[::4])
    gs = ground_state(ctx)
    quartiles = ctx.metric.quartiles
    verify, scales_seen = potential.verify_doubling, []

    def recording_verify(md, exponent, scales, factors):
        scales_seen.append(list(scales))
        verify(md, exponent, scales, factors)

    monkeypatch.setattr(potential, "verify_doubling", recording_verify)
    rows = potential_dirichlet_bound(ctx, gs, doubling_exponent=4.0)
    assert len(rows) == 2
    assert ctx.metric.quartiles is quartiles
    finite = ctx.metric.dist[ctx.metric.dist > 0.0]
    assert scales_seen == [[ctx.R] + [float(np.quantile(finite, q)) for q in (0.25, 0.5, 0.75)]]