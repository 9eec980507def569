"""Acceptance suite: one test per criterion, each printing a PASS line.

Every inequality checked here is a theorem, so a single non-vacuous
violation beyond 1e-9 absolute slack fails the build.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import json
import time

import numpy as np
import pytest

from specbounds import (
    AnalysisContext,
    BallVolumeTable,
    assemble,
    build_voronoi,
    check_homogeneity,
    cheeger_chain,
    complete_graph,
    compute_metric,
    coupling_rate,
    covering_radius,
    dirichlet_bounds_finite,
    dirichlet_lower_bound,
    dumps_graph,
    generate,
    geometric_comb,
    ground_state,
    ground_state_transform,
    ground_state_transform_check,
    inradius,
    lattice_box,
    lowest_eigenvalue,
    path_graph,
    potential_dirichlet_bound,
    random_connected,
    resolvent_gap,
    rows_pass,
    uncertainty_constant,
    validate,
    verify_voronoi,
)
from specbounds import cli
from specbounds.spectral import dirichlet_energy, eigenvalues_of
from helpers import operator_norm, random_instance, random_proper_subset

GENERATOR_FAMILY_CASES = [
    ("lattice:1:6", ("0", "3", "6")),
    ("lattice:2:4", ("0,0", "2,2", "4,4")),
    ("path:9", ("v0", "v4")),
    ("cycle:8", ("v0", "v3")),
    ("complete:6", ("v2",)),
    ("normalized:cycle:8", ("v1", "v5")),
    ("normalized:k2", ("v0",)),
    ("apex_ray:6", ("1,1",)),
    ("comb:5", ("1,0", "5,0")),
    ("random:30", ("v0", "v11", "v22")),
]


def _passline(num: int, text: str) -> None:
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_01_covering_radius_equals_inradius():
    start = time.perf_counter()
    for seed in range(500):
        g = random_instance(seed, n_lo=2, n_hi=60, weight_range=(0.1, 10.0))
        md = compute_metric(g)
        d_set = random_proper_subset(g, seed + 10_000)
        omega = g.complement(d_set)
        assert covering_radius(md, d_set) == inradius(md, omega)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passline(1, f"Covr(D) == Inr(X\\D) exactly on 500 random graphs ({elapsed:.1f}s)")


def test_criterion_02_comb_distances_match_closed_form():
    md = compute_metric(geometric_comb(6))
    for n in range(1, 7):
        want = 2.0 / 3.0 + (1.0 / 3.0) * 4.0 ** (1 - n)
        got = md.d(f"{n},0", "1,1")
        assert abs(got - want) <= 1e-12 * want
    _passline(2, "comb truncation distances equal 2/3 + 4^(1-n)/3 to 1e-12 relative")


def test_criterion_03_voronoi_axioms():
    start = time.perf_counter()
    for seed in range(500):
        g = random_instance(
            seed + 20_000, n_lo=2, n_hi=60, m_weighted=seed % 3 == 0
        )
        md = compute_metric(g)
        d_set = random_proper_subset(g, seed + 30_000)
        vd = build_voronoi(g, d_set)
        assert rows_pass(verify_voronoi(vd, md))
    for spec, centers in GENERATOR_FAMILY_CASES:
        g = generate(spec)
        md = compute_metric(g)
        vd = build_voronoi(g, centers)
        assert rows_pass(verify_voronoi(vd, md))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passline(3, f"all axioms on 500 random instances + families ({elapsed:.1f}s)")


def test_criterion_04_dirichlet_bounds():
    for seed in range(500):
        g = random_instance(
            seed + 40_000, n_lo=2, n_hi=120, m_weighted=seed % 2 == 0
        )
        d_set = random_proper_subset(g, seed + 50_000)
        ctx = AnalysisContext(g, d_set)
        rows = list(dirichlet_bounds_finite(ctx))
        rows += dirichlet_lower_bound(ctx)
        assert rows_pass(rows)
    # Tight case: on the two-point graph the upper bound is attained exactly.
    k2 = complete_graph(2)
    lower, upper = dirichlet_bounds_finite(AnalysisContext(k2, ("v1",)))
    assert upper.bound_value == 1.0 and upper.true_value == 1.0
    _passline(4, "two-sided and ball-volume bounds on 500 instances; K_2 tight")


def test_criterion_05_coupling_convergence():
    for seed in range(100):
        g = random_instance(seed + 60_000, n_lo=2, n_hi=40, m_weighted=seed % 2 == 1)
        d_set = random_proper_subset(g, seed + 70_000)
        threshold = AnalysisContext(g).threshold
        ts = list(np.geomspace(threshold, 200.0 * threshold, 5))
        ctx = AnalysisContext(g, d_set)
        assert rows_pass(coupling_rate(ctx, ts))
        gap_row = resolvent_gap(ctx, ts[2])
        assert gap_row.passed and not gap_row.vacuous
    k2 = complete_graph(2)
    threshold = AnalysisContext(k2).threshold
    ts = np.geomspace(threshold, 100.0 * threshold, 9)
    gaps = [resolvent_gap(AnalysisContext(k2, ("v1",)), float(t)).true_value for t in ts]
    slope = float(np.polyfit(np.log(ts), np.log(gaps), 1)[0])
    assert -1.2 <= slope <= -0.8
    _passline(5, f"resolvent gap and rate bounds on 100 instances; slope {slope:.3f}")


def test_criterion_06_uncertainty_constants():
    for seed in range(200):
        g = random_instance(seed + 80_000, n_lo=2, n_hi=60, m_weighted=seed % 3 == 1)
        d_set = random_proper_subset(g, seed + 90_000)
        omega = g.complement(d_set)
        lam = lowest_eigenvalue(assemble(g, omega=omega))
        rows = uncertainty_constant(AnalysisContext(g, d_set), (0.0, 0.5 * lam))
        assert rows_pass(rows)
        energy_row = next(r for r in rows if r.name == "uncertainty/energy_form")
        assert not energy_row.vacuous  # the bottom eigenvalue 0 is inside I
    k2 = complete_graph(2)
    rows = uncertainty_constant(AnalysisContext(k2, ("v1",)), (0.0, 0.25))
    energy = next(r for r in rows if r.name == "uncertainty/energy_form")
    assert energy.bound_value == pytest.approx(9.765625e-4, rel=1e-12)
    assert energy.true_value == pytest.approx(0.5, rel=1e-12)
    _passline(6, "projection mass >= energy >= geometry constants on 200 instances")


def test_criterion_07_cheeger_chain():
    rng = np.random.default_rng(123)
    sizes = [int(rng.integers(4, 21)) for _ in range(97)] + [23, 24, 24]
    for k, n in enumerate(sizes):
        g = random_connected(n, seed=1_000 + k, weight_range=(1.0, 1.0))
        d_size = max(1, n - 22, int(rng.integers(1, n)))
        d_set = tuple(
            g.vertices[i] for i in sorted(rng.choice(n, size=d_size, replace=False))
        )
        assert len(g.complement(d_set)) <= 22
        assert rows_pass(cheeger_chain(AnalysisContext(g, d_set)))
    g = lattice_box(2, 8)
    d_set = tuple(v for v in g.vertices if all(int(c) % 3 == 0 for c in v.split(",")))
    rows = cheeger_chain(AnalysisContext(g, d_set))
    by_name = {r.name: r for r in rows}
    assert (
        by_name["cheeger/eigenvalue_vs_ball_volume"].bound_value
        > by_name["cheeger/route_comparison"].bound_value
    )
    assert rows_pass(rows)
    _passline(7, "eigenvalue >= beta^2/(2 delta) >= 1/(2 delta vol[R]^2) on 100 instances")


def test_criterion_08_ground_state_transform():
    worst = 0.0
    for k in range(50):
        g = random_connected(
            int(np.random.default_rng(k).integers(3, 30)),
            seed=2_000 + k,
            weight_range=(0.5, 4.0),
            m_range=(0.5, 2.0) if k % 2 else None,
            potential_range=(0.0, 2.0),
        )
        gs = ground_state(AnalysisContext(g))
        transformed = ground_state_transform(g, gs)
        rng = np.random.default_rng(3_000 + k)
        for _ in range(10):
            f = rng.standard_normal(g.n)
            lhs = (
                dirichlet_energy(g, f, include_potential=True)
                - gs.lambda_v * float(np.sum(f * f * g.m))
            )
            rhs = dirichlet_energy(transformed, f / gs.phi)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12))
    assert worst <= 1e-8

    for k in range(100):
        rng = np.random.default_rng(4_000 + k)
        n = int(rng.integers(4, 30))
        g = random_connected(
            n, seed=5_000 + k, weight_range=(1.0, 1.0), potential_range=(0.0, 2.0)
        )
        ctx = AnalysisContext(g, random_proper_subset(g, 6_000 + k))
        assert rows_pass(potential_dirichlet_bound(ctx, ground_state(ctx)))

    g = random_connected(20, seed=7_777, weight_range=(0.5, 4.0))
    ctx = AnalysisContext(g, random_proper_subset(g, 8_888))
    pot = potential_dirichlet_bound(ctx, ground_state(ctx))
    plain = dirichlet_lower_bound(ctx)
    assert pot[0].bound_value == plain[0].bound_value
    assert pot[0].true_value == plain[0].true_value
    _passline(8, f"transform identity worst rel {worst:.2e}; bound on 100 instances; "
                 "zero-potential reduction bit-exact")


def test_criterion_09_structural_invariants():
    for seed in range(40):
        g = random_instance(seed + 95_000, n_lo=2, n_hi=50, m_weighted=seed % 2 == 0)
        c = validate(g)
        md = compute_metric(g)
        # Operator norm dominated by twice the weighted degree bound.
        assert operator_norm(assemble(g)) <= c.operator_norm_bound + 1e-9
        # Constants are harmonic.
        residual = assemble(g).entries @ np.ones(g.n)
        assert np.abs(residual).max() <= 1e-9
        # Triangle inequality on all triples.
        dist = md.dist
        for k in range(g.n):
            via = dist[:, k][:, None] + dist[k, :][None, :]
            assert np.all(dist <= via + 1e-12)
        # Uniform discreteness and the ball cardinality estimate.
        assert rows_pass(check_homogeneity(g, md, c))
    _passline(9, "norm, harmonic constants, triangle, homogeneity: 40-graph battery")


def _canonical_without_timings(text: str) -> str:
    doc = json.loads(text)
    doc.pop("timings", None)
    return json.dumps(doc, sort_keys=True)


def test_criterion_10_cli_determinism(tmp_path):
    g = random_connected(15, seed=42, m_range=(0.5, 2.0), potential_range=(0.0, 1.0))
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(dumps_graph(g), encoding="utf-8")
    configs = [
        ["report", "--generate", "lattice:2:5", "--centers", "sublattice:2", "--seed", "5"],
        ["report", "--generate", "random:20", "--centers", "every:3", "--seed", "5"],
        ["report", "--graph", str(graph_file), "--centers", "v0,v7", "--seed", "5"],
        ["report", "--generate", "path:12", "--centers", "every:4", "--seed", "5",
         "--format", "csv"],
    ]
    for k, argv in enumerate(configs):
        out1 = tmp_path / f"run_{k}_a.out"
        out2 = tmp_path / f"run_{k}_b.out"
        assert cli.main(argv + ["--out", str(out1)]) == 0
        assert cli.main(argv + ["--out", str(out2)]) == 0
        text1 = out1.read_text(encoding="utf-8")
        text2 = out2.read_text(encoding="utf-8")
        if "--format" in argv:
            assert text1 == text2  # CSV carries no timings at all
        else:
            assert _canonical_without_timings(text1) == _canonical_without_timings(text2)
    _passline(10, "repeated CLI runs are byte-identical with timings excluded")
