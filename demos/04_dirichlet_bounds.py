"""Walkthrough: geometric two-sided bounds for Dirichlet ground energies.

Fixing a penalty region D and deleting it from the graph raises the ground
energy of the restricted operator above zero.  Its size is controlled by
geometry alone: from below by the inradius and volume of the remaining
region (or, uniformly, by ball volumes), from above by the measure
fraction of D.
"""

import numpy as np

from specbounds import (
    AnalysisContext,
    complete_graph,
    dirichlet_bounds_finite,
    dirichlet_lower_bound,
    generate,
    random_connected,
)

print("=== The two-point graph: both bounds are tight ===")
k2 = complete_graph(2)
lower, upper = dirichlet_bounds_finite(AnalysisContext(k2, ("v1",)))
print(f"  ground energy {lower.true_value} sits between {lower.bound_value} (below)")
print(f"  and {upper.bound_value} (above): equality on both sides.")
print("  An inverse-square inradius bound, as in continuum domains, is")
print("  impossible: the upper bound already scales like 1/vol(region).")

print("\n=== A 11x11 box with a sparse penalty sublattice ===")
g = generate("lattice:2:10")
d_set = tuple(v for v in g.vertices if all(int(c) % 3 == 0 for c in v.split(",")))
ctx = AnalysisContext(g, d_set)
rows = list(dirichlet_bounds_finite(ctx)) + dirichlet_lower_bound(ctx)
for r in rows:
    rel = "<=" if r.relation == "<=" else ">="
    print(f"  {r.name:42s} {r.true_value:10.6f} {rel} {r.bound_value:10.6f}  "
          f"{'ok' if r.passed else 'VIOLATED'}")

print("\n=== Random weighted graphs: the bounds never fail ===")
rng = np.random.default_rng(0)
worst_ratio = np.inf
for seed in range(200):
    n = int(rng.integers(3, 50))
    h = random_connected(n, seed=seed, m_range=(0.5, 2.0))
    k = int(rng.integers(1, n))
    centers = tuple(h.vertices[i] for i in sorted(rng.choice(n, size=k, replace=False)))
    main_row = dirichlet_lower_bound(AnalysisContext(h, centers))[0]
    assert main_row.passed
    worst_ratio = min(worst_ratio, main_row.true_value / main_row.bound_value)
print(f"  200 instances checked; tightest truth/bound ratio seen: {worst_ratio:.3f}")
