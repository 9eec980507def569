"""Walkthrough: absorbing a potential by the ground-state transform.

With a bounded potential the operator's ground energy shifts away from
zero, but its positive ground state phi rewrites the shifted energy form
as the plain form of a transformed graph with weights phi(x) phi(y) b(x,y)
and measures phi^2 m.  When phi is pinched between 1/c and c, distances
and volumes move by at most c^2, so the ball-volume Dirichlet bound
transfers to the potential case with explicit constants.
"""

import numpy as np

from specbounds import (
    AnalysisContext,
    compute_metric,
    ground_state,
    ground_state_transform,
    ground_state_transform_check,
    potential_dirichlet_bound,
    random_connected,
)

g = random_connected(24, seed=12, weight_range=(1.0, 1.0), potential_range=(0.0, 2.0))
gs = ground_state(AnalysisContext(g))
print(f"random 24-vertex graph with potential in [0, 2]")
print(f"ground energy lambda_V = {gs.lambda_v:.6f}")
print(f"pinching constant c = {gs.c:.4f}  (so 1/c <= phi <= c after scaling)")

print("\n=== The transform is an exact rewriting of the energy form ===")
row = ground_state_transform_check(g, gs, samples=200, seed=5)
print(f"worst relative mismatch over 200 random functions: {row.true_value:.2e}")

h = ground_state_transform(g, gs)
h.constants  # the transformed graph is connected too
c2 = gs.c**2
d0, d1 = compute_metric(g).dist, compute_metric(h).dist
off = ~np.eye(g.n, dtype=bool)
ratio = d1[off] / d0[off]
print(f"distance distortion range: [{ratio.min():.4f}, {ratio.max():.4f}]"
      f"  within [1/c^2, c^2] = [{1/c2:.4f}, {c2:.4f}]")

print("\n=== The potential Dirichlet bound ===")
centers = g.vertices[::5]
for r in potential_dirichlet_bound(AnalysisContext(g, centers), gs):
    print(f"  {r.name:36s} truth {r.true_value:.6f} >= bound {r.bound_value:.6f}"
          f"  [{'ok' if r.passed else 'BAD'}]")
print(f"(the bound exceeds lambda_V = {gs.lambda_v:.6f} by a geometric margin)")

print("\n=== Doubling variant on a structured graph ===")
from specbounds import lattice_box

box = lattice_box(2, 6)
centers = tuple(v for v in box.vertices if all(int(c) % 3 == 0 for c in v.split(",")))
box_ctx = AnalysisContext(box, centers)
rows = potential_dirichlet_bound(box_ctx, ground_state(box_ctx), doubling_exponent=2.0)
for r in rows:
    print(f"  {r.name:36s} truth {r.true_value:.6f} >= bound {r.bound_value:.6f}")
print("with zero potential both rows reduce to the plain ball-volume bound.")
