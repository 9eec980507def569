"""Walkthrough: isoperimetric route vs ball-volume route to the same bound.

On combinatorial graphs the Dirichlet ground energy admits two geometric
lower bounds: the Cheeger-type chain through the region's isoperimetric
constant, and the direct ball-volume bound.  The ball-volume route wins
exactly when vol[R] grows faster than linearly in R, e.g. on boxes in two
or more dimensions.
"""

from specbounds import (
    AnalysisContext,
    cheeger_chain,
    compute_metric,
    generate,
    growth_diagnostic,
    lattice_box,
    region_constant,
)

print("=== 9x9 box, penalty on the coarse sublattice 3Z^2 ===")
g = lattice_box(2, 8)
centers = tuple(v for v in g.vertices if all(int(c) % 3 == 0 for c in v.split(",")))
for row in cheeger_chain(AnalysisContext(g, centers)):
    tag = "info" if row.vacuous else ("ok " if row.passed else "BAD")
    print(f"  [{tag}] {row.name:38s} {row.true_value:11.5g} >= {row.bound_value:11.5g}")
    if row.note:
        print(f"         {row.note}")

print("\n=== The exact isoperimetric constant by parametric minimum cut ===")
line = generate("lattice:1:12")
mdl = compute_metric(line)
centers = tuple(v for v in line.vertices if int(v) % 4 == 0)
region = line.complement(centers)
iso = region_constant(line, region)
print(f"  region size {len(region)}; beta = {iso.beta}, largest minimizer {iso.witness}")
print(f"  ({iso.boundary_size} boundary pairs over volume {iso.volume})")

print("\n=== Growth diagnostic (no pass/fail: a scaling table) ===")
print("line of 41 vertices, ratios log vol(B_n)/n from the midpoint:")
table = growth_diagnostic(compute_metric(generate("lattice:1:40")), "20")
for n, ratio in table[:8]:
    print(f"  n = {n:2d}   log vol / n = {ratio:.4f}")
print("  ... decaying to zero: subexponential growth, so the unrestricted")
print("  operator has spectrum reaching down to zero, while the penalized")
print("  region keeps the strictly positive bounds shown above.")
