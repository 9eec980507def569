"""Walkthrough: building weighted graphs and exploring their path geometry.

Edge weights play two roles at once: they scale the energy form, and their
reciprocals are edge lengths.  Heavy edges are short, light edges are long.
This script builds a few graphs (the constructor refuses any that breaks a
standing assumption), reads their geometry constants (which also checks
connectedness), and queries distances, balls, and the two dual radii of a
region.
"""

import numpy as np

from specbounds import (
    WeightedGraph,
    ball,
    compute_metric,
    covering_radius,
    generate,
    geodesic,
    inradius,
)

print("=== A hand-built triangle with mixed weights ===")
g = WeightedGraph.from_edge_list(
    vertices=("a", "b", "c"),
    m={"a": 1.0, "b": 2.0, "c": 0.5},
    edges=[("a", "b", 4.0), ("b", "c", 1.0), ("a", "c", 0.2)],
)
constants = g.constants
print(f"weighted degree bound delta = {constants.delta}")
print(f"largest weight b_max = {constants.b_max}, largest measure m_max = {constants.m_max}")
print(f"operator norm is at most 2*delta = {constants.operator_norm_bound}")

md = compute_metric(g)
print("\nEdge a-c has weight 0.2, so its length is 5; the detour through b")
print(f"costs 1/4 + 1 = 1.25, and indeed d(a, c) = {md.d('a', 'c')}")
print(f"a geodesic witness: {' -> '.join(geodesic(md, 'a', 'c'))}")

print("\n=== Balls on a combinatorial line ===")
line = generate("lattice:1:10")
mdl = compute_metric(line)
print(f"closed ball B_2 around 5:  {ball(mdl, '5', 2.0, closed=True)}")
print(f"open ball U_2 around 5:    {ball(mdl, '5', 2.0, closed=False)}")

print("\n=== Inradius and covering radius are two views of one number ===")
centers = ("0", "5", "10")
region = line.complement(centers)
covr = covering_radius(mdl, centers)
inr = inradius(mdl, region)
print(f"centers {centers} cover the line within R = {covr}")
print(f"the complementary region has inradius    {inr}")
print(f"equal bit-for-bit: {covr == inr}")

print("\n=== Random graphs keep every invariant ===")
for seed in range(3):
    h = generate("random:25", seed=seed)
    c = h.constants
    mdh = compute_metric(h)
    off = mdh.dist[~np.eye(h.n, dtype=bool)]
    print(
        f"seed {seed}: delta={c.delta:8.3f}  min distance {off.min():.4f} "
        f">= 1/b_max = {1.0 / c.b_max:.4f}"
    )
