"""Walkthrough: the large-coupling limit and its 1/t convergence rate.

Adding a penalty t on a region D pushes the operator toward the Dirichlet
restriction to the complement.  On graphs the resolvents converge in norm
with the optimal rate 1/t, uniformly in terms of the operator norm; the
ground energies inherit the rate.  The sweep below shows the measured gap
tracking the proved envelope with log-log slope close to -1.
"""

import numpy as np

from specbounds import (
    AnalysisContext,
    complete_graph,
    coupling_rate,
    generate,
    resolvent_gap,
)

print("=== Resolvent gap sweep on the two-point graph ===")
k2 = complete_graph(2)
threshold = AnalysisContext(k2).threshold
print(f"coupling threshold 2*||H+1||^2 = {threshold}")
ts = np.geomspace(threshold, 1000.0 * threshold, 10)
gaps = []
print(f"  {'t':>12s} {'measured gap':>14s} {'proved bound':>14s}")
for t in ts:
    row = resolvent_gap(AnalysisContext(k2, ("v1",)), float(t))
    gaps.append(row.true_value)
    print(f"  {t:12.1f} {row.true_value:14.3e} {row.bound_value:14.3e}")
slope = np.polyfit(np.log(ts), np.log(gaps), 1)[0]
print(f"log-log slope of the measured gap: {slope:.4f}  (rate ~ 1/t)")

print("\n=== Ground-energy convergence on a random graph ===")
g = generate("random:30", seed=6)
centers = g.vertices[::4]
ctx = AnalysisContext(g, centers)
lam_limit = ctx.lambda_omega
print(f"Dirichlet ground energy (t = infinity): {lam_limit:.8f}")
th = ctx.threshold
for t in [0.0, th, 10 * th, 100 * th, 1000 * th]:
    lam_t = ctx.coupled_ground_energy(t)
    print(f"  t = {t:12.1f}: ground energy {lam_t:.8f}   gap {lam_limit - lam_t:.2e}")

rows = coupling_rate(ctx, [0.0, th, 10 * th, 100 * th])
print("\nall monotonicity and rate rows pass:",
      all(r.passed for r in rows))
