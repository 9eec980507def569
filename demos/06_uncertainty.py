"""Walkthrough: low-energy functions must put mass on any spread-out set.

Graph Laplacians admit compactly supported eigenfunctions, so no pointwise
unique continuation can hold.  What survives is quantitative: any function
built from eigenvectors with low enough energy keeps a definite fraction
of its norm on every relatively dense set D.  The exact fraction is the
lowest eigenvalue of the compressed penalty matrix; the package bounds it
from below by explicit geometric constants.
"""

import numpy as np

from specbounds import (
    AnalysisContext,
    generate,
    uncertainty_constant,
)

g = generate("lattice:1:40")
centers = tuple(v for v in g.vertices if int(v) % 4 == 0)
ctx = AnalysisContext(g, centers)
lam = ctx.lambda_omega
print(f"line of 41 vertices, every 4th vertex penalized")
print(f"Dirichlet ground energy of the free region: {lam:.6f}")

interval = (0.0, 0.5 * lam)
print(f"energy window I = [0, {interval[1]:.6f}]")
evals, vectors = ctx.window(interval)
print(f"eigenvalues inside the window: {evals.size}")

print("\n=== Constants ===")
for row in uncertainty_constant(ctx, interval):
    marker = "ok " if row.passed else "BAD"
    print(f"  [{marker}] {row.name:32s} true {row.true_value:12.6g}  "
          f"bound {row.bound_value:12.6g}")

print("\nInterpretation: for every f in the window's spectral subspace,")
print("||f restricted to D||^2 >= kappa ||f||^2 with kappa the true value above.")

rng = np.random.default_rng(1)
coeffs = rng.standard_normal(evals.size)
f = vectors @ coeffs
mass_d = sum(f[g.index[v]] ** 2 * g.m[g.index[v]] for v in centers)
mass = float(np.sum(f * f * g.m))
print(f"random sample from the subspace: mass fraction on D = {mass_d / mass:.4f}")
