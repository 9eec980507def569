"""Isoperimetric constants on combinatorial graphs and the bound chain.

All operations here require unit edge weights and unit vertex measure.
The region constant beta is the minimum over nonempty subsets S of the
region of (#boundary pairs of S) / (#S), where the boundary counts ordered
pairs (x, y) with x in S, y outside S, and an edge between them.  It is
computed exactly, in polynomial time, by Dinkelbach's iteration over one
s-t minimum cut per step (Dinkelbach 1967; Picard & Queyranne 1982).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import CapacityOverflow, EmptyOmega, NotCombinatorial
from .graph import WeightedGraph, is_combinatorial
from .metric import MetricData
from .report import BoundReport, make_report
from .spectral import AnalysisContext, _geometric_row

# After the package modules, so scipy loads through metric first: importing
# it here ahead of them made `import specbounds.cli` 20-40 ms slower on a
# 2-vCPU VM (measured; cause not found).
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

INT32_MAX = int(np.iinfo(np.int32).max)


@dataclass(frozen=True)
class IsoperimetricData:
    """Exact region constant with its largest minimizing subset."""

    beta: float
    witness: tuple[str, ...]
    boundary_size: int
    volume: float


def _require_combinatorial(g: WeightedGraph) -> None:
    if not is_combinatorial(g):
        raise NotCombinatorial("operation needs b in {0,1} and m = 1")


def _region_network(
    g: WeightedGraph, omega: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """The region's inner edges as (2, e) local endpoints, and per vertex
    the number of its neighbors outside the region."""
    local = np.full(g.n, -1, dtype=np.intp)
    local[[g.index[v] for v in omega]] = np.arange(len(omega))
    i, j, _ = g.edge_arrays
    a, b = local[i], local[j]
    inner = (a >= 0) & (b >= 0)
    crossing = (a >= 0) != (b >= 0)
    out_degree = np.bincount(np.maximum(a, b)[crossing], minlength=len(omega))
    return np.stack((a[inner], b[inner])), out_degree


def _maximal_minimizer(
    inner: np.ndarray, out_degree: np.ndarray, p: int, q: int
) -> np.ndarray:
    """Largest subset S of the region minimizing q |dS| - p |S|, as a mask.

    One s-t min cut: source -> x with capacity p, x -> sink with capacity
    q * out_degree[x], and capacity q both ways along each inner edge.  A
    cut with S on the source side costs p k + (q |dS| - p |S|).  The
    minimizers of a submodular function are closed under union, so the
    largest one is unique: the vertices that cannot reach the sink in the
    residual graph of any maximum flow.
    """
    k = len(out_degree)
    source, sink = k, k + 1
    # k p bounds every flow, and 2 q the residual of an inner edge; the
    # solver works in int32 and wraps silently past its range.
    largest = max(k * p, 2 * q, q * int(out_degree.max(initial=0)))
    if largest > INT32_MAX:
        raise CapacityOverflow(
            f"min cut at lambda = {p}/{q} on {k} vertices needs capacity {largest} > int32"
        )
    to_sink = np.flatnonzero(out_degree)
    e = inner.shape[1]
    rows = np.concatenate((inner[0], inner[1], np.full(k, source), to_sink))
    cols = np.concatenate((inner[1], inner[0], np.arange(k), np.full(to_sink.size, sink)))
    caps = np.concatenate(
        (np.full(2 * e, q), np.full(k, p), q * out_degree[to_sink])
    ).astype(np.int32)
    network = csr_matrix((caps, (rows, cols)), shape=(k + 2, k + 2))
    residual = network - maximum_flow(network, source, sink).flow
    residual.eliminate_zeros()  # a stored zero would count as an arc
    reaches_sink = breadth_first_order(
        residual.T, sink, directed=True, return_predecessors=False
    )
    mask = np.ones(k, dtype=bool)
    mask[reaches_sink[reaches_sink < k]] = False
    return mask


def region_constant(g: WeightedGraph, omega: Iterable[str]) -> IsoperimetricData:
    """Exact minimum of boundary/volume over nonempty subsets of the region.

    Dinkelbach iteration: starting from lambda = |dOmega|/|Omega|, take the
    largest minimizer S of |dS| - lambda |S| (one min cut at the rational
    lambda = p/q) and set lambda to its ratio, until the ratio stops
    falling.  The witness is the largest subset attaining beta, so it does
    not depend on the flow algorithm or the vertex labels.  EmptyOmega
    when the region is empty.
    """
    _require_combinatorial(g)
    omega = tuple(dict.fromkeys(omega))
    if not omega:
        raise EmptyOmega()
    inner, out_degree = _region_network(g, omega)
    boundary, size = int(out_degree.sum()), len(omega)
    while True:
        lam = Fraction(boundary, size)
        mask = _maximal_minimizer(inner, out_degree, lam.numerator, lam.denominator)
        new_boundary = int(out_degree[mask].sum()) + int(
            np.count_nonzero(mask[inner[0]] != mask[inner[1]])
        )
        new_size = int(mask.sum())
        if new_boundary * size >= boundary * new_size:
            break
        boundary, size = new_boundary, new_size
    return IsoperimetricData(
        # int / int is correctly rounded: the float nearest the exact ratio.
        beta=new_boundary / new_size,
        witness=tuple(v for v, inside in zip(omega, mask) if inside),
        boundary_size=new_boundary,
        volume=float(new_size),
    )


def cheeger_chain(ctx: AnalysisContext) -> list[BoundReport]:
    """The full chain of lower bounds on a combinatorial graph.

    Rows: the Dirichlet ground energy against beta^2/(2 delta), the region
    constant against 1/vol[R], the ground energy against the ball-volume
    bound 1/(R vol[R]), and an informational comparison of the two routes
    (the ball-volume route wins exactly when R < 2 delta vol[R]).  R is the
    covering radius of the centers, which equals ctx.R (the inradius of the
    region) bit for bit.  The two rows on the ground energy are proved for
    V >= 0 only, and are not asserted when some V(x) < 0; the region
    constant's row is geometry alone.  EmptyCenters or EmptyOmega when D
    or the region is empty.
    """
    g = ctx.graph
    _require_combinatorial(g)
    ctx.require_region()
    omega = ctx.omega

    delta = float(g.constants.max_degree)
    lam = ctx.lambda_omega
    R, vol_r = ctx.R, ctx.vol_R

    iso = region_constant(g, omega)
    rows = [
        _geometric_row(
            ctx, "cheeger/eigenvalue_vs_cheeger", lam, iso.beta * iso.beta / (2.0 * delta)
        ),
        make_report("cheeger/region_constant_vs_volume", iso.beta, 1.0 / vol_r, ">="),
    ]

    ball_bound = 1.0 / (R * vol_r)
    rows.append(_geometric_row(ctx, "cheeger/eigenvalue_vs_ball_volume", lam, ball_bound))
    route_bound = 1.0 / (2.0 * delta * vol_r * vol_r)
    stronger = ball_bound > route_bound
    rows.append(
        make_report(
            "cheeger/route_comparison",
            ball_bound,
            route_bound,
            ">=",
            vacuous=True,
            note=(
                "ball-volume route "
                + ("wins" if stronger else "does not win")
                + f"; R < 2*delta*vol[R] is {bool(R < 2.0 * delta * vol_r)}"
            ),
        )
    )
    return rows


def growth_diagnostic(md: MetricData, x: str) -> tuple[tuple[int, float], ...]:
    """Finite-box growth table of the metric's graph: (n, log vol(B_n(x)) / n)
    up to the eccentricity.

    Purely diagnostic; on a finite graph the ratios eventually decay like
    log(vol X)/n, so no pass/fail judgement is attached.
    """
    g = md.graph
    _require_combinatorial(g)
    row = md.dist[g.index[x]]
    eccentricity = int(np.floor(row.max()))
    table = []
    for n in range(1, eccentricity + 1):
        vol = float(np.count_nonzero(row <= n))
        table.append((n, float(np.log(vol) / n)))
    return tuple(table)
