"""Isoperimetric constants on combinatorial graphs and the bound chain.

All operations here require unit edge weights and unit vertex measure.
The region constant beta is the infimum over nonempty finite subsets S of
the region of (#boundary pairs of S) / (#S), where the boundary counts
ordered pairs (x, y) with x in S, y outside S, and an edge between them.
The infimum is computed exactly by bitmask enumeration; on a finite graph
this is feasible up to regions of 22 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import NotCombinatorial, TooLarge
from .graph import WeightedGraph, is_combinatorial
from .metric import MetricData, covering_radius
from .report import BoundReport, make_report
from .spectral import AnalysisContext
from .voronoi import build_voronoi

EXHAUSTIVE_CAP = 22


@dataclass(frozen=True)
class IsoperimetricData:
    """Exact region constant with its minimizing subset."""

    beta: float
    witness: tuple[str, ...]
    boundary_size: int
    volume: float


def _require_combinatorial(g: WeightedGraph) -> None:
    if not is_combinatorial(g):
        raise NotCombinatorial("operation needs b in {0,1} and m = 1")


def boundary_count(g: WeightedGraph, subset: Iterable[str]) -> int:
    """Ordered boundary pairs of a subset, counted by scanning neighbors."""
    inside = np.zeros(g.n, dtype=bool)
    inside[g.indices(subset)] = True
    count = 0
    for i in np.flatnonzero(inside):
        for j, _ in g.adjacency[int(i)]:
            if not inside[j]:
                count += 1
    return count


def beta_exhaustive(
    g: WeightedGraph, omega: Iterable[str], cap: int = EXHAUSTIVE_CAP
) -> IsoperimetricData:
    """Exact infimum of boundary/volume over nonempty subsets of the region.

    Enumerates all 2^k - 1 nonempty subsets with a vectorized sweep:
    boundary(S) = sum of degrees over S minus twice the edges inside S,
    where inside-edge counts satisfy a one-bit recursion over masks.
    Ties go to the lowest bitmask, so the witness is deterministic.
    """
    _require_combinatorial(g)
    omega = tuple(dict.fromkeys(omega))
    k = len(omega)
    if k == 0:
        raise ValueError("region must be nonempty")
    if k > cap:
        raise TooLarge(f"region has {k} vertices; exhaustive cap is {cap}")

    idx = [g.index[v] for v in omega]
    local = {gidx: pos for pos, gidx in enumerate(idx)}
    degrees = np.array([len(g.adjacency[i]) for i in idx], dtype=np.int64)
    adj_mask = np.zeros(k, dtype=np.uint32)
    for pos, gidx in enumerate(idx):
        bits = 0
        for j, _ in g.adjacency[gidx]:
            if j in local:
                bits |= 1 << local[j]
        adj_mask[pos] = bits

    full = 1 << k
    masks = np.arange(full, dtype=np.uint32)
    popcnt = np.bitwise_count(masks).astype(np.int64)
    low = masks & (~masks + np.uint32(1))
    rest = masks ^ low
    low_pos = np.zeros(full, dtype=np.int64)
    low_pos[1 << np.arange(k, dtype=np.uint64)] = np.arange(k)
    neighbors_in_rest = np.bitwise_count(adj_mask[low_pos[low]] & rest).astype(np.int64)

    inside_edges = np.zeros(full, dtype=np.int64)
    for c in range(2, k + 1):
        sel = np.flatnonzero(popcnt == c)
        inside_edges[sel] = inside_edges[rest[sel]] + neighbors_in_rest[sel]

    degree_sum = np.zeros(full, dtype=np.int64)
    for pos in range(k):
        degree_sum[(masks >> np.uint32(pos)) & np.uint32(1) == 1] += degrees[pos]

    boundary = degree_sum - 2 * inside_edges
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = boundary / popcnt
    ratio[0] = np.inf
    best = int(np.argmin(ratio))
    members = tuple(omega[pos] for pos in range(k) if best >> pos & 1)
    return IsoperimetricData(
        beta=float(ratio[best]),
        witness=members,
        boundary_size=int(boundary[best]),
        volume=float(popcnt[best]),
    )


def beta_voronoi_bound(ctx: AnalysisContext, cap: int = EXHAUSTIVE_CAP) -> BoundReport:
    """Voronoi lower bound: the region constant is at least 1/vol[R].

    R is the covering radius of the centers.  The true constant comes from
    exhaustive enumeration when the region fits under the cap; otherwise
    the row is emitted in bound-only mode and flagged.
    """
    g = ctx.graph
    _require_combinatorial(g)
    build_voronoi(g, ctx.centers)  # existence witness for the decomposition behind the bound
    omega = ctx.omega
    # Not ctx.R: the region may be empty here, and then only Covr(D) exists.
    R = covering_radius(ctx.metric, ctx.centers)
    bound = 1.0 / ctx.volumes.vol_bracket(R)
    if not omega:
        return make_report(
            "cheeger/region_constant_vs_volume", 0.0, bound, ">=",
            vacuous=True, note="region empty; constant is an infimum over nothing",
        )
    if len(omega) > cap:
        return make_report(
            "cheeger/region_constant_vs_volume", 0.0, bound, ">=",
            vacuous=True,
            note=f"region size {len(omega)} above exhaustive cap {cap}; bound-only",
        )
    iso = beta_exhaustive(g, omega, cap=cap)
    return make_report(
        "cheeger/region_constant_vs_volume", iso.beta, bound, ">=",
        note=f"witness size {int(iso.volume)}",
    )


def cheeger_chain(ctx: AnalysisContext, cap: int = EXHAUSTIVE_CAP) -> list[BoundReport]:
    """The full chain of lower bounds on a combinatorial graph.

    Rows: the Dirichlet ground energy against beta^2/(2 delta), the region
    constant against 1/vol[R], the ground energy against the ball-volume
    bound 1/(R vol[R]), and an informational comparison of the two routes
    (the ball-volume route wins exactly when R < 2 delta vol[R]).  R is the
    covering radius of the centers, which equals ctx.R (the inradius of the
    region) bit for bit.
    """
    g = ctx.graph
    _require_combinatorial(g)
    omega = ctx.omega
    if not ctx.centers or not omega:
        raise ValueError("need a nonempty penalty set and a nonempty region")

    delta = float(ctx.constants.max_degree)
    lam = ctx.lambda_omega
    R, vol_r = ctx.R, ctx.vol_R

    rows: list[BoundReport] = []
    if len(omega) <= cap:
        iso = beta_exhaustive(g, omega, cap=cap)
        rows.append(
            make_report(
                "cheeger/eigenvalue_vs_cheeger",
                lam,
                iso.beta * iso.beta / (2.0 * delta),
                ">=",
            )
        )
        rows.append(
            make_report(
                "cheeger/region_constant_vs_volume", iso.beta, 1.0 / vol_r, ">=",
            )
        )
    else:
        rows.append(
            make_report(
                "cheeger/eigenvalue_vs_cheeger", lam, 1.0 / (2.0 * delta * vol_r * vol_r), ">=",
                note=f"region above cap {cap}; asserting the volume form of the route",
            )
        )
        rows.append(
            make_report(
                "cheeger/region_constant_vs_volume", 0.0, 1.0 / vol_r, ">=",
                vacuous=True, note=f"region above cap {cap}; bound-only",
            )
        )

    ball_bound = 1.0 / (R * vol_r)
    rows.append(
        make_report("cheeger/eigenvalue_vs_ball_volume", lam, ball_bound, ">=")
    )
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


def growth_diagnostic(
    g: WeightedGraph, md: MetricData, x: str
) -> tuple[tuple[int, float], ...]:
    """Finite-box growth table: (n, log vol(B_n(x)) / n) up to the eccentricity.

    Purely diagnostic; on a finite graph the ratios eventually decay like
    log(vol X)/n, so no pass/fail judgement is attached.
    """
    _require_combinatorial(g)
    row = md.dist[g.index[x]]
    eccentricity = int(np.floor(row.max()))
    table = []
    for n in range(1, eccentricity + 1):
        vol = float(np.count_nonzero(row <= n))
        table.append((n, float(np.log(vol) / n)))
    return tuple(table)
