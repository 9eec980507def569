"""Path metric, balls, volumes, inradius and covering radius.

The distance between two vertices is the infimum of path lengths, where an
edge of weight b contributes length 1/b.  All-pairs distances come from one
single-source shortest-path run per vertex over the graph's sparse edge
lengths (WeightedGraph.lengths); the predecessor structure of each run is
kept so a geodesic can be read back for any pair.  MetricData owns the
distance table and answers every query read off it, the ball-volume
brackets vol[s] and the sampled radii (quartiles) included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np
from scipy.sparse.csgraph import dijkstra as _dijkstra

from .errors import EmptyCenters, EmptyOmega, InvalidSpec
from .generators import DEFAULT_SEED
from .graph import WeightedGraph, _readonly
from .report import BoundReport, make_report

# The homogeneity ball_count row samples at most this many centres.
MAX_CENTERS = 24


@dataclass(frozen=True, eq=False)
class MetricData:
    """All-pairs distances plus one geodesic tree per source vertex.

    dist[i, j] is the length of a shortest path from vertex i to vertex j.
    pred[i, j] is the predecessor of j on such a path from source i, as
    scipy returns it: int32, and negative (-9999) where there is none, at
    the source itself and at every vertex it cannot reach.

    vol_bracket(s) is vol[s], the supremum of closed-ball volumes of radius
    s over all centers; vol_bracket_within and vol_bracket_centers are its
    two refinements.  quartiles holds the one sample of the distance
    distribution that the homogeneity radii and the doubling scales read.
    """

    graph: WeightedGraph
    dist: np.ndarray
    pred: np.ndarray

    def d(self, x: str, y: str) -> float:
        gi = self.graph.index
        return float(self.dist[gi[x], gi[y]])

    @cached_property
    def quartiles(self) -> tuple[float, ...]:
        """The 0.25, 0.5, 0.75 and 1.0 quantiles of the positive distances,
        () on a single vertex: the sampled radii of the homogeneity rows and
        the doubling scales.  The masked sample is a fresh copy, sorted in
        place (np.quantile partitions a sorted array much faster) and
        dropped; only the four floats are kept."""
        sample = self.dist[self.dist > 0.0]
        if not sample.size:
            return ()
        sample.sort()
        return tuple(float(q) for q in np.quantile(sample, (0.25, 0.5, 0.75, 1.0)))

    @cached_property
    def _brackets(self) -> dict[float, float]:
        return {}

    def vol_bracket(self, s: float) -> float:
        """vol[s], evaluated once per distinct s (a report reuses vol[R])."""
        if s not in self._brackets:
            self._brackets[s] = float(((self.dist <= s) @ self.graph.m).max())
        return self._brackets[s]

    def vol_bracket_within(self, s: float, subset: Iterable[str]) -> float:
        """sup over x of m(B_s(x) intersected with the given subset)."""
        mask = np.zeros(self.graph.n)
        mask[self.graph.indices(subset)] = 1.0
        restricted = self.graph.m * mask
        return float(((self.dist <= s) @ restricted).max())

    def vol_bracket_centers(self, s: float, centers: Iterable[str]) -> float:
        """sup over the given centers only of m(B_s(p)); EmptyCenters when
        there are none."""
        idx = self.graph.indices(centers)
        if idx.size == 0:
            raise EmptyCenters()
        return float(((self.dist[idx, :] <= s) @ self.graph.m).max())


def compute_metric(g: WeightedGraph) -> MetricData:
    """All-pairs shortest paths under edge length 1/b, with witnesses."""
    dist, pred = _dijkstra(g.lengths, directed=True, return_predecessors=True)
    return MetricData(g, _readonly(dist), _readonly(pred))


def geodesic(md: MetricData, x: str, y: str) -> tuple[str, ...]:
    """One shortest path from x to y, read from the predecessor tree."""
    gi = md.graph.index
    i, j = gi[x], gi[y]
    chain = [j]
    while chain[-1] != i:
        p = int(md.pred[i, chain[-1]])
        if p < 0:
            raise ValueError(f"no path recorded from {x!r} to {y!r}")
        chain.append(p)
    chain.reverse()
    return tuple(md.graph.vertices[k] for k in chain)


def ball(md: MetricData, x: str, r: float, closed: bool = True) -> tuple[str, ...]:
    """Closed ball {y : d(x,y) <= r} or open ball {y : d(x,y) < r}.

    Membership compares the stored distances exactly; no tolerance.
    """
    if r < 0.0:
        raise ValueError("radius must be nonnegative")
    if x not in md.graph.index:
        raise InvalidSpec(f"unknown ball center id: {x!r}")
    row = md.dist[md.graph.index[x]]
    mask = row <= r if closed else row < r
    return tuple(md.graph.vertices[k] for k in np.flatnonzero(mask))


def inradius(md: MetricData, omega: Iterable[str]) -> float:
    """Largest r such that some open ball U_r(x), x in omega, stays in omega.

    On a finite graph this equals max over x in omega of the distance from
    x to the complement D = X \\ omega.  EmptyOmega when omega is empty,
    EmptyCenters when omega is the whole graph (D is empty, so no point
    lies outside).
    """
    g = md.graph
    omega = tuple(omega)
    if not omega:
        raise EmptyOmega()
    if len(set(omega)) == g.n:
        raise EmptyCenters()
    omega_idx = g.indices(omega)
    d_idx = g.indices(g.complement(omega))
    # Rows indexed by complement points: same entries the covering radius
    # reads, so Covr(D) == Inr(X \ D) holds bit-for-bit.
    colmin = md.dist[d_idx, :].min(axis=0)
    return float(colmin[omega_idx].max())


def covering_radius(md: MetricData, d_set: Iterable[str]) -> float:
    """Smallest R with X covered by closed R-balls around the given centers;
    EmptyCenters when there are none."""
    g = md.graph
    centers = tuple(d_set)
    if not centers:
        raise EmptyCenters()
    d_idx = g.indices(centers)
    colmin = md.dist[d_idx, :].min(axis=0)
    return float(colmin.max())


def check_homogeneity(
    g: WeightedGraph,
    md: MetricData,
    seed: int = DEFAULT_SEED,
) -> list[BoundReport]:
    """Verify the two uniform-geometry estimates on sampled balls.

    Row 1: every pair of distinct vertices is at distance >= 1/b_max.
    Row 2: for sampled (x, r), the cardinality of B_r(x) stays below
    (r * delta * m_max)^(r * b_max) + 1.  A violated row signals an
    implementation bug, not a property of the graph.

    Row 2 samples up to MAX_CENTERS centres at 0.5 / b_max and at
    md.quartiles (the quartiles and maximum of the positive distances).
    Every (centre, radius) ball is counted in one array pass; the row
    reports the first smallest margin bound - count in centre-major order,
    the sample a loop over centres, then radii, keeping each strictly
    smaller margin would report.  A single vertex has neither pairs nor
    radii, so both its rows are vacuous.
    """
    c = g.constants
    if g.n == 1:
        return [
            make_report(
                "homogeneity/min_distance", 0.0, 0.0, ">=",
                vacuous=True, note="single vertex; no pairs",
            ),
            make_report(
                "homogeneity/ball_count", 1.0, 2.0, "<=",
                vacuous=True, note="no radii sampled",
            ),
        ]
    # On n >= 2 vertices (connected, as g.constants checked) b_max > 0 and
    # there are positive distances.  The shortest edge is the closest pair:
    # Dijkstra gives a one-edge path the length 0.0 + 1/w, and a longer path
    # is no shorter than its own shortest edge.
    rows = [
        make_report(
            "homogeneity/min_distance", float(g.lengths.data.min()), 1.0 / c.b_max, ">=",
        )
    ]

    rng = np.random.default_rng(seed)
    if g.n <= MAX_CENTERS:
        centers = np.arange(g.n)
    else:
        centers = rng.choice(g.n, size=MAX_CENTERS, replace=False)
        centers.sort()
    radii = [0.5 / c.b_max, *md.quartiles]

    # The bound depends on r alone: one scalar power per radius (numpy's
    # vectorised power may round differently from the scalar one).
    bounds = []
    for r in radii:
        with np.errstate(over="ignore"):
            bound = float(np.power(r * c.delta * c.m_max, r * c.b_max)) + 1.0
        bounds.append(float(min(bound, np.finfo(float).max)))
    # Every (centre, radius) ball at once; margins in centre-major order.
    counts = np.count_nonzero(md.dist[centers][:, :, None] <= np.array(radii), axis=1)
    margins = (np.array(bounds) - counts).ravel()
    # The first smallest margin.  A quantile radius is NaN when distances
    # overflow to inf; its margins are NaN and never chosen, while the
    # first radius, 0.5 / b_max, always gives numbers.
    k = int(np.argmin(np.where(np.isnan(margins), np.inf, margins)))
    x, ri = divmod(k, len(radii))
    r = radii[ri]
    rows.append(
        make_report(
            "homogeneity/ball_count", float(counts[x, ri]), bounds[ri], "<=",
            note=f"tightest sample at x={g.vertices[int(centers[x])]} r={r!r}",
        )
    )
    return rows
