"""Path metric, balls, volumes, inradius and covering radius.

The distance between two vertices is the infimum of path lengths, where an
edge of weight b contributes length 1/b.  All-pairs distances come from one
single-source shortest-path run per vertex over the graph's sparse edge
lengths (WeightedGraph.lengths); the predecessor structure of each run is
kept so a geodesic can be read back for any pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np
from scipy.sparse.csgraph import dijkstra as _dijkstra

from .errors import EmptySet, FullSet, InvalidSpec
from .generators import DEFAULT_SEED
from .graph import GeometryConstants, WeightedGraph, _readonly, validate
from .report import BoundReport, make_report


@dataclass(frozen=True, eq=False)
class MetricData:
    """All-pairs distances plus one geodesic tree per source vertex.

    dist[i, j] is the length of a shortest path from vertex i to vertex j.
    pred[i, j] is the predecessor of j on such a path from source i
    (-1 at the source itself).
    """

    graph: WeightedGraph
    dist: np.ndarray
    pred: np.ndarray

    def d(self, x: str, y: str) -> float:
        gi = self.graph.index
        return float(self.dist[gi[x], gi[y]])

    @cached_property
    def positive_distances(self) -> np.ndarray:
        """Every positive entry of dist, sorted ascending: the sample whose
        quantiles the homogeneity radii and the doubling scales read.
        Sorted once, it is partitioned much faster by each np.quantile."""
        return _readonly(np.sort(self.dist[self.dist > 0.0]))


def compute_metric(g: WeightedGraph) -> MetricData:
    """All-pairs shortest paths under edge length 1/b, with witnesses."""
    dist, pred = _dijkstra(g.lengths, directed=True, return_predecessors=True)
    pred = pred.astype(np.int64)
    pred[pred < 0] = -1
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
    x to the complement.
    """
    g = md.graph
    omega = tuple(omega)
    if not omega:
        raise EmptySet("inradius of the empty set is undefined")
    if len(set(omega)) == g.n:
        raise FullSet("inradius of the whole vertex set is undefined")
    omega_idx = g.indices(omega)
    d_idx = g.indices(g.complement(omega))
    # Rows indexed by complement points: same entries the covering radius
    # reads, so Covr(D) == Inr(X \ D) holds bit-for-bit.
    colmin = md.dist[d_idx, :].min(axis=0)
    return float(colmin[omega_idx].max())


def covering_radius(md: MetricData, d_set: Iterable[str]) -> float:
    """Smallest R with X covered by closed R-balls around the given centers."""
    g = md.graph
    centers = tuple(d_set)
    if not centers:
        raise EmptySet("covering radius of the empty set is undefined")
    d_idx = g.indices(centers)
    colmin = md.dist[d_idx, :].min(axis=0)
    return float(colmin.max())


@dataclass(frozen=True, eq=False)
class BallVolumeTable:
    """Ball-volume queries over a fixed metric.

    vol_bracket(s) is the supremum of closed-ball volumes of radius s over
    all centers.
    """

    md: MetricData

    @cached_property
    def _brackets(self) -> dict[float, float]:
        return {}

    def vol_bracket(self, s: float) -> float:
        """vol[s], evaluated once per distinct s (a report reuses vol[R])."""
        if s not in self._brackets:
            self._brackets[s] = float(((self.md.dist <= s) @ self.md.graph.m).max())
        return self._brackets[s]

    def vol_bracket_within(self, s: float, subset: Iterable[str]) -> float:
        """sup over x of m(B_s(x) intersected with the given subset)."""
        mask = np.zeros(self.md.graph.n)
        mask[self.md.graph.indices(subset)] = 1.0
        restricted = self.md.graph.m * mask
        return float(((self.md.dist <= s) @ restricted).max())

    def vol_bracket_centers(self, s: float, centers: Iterable[str]) -> float:
        """sup over the given centers only of m(B_s(p))."""
        idx = self.md.graph.indices(centers)
        if idx.size == 0:
            raise EmptySet("no centers supplied")
        return float(((self.md.dist[idx, :] <= s) @ self.md.graph.m).max())


def check_homogeneity(
    g: WeightedGraph,
    md: MetricData,
    constants: GeometryConstants | None = None,
    max_centers: int = 24,
    seed: int = DEFAULT_SEED,
) -> list[BoundReport]:
    """Verify the two uniform-geometry estimates on sampled balls.

    Row 1: every pair of distinct vertices is at distance >= 1/b_max.
    Row 2: for sampled (x, r), the cardinality of B_r(x) stays below
    (r * delta * m_max)^(r * b_max) + 1.  A violated row signals an
    implementation bug, not a property of the graph.

    Row 2 samples up to max_centers centres at 0.5 / b_max and at the
    quartiles and maximum of the distances.  Every (centre, radius) ball is
    counted in one array pass; the row reports the first smallest margin
    bound - count in centre-major order, the sample a loop over centres,
    then radii, keeping each strictly smaller margin would report.
    """
    c = constants if constants is not None else validate(g)
    rows: list[BoundReport] = []

    if g.n == 1 or c.b_max == 0.0:
        rows.append(
            make_report(
                "homogeneity/min_distance", 0.0, 0.0, ">=",
                vacuous=True, note="single vertex; no pairs",
            )
        )
    else:
        # The shortest edge is the closest pair: Dijkstra gives a one-edge
        # path the length 0.0 + 1/w, and a longer path is no shorter than
        # its own shortest edge.
        rows.append(
            make_report(
                "homogeneity/min_distance",
                float(g.lengths.data.min()),
                1.0 / c.b_max,
                ">=",
            )
        )

    rng = np.random.default_rng(seed)
    if g.n <= max_centers:
        centers = np.arange(g.n)
    else:
        centers = rng.choice(g.n, size=max_centers, replace=False)
        centers.sort()

    finite = md.positive_distances
    radii: list[float] = []
    if c.b_max > 0.0:
        radii.append(0.5 / c.b_max)
    if finite.size:
        radii.extend(float(q) for q in np.quantile(finite, (0.25, 0.5, 0.75, 1.0)))

    if not radii:
        rows.append(
            make_report(
                "homogeneity/ball_count", 1.0, 2.0, "<=",
                vacuous=True, note="no radii sampled",
            )
        )
        return rows

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
