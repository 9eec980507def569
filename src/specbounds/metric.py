"""Path metric, balls, volumes, inradius and covering radius.

The distance between two vertices is the infimum of path lengths, where an
edge of weight b contributes length 1/b.  All-pairs distances come from one
single-source shortest-path run per vertex over the graph's sparse edge
lengths (WeightedGraph.lengths); only the distances are kept.  MetricData
owns the distance table and answers every query read off it, the
ball-volume brackets vol[s] and the sampled radii (quartiles) included;
those two read the table in blocks of rows and form no n x n temporary.
A geodesic is read back from the predecessors, which MetricData derives
from the table only when something asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import dijkstra as _dijkstra

from .errors import EmptyCenters, EmptyOmega, InvalidSpec
from .generators import DEFAULT_SEED
from .graph import WeightedGraph, _readonly
from .report import BoundReport, make_report

# The homogeneity ball_count row samples at most this many centres.
MAX_CENTERS = 24
# MetricData.pred at the source and at every vertex it cannot reach, as
# scipy's shortest-path routines write it.
NO_PREDECESSOR = -9999


# The distance table is read in blocks of whole rows holding about this many
# entries (512 KiB of float64), so no temporary of the ball masses or of the
# quartile selection is larger than a few blocks.
BLOCK_ENTRIES = 1 << 16
# The quantile levels of MetricData.quartiles.
QUARTILE_LEVELS = (0.25, 0.5, 0.75, 1.0)
# The selection sorts the candidates of a key range once they number at most
# _GATHER_MAX (all pending ranges together stay within one block); a larger
# range is counted in at most 2**_BUCKET_BITS buckets instead.
_GATHER_MAX = BLOCK_ENTRIES // 8
_BUCKET_BITS = 12
_KEY_MAX = int(np.iinfo(np.int64).max)


def _block_rows(n: int) -> int:
    """Rows per block of an n-column table: about BLOCK_ENTRIES entries, and
    a multiple of 8, so every block starts where OpenBLAS's matrix-vector
    kernels, which take rows four at a time, start a group in the whole
    table too."""
    return max(8, BLOCK_ENTRIES // max(n, 1) // 8 * 8)


def _row_blocks(n: int, rows: int) -> list[slice]:
    """Consecutive slices of `rows` rows covering n rows.  A last slice of
    one row joins the one before it: numpy multiplies a one-row matrix by a
    vector as a dot product, which sums in another order than the
    matrix-vector product does."""
    starts = list(range(0, n, rows))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], n])]


def ball_mass_max(dist: np.ndarray, s: float, weights: np.ndarray, rows: int) -> float:
    """((dist <= s) @ weights).max(), one block of `rows` rows at a time:
    each row's sum is the same matrix-vector product over the same row.
    OpenBLAS may split one product over its threads at a row that does not
    start a group of four, so a row sum at such a split can round
    differently in the whole-table product (and differs between thread
    counts there as well)."""
    return max(
        float(((dist[block] <= s) @ weights).max()) for block in _row_blocks(len(dist), rows)
    )


def positive_quantiles(dist: np.ndarray, rows: int) -> tuple[float, ...]:
    """np.quantile(dist[dist > 0], QUARTILE_LEVELS) bit for bit, as floats;
    () when no entry is positive.  dist holds no NaN.

    No sample of the positive entries is formed.  The table is read in
    blocks of `rows` rows, each entry as the int64 key of its float64 bits,
    which orders nonnegative floats, inf included, as their values.  One
    pass counts the positive entries and finds the smallest and largest;
    _order_statistics then finds the entries at the ranks numpy
    interpolates between, and the interpolation is numpy's own: the same
    virtual indexes, weights and lerp, so a quantile that touches an inf
    entry is NaN as np.quantile makes it.
    """
    count, lo, hi = 0, _KEY_MAX, 0
    for keys in _key_blocks(dist, rows):
        positive = keys > 0
        if size := int(np.count_nonzero(positive)):
            count += size
            lo = min(lo, int(keys.min(where=positive, initial=_KEY_MAX)))
            hi = max(hi, int(keys.max()))
    if not count:
        return ()
    # numpy's linear method: virtual index (count - 1) q between the ranks
    # floor and floor + 1, and -1 (the largest) from the last rank on.
    levels = np.asarray(QUARTILE_LEVELS)
    virtual = (count - 1) * levels
    below = np.floor(virtual)
    above = below + 1
    last = virtual >= count - 1
    below[last] = above[last] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    gamma = virtual - below
    ranks = {int(r) % count for r in (*below, *above)}
    found = _order_statistics(dist, rows, ranks, count, lo, hi)
    a = np.array([found[r % count] for r in below]).view(np.float64)
    b = np.array([found[r % count] for r in above]).view(np.float64)
    diff = b - a
    lerp = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=lerp, where=gamma >= 0.5)
    return tuple(float(q) for q in lerp)


def _key_blocks(dist: np.ndarray, rows: int) -> Iterator[np.ndarray]:
    """Each row block of dist as one flat array of int64 keys (a view when
    dist is C-contiguous)."""
    for block in _row_blocks(len(dist), rows):
        yield np.ascontiguousarray(dist[block]).view(np.int64).ravel()


def _order_statistics(
    dist: np.ndarray, rows: int, ranks: set[int], count: int, lo: int, hi: int
) -> dict[int, int]:
    """The keys at the given ranks (0-based, ascending) among the `count`
    positive keys of dist, which all lie in [lo, hi].

    Each pending key range [lo, hi] holds `before` positive keys below lo,
    `size` keys inside, and some of the ranks.  A range of one key answers
    its ranks.  A range of at most _GATHER_MAX keys is gathered and sorted.
    A larger one is counted in buckets of 2**shift keys, and each rank goes
    on in its bucket, narrowed to the smallest and largest key the range
    holds: a bucket of many equal keys is answered by the next pass.  One
    pass over the table serves every pending range.
    """
    found = {0: lo, count - 1: hi}
    pending = [(lo, hi, 0, count, sorted(ranks - found.keys()))]
    while pending:
        spans = []
        for lo, hi, before, size, want in pending:
            if lo == hi:
                found.update(dict.fromkeys(want, lo))
            elif size <= _GATHER_MAX:
                spans.append((lo, hi, before, want, None, []))
            else:
                shift = max((hi - lo).bit_length() - _BUCKET_BITS, 0)
                counts = np.zeros(((hi - lo) >> shift) + 1, dtype=np.intp)
                # The bucket counts, then the smallest and largest key inside.
                spans.append((lo, hi, before, want, shift, [counts, hi, lo]))
        pending = []
        for keys in _key_blocks(dist, rows):
            for lo, hi, _, _, shift, seen in spans:
                inside = keys[(keys >= lo) & (keys <= hi)]
                if shift is None:
                    seen.append(inside)
                elif inside.size:
                    seen[0] += np.bincount((inside - lo) >> shift, minlength=seen[0].size)
                    seen[1] = min(seen[1], int(inside.min()))
                    seen[2] = max(seen[2], int(inside.max()))
        for lo, hi, before, want, shift, seen in spans:
            if shift is None:
                keys = np.concatenate(seen)
                keys.sort()
                found.update((r, int(keys[r - before])) for r in want)
                continue
            counts, first, last = seen
            ends = np.cumsum(counts)
            buckets: dict[int, list[int]] = {}
            for r in want:
                k = int(np.searchsorted(ends, r - before, side="right"))
                buckets.setdefault(k, []).append(r)
            for k, rs in buckets.items():
                start = lo + (k << shift)
                pending.append((
                    max(start, first),
                    min(start + (1 << shift) - 1, last),
                    before + (int(ends[k - 1]) if k else 0),
                    int(counts[k]),
                    rs,
                ))
    return found


@dataclass(frozen=True, eq=False)
class MetricData:
    """All-pairs distances, and the queries read off them.

    dist[i, j] is the length of a shortest path from vertex i to vertex j,
    the only n x n array a metric holds; every query below reads it in
    blocks of _block_rows(n) rows.

    vol_bracket(s) is vol[s], the supremum of closed-ball volumes of radius
    s over all centers; vol_bracket_within and vol_bracket_centers are its
    two refinements.  quartiles holds the one sample of the distance
    distribution that the homogeneity rows and the doubling scales read,
    selected from dist without copying it.  pred, the geodesic trees, is
    derived from dist on first use; no report stage reads it.
    """

    graph: WeightedGraph
    dist: np.ndarray

    def d(self, x: str, y: str) -> float:
        gi = self.graph.index
        return float(self.dist[gi[x], gi[y]])

    @cached_property
    def quartiles(self) -> tuple[float, ...]:
        """The 0.25, 0.5, 0.75 and 1.0 quantiles of the positive distances,
        () on a single vertex: the sampled radii of the homogeneity rows and
        the doubling scales.  positive_quantiles selects them exactly, bit
        for bit np.quantile's floats, with no copy of the n^2 distances;
        only the four floats are kept."""
        return positive_quantiles(self.dist, _block_rows(self.graph.n))

    @cached_property
    def pred(self) -> np.ndarray:
        """pred[i, j], the predecessor of j on a shortest path from source
        i, in scipy's convention: int32, and NO_PREDECESSOR (-9999) at the
        source itself and at every vertex it cannot reach.  Derived from
        dist: u is tight for j when dist[i, u] + L[u, j] == dist[i, j] bit
        for bit, and pred[i, j] is the first u in lengths' CSR order that
        is tight and strictly closer to i.  Dijkstra set dist[i, j] by
        exactly such an add, so a reachable j != i has a tight neighbour;
        it is strictly closer unless L[u, j] is below half an ulp of
        dist[i, j], and then _join_ties picks one.  An inf distance is
        skipped: there inf + L == inf holds for every neighbour at distance
        inf too.  Sources are taken in blocks of about BLOCK_ENTRIES
        (source, CSR entry) pairs; the n x n int32 table is kept once
        formed."""
        n, L = self.graph.n, self.graph.lengths
        pred = np.full((n, n), NO_PREDECESSOR, dtype=np.int32)
        if not L.nnz:
            return _readonly(pred)
        owner = np.repeat(np.arange(n), np.diff(L.indptr))
        has = np.flatnonzero(np.diff(L.indptr))
        entry = np.arange(L.nnz)
        named = np.append(L.indices, NO_PREDECESSOR)
        ties = []
        for block in _row_blocks(n, max(1, BLOCK_ENTRIES // L.nnz)):
            near = self.dist[block][:, L.indices]
            target = self.dist[block][:, owner]
            tight = (near + L.data == target) & (near < target) & (target < np.inf)
            # The first tight entry of each vertex's CSR row, L.nnz for none.
            first = np.minimum.reduceat(np.where(tight, entry, L.nnz), L.indptr[has], axis=1)
            pred[block, has] = named[first]
            reached = self.dist[block][:, has]
            lacking = (first == L.nnz) & (reached > 0.0) & (reached < np.inf)
            ties.extend(block.start + np.flatnonzero(lacking.any(axis=1)))
        for i in ties:
            _join_ties(pred[i], self.dist[i], L)
        return _readonly(pred)

    @cached_property
    def _brackets(self) -> dict[float, float]:
        return {}

    def vol_bracket(self, s: float) -> float:
        """vol[s], evaluated once per distinct s (a report reuses vol[R])."""
        if s not in self._brackets:
            self._brackets[s] = ball_mass_max(self.dist, s, self.graph.m, _block_rows(self.graph.n))
        return self._brackets[s]

    def vol_bracket_within(self, s: float, subset: Iterable[str]) -> float:
        """sup over x of m(B_s(x) intersected with the given subset)."""
        mask = np.zeros(self.graph.n)
        mask[self.graph.indices(subset)] = 1.0
        restricted = self.graph.m * mask
        return ball_mass_max(self.dist, s, restricted, _block_rows(self.graph.n))

    def vol_bracket_centers(self, s: float, centers: Iterable[str]) -> float:
        """sup over the given centers only of m(B_s(p)); EmptyCenters when
        there are none."""
        idx = self.graph.indices(centers)
        if idx.size == 0:
            raise EmptyCenters()
        return float(((self.dist[idx, :] <= s) @ self.graph.m).max())


def _join_ties(pred: np.ndarray, dist: np.ndarray, L: sparse.csr_matrix) -> None:
    """Complete one source's predecessor row where no tight neighbour is
    strictly closer: the tight neighbours of such a j lie at its own
    distance, and j takes the first, in CSR order, that has joined the tree
    already, sweep by sweep.  Each j is joined through one that joined
    before it, so no chain cycles."""
    left = np.flatnonzero((pred < 0) & (dist > 0.0) & (dist < np.inf)).tolist()
    while left:
        rest = []
        for j in left:
            span = slice(L.indptr[j], L.indptr[j + 1])
            for u, length in zip(L.indices[span], L.data[span]):
                if pred[u] >= 0 and dist[u] + length == dist[j]:
                    pred[j] = u
                    break
            else:
                rest.append(j)
        if len(rest) == len(left):
            return  # no tight chain reaches them; Dijkstra's distances always have one
        left = rest


def compute_metric(g: WeightedGraph) -> MetricData:
    """All-pairs shortest paths under edge length 1/b."""
    return MetricData(g, _readonly(_dijkstra(g.lengths, directed=True)))


def geodesic(md: MetricData, x: str, y: str) -> tuple[str, ...]:
    """One shortest path from x to y, read from the predecessor tree.  A
    chain that reaches no predecessor, or passes n vertices without
    reaching x, is refused."""
    gi = md.graph.index
    i, j = gi[x], gi[y]
    chain = [j]
    while chain[-1] != i:
        p = int(md.pred[i, chain[-1]])
        if p < 0 or len(chain) == md.graph.n:
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
