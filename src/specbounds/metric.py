"""Path metric, balls, volumes, inradius and covering radius.

The distance between two vertices is the infimum of path lengths, where an
edge of weight b contributes length 1/b.  All-pairs distances come from one
single-source shortest-path run per vertex over the graph's sparse edge
lengths (WeightedGraph.lengths); only the distances are kept.  From
2 * ROWS_PER_WORKER vertices on, compute_metric splits those runs over
forked worker processes, one per usable CPU, which write their rows
straight into one shared mapping that holds the table; every row is still
its own run, so the table has the same bits at any worker count.
MetricData owns the distance table and answers every query read off it,
each with one implementation: the ball-volume brackets vol[s] and its two
refinements are one blocked product (ball_mass_max), the sampled radii
(quartiles) one blocked selection, and the inradius the covering radius of
the complement.
None forms an n x n temporary.  covering_radius_by_search reads no table:
one multi-source Dijkstra run checks the table's covering radius.  A
geodesic is read back from scipy's predecessors, which only a read of
MetricData.pred asks Dijkstra for.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np
from scipy.sparse.csgraph import dijkstra as _dijkstra

from .errors import EmptyCenters, EmptyOmega, InvalidSpec
from .generators import DEFAULT_SEED
from .graph import WeightedGraph, _readonly
from .report import BoundReport, make_report

# The homogeneity ball_count row samples at most this many centres.
MAX_CENTERS = 24


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
# compute_metric gives each worker process at least this many rows of the
# distance table, so graphs below 2 * ROWS_PER_WORKER vertices take one
# Dijkstra call in the calling process.
ROWS_PER_WORKER = 256


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


def ball_mass_max(
    dist: np.ndarray, s: float, weights: np.ndarray, rows: int, centers: np.ndarray | None = None
) -> float:
    """((dist[centers] <= s) @ weights).max(), all rows when centers is None,
    one block of `rows` rows at a time: each row's sum is the same
    matrix-vector product over the same row, and only a block of the
    centre rows is ever copied or cast.  OpenBLAS may split one product
    over its threads at a row that does not start a group of four, so a row
    sum at such a split can round differently in the whole-table product
    (and differs between thread counts there as well); the blocked sums do
    not."""
    if centers is None:
        blocks = _row_blocks(len(dist), rows)
    else:
        blocks = [centers[block] for block in _row_blocks(len(centers), rows)]
    return max(float(((dist[block] <= s) @ weights).max()) for block in blocks)


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
    two refinements, all three read by ball_mass_max.  quartiles holds the
    one sample of the distance distribution that the homogeneity rows and
    the doubling scales read, selected from dist without copying it.
    pred, the geodesic trees, is scipy's predecessor table, asked of
    Dijkstra on first read; no report stage reads it.
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
        i, as scipy's Dijkstra returns it: int32, and -9999 at the source
        itself and at every vertex it cannot reach.  compute_metric keeps
        the distances only, so the first read runs Dijkstra again, with
        predecessors, and keeps the read-only n x n table."""
        _, pred = _dijkstra(self.graph.lengths, directed=True, return_predecessors=True)
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
        return ball_mass_max(self.dist, s, self.graph.m, _block_rows(self.graph.n), idx)


def _workers(n: int) -> int:
    """Processes that compute an n-row distance table: one per usable CPU,
    each with at least ROWS_PER_WORKER rows; 1 where os.fork or
    os.sched_getaffinity is missing."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n // ROWS_PER_WORKER))


def compute_metric(g: WeightedGraph) -> MetricData:
    """All-pairs shortest paths under edge length 1/b.

    Below 2 * ROWS_PER_WORKER vertices, or with one usable CPU, this is one
    Dijkstra call over all sources.  Otherwise the table is one anonymous
    shared mapping and its rows split into w contiguous shares (_workers):
    this process fills the first and a forked child each other one, all
    through _fill_rows, straight into the table.  A child exits 0 only
    after its last row is written, so its exit status is the only sign
    that its share is done; a nonzero one raises ChildProcessError.  Every
    row is its own single-source run, so the table has the same bits at
    any worker count.  When this process raises (its own share, a later
    fork, a signal handler), every started child is killed; every child is
    reaped before the call returns or raises.
    """
    n = g.n
    workers = _workers(n)
    if workers == 1:
        return MetricData(g, _readonly(_dijkstra(g.lengths, directed=True)))
    # Imported only where the table is split; a serial run needs neither.
    import mmap
    import signal

    dist = np.frombuffer(mmap.mmap(-1, n * n * 8)).reshape(n, n)
    cuts = [n * k // workers for k in range(workers + 1)]
    first, *shares = (slice(a, b) for a, b in zip(cuts, cuts[1:]))
    pids: list[int] = []
    try:
        for rows in shares:
            if (pid := os.fork()) == 0:
                # The child runs no BLAS, flushes no stdio buffer and runs
                # no atexit handler; any exception ends it with status 1.
                status = 1
                try:
                    _fill_rows(dist, g.lengths, rows)
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
        _fill_rows(dist, g.lengths, first)
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for rows, status in zip(shares, statuses):
        if status:
            raise ChildProcessError(
                f"distance rows {rows.start}-{rows.stop - 1}: worker exited with status {status}"
            )
    return MetricData(g, _readonly(dist))


def _fill_rows(dist: np.ndarray, lengths, rows: slice) -> None:
    """Compute the distance rows of one share straight into dist, in
    blocks of _block_rows(n) sources."""
    step = _block_rows(len(dist))
    for a in range(rows.start, rows.stop, step):
        b = min(a + step, rows.stop)
        dist[a:b] = _dijkstra(lengths, directed=True, indices=np.arange(a, b))


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
    x to the complement D = X \\ omega, which is the covering radius of D:
    the distance from D to a vertex of D is 0, so the maximum over all
    vertices is the same float, and Covr(D) == Inr(X \\ D) holds bit for
    bit.  EmptyOmega when omega is empty, EmptyCenters when omega is the
    whole graph (D is empty, so no point lies outside), and KeyError on an
    id that is not a vertex.
    """
    g = md.graph
    inside = g.indices(omega)
    if not inside.size:
        raise EmptyOmega()
    return covering_radius(md, np.delete(g.vertices, inside))


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


def covering_radius_by_search(g: WeightedGraph, d_set: Iterable[str]) -> float:
    """The covering radius of the given centers from one multi-source
    Dijkstra run (min_only), which reads no distance table: the check
    that covering_radius, and with it the inradius, read the right rows.
    EmptyCenters when there are none."""
    d_idx = g.indices(tuple(d_set))
    if not d_idx.size:
        raise EmptyCenters()
    return float(_dijkstra(g.lengths, directed=True, indices=d_idx, min_only=True).max())


def check_homogeneity(md: MetricData, seed: int = DEFAULT_SEED) -> list[BoundReport]:
    """Verify the two uniform-geometry estimates on sampled balls of the
    metric's graph.

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
    g = md.graph
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
