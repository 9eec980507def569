"""Voronoi decompositions with geodesic witnesses.

The construction is a multi-source shortest-path expansion started from all
centers at once.  Each settled vertex inherits the center label of the
neighbor that settled it, so by induction the predecessor chain of any
vertex is a geodesic from its center that stays inside its own cell, and
each prefix of a witness path is itself a witness.  Ties between equal
tentative distances are broken lexicographically by (distance,
center rank, vertex index, predecessor index); distances tie only when
they are bit-equal, never within a tolerance.

This yields, constructively, a decomposition whose cells each contain the
center, contain a geodesic to every member (cell-respecting), are
nearest-center, and cover the graph; every cell sits inside the closed
ball of the covering radius around its center.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import EmptyCenters
from .graph import WeightedGraph, _readonly
from .metric import MetricData
from .report import BoundReport, make_report

GEODESIC_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class VoronoiDecomposition:
    """Cell assignment with geodesic witnesses.

    label[i] is the index (into centers) of the cell owning vertex i;
    pred[i] is the predecessor vertex on its witness path (-1 at centers).
    """

    graph: WeightedGraph
    centers: tuple[str, ...]
    label: np.ndarray
    pred: np.ndarray

    def cell_of(self, x: str) -> str:
        return self.centers[int(self.label[self.graph.index[x]])]

    @cached_property
    def cells(self) -> dict[str, tuple[str, ...]]:
        members: dict[str, list[str]] = {p: [] for p in self.centers}
        for i, v in enumerate(self.graph.vertices):
            members[self.centers[int(self.label[i])]].append(v)
        return {p: tuple(vs) for p, vs in members.items()}

    def _witness_indices(self, i: int) -> list[int]:
        """The witness path to vertex index i, as indices, center first."""
        chain = [i]
        while self.pred[chain[-1]] >= 0:
            chain.append(int(self.pred[chain[-1]]))
        return chain[::-1]

    def witness(self, x: str) -> tuple[str, ...]:
        """Witness path from the owning center to x (center first)."""
        return tuple(self.graph.vertices[k] for k in self._witness_indices(self.graph.index[x]))


def build_voronoi(g: WeightedGraph, d_set: Iterable[str]) -> VoronoiDecomposition:
    """Construct a Voronoi decomposition with the given centers.

    Deterministic: centers are ranked by vertex index and ties resolve
    lexicographically, so identical inputs give identical assignments.
    """
    centers = tuple(sorted(set(d_set), key=g.index.__getitem__))
    if not centers:
        raise EmptyCenters()

    n = g.n
    label = np.full(n, -1, dtype=np.int64)
    pred = np.full(n, -1, dtype=np.int64)
    settled = np.zeros(n, dtype=bool)

    heap: list[tuple[float, int, int, int]] = []
    for rank, p in enumerate(centers):
        heapq.heappush(heap, (0.0, rank, g.index[p], -1))

    L = g.lengths
    indptr, indices, lengths = L.indptr.tolist(), L.indices.tolist(), L.data.tolist()
    remaining = n
    while heap and remaining:
        d, rank, v, via = heapq.heappop(heap)
        if settled[v]:
            continue
        settled[v] = True
        remaining -= 1
        label[v] = rank
        pred[v] = via
        for k in range(indptr[v], indptr[v + 1]):
            u = indices[k]
            if not settled[u]:
                heapq.heappush(heap, (d + lengths[k], rank, u, v))

    return VoronoiDecomposition(
        graph=g,
        centers=centers,
        label=_readonly(label),
        pred=_readonly(pred),
    )


def verify_voronoi(vd: VoronoiDecomposition, md: MetricData) -> list[BoundReport]:
    """Re-derive every decomposition axiom from the distance matrix alone.

    Emits one row per axiom group; a failing row is a report entry, not an
    exception.  The geodesic check walks each witness path over the actual
    edge set, so cells that are merely connected do not pass.
    """
    g = vd.graph
    n = g.n
    gi = g.index
    center_idx = np.array([gi[p] for p in vd.centers], dtype=np.intp)
    label = vd.label

    # (V1): witness paths are geodesics from the center and stay in the cell.
    worst_rel = 0.0
    containment_violations = 0
    # The length of each witness edge (pred[i], i), 0 where there is none;
    # a center's entry is never read.
    l_pred = np.asarray(g.lengths[np.maximum(vd.pred, 0), np.arange(n)]).ravel()
    for i in range(n):
        path = vd._witness_indices(i)
        if path[0] != int(center_idx[label[i]]):
            containment_violations += 1
            continue
        length = 0.0
        for a, b in zip(path, path[1:]):
            if label[a] != label[i] or l_pred[b] <= 0.0:
                containment_violations += 1
                break
            length += l_pred[b]
        else:
            true_d = float(md.dist[path[0], i])
            worst_rel = max(worst_rel, abs(length - true_d) / max(true_d, 1.0))

    rows = [
        make_report(
            "voronoi/geodesic_witness", worst_rel, GEODESIC_RTOL, "<=",
            note="worst relative gap between witness length and distance",
        ),
        make_report(
            "voronoi/witness_in_cell", float(containment_violations), 0.0, "<=",
            note="witness vertices outside their own cell",
        ),
    ]

    # (V2): each vertex is assigned to a nearest center.
    from_centers = md.dist[center_idx, :]
    nearest = from_centers.min(axis=0)
    assigned = from_centers[label, np.arange(n)]
    rows.append(
        make_report(
            "voronoi/nearest_center",
            float((assigned - nearest).max()),
            0.0,
            "<=",
            note="worst excess of assigned-center distance over the minimum",
        )
    )

    # (V3): cells partition the graph and every center owns itself.
    bad = int(np.count_nonzero((label < 0) | (label >= len(vd.centers))))
    for rank, ci in enumerate(center_idx):
        if label[ci] != rank:
            bad += 1
    rows.append(
        make_report(
            "voronoi/partition", float(bad), 0.0, "<=",
            note="unassigned vertices plus centers outside their own cell",
        )
    )

    # Containment: every cell fits in the covering-radius ball of its center;
    # the covering radius of the centers is the largest nearest-center distance.
    rows.append(
        make_report(
            "voronoi/cell_in_covering_ball", float(assigned.max()), float(nearest.max()), "<=",
        )
    )
    return rows
