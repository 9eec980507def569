"""Weighted graph data model.

A graph is a finite vertex list with a positive finite measure ``m`` per
vertex, symmetric positive finite edge weights ``b`` with zero diagonal,
and an optional finite potential per vertex.  Edge weights are stored once
per unordered pair, so symmetry holds by construction; the symmetric view
is one sparse matrix, built on first use.  No n x n array is formed.  The
constructor refuses any graph that breaks one of these hypotheses, so every
WeightedGraph satisfies them; connectedness, the one hypothesis that needs
a traversal, is checked when the geometry constants are first read.
Instances are immutable and safe to share between threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order

from .errors import (
    DisconnectedGraph,
    GraphFormatError,
    NegativeEdgeWeight,
    NonFinitePotential,
    NonPositiveMeasure,
    NonSymmetricWeights,
    NonzeroDiagonal,
)


# Rows of the dense weight matrix that weighted_degree holds at once.
DEGREE_BLOCK = 256


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GeometryConstants:
    """Uniform geometry constants of a connected graph.

    delta: sup over x of (1/m(x)) sum_y b(x,y); makes the operator bounded.
    max_degree: maximal neighbor count; equals delta on combinatorial graphs.
    """

    delta: float
    m_max: float
    b_max: float
    operator_norm_bound: float
    max_degree: int


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Finite weighted graph satisfying the standing hypotheses.

    Fields:
        vertices: ordered vertex identifiers (opaque strings), n >= 1.
        m: vertex measures, shape (n,), all finite and positive.
        edges: tuple of (i, j, weight) with i < j and weight finite and
            positive, sorted by (i, j).  One entry per unordered pair.
        potential: optional per-vertex potential, shape (n,), finite;
            absent means 0.
    The constructor enforces each of these (sortedness aside), raising
    the error for the hypothesis broken, with the offending vertex or
    edge named by its ids.  Connectedness is checked by constants, on
    first use.
    Every reader of the edges reads edges, edge_arrays, adjacency (the
    sparse weight matrix) or lengths (1/b on its pattern); each view is
    built once, on first use.
    """

    vertices: tuple[str, ...]
    m: np.ndarray
    edges: tuple[tuple[int, int, float], ...]
    potential: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        # A few reductions on the common path (min and max propagate NaN);
        # a failure is classified only once one is found.
        n, ids, m = len(self.vertices), self.vertices, self.m
        if n == 0:
            raise GraphFormatError("a graph needs at least one vertex")
        if len(set(ids)) != n:
            raise GraphFormatError("duplicate vertex identifiers")
        if m.shape != (n,):
            raise GraphFormatError("measure array shape mismatch")
        if not (m.min() > 0.0 and m.max() < np.inf):
            _check_finite(NonPositiveMeasure, "measure", ids, m)
            raise NonPositiveMeasure("every vertex measure must be positive")
        i, j, w = self.edge_arrays
        pair = i * n + j
        # Strictly increasing pairs (as from_edge_list stores them) cannot repeat.
        if not (((0 <= i) & (i < j) & (j < n)).all() and (pair[1:] > pair[:-1]).all()):
            _check_pairs(ids, i, j)
        if not (w.min(initial=np.inf) > 0.0 and w.max(initial=0.0) < np.inf):
            k = int(np.flatnonzero(~((w > 0.0) & (w < np.inf)))[0])
            u, v = ids[i[k]], ids[j[k]]
            if not math.isfinite(w[k]):
                raise NegativeEdgeWeight(f"weight on edge {u!r}-{v!r} is not finite: {float(w[k])!r}")
            if w[k] < 0.0:
                raise NegativeEdgeWeight(f"negative weight on {u!r}-{v!r}")
            raise NegativeEdgeWeight(f"explicit zero weight on {u!r}-{v!r}")
        if self.potential is not None:
            if self.potential.shape != (n,):
                raise GraphFormatError("potential array shape mismatch")
            _check_finite(NonFinitePotential, "potential", ids, self.potential)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def V(self) -> np.ndarray:
        """Potential as an array; zeros when absent."""
        if self.potential is None:
            return _readonly(np.zeros(self.n))
        return self.potential

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edges as (i, j, weight) arrays, in stored order."""
        i, j, w = zip(*self.edges) if self.edges else ((), (), ())
        return (
            _readonly(np.array(i, dtype=np.intp)),
            _readonly(np.array(j, dtype=np.intp)),
            _readonly(np.array(w, dtype=float)),
        )

    @cached_property
    def adjacency(self) -> sparse.csr_matrix:
        """The symmetric weight matrix b(x, y) in CSR form: row x lists the
        neighbors of x in increasing order, with their weights.  The
        graph's one neighbor structure; its arrays are read-only."""
        i, j, w = self.edge_arrays
        rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
        order = np.argsort(rows * self.n + cols)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=self.n))])
        data = np.concatenate([w, w])[order]
        W = sparse.csr_matrix((data, cols[order], indptr), shape=(self.n, self.n))
        for a in (W.data, W.indices, W.indptr):
            _readonly(a)
        return W

    @cached_property
    def lengths(self) -> sparse.csr_matrix:
        """The edge lengths 1/b(x, y) on adjacency's pattern, in CSR form:
        the one place the path metric's lengths are computed.  A weight
        below about 5.6e-309 has length inf, with no warning; the
        distances through it are then refused as overflowing.  Its arrays
        are read-only."""
        W = self.adjacency
        with np.errstate(over="ignore"):
            L = sparse.csr_matrix((1.0 / W.data, W.indices, W.indptr), shape=W.shape)
        for a in (L.data, L.indices, L.indptr):
            _readonly(a)
        return L

    @cached_property
    def weighted_degree(self) -> np.ndarray:
        """sum_y b(x, y) per vertex, with the bits of the dense row sums
        W.sum(axis=1): numpy sums a contiguous row pairwise, so the rows are
        summed densified, DEGREE_BLOCK at a time in one reused block."""
        W = self.adjacency
        degree = np.empty(self.n)
        block = np.zeros((min(DEGREE_BLOCK, self.n), self.n))
        for start in range(0, self.n, DEGREE_BLOCK):
            stop = min(start + DEGREE_BLOCK, self.n)
            lo, hi = W.indptr[start], W.indptr[stop]
            rows = np.repeat(np.arange(stop - start), np.diff(W.indptr[start : stop + 1]))
            at = rows, W.indices[lo:hi]
            block[at] = W.data[lo:hi]
            degree[start:stop] = block[: stop - start].sum(axis=1)
            block[at] = 0.0
        return _readonly(degree)

    @cached_property
    def constants(self) -> GeometryConstants:
        """The geometry constants, computed on first use.  Raises
        DisconnectedGraph naming the first vertex that a breadth-first
        traversal from the first vertex does not reach."""
        reached = np.zeros(self.n, dtype=bool)
        reached[breadth_first_order(self.adjacency, 0, return_predecessors=False)] = True
        if not reached.all():
            missing = self.vertices[int(np.flatnonzero(~reached)[0])]
            raise DisconnectedGraph(
                f"vertex {missing!r} is not reachable from {self.vertices[0]!r}"
            )
        delta = float(np.max(self.weighted_degree / self.m))
        return GeometryConstants(
            delta=delta,
            m_max=float(np.max(self.m)),
            b_max=float(self.edge_arrays[2].max(initial=0.0)),
            operator_norm_bound=2.0 * delta,
            max_degree=int(np.diff(self.adjacency.indptr).max()),
        )

    def vol(self, subset: Iterable[str]) -> float:
        """Measure of a vertex subset."""
        idx = [self.index[u] for u in subset]
        return float(self.m[idx].sum()) if idx else 0.0

    def vol_total(self) -> float:
        return float(self.m.sum())

    def indices(self, subset: Iterable[str]) -> np.ndarray:
        """The sorted indices of the subset's vertices, each once."""
        return np.array(sorted({self.index[u] for u in subset}), dtype=np.intp)

    def complement(self, subset: Iterable[str]) -> tuple[str, ...]:
        inside = set(subset)
        return tuple(v for v in self.vertices if v not in inside)

    @classmethod
    def from_edge_list(
        cls,
        vertices: Sequence[str],
        m: Mapping[str, float] | Sequence[float] | float,
        edges: Iterable[tuple[str, str, float]],
        potential: Mapping[str, float] | Sequence[float] | None = None,
    ) -> "WeightedGraph":
        """Build a graph from vertex ids and an edge list.

        Rejects unknown ids, duplicate or conflicting edges, and measures
        or potentials of the wrong form or length here; the constructor
        refuses everything else that breaks a hypothesis.
        """
        vertices = tuple(vertices)
        index = {v: i for i, v in enumerate(vertices)}

        if isinstance(m, Mapping):
            try:
                mv = np.array([float(m[v]) for v in vertices])
            except KeyError as exc:
                raise GraphFormatError(f"measure missing for vertex {exc}") from None
        elif isinstance(m, (int, float)):
            mv = np.full(len(vertices), float(m))
        else:
            mv = np.array([float(x) for x in m])
            if mv.shape != (len(vertices),):
                raise GraphFormatError("measure list length mismatch")

        pair_weights: dict[tuple[int, int], float] = {}
        for u, v, w in edges:
            if u not in index or v not in index:
                raise GraphFormatError(f"edge references unknown vertex: {u!r}-{v!r}")
            i, j = index[u], index[v]
            key = (i, j) if i < j else (j, i)
            if key in pair_weights:
                if pair_weights[key] != float(w):
                    raise NonSymmetricWeights(
                        f"conflicting weights for edge {u!r}-{v!r}"
                    )
                raise GraphFormatError(f"duplicate edge {u!r}-{v!r}")
            pair_weights[key] = float(w)

        pv = None
        if potential is not None:
            if isinstance(potential, Mapping):
                pv = np.array([float(potential.get(v, 0.0)) for v in vertices])
            else:
                pv = np.array([float(x) for x in potential])
                if pv.shape != (len(vertices),):
                    raise GraphFormatError("potential list length mismatch")
            pv = _readonly(pv)

        edge_tuple = tuple(
            (i, j, pair_weights[(i, j)]) for (i, j) in sorted(pair_weights)
        )
        return cls(vertices, _readonly(mv), edge_tuple, pv)


def _check_finite(
    error: type[Exception], what: str, vertices: Sequence[str], values: np.ndarray
) -> None:
    """Raise error naming the first vertex whose value is NaN or infinite."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        k = int(bad[0])
        raise error(f"{what} at vertex {vertices[k]!r} is not finite: {float(values[k])!r}")


def _check_pairs(vertices: Sequence[str], i: np.ndarray, j: np.ndarray) -> None:
    """Raise the error for the first stored pair that is out of range, a
    self-loop or out of order, or for the first pair stored twice."""
    n = len(vertices)
    bad = np.flatnonzero(~((0 <= i) & (i < j) & (j < n)))
    if bad.size:
        a, b = int(i[bad[0]]), int(j[bad[0]])
        if not (0 <= a < n and 0 <= b < n):
            raise GraphFormatError("edge index out of range")
        if a == b:
            raise NonzeroDiagonal(f"self-loop at {vertices[a]!r}")
        raise NonSymmetricWeights("edges must be stored with i < j")
    pair = np.sort(i * n + j)
    repeated = np.flatnonzero(pair[1:] == pair[:-1])
    if repeated.size:
        a, b = divmod(int(pair[repeated[0]]), n)
        raise NonSymmetricWeights(f"duplicate stored pair {vertices[a]!r}-{vertices[b]!r}")


def is_combinatorial(g: WeightedGraph) -> bool:
    """True when every edge weight is exactly 1 and every measure exactly 1."""
    return bool(np.all(g.m == 1.0) and np.all(g.edge_arrays[2] == 1.0))


# ---------------------------------------------------------------------------
# JSON graph format
# ---------------------------------------------------------------------------
#
# { "vertices": [ {"id": "a", "m": 1.0, "v": 0.0}, ... ],
#   "edges":    [ {"u": "a", "w": "b", "b": 1.0}, ... ] }
#
# "v" is optional and defaults to 0.  The file is read into
# WeightedGraph.from_edge_list, which rejects what breaks a hypothesis:
# duplicate edges (GraphFormatError), self-loops (NonzeroDiagonal) and
# zero, negative or non-finite weights (NegativeEdgeWeight).


def dumps_graph(g: WeightedGraph) -> str:
    """Serialize a graph with stable key and entry order."""
    has_v = g.potential is not None
    vertex_objs = []
    for i, vid in enumerate(g.vertices):
        obj: dict = {"id": vid, "m": float(g.m[i])}
        if has_v:
            obj["v"] = float(g.potential[i])
        vertex_objs.append(obj)
    edge_objs = [
        {"u": g.vertices[i], "w": g.vertices[j], "b": w} for i, j, w in g.edges
    ]
    return json.dumps({"vertices": vertex_objs, "edges": edge_objs}, indent=2)


def loads_graph(text: str) -> WeightedGraph:
    """Parse the JSON graph format, rejecting malformed entries."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise GraphFormatError("expected an object with 'vertices' and 'edges'")

    ids: list[str] = []
    m: dict[str, float] = {}
    pot: dict[str, float] = {}
    any_v = False
    try:
        for entry in data["vertices"]:
            if not isinstance(entry, dict) or "id" not in entry or "m" not in entry:
                raise GraphFormatError("vertex entries need 'id' and 'm'")
            vid = str(entry["id"])
            ids.append(vid)
            m[vid] = float(entry["m"])
            if "v" in entry:
                any_v = True
                pot[vid] = float(entry["v"])

        edges = []
        for entry in data["edges"]:
            if not isinstance(entry, dict) or not {"u", "w", "b"} <= set(entry):
                raise GraphFormatError("edge entries need 'u', 'w' and 'b'")
            edges.append((str(entry["u"]), str(entry["w"]), float(entry["b"])))
    except (TypeError, ValueError) as exc:
        raise GraphFormatError(f"malformed graph entry: {exc}") from exc

    return WeightedGraph.from_edge_list(
        ids, m, edges, potential=pot if any_v else None
    )


def save_graph(g: WeightedGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_graph(g))
        fh.write("\n")


def load_graph(path) -> WeightedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_graph(fh.read())
