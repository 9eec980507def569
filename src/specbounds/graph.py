"""Weighted graph data model.

A graph is a finite vertex list with a positive measure ``m`` per vertex,
symmetric nonnegative edge weights ``b`` with zero diagonal, and an optional
real potential per vertex.  Edge weights are stored once per unordered pair,
so symmetry holds by construction; the symmetric view is one sparse matrix,
built on first use.  No n x n array is formed.  Instances are immutable and
safe to share between threads.
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


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Finite connected weighted graph.

    Fields:
        vertices: ordered vertex identifiers (opaque strings), n >= 1.
        m: vertex measures, shape (n,), all positive.
        edges: tuple of (i, j, weight) with i < j and weight > 0, sorted
            by (i, j).  One entry per unordered pair.
        potential: optional per-vertex potential, shape (n,); absent means 0.
    Every reader of the edges reads edges, edge_arrays, adjacency (the
    sparse weight matrix) or lengths (1/b on its pattern); each view is
    built once, on first use.
    """

    vertices: tuple[str, ...]
    m: np.ndarray
    edges: tuple[tuple[int, int, float], ...]
    potential: Optional[np.ndarray] = None

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
        table = np.array(self.edges, dtype=float).reshape(-1, 3)
        return (
            _readonly(table[:, 0].astype(np.intp)),
            _readonly(table[:, 1].astype(np.intp)),
            _readonly(table[:, 2].copy()),
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

    def b(self, u: str, v: str) -> float:
        """Symmetric edge weight between two vertex ids (0 when no edge)."""
        return float(self.adjacency[self.index[u], self.index[v]])

    def m_of(self, u: str) -> float:
        return float(self.m[self.index[u]])

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

        Rejects unknown ids, self-loops, nonpositive weights, conflicting
        duplicate edges, and nonpositive measures.
        """
        vertices = tuple(vertices)
        if not vertices:
            raise GraphFormatError("a graph needs at least one vertex")
        if len(set(vertices)) != len(vertices):
            raise GraphFormatError("duplicate vertex identifiers")
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
        _check_finite(NonPositiveMeasure, "measure", vertices, mv)
        if np.any(mv <= 0.0):
            raise NonPositiveMeasure("every vertex measure must be positive")

        pair_weights: dict[tuple[int, int], float] = {}
        for u, v, w in edges:
            if u not in index or v not in index:
                raise GraphFormatError(f"edge references unknown vertex: {u!r}-{v!r}")
            i, j = index[u], index[v]
            if i == j:
                raise NonzeroDiagonal(f"self-loop at {u!r}")
            if not math.isfinite(w):
                raise NegativeEdgeWeight(f"weight on edge {u!r}-{v!r} is not finite: {float(w)!r}")
            if w < 0.0:
                raise NegativeEdgeWeight(f"negative weight on {u!r}-{v!r}")
            if w == 0.0:
                raise NegativeEdgeWeight(f"explicit zero weight on {u!r}-{v!r}")
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
            _check_finite(NonFinitePotential, "potential", vertices, pv)
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


@dataclass(frozen=True)
class GeometryConstants:
    """Uniform geometry constants of a validated graph.

    delta: sup over x of (1/m(x)) sum_y b(x,y); makes the operator bounded.
    max_degree: maximal neighbor count; equals delta on combinatorial graphs.
    """

    delta: float
    m_max: float
    b_max: float
    operator_norm_bound: float
    max_degree: int


def validate(g: WeightedGraph) -> GeometryConstants:
    """Check every structural invariant and return the geometry constants.

    Raises the specific error for the first violated invariant; connectivity
    is checked by breadth-first traversal over positive-weight edges.
    """
    if g.n < 1:
        raise GraphFormatError("a graph needs at least one vertex")
    if len(set(g.vertices)) != g.n:
        raise GraphFormatError("duplicate vertex identifiers")
    if g.m.shape != (g.n,):
        raise GraphFormatError("measure array shape mismatch")
    _check_finite(NonPositiveMeasure, "measure", g.vertices, g.m)
    if np.any(g.m <= 0.0):
        raise NonPositiveMeasure("every vertex measure must be positive")

    seen: set[tuple[int, int]] = set()
    for i, j, w in g.edges:
        if not (0 <= i < g.n and 0 <= j < g.n):
            raise GraphFormatError("edge index out of range")
        if i == j:
            raise NonzeroDiagonal(f"self-loop at {g.vertices[i]!r}")
        if i > j:
            raise NonSymmetricWeights("edges must be stored with i < j")
        if not math.isfinite(w):
            raise NegativeEdgeWeight(
                f"weight on edge {g.vertices[i]!r}-{g.vertices[j]!r} is not finite: {float(w)!r}"
            )
        if w < 0.0:
            raise NegativeEdgeWeight(f"negative weight on pair ({i}, {j})")
        if w == 0.0:
            raise NegativeEdgeWeight(f"stored zero weight on pair ({i}, {j})")
        if (i, j) in seen:
            raise NonSymmetricWeights(f"duplicate stored pair ({i}, {j})")
        seen.add((i, j))

    if g.potential is not None:
        if g.potential.shape != (g.n,):
            raise GraphFormatError("potential array shape mismatch")
        _check_finite(NonFinitePotential, "potential", g.vertices, g.potential)

    # Connectivity.
    reached = np.zeros(g.n, dtype=bool)
    reached[breadth_first_order(g.adjacency, 0, return_predecessors=False)] = True
    if not reached.all():
        missing = g.vertices[int(np.flatnonzero(~reached)[0])]
        raise DisconnectedGraph(f"vertex {missing!r} is not reachable from {g.vertices[0]!r}")

    delta = float(np.max(g.weighted_degree / g.m))
    return GeometryConstants(
        delta=delta,
        m_max=float(np.max(g.m)),
        b_max=float(g.edge_arrays[2].max(initial=0.0)),
        operator_norm_bound=2.0 * delta,
        max_degree=int(np.diff(g.adjacency.indptr).max()),
    )


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
# "v" is optional and defaults to 0.  Duplicate edges, self-loops and
# nonpositive weights are rejected on load.


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
            weight = float(entry["b"])
            if weight <= 0.0:
                raise GraphFormatError(
                    f"edge {entry['u']!r}-{entry['w']!r} has nonpositive weight"
                )
            edges.append((str(entry["u"]), str(entry["w"]), weight))
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
