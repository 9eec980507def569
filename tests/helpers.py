"""Shared helpers: random test instances, the dense reference assembly of
H, dense spectral quantities that only tests compute (the package reads
the spectrum's ends and the window's pairs, never a norm of an arbitrary
operator or a projection matrix), the parser of a JSON report, and the
controls of the forked distance table's worker count."""

from __future__ import annotations

import contextlib
import json
import os
import signal
from dataclasses import dataclass
from typing import Iterable
from unittest import mock

import numpy as np
import pytest

from specbounds import (
    AnalysisContext,
    BoundReport,
    OperatorMatrix,
    Report,
    WeightedGraph,
    eigenvalues_of,
    random_connected,
    window_indices,
)
from specbounds import metric
from specbounds.spectral import UNCERTAINTY_GRID_POINTS


def random_instance(
    seed: int,
    n_lo: int = 2,
    n_hi: int = 60,
    weight_range: tuple[float, float] = (0.1, 10.0),
    m_weighted: bool = False,
    potential_range: tuple[float, float] | None = None,
) -> WeightedGraph:
    """Random connected graph with its size drawn from the same seed."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_lo, n_hi + 1))
    return random_connected(
        n,
        seed=seed + 1,
        weight_range=weight_range,
        m_range=(0.5, 2.0) if m_weighted else None,
        potential_range=potential_range,
    )


def with_potential(g: WeightedGraph, potential: Iterable[float]) -> WeightedGraph:
    """The graph g, with its ids, measure and edges, and the given potential."""
    ids = g.vertices
    return WeightedGraph.from_edge_list(
        ids, list(g.m), [(ids[i], ids[j], w) for i, j, w in g.edges], potential=list(potential)
    )


def random_proper_subset(g: WeightedGraph, seed: int) -> tuple[str, ...]:
    """Nonempty proper vertex subset, deterministic in the seed."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, g.n)) if g.n > 1 else 1
    idx = rng.choice(g.n, size=size, replace=False)
    return tuple(g.vertices[int(i)] for i in sorted(idx))


@dataclass(frozen=True, eq=False)
class DenseOperator(OperatorMatrix):
    """An operator assembled entrywise from the dense weight matrix, with
    its vertex-basis picture entries (m-self-adjoint) beside the similar
    symmetric matrix sym = M^(1/2) entries M^(-1/2)."""

    entries: np.ndarray


def dense_weights(g: WeightedGraph) -> np.ndarray:
    """The dense symmetric weight matrix, filled from the stored edge list:
    the reference for the graph's sparse adjacency and its row sums."""
    W = np.zeros((g.n, g.n))
    for i, j, w in g.edges:
        W[i, j] = W[j, i] = w
    return W


def weight(g: WeightedGraph, u: str, v: str) -> float:
    """The weight b(u, v) between two vertex ids (0 when no edge), read off
    the graph's adjacency."""
    return float(g.adjacency[g.index[u], g.index[v]])


def reference_assemble(
    g: WeightedGraph,
    omega: Iterable[str] | None = None,
    t: float = 0.0,
    d_set: Iterable[str] = (),
) -> DenseOperator:
    """H, its block on omega, or H + t 1_D, assembled directly from
    dense_weights(g): the reference for the operators the package cuts from
    its one CSC assembly.  The diagonal is (sum_y b(x,y))/m(x) + V(x)/m(x),
    the package's, so sym has the bits of the package's matrices."""
    m = g.m
    W = dense_weights(g)
    sqrt_m = np.sqrt(m)
    diag = W.sum(axis=1) / m + g.V / m
    diag[g.indices(d_set)] += t
    entries = np.diag(diag) - W / m[:, None]
    sym = np.diag(diag) - W / np.outer(sqrt_m, sqrt_m)
    if omega is None:
        return DenseOperator(sym=sym, m=m, entries=entries)
    idx = g.indices(omega)
    block = np.ix_(idx, idx)
    return DenseOperator(sym=sym[block], m=m[idx], entries=entries[block])


def record_coupled(monkeypatch) -> list[OperatorMatrix]:
    """Patch AnalysisContext.coupled to keep every operator it returns, so
    an eigensolve can be told to be of a coupled operator H + t 1_D."""
    coupled: list[OperatorMatrix] = []
    original = AnalysisContext.coupled

    def recording(self, t):
        op = original(self, t)
        coupled.append(op)
        return op

    monkeypatch.setattr(AnalysisContext, "coupled", recording)
    return coupled


def uncertainty_grid(ctx: AnalysisContext, interval: tuple[float, float]) -> list[float]:
    """The 17 couplings uncertainty_constant samples, in its order: 16 from
    the threshold to 1e4 ||H+1||^2, geometric, then the analytic t_opt
    (all finite, as they are on every graph the tests give it)."""
    h1, lam, max_i = ctx.shifted_norm, ctx.lambda_omega, float(interval[1])
    ts = list(np.geomspace(ctx.threshold, 1.0e4 * h1 * h1, UNCERTAINTY_GRID_POINTS))
    return ts + [8.0 * h1 * h1 * (lam + 1.0) ** 2 / (lam - max_i)]


def lowest_eigenvalue(op: OperatorMatrix) -> float:
    """The lowest eigenvalue of an operator, by dense eigvalsh."""
    return float(eigenvalues_of(op)[0])


def operator_norm(op: OperatorMatrix) -> float:
    """Spectral norm in the weighted space (largest |eigenvalue|)."""
    evals = eigenvalues_of(op)
    return float(max(abs(evals[0]), abs(evals[-1])))


@dataclass(frozen=True, eq=False)
class SpectralProjection:
    """Spectral projection onto a closed energy interval."""

    matrix: np.ndarray
    indices: tuple[int, ...]
    empty: bool


def spectral_projection(
    evals: np.ndarray, vectors: np.ndarray, m: np.ndarray, interval: tuple[float, float]
) -> SpectralProjection:
    """Projection onto the m-orthonormal eigenvectors (columns of vectors)
    whose eigenvalues lie in a closed interval.

    Endpoint membership allows 1e-12 of solver jitter.  An interval that
    captures no eigenvalue yields the zero projection with empty=True.
    """
    a, b = float(interval[0]), float(interval[1])
    if a > b:
        raise ValueError("interval endpoints must satisfy a <= b")
    sel = window_indices(evals, (a, b))
    phi = vectors[:, sel]
    return SpectralProjection(
        matrix=phi @ (phi * m[:, None]).T,
        indices=tuple(int(i) for i in sel),
        empty=sel.size == 0,
    )


def parse_json(text: str) -> Report:
    """The Report that render_json printed as text."""
    doc = json.loads(text)
    rows = tuple(
        BoundReport(
            name=r["name"],
            true_value=float(r["true"]),
            bound_value=float(r["bound"]),
            relation=r["relation"],
            slack=float(r["slack"]),
            passed=bool(r["pass"]),
            vacuous=bool(r["vacuous"]),
            note=r["note"],
        )
        for r in doc["rows"]
    )
    return Report(
        config=doc["config"],
        rows=rows,
        timings=doc.get("timings", {}),
        version=doc.get("version", ""),
    )


# compute_metric splits the distance table over forked workers, one per
# usable CPU; patching os.sched_getaffinity sets that count.
needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"),
    reason="the table is split over workers only where os.fork and sched_getaffinity exist",
)


def usable_cpus(k: int):
    """Patch the usable CPUs of this process to k."""
    return mock.patch("os.sched_getaffinity", return_value=set(range(k)))


def dijkstra_raising(exc: BaseException, in_workers: bool):
    """scipy's dijkstra as compute_metric calls it, raising exc instead in
    its forked workers (in_workers) or in this process."""
    parent, serial = os.getpid(), metric._dijkstra

    def dijkstra(*args, **kwargs):
        if (os.getpid() != parent) == in_workers:
            raise exc
        return serial(*args, **kwargs)

    return dijkstra


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def deadline(seconds: int):
    """Fail with TimeoutError, instead of hanging, after the given time."""

    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
