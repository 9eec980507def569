"""Shared helpers: random test instances, the dense reference assembly of
H, and dense spectral quantities that only tests compute (the package
reads the spectrum's ends and the window's indices, never a norm of an
arbitrary operator or a projection matrix)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from specbounds import (
    AnalysisContext,
    OperatorMatrix,
    SpectralData,
    WeightedGraph,
    eigenvalues_of,
    random_connected,
    window_indices,
)


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


def reference_assemble(
    g: WeightedGraph,
    omega: Iterable[str] | None = None,
    t: float = 0.0,
    d_set: Iterable[str] = (),
) -> DenseOperator:
    """H, its block on omega, or H + t 1_D, assembled directly from
    g.weight_matrix: the reference for the operators the package cuts from
    its one CSC assembly.  The diagonal is (sum_y b(x,y))/m(x) + V(x)/m(x),
    the package's, so sym has the bits of the package's matrices."""
    m = g.m
    W = g.weight_matrix
    sqrt_m = np.sqrt(m)
    diag = g.weighted_degree / m + g.V / m
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


def spectral_projection(sd: SpectralData, interval: tuple[float, float]) -> SpectralProjection:
    """Projection onto eigenvectors with eigenvalues in a closed interval.

    Endpoint membership allows 1e-12 of solver jitter.  An interval that
    captures no eigenvalue yields the zero projection with empty=True.
    """
    a, b = float(interval[0]), float(interval[1])
    if a > b:
        raise ValueError("interval endpoints must satisfy a <= b")
    sel = window_indices(sd.eigenvalues, (a, b))
    phi = sd.vectors[:, sel]
    return SpectralProjection(
        matrix=phi @ (phi * sd.m[:, None]).T,
        indices=tuple(int(i) for i in sel),
        empty=sel.size == 0,
    )
