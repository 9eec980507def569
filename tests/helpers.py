"""Shared helpers: random test instances, and dense spectral quantities
that only tests compute (the package reads the spectrum's ends and the
window's indices, never a norm of an arbitrary operator or a projection
matrix)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from specbounds import (
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
