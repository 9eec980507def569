"""Seeded workloads for the benchmark.

Each workload is an endless stream of rounds; a round is a list of ops and
an op is one ``specbounds.cli.main`` report call on a graph file written
here before timing.  The program only ever sees ``--graph FILE`` and a
centre spec; the seed decides every input.  The timed loop stops only at a
round boundary, so every run measures the same mix of op kinds and sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from checker import CHEEGER_CAP
from specbounds.generators import apex_ray, geometric_comb, lattice_box, random_connected
from specbounds.graph import WeightedGraph, is_combinatorial, save_graph

WORKLOADS = ("report-dense", "report-sweep", "cheeger-cap")

# Ops of report-sweep; every round holds SWEEP_SLOTS ops of each kind.
SWEEP_KINDS = ("random", "potential", "apex_ray", "comb", "lattice")
SWEEP_SLOTS = 8
SWEEP_LATTICES = tuple(itertools.product((4, 5, 6, 7), (2, 3)))  # (L, k)

DENSE_N = 800
CHEEGER_SPEC = (2, 5)  # lattice:2:5, 36 vertices; regions sit at the exhaustive cap


@dataclass(frozen=True)
class Op:
    """One unit of closed-loop work.

    kind: label within the workload (the sweep mixes five kinds).
    graph_class: weighted | potential | combinatorial; selects the
        committed row list the output is checked against.
    argv: arguments for ``specbounds.cli.main``.
    graph: the input graph, kept for independent output checks.
    centers: indices of the centre vertices the centre spec selects.
    """

    kind: str
    graph_class: str
    argv: tuple[str, ...]
    graph: WeightedGraph
    centers: tuple[int, ...]

    @property
    def region(self) -> int:
        return self.graph.n - len(self.centers)


def _graph_class(g: WeightedGraph) -> str:
    if g.potential is not None:
        return "potential"
    if is_combinatorial(g):
        return "combinatorial"
    return "weighted"


def _size(lo: int, hi: int, slot: int) -> int:
    """Midpoint of the slot-th of SWEEP_SLOTS equal strata of [lo, hi].

    Sizes are fixed per slot, not drawn, because op cost grows like n^3:
    a few large draws would move a run's throughput more than the program
    does.  The seed still decides the op order and every random graph.
    """
    return int(lo + (hi - lo) * (slot + 0.5) / SWEEP_SLOTS)


class Stream:
    """Rounds of ops for one workload, seed and stream label."""

    def __init__(self, workload: str, seed: int, workdir: Path, label: str = "timed"):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.label = label
        self._stream_id = {"timed": 0, "warmup": 1}[label]

    def rounds(self) -> Iterator[list[Op]]:
        for r in itertools.count():
            rng = np.random.default_rng([self.seed, self._stream_id, r])
            yield getattr(self, "_" + self.workload.replace("-", "_"))(rng, r)

    def _op(self, kind: str, g: WeightedGraph, name: str, spec: str, centers) -> Op:
        path = self.workdir / f"{self.label}-{name}.json"
        save_graph(g, path)
        argv = ("report", "--graph", str(path), "--centers", spec)
        return Op(kind, _graph_class(g), argv, g, tuple(int(i) for i in centers))

    def _every(self, kind: str, g: WeightedGraph, name: str, k: int) -> Op:
        return self._op(kind, g, name, f"every:{k}", range(0, g.n, k))

    def _report_dense(self, rng, r) -> list[Op]:
        g = random_connected(DENSE_N, seed=int(rng.integers(2**31)))
        return [self._every("random", g, f"{r}", 4)]

    def _report_sweep(self, rng, r) -> list[Op]:
        # Kind order within each 5-op cycle and the size order per kind are
        # shuffled by the seed; each round still covers every size once.
        orders = {kind: rng.permutation(SWEEP_SLOTS) for kind in SWEEP_KINDS}
        ops = []
        for cycle in range(SWEEP_SLOTS):
            for kind in rng.permutation(SWEEP_KINDS):
                slot = int(orders[kind][cycle])
                ops.append(self._sweep_op(str(kind), slot, rng, f"{r}-{cycle}-{kind}"))
        return ops

    def _sweep_op(self, kind: str, slot: int, rng, name: str) -> Op:
        if kind == "random":
            g = random_connected(_size(60, 160, slot), seed=int(rng.integers(2**31)))
            return self._every(kind, g, name, 4)
        if kind == "potential":
            g = random_connected(
                _size(60, 160, slot), seed=int(rng.integers(2**31)),
                potential_range=(0.0, 2.0),
            )
            return self._every(kind, g, name, 4)
        if kind == "apex_ray":
            return self._every(kind, apex_ray(_size(20, 200, slot)), name, 4)
        if kind == "comb":
            return self._every(kind, geometric_comb(_size(6, 26, slot)), name, 3)
        L, k = SWEEP_LATTICES[slot]
        g = lattice_box(2, L)
        centers = [i for i, (x, y) in enumerate(itertools.product(range(L + 1), repeat=2))
                   if x % k == 0 and y % k == 0]
        return self._op(kind, g, name, f"sublattice:{k}", centers)

    def _cheeger_cap(self, rng, r) -> list[Op]:
        d, L = CHEEGER_SPEC
        g = lattice_box(d, L)
        chosen = np.sort(rng.choice(g.n, size=g.n - CHEEGER_CAP, replace=False))
        centers = ";".join(g.vertices[int(i)] for i in chosen)
        return [self._op("lattice", g, f"{r}", centers, chosen)]
