"""Deterministic graph families used as test beds.

Every family is reproducible: the same spec string and seed yield a
bit-identical graph.  Lattice-style families use coordinate strings
("i" or "i,j") as vertex ids so JSON round trips keep a stable order.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from .errors import InvalidSpec
from .graph import WeightedGraph

DEFAULT_SEED = 1729

_MAX_VERTICES = 200_000


def path_graph(n: int) -> WeightedGraph:
    """Combinatorial path on n vertices v0 - v1 - ... - v{n-1}."""
    if n < 1:
        raise InvalidSpec("path needs n >= 1")
    ids = [f"v{i}" for i in range(n)]
    edges = [(f"v{i}", f"v{i + 1}", 1.0) for i in range(n - 1)]
    return WeightedGraph.from_edge_list(ids, 1.0, edges)


def cycle_graph(n: int) -> WeightedGraph:
    if n < 3:
        raise InvalidSpec("cycle needs n >= 3")
    ids = [f"v{i}" for i in range(n)]
    edges = [(f"v{i}", f"v{(i + 1) % n}", 1.0) for i in range(n)]
    return WeightedGraph.from_edge_list(ids, 1.0, edges)


def complete_graph(n: int) -> WeightedGraph:
    if n < 1:
        raise InvalidSpec("complete graph needs n >= 1")
    ids = [f"v{i}" for i in range(n)]
    edges = [
        (f"v{i}", f"v{j}", 1.0) for i in range(n) for j in range(i + 1, n)
    ]
    return WeightedGraph.from_edge_list(ids, 1.0, edges)


def lattice_box(d: int, L: int) -> WeightedGraph:
    """Combinatorial box Z^d intersected with [0, L]^d: b in {0,1}, m = 1."""
    if d < 1:
        raise InvalidSpec("lattice dimension must be >= 1")
    if L < 1:
        raise InvalidSpec("lattice side length must be >= 1")
    if (L + 1) ** d > _MAX_VERTICES:
        raise InvalidSpec("lattice box too large")

    def name(coord: tuple[int, ...]) -> str:
        return ",".join(str(c) for c in coord)

    coords = list(itertools.product(range(L + 1), repeat=d))
    ids = [name(c) for c in coords]
    edges = []
    for c in coords:
        for axis in range(d):
            if c[axis] < L:
                nb = list(c)
                nb[axis] += 1
                edges.append((name(c), name(tuple(nb)), 1.0))
    return WeightedGraph.from_edge_list(ids, 1.0, edges)


def normalized(g: WeightedGraph) -> WeightedGraph:
    """Replace the measure by m(x) = sum_y b(x, y) (keeps weights and potential)."""
    if not g.edges:
        raise InvalidSpec("normalized measure needs at least one edge")
    m = g.weighted_degree
    edges = [(g.vertices[i], g.vertices[j], w) for i, j, w in g.edges]
    pot = None if g.potential is None else list(g.potential)
    return WeightedGraph.from_edge_list(g.vertices, list(m), edges, potential=pot)


def apex_ray(N: int) -> WeightedGraph:
    """Ray 1..N with one apex vertex attached to every ray vertex.

    Ray edges have weight 2; the apex edge at vertex n has weight
    1/(1 + 1/n), so the apex keeps getting closer to the far end of the
    ray as N grows (no ray vertex is ever nearest to the apex in the
    infinite limit).  Vertices are "n,0" on the ray plus the apex "1,1".
    """
    if N < 2:
        raise InvalidSpec("apex_ray needs N >= 2")
    if N > 10_000:
        raise InvalidSpec("apex_ray truncation too large")
    ids = [f"{n},0" for n in range(1, N + 1)] + ["1,1"]
    edges = [
        (f"{n},0", f"{n + 1},0", 2.0) for n in range(1, N)
    ] + [
        (f"{n},0", "1,1", 1.0 / (1.0 + 1.0 / n)) for n in range(1, N + 1)
    ]
    return WeightedGraph.from_edge_list(ids, 1.0, edges)


def geometric_comb(N: int) -> WeightedGraph:
    """Spine 1..N with geometrically growing weights and one leaf per site.

    Spine edge (n, n+1) has weight 2*4^(n-1); the leaf at site n hangs on
    an edge of weight 4^(n-1).  All weights are exact dyadic floats for
    N <= 26.  The distance from leaf n to the start of the spine is
    2/3 + (1/3) 4^(1-n).  Vertices are "n,1" (spine) and "n,0" (leaves).
    """
    if N < 2:
        raise InvalidSpec("comb needs N >= 2")
    if N > 26:
        raise InvalidSpec("comb truncation limited to N <= 26 (exact weights)")
    ids = [f"{n},1" for n in range(1, N + 1)] + [f"{n},0" for n in range(1, N + 1)]
    edges = [
        (f"{n},1", f"{n + 1},1", 2.0 * 4.0 ** (n - 1)) for n in range(1, N)
    ] + [
        (f"{n},1", f"{n},0", 4.0 ** (n - 1)) for n in range(1, N + 1)
    ]
    return WeightedGraph.from_edge_list(ids, 1.0, edges)


def random_connected(
    n: int,
    seed: int = DEFAULT_SEED,
    weight_range: tuple[float, float] = (0.1, 10.0),
    m_range: tuple[float, float] | None = None,
    potential_range: tuple[float, float] | None = None,
    extra_edge_factor: float = 0.5,
) -> WeightedGraph:
    """Random connected graph: a random attachment tree plus extra edges.

    Deterministic for a fixed seed.  Measures default to 1; pass m_range
    to draw them uniformly.
    """
    if n < 1:
        raise InvalidSpec("random graph needs n >= 1")
    rng = np.random.default_rng(seed)
    pairs: set[tuple[int, int]] = set()
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        pairs.add((parent, i))
    extra = int(extra_edge_factor * n)
    if extra > 0 and n >= 2:
        cand = rng.integers(0, n, size=(4 * extra, 2))
        added = 0
        for a, b in cand:
            if added >= extra:
                break
            i, j = (int(a), int(b)) if a < b else (int(b), int(a))
            if i == j or (i, j) in pairs:
                continue
            pairs.add((i, j))
            added += 1

    ordered = sorted(pairs)
    lo, hi = weight_range
    weights = rng.uniform(lo, hi, size=len(ordered))
    ids = [f"v{i}" for i in range(n)]
    edges = [
        (ids[i], ids[j], float(w)) for (i, j), w in zip(ordered, weights)
    ]
    m = 1.0 if m_range is None else list(rng.uniform(m_range[0], m_range[1], size=n))
    pot = (
        None
        if potential_range is None
        else list(rng.uniform(potential_range[0], potential_range[1], size=n))
    )
    return WeightedGraph.from_edge_list(ids, m, edges, potential=pot)


_KN = re.compile(r"^k(\d+)$")


def generate(spec: str, seed: int = DEFAULT_SEED) -> WeightedGraph:
    """Build a graph from a family spec string.

    Families: ``kN`` / ``complete:n``, ``path:n``, ``cycle:n``,
    ``lattice:d:L``, ``normalized:<spec>``, ``apex_ray:N``, ``comb:N``,
    ``random:n[:wlo:whi]``.
    """
    spec = spec.strip()
    mk = _KN.match(spec)
    if mk:
        return complete_graph(_int_field(mk.group(1), "k"))
    head, _, rest = spec.partition(":")
    if head == "normalized":
        if not rest:
            raise InvalidSpec("normalized needs an inner spec")
        return normalized(generate(rest, seed=seed))
    if head == "complete":
        return complete_graph(_int_field(rest, head))
    if head == "path":
        return path_graph(_int_field(rest, head))
    if head == "cycle":
        return cycle_graph(_int_field(rest, head))
    if head == "lattice":
        parts = rest.split(":")
        if len(parts) != 2:
            raise InvalidSpec("lattice spec is lattice:d:L")
        return lattice_box(_int_field(parts[0], head), _int_field(parts[1], head))
    if head == "apex_ray":
        return apex_ray(_int_field(rest, head))
    if head == "comb":
        return geometric_comb(_int_field(rest, head))
    if head == "random":
        parts = rest.split(":")
        if len(parts) == 1:
            return random_connected(_int_field(parts[0], head), seed=seed)
        if len(parts) == 3:
            try:
                lo, hi = float(parts[1]), float(parts[2])
            except ValueError:
                lo = hi = np.nan
            if not (0.0 < lo <= hi < np.inf):
                raise InvalidSpec(
                    f"{spec}: expected random:n:wlo:whi with finite numbers 0 < wlo <= whi"
                )
            return random_connected(
                _int_field(parts[0], head), seed=seed, weight_range=(lo, hi)
            )
        raise InvalidSpec("random spec is random:n or random:n:wlo:whi")
    raise InvalidSpec(f"unknown generator family: {spec!r}")


def _int_field(text: str, family: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InvalidSpec(f"{family}: expected an integer, got {text!r}") from None
