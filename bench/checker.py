"""Output checks for benchmark ops, run outside the timed region.

An op passes when it exits 0, its JSON parses, its row names in order
equal a list committed below for its graph class, no row that must be
asserted came back vacuous, every non-vacuous row passes, and the inradius
behind ``dirichlet/lower_inradius_volume`` matches an independent
multi-source Dijkstra run.  Problems are split in two:

* a *verdict* problem is the program reporting a failing row through its
  own exit code 2 (which the program documents as an implementation bug);
* a *structural* problem is any other departure: another exit code, bad
  JSON, other row names, a row turned vacuous, an exit code that disagrees
  with the rows, or an inradius that disagrees with the independent solve.

Both count as failed ops.  A structural problem means the output cannot be
trusted, so the run is reported as not correct.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

# Regions above this size get bound-only cheeger rows (the exhaustive cap).
CHEEGER_CAP = 22
INRADIUS_RTOL = 1e-9

# Row vacuity: "never" rows must be asserted; "may" rows are vacuous by
# construction (t = 0 sits below the coupling threshold, the route
# comparison is informational, an empty spectral window asserts nothing);
# "over_cap" rows may be vacuous only when the region exceeds CHEEGER_CAP.
_COUPLING = [("coupling/limit_dominates", "never"), ("coupling/monotone_in_t", "never")]
for _k in range(9):
    _vac = "may" if _k == 0 else "never"
    _COUPLING += [(f"coupling/rate#{_k}", _vac), (f"coupling/rate_refined#{_k}", _vac)]

REPORT_HEAD = tuple(
    [
        ("operator/norm_vs_weighted_degree", "never"),
        ("homogeneity/min_distance", "never"),
        ("homogeneity/ball_count", "never"),
        ("metric/covering_equals_inradius", "never"),
        ("voronoi/geodesic_witness", "never"),
        ("voronoi/witness_in_cell", "never"),
        ("voronoi/nearest_center", "never"),
        ("voronoi/partition", "never"),
        ("voronoi/cell_in_covering_ball", "never"),
        ("dirichlet/lower_inradius_volume", "never"),
        ("dirichlet/upper_complement_fraction", "never"),
        ("dirichlet/lower_ball_volume", "never"),
        ("dirichlet/lower_ball_volume_in_region", "never"),
        ("dirichlet/lower_center_balls", "never"),
    ]
    + _COUPLING
    + [("resolvent/schur_gap", "never")]
)

# The uncertainty block takes one of four shapes: spectrum in the window or
# not, crossed with whether the window stays below the geometric bound.
UNCERTAINTY_VARIANTS = (
    (
        ("uncertainty/energy_form", "never"),
        ("uncertainty/geometry_form", "never"),
        ("uncertainty/energy_vs_geometry", "never"),
        ("uncertainty/sampled_coupling", "never"),
        ("uncertainty/sampled_vs_energy", "never"),
    ),
    (
        ("uncertainty/energy_form", "never"),
        ("uncertainty/geometry_form", "may"),
        ("uncertainty/sampled_coupling", "never"),
        ("uncertainty/sampled_vs_energy", "never"),
    ),
    (("uncertainty/energy_form", "may"), ("uncertainty/geometry_form", "may")),
    (("uncertainty/energy_form", "may"),),
)

CHEEGER_ROWS = (
    ("cheeger/eigenvalue_vs_cheeger", "never"),
    ("cheeger/region_constant_vs_volume", "over_cap"),
    ("cheeger/eigenvalue_vs_ball_volume", "never"),
    ("cheeger/route_comparison", "may"),
)
POTENTIAL_ROWS = (
    ("potential/transform_identity", "never"),
    ("potential/dirichlet_lower", "never"),
)


def expected_rows(graph_class: str) -> list[tuple[tuple[str, str], ...]]:
    """Every committed ``report`` row list (name, vacuity) for a graph class."""
    tail = (CHEEGER_ROWS if graph_class == "combinatorial" else ()) + POTENTIAL_ROWS
    return [REPORT_HEAD + block + tail for block in UNCERTAINTY_VARIANTS]


@dataclass(frozen=True)
class Problem:
    structural: bool
    message: str


@dataclass
class Check:
    problems: list[Problem]
    rows: int = 0
    vacuous: int = 0
    timed_s: float = 0.0  # sum of the report's own timings block


def check_op(op, rc: int, text: str, stderr: str = "") -> Check:
    """Check the output of one op's ``specbounds.cli.main`` call."""
    if rc not in (0, 2):
        return Check([Problem(True, f"exit {rc}: {stderr.strip()[:200]}")])
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return Check([Problem(True, f"output is not JSON: {exc}")])

    rows = doc.get("rows", [])
    names = [r["name"] for r in rows]
    problems = []
    variant = next(
        (v for v in expected_rows(op.graph_class) if [n for n, _ in v] == names), None
    )
    if variant is None:
        problems.append(Problem(
            True, f"{len(names)} rows match no committed list for {op.graph_class} graphs"
        ))
    else:
        for row, (name, vacuity) in zip(rows, variant):
            allowed = vacuity == "may" or (vacuity == "over_cap" and op.region > CHEEGER_CAP)
            if row["vacuous"] and not allowed:
                problems.append(Problem(True, f"row {name} turned vacuous"))

    failing = [r["name"] for r in rows if not r["vacuous"] and not r["pass"]]
    if failing and rc == 2:
        problems.append(Problem(False, f"exit 2, failing rows {failing}"))
    elif failing or rc == 2:
        problems.append(Problem(True, f"exit {rc} but failing rows {failing}"))

    inradius_row = next((r for r in rows if r["name"] == "dirichlet/lower_inradius_volume"), None)
    if inradius_row is not None:
        problems += _check_inradius(op, inradius_row)

    return Check(
        problems,
        rows=len(rows),
        vacuous=sum(1 for r in rows if r["vacuous"]),
        timed_s=float(sum(doc.get("timings", {}).values())),
    )


def _check_inradius(op, row) -> list[Problem]:
    """The row's bound is 1/(Inr * vol(region)); recompute Inr independently.

    Inr of the region is the largest distance from a region vertex to the
    nearest centre, which one multi-source Dijkstra run gives directly.
    """
    g = op.graph
    i, j, w = (np.array(col) for col in zip(*g.edges))
    lengths = csr_matrix((1.0 / w, (i, j)), shape=(g.n, g.n))
    to_centers = dijkstra(lengths, directed=False, indices=list(op.centers), min_only=True)
    region = np.ones(g.n, dtype=bool)
    region[list(op.centers)] = False
    expected = 1.0 / (to_centers[region].max() * g.m[region].sum())
    if not np.isclose(row["bound"], expected, rtol=INRADIUS_RTOL, atol=0.0):
        return [Problem(True, f"inradius bound {row['bound']!r} differs from "
                              f"independent Dijkstra value {expected!r}")]
    return []
