"""Ground states, the ground-state transform, and the potential bound.

For a connected finite graph with bounded potential, the lowest eigenpair
of the Schroedinger operator exists and its eigenfunction is strictly
positive (the symmetrized matrix has nonpositive off-diagonal entries and
is irreducible).  Rescaling the eigenfunction so that its maximum and
minimum multiply to one minimizes the pinching constant c with
1/c <= phi <= c.  The transform replaces edge weights by
phi(x) phi(y) b(x,y) and measures by phi(x)^2 m(x); distances and volumes
of the transformed graph stay within a factor c^2 of the originals, which
turns the ball-volume Dirichlet bound into a bound for the potential form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConvergenceFailure, DoublingUnverified
from .generators import DEFAULT_SEED
from .graph import WeightedGraph, _readonly
from .metric import BLOCK_ENTRIES, MetricData
from .report import BoundReport, make_report
from .spectral import AnalysisContext, dirichlet_energy


@dataclass(frozen=True, eq=False)
class GroundState:
    """Positive ground state with its energy and pinching constant.

    phi is normalized so max(phi) * min(phi) = 1, hence
    c = sqrt(max phi / min phi) and 1/c <= phi <= c.
    """

    phi: np.ndarray
    lambda_v: float
    c: float


def ground_state(ctx: AnalysisContext) -> GroundState:
    """Lowest eigenpair of the Schroedinger operator of the graph.

    A graph without potential (or with an exactly zero one) has the
    constant function as its ground state with energy exactly zero; that
    case is returned analytically so downstream bounds reduce bit-for-bit
    to the potential-free ones.  Otherwise the eigenpair is the context's
    ground_pair: from the eigendecomposition of H below the crossover,
    from a sparse shift-invert solve above it.
    """
    g = ctx.graph
    if g.potential is None or not np.any(g.potential):
        return GroundState(phi=_readonly(np.ones(g.n)), lambda_v=0.0, c=1.0)

    lam, phi = ctx.ground_pair
    phi = np.array(phi)
    anchor = int(np.argmax(np.abs(phi)))
    if phi[anchor] < 0.0:
        phi = -phi
    if np.any(phi <= 0.0):
        raise ConvergenceFailure("ground state came back with a sign change")
    scale = np.sqrt(phi.max() * phi.min())
    phi = phi / scale
    c = float(np.sqrt(phi.max() / phi.min()))
    return GroundState(phi=_readonly(phi), lambda_v=lam, c=c)


def ground_state_transform(g: WeightedGraph, gs: GroundState) -> WeightedGraph:
    """The transformed graph: weights phi(x) phi(y) b(x,y), measures phi^2 m.

    The potential is consumed by the transform and dropped.  With the
    constant ground state the transform is the identity on weights and
    measures.  The constructor refuses a weight or measure that
    overflows or underflows to zero, naming the edge or vertex.
    """
    phi = gs.phi
    i, j, w = g.edge_arrays
    edges = tuple(zip(i.tolist(), j.tolist(), ((phi[i] * phi[j]) * w).tolist()))
    return WeightedGraph(g.vertices, _readonly((phi * phi) * g.m), edges)


def ground_state_transform_check(
    g: WeightedGraph,
    gs: GroundState,
    samples: int = 100,
    seed: int = DEFAULT_SEED,
) -> BoundReport:
    """Verify the transform identity on random test functions.

    For each sample f:  E_V(f,f) - lambda_V ||f||^2  must equal the energy
    of f/phi in the transformed graph.  On a finite graph the ground state
    is a true eigenfunction, so this holds with equality; the row reports
    the worst relative mismatch against a 1e-8 budget.  The samples are
    drawn and evaluated in blocks of rows, each with about
    metric.BLOCK_ENTRIES entries per (rows, max(|E|, n)) temporary, so a
    graph of up to about 650 edges takes one block.  The blocks are drawn
    in order from one generator, the same stream as one (samples, n) draw
    or samples draws of size n, and each side's energies come from one
    batched call per block; every sample's mismatch has the bits of
    evaluating it alone.

    A sample whose energy overflows float64 has a NaN mismatch and is not
    evaluated: the note then names how many samples were, and with none
    the row is vacuous.
    """
    transformed = ground_state_transform(g, gs)
    rng = np.random.default_rng(seed)
    rows = max(1, BLOCK_ENTRIES // max(len(g.edges), g.n))
    count, worst = 0, 0.0
    for start in range(0, samples, rows):
        f = rng.standard_normal((min(rows, samples - start), g.n))
        with np.errstate(over="ignore", invalid="ignore"):
            lhs = (
                dirichlet_energy(g, f, include_potential=True)
                - gs.lambda_v * np.sum(f * f * g.m, axis=-1)
            )
            rhs = dirichlet_energy(transformed, f / gs.phi)
            scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-12)
            rel = np.abs(lhs - rhs) / scale
        evaluated = ~np.isnan(rel)
        count += int(np.count_nonzero(evaluated))
        worst = max(worst, float(np.max(rel, initial=0.0, where=evaluated)))
    note = f"worst relative mismatch over {samples} random functions"
    if 0 < count < samples:
        note = (
            f"worst relative mismatch over {count} of {samples} random functions; "
            f"the energies of the other {samples - count} overflow"
        )
    elif count < samples:
        note = f"the energies of all {samples} random functions overflow; not asserted"
    return make_report(
        "potential/transform_identity", worst, 1e-8, "<=", vacuous=count == 0 < samples, note=note
    )


def verify_doubling(
    md: MetricData,
    exponent: float,
    scales: Iterable[float],
    factors: Iterable[float] = (1.5, 2.0, 3.0),
) -> None:
    """Check vol[a*s] <= a^N vol[s] on a sampled grid; raise when violated."""
    for s in scales:
        if s <= 0.0:
            continue
        base = md.vol_bracket(s)
        for a in factors:
            if a < 1.0:
                continue
            if md.vol_bracket(a * s) > a**exponent * base * (1.0 + 1e-12):
                raise DoublingUnverified(
                    f"vol[{a * s!r}] exceeds {a!r}^{exponent!r} * vol[{s!r}]"
                )


def potential_dirichlet_bound(
    ctx: AnalysisContext, gs: GroundState, doubling_exponent: float | None = None
) -> list[BoundReport]:
    """Ball-volume lower bound for the Dirichlet form with a potential.

    The restricted ground energy is at least
    lambda_V + 1 / (c^4 * R * vol[c^2 R]), with R the covering radius of
    the penalty set in the original metric and vol[.] in the original
    measure.  When a doubling exponent N is supplied it is first verified
    on a sampled grid (including the pair actually used); the variant
    lambda_V + 1 / (c^(4+2N) * R * vol[R]) is then emitted as well.
    """
    ctx.require_region()
    truth, R, md = ctx.lambda_omega, ctx.R, ctx.metric
    c2 = gs.c * gs.c
    c4 = c2 * c2
    vol_c2r = md.vol_bracket(c2 * R)
    bound = gs.lambda_v + 1.0 / (c4 * R * vol_c2r)
    rows = [
        make_report(
            "potential/dirichlet_lower", truth, bound, ">=",
            note=f"c={gs.c!r}, R={R!r}",
        )
    ]
    if doubling_exponent is not None:
        n_exp = float(doubling_exponent)
        scales = [R, *md.quartiles[:3]]
        # The grid must include the pair the variant actually uses: s = R, a = c^2.
        factors = sorted({1.5, 2.0, 3.0, c2})
        verify_doubling(md, n_exp, scales, factors)
        rows.append(
            make_report(
                "potential/dirichlet_lower_doubling",
                truth,
                gs.lambda_v + 1.0 / (gs.c ** (4.0 + 2.0 * n_exp) * R * ctx.vol_R),
                ">=",
                note=f"doubling exponent {n_exp!r} verified on sampled grid",
            )
        )
    return rows
