"""Operator assembly, eigendecompositions, and the eigenvalue bound suite.

The weighted Laplacian acts as (Hf)(x) = (1/m(x)) sum_y b(x,y)(f(x)-f(y));
an optional potential enters as V(x)/m(x) on the diagonal, and a coupling
term adds t on the diagonal over a penalty set D (the multiplication
operator by t*1_D, which is self-adjoint in the m-weighted inner product
without any measure factor).  Restricting the energy form to functions
vanishing on D keeps the full weighted degree on the diagonal and drops
only the off-diagonal couplings into D.

All eigenproblems are solved after the similarity M^(1/2) A M^(-1/2),
which is genuinely symmetric with the same spectrum; eigenvectors map back
through M^(-1/2) and are then orthonormal in the m-weighted inner product.

The bound functions take an AnalysisContext: one graph with one penalty
set, whose shared quantities (the spectrum of H, its norms, lambda_Omega,
R, vol[R], ...) are each computed once, on first use.

The coupled ground energies lambda_0(H + t 1_D), 25 of them per report,
are the one place where only the lowest eigenvalue of an operator is read.
Below SPARSE_MIN_N vertices they come from dense eigvalsh; from there on,
from sparse_ground_state: shift-invert Lanczos (ARPACK) on the CSC form of
the operator, which has one nonzero per edge end plus the diagonal.  The
shift sits one below the lowest eigenvalue of H, hence below the whole
spectrum of H + t 1_D for every t >= 0, so the largest eigenvalue of the
shift-inverted operator is always the ground energy.  The result is
certified by its residual ||Ax - lambda x||, which must stay within the
dense solver's own error budget n eps (||H|| + t).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

from .errors import (
    ConvergenceFailure,
    EmptyCenters,
    EmptyOmega,
    PreconditionInterval,
)
from .graph import GeometryConstants, WeightedGraph, _readonly, validate
from .metric import BallVolumeTable, MetricData, compute_metric, inradius
from .report import BoundReport, make_report


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """A self-adjoint operator in two pictures.

    entries: the matrix in the vertex basis (m-self-adjoint).
    sym: the similar symmetric matrix M^(1/2) entries M^(-1/2), built
        entrywise so it is bit-exactly symmetric.
    basis: vertex ids of the coordinates (the full graph or a region).
    """

    graph: WeightedGraph
    basis: tuple[str, ...]
    entries: np.ndarray
    sym: np.ndarray
    m: np.ndarray
    coupling_t: float = 0.0
    restricted: bool = False


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Eigenvalues (ascending) and m-orthonormal eigenvectors (columns)."""

    basis: tuple[str, ...]
    m: np.ndarray
    eigenvalues: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True, eq=False)
class SpectralProjection:
    """Spectral projection onto a closed energy interval."""

    matrix: np.ndarray
    indices: tuple[int, ...]
    empty: bool


AssemblyBase = tuple[np.ndarray, np.ndarray, np.ndarray]


def _assembly_base(g: WeightedGraph) -> AssemblyBase:
    """What every matrix of H shares: W/m, the diagonal of H, and W/sqrt(m m^T)."""
    m = g.m
    W = g.weight_matrix
    Wm = W / m[:, None]
    diag = Wm.sum(axis=1) + g.V / m
    sqrt_m = np.sqrt(m)
    return Wm, diag, W / np.outer(sqrt_m, sqrt_m)


def assemble(
    g: WeightedGraph,
    omega: Iterable[str] | None = None,
    t: float = 0.0,
    d_set: Iterable[str] | None = None,
    base: AssemblyBase | None = None,
) -> OperatorMatrix:
    """Matrix of H (+ potential), of its restriction to omega, or of H + t*1_D.

    With omega given, the result acts on coordinates of omega only; the
    diagonal keeps the full weighted degree, so couplings into the
    complement survive as diagonal mass.  With t > 0, d_set names the
    penalty set and the full-graph matrix gains t on those diagonal
    entries.  base, when given, is this graph's _assembly_base, computed
    once by the caller.
    """
    if omega is not None and t != 0.0:
        raise ValueError("restriction and coupling term are exclusive")
    if t < 0.0:
        raise ValueError("coupling strength must be nonnegative")

    n = g.n
    m = g.m
    Wm, diag, S_off = _assembly_base(g) if base is None else base
    if t != 0.0:
        if d_set is None:
            raise EmptyCenters("a coupling term needs a penalty set")
        d_idx = g.indices(d_set)
        if d_idx.size == 0:
            raise EmptyCenters("a coupling term needs a nonempty penalty set")
        indicator = np.zeros(n)
        indicator[d_idx] = 1.0
        diag = diag + t * indicator

    if omega is None:
        basis = g.vertices
        A = np.diag(diag) - Wm
        S = np.diag(diag) - S_off
        mm = m
        restricted = False
    else:
        idx = g.indices(omega)
        if idx.size == 0:
            raise EmptyOmega("cannot restrict to an empty region")
        basis = tuple(g.vertices[int(i)] for i in idx)
        block = np.ix_(idx, idx)
        A = np.diag(diag[idx]) - Wm[block]
        S = np.diag(diag[idx]) - S_off[block]
        mm = m[idx]
        restricted = True

    return OperatorMatrix(
        graph=g,
        basis=basis,
        entries=_readonly(A),
        sym=_readonly(S),
        m=_readonly(np.array(mm)),
        coupling_t=float(t),
        restricted=restricted,
    )


def eigdecompose(op: OperatorMatrix) -> SpectralData:
    """Full symmetric eigendecomposition; deterministic for fixed input."""
    try:
        evals, evecs = np.linalg.eigh(op.sym)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    vectors = evecs / np.sqrt(op.m)[:, None]
    return SpectralData(
        basis=op.basis,
        m=op.m,
        eigenvalues=_readonly(evals),
        vectors=_readonly(vectors),
    )


def eigenvalues_of(op: OperatorMatrix) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(op.sym)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


def lowest_eigenvalue(op: OperatorMatrix) -> float:
    return float(eigenvalues_of(op)[0])


def sparse_ground_state(
    A: sparse.spmatrix, sigma: float, v0: np.ndarray, budget: float
) -> tuple[float, np.ndarray, float]:
    """Lowest eigenpair of a sparse symmetric matrix A, and its residual.

    sigma must lie below the spectrum of A: then (A - sigma)^(-1) is
    positive definite and its largest eigenvalue belongs to the lowest of
    A.  v0 is the Lanczos start vector; pass one that cannot be orthogonal
    to the ground state (a positive vector for a positive ground state),
    never None, since ARPACK's random start is not reproducible.  Returns
    (lambda, x, ||Ax - lambda x||) with x of unit length, and raises
    ConvergenceFailure when the residual exceeds budget.
    """
    # A - sigma is positive definite, so its LU needs no pivoting, and a
    # symmetric fill-reducing ordering keeps the factors sparse.
    lu = splu(
        (A - sigma * sparse.identity(A.shape[0], format="csc")).tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    shift_invert = LinearOperator(A.shape, matvec=lu.solve, dtype=float)
    try:
        evals, evecs = eigsh(A, k=1, sigma=sigma, which="LM", v0=v0, OPinv=shift_invert)
    except ArpackError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    lam, x = float(evals[0]), evecs[:, 0]
    residual = float(np.linalg.norm(A @ x - lam * x))
    if not residual <= budget:
        raise ConvergenceFailure(
            f"sparse ground state residual {residual!r} exceeds the budget {budget!r}"
        )
    return lam, x, residual


def operator_norm(op: OperatorMatrix) -> float:
    """Spectral norm in the weighted space (largest |eigenvalue|)."""
    evals = eigenvalues_of(op)
    return float(max(abs(evals[0]), abs(evals[-1])))


def shifted_norm(g: WeightedGraph) -> float:
    """The norm of H + 1 (H includes the graph potential when present)."""
    return AnalysisContext(g).shifted_norm


def dirichlet_energy(g: WeightedGraph, f: Sequence[float], include_potential: bool = False) -> float:
    """Energy form: sum over edges of b(x,y) (f(x)-f(y))^2, plus V f^2 if asked.

    The edge terms are added one after another in stored edge order
    (cumsum, not the pairwise np.sum), so the result has the same bits as
    a plain loop over the edges.
    """
    fa = np.asarray(f, dtype=float)
    i, j, w = g.edge_arrays
    diff = fa[i] - fa[j]
    terms = w * diff * diff
    total = float(np.cumsum(terms)[-1]) if terms.size else 0.0
    if include_potential:
        total += float(np.sum(g.V * fa * fa))
    return total


# From this many vertices on, coupled ground energies are solved sparse.
# Below about n=200 the fixed cost of a sparse solve (an LU and ARPACK's
# set-up) loses to dense eigvalsh; at n=256 sparse is 1.5-2x faster.
SPARSE_MIN_N = 256


@dataclass(frozen=True, eq=False)
class AnalysisContext:
    """One graph and one penalty set D (the centres), analysed once.

    Every property is computed on first use and then kept, so each shared
    quantity costs one assembly or one eigensolve per context.  centers
    may be empty for quantities of the graph alone.  The spectrum behind
    norm, shifted_norm and threshold comes from eigvalsh; decomposition is
    the eigh of the same matrix, used for projections and ground states.

    coupled_ground_energy(t) solves dense below SPARSE_MIN_N vertices.
    From there on it never forms the dense H + t 1_D: it adds t on D to
    sparse_operator and calls sparse_ground_state with the shift
    spectrum[0] - 1, certified by the residual within n eps (||H|| + t).
    Each solve starts from the last ground state found (sqrt(m) for the
    first), a positive vector, so the values are reproducible bit for bit
    for the same sequence of t.
    """

    graph: WeightedGraph
    centers: tuple[str, ...] = ()

    @cached_property
    def constants(self) -> GeometryConstants:
        return validate(self.graph)

    @cached_property
    def metric(self) -> MetricData:
        return compute_metric(self.graph)

    @cached_property
    def omega(self) -> tuple[str, ...]:
        """The region X \\ D, in canonical vertex order."""
        return self.graph.complement(self.centers)

    @cached_property
    def assembly_base(self) -> AssemblyBase:
        return _assembly_base(self.graph)

    @cached_property
    def operator(self) -> OperatorMatrix:
        """H on the whole graph."""
        return assemble(self.graph, base=self.assembly_base)

    @cached_property
    def spectrum(self) -> np.ndarray:
        return eigenvalues_of(self.operator)

    @cached_property
    def decomposition(self) -> SpectralData:
        return eigdecompose(self.operator)

    @cached_property
    def norm(self) -> float:
        """||H||, the largest |eigenvalue|."""
        return float(max(abs(self.spectrum[0]), abs(self.spectrum[-1])))

    @cached_property
    def shifted_norm(self) -> float:
        """||H + 1||."""
        return float(np.max(np.abs(self.spectrum + 1.0)))

    @cached_property
    def threshold(self) -> float:
        """Couplings at or above 2 ||H+1||^2 are inside the estimate's regime."""
        return 2.0 * self.shifted_norm * self.shifted_norm

    @cached_property
    def region_operator(self) -> OperatorMatrix:
        """H restricted to the region."""
        return assemble(self.graph, omega=self.omega, base=self.assembly_base)

    @cached_property
    def lambda_omega(self) -> float:
        """The lowest Dirichlet eigenvalue of the region."""
        return lowest_eigenvalue(self.region_operator)

    @cached_property
    def R(self) -> float:
        """The inradius of the region, equal to the covering radius of D."""
        return inradius(self.metric, self.omega)

    @cached_property
    def volumes(self) -> BallVolumeTable:
        return BallVolumeTable(self.metric)

    @cached_property
    def vol_R(self) -> float:
        """vol[R], the largest closed-ball volume of radius R."""
        return self.volumes.vol_bracket(self.R)

    def coupled(self, t: float) -> OperatorMatrix:
        """H + t 1_D on the whole graph."""
        return assemble(self.graph, t=t, d_set=self.centers, base=self.assembly_base)

    @cached_property
    def sparse_operator(self) -> sparse.csc_matrix:
        """The symmetric picture of H in CSC form, built from the edge list."""
        g = self.graph
        i, j, w = g.edge_arrays
        sqrt_m = np.sqrt(g.m)
        off = -w / (sqrt_m[i] * sqrt_m[j])
        diag = np.arange(g.n)
        return sparse.csc_matrix(
            (
                np.concatenate([off, off, self.assembly_base[1]]),
                (np.concatenate([i, j, diag]), np.concatenate([j, i, diag])),
            ),
            shape=(g.n, g.n),
        )

    def coupled_sparse(self, t: float) -> sparse.csc_matrix:
        """The symmetric picture of H + t 1_D in CSC form."""
        if t < 0.0:
            raise ValueError("coupling strength must be nonnegative")
        d_idx = self.graph.indices(self.centers)
        if d_idx.size == 0:
            raise EmptyCenters("a coupling term needs a nonempty penalty set")
        penalty = np.zeros(self.graph.n)
        penalty[d_idx] = t
        return self.sparse_operator + sparse.diags(penalty, format="csc")

    @cached_property
    def _coupled_ground(self) -> dict[float, float]:
        return {}

    @cached_property
    def _ground_states(self) -> list[np.ndarray]:
        """Positive start vectors for sparse solves: sqrt(m), the ground
        state of H without potential, then each ground state found."""
        return [np.sqrt(self.graph.m)]

    def coupled_ground_energy(self, t: float) -> float:
        """The lowest eigenvalue of H + t 1_D, solved once per distinct t
        (the coupling and uncertainty grids can share their first t)."""
        if t not in self._coupled_ground:
            if self.graph.n < SPARSE_MIN_N:
                lam = lowest_eigenvalue(self.coupled(t))
            else:
                budget = self.graph.n * np.finfo(float).eps * (self.norm + t)
                lam, x, _ = sparse_ground_state(
                    self.coupled_sparse(t),
                    float(self.spectrum[0]) - 1.0,
                    self._ground_states[-1],
                    budget,
                )
                # The ground state is positive up to sign; abs fixes the sign.
                self._ground_states.append(np.abs(x))
            self._coupled_ground[t] = lam
        return self._coupled_ground[t]

    def require_region(self) -> None:
        """Raise unless both D and the region X \\ D are nonempty."""
        if not self.centers:
            raise EmptyCenters("penalty set must be nonempty")
        if not self.omega:
            raise EmptyOmega("penalty set covers the graph; no region remains")


# ---------------------------------------------------------------------------
# Dirichlet eigenvalue bounds
# ---------------------------------------------------------------------------


def dirichlet_bounds_finite(ctx: AnalysisContext) -> tuple[BoundReport, BoundReport]:
    """Two-sided finite-volume bounds for the lowest Dirichlet eigenvalue.

    Lower: 1 / (Inr(omega) * vol(omega)).  Upper: ||H|| times the measure
    fraction of the complement, which is tight for a single free vertex on
    the two-point graph.
    """
    g = ctx.graph
    lam = ctx.lambda_omega
    vol_omega = g.vol(ctx.omega)
    lower = make_report(
        "dirichlet/lower_inradius_volume", lam, 1.0 / (ctx.R * vol_omega), ">=",
    )
    vol_x = g.vol_total()
    upper = make_report(
        "dirichlet/upper_complement_fraction",
        lam,
        ctx.norm * ((vol_x - vol_omega) / vol_x),
        "<=",
    )
    return lower, upper


def dirichlet_lower_bound(ctx: AnalysisContext) -> list[BoundReport]:
    """Ball-volume lower bounds for the lowest Dirichlet eigenvalue.

    Main row: 1 / (R * vol[R]) with R the inradius of the region and
    vol[s] the largest closed-ball volume.  Two refinements are emitted
    alongside: ball volumes counted inside the region only, and ball
    volumes around the complement points only.  Both refinements dominate
    the main bound.
    """
    lam, R = ctx.lambda_omega, ctx.R
    rows = [
        make_report("dirichlet/lower_ball_volume", lam, 1.0 / (R * ctx.vol_R), ">="),
    ]
    vol_in = ctx.volumes.vol_bracket_within(R, ctx.omega)
    rows.append(
        make_report(
            "dirichlet/lower_ball_volume_in_region", lam, 1.0 / (R * vol_in), ">=",
            note="ball mass counted inside the region only",
        )
    )
    vol_centers = ctx.volumes.vol_bracket_centers(R, ctx.centers)
    rows.append(
        make_report(
            "dirichlet/lower_center_balls", lam, 1.0 / (R * vol_centers), ">=",
            note="ball mass around complement points only",
        )
    )
    return rows


# ---------------------------------------------------------------------------
# Large-coupling limit
# ---------------------------------------------------------------------------


def coupling_threshold(g: WeightedGraph) -> float:
    """Couplings at or above 2 ||H+1||^2 are inside the estimate's regime."""
    return AnalysisContext(g).threshold


def resolvent_gap(ctx: AnalysisContext, t: float) -> BoundReport:
    """Distance between the coupled resolvent and the restricted resolvent.

    Compares (H + t 1_D + 1)^(-1) against the resolvent of the restriction
    to the region, extended by zero, in operator norm.  The proved decay is
    4 ||H+1||^2 / (1+t) once t >= 2 ||H+1||^2; smaller couplings are
    evaluated anyway and flagged as out of regime.  The estimate assumes a
    nonnegative operator, which holds automatically when the graph carries
    no potential (or a nonnegative one).
    """
    g = ctx.graph
    ctx.require_region()
    omega = ctx.omega
    h1, threshold = ctx.shifted_norm, ctx.threshold

    n = g.n
    resolvent_t = np.linalg.inv(ctx.coupled(t).sym + np.eye(n))

    idx = g.indices(omega)
    resolvent_omega = np.linalg.inv(ctx.region_operator.sym + np.eye(idx.size))
    embedded = np.zeros((n, n))
    embedded[np.ix_(idx, idx)] = resolvent_omega

    gap = float(np.linalg.norm(resolvent_t - embedded, 2))
    bound = 4.0 * h1 * h1 / (1.0 + t)
    below = t < threshold
    return make_report(
        "resolvent/schur_gap",
        gap,
        bound,
        "<=",
        vacuous=below,
        note=(
            f"t={t!r}, threshold={threshold!r}"
            + ("; below coupling threshold, bound not asserted" if below else "")
        ),
    )


def coupling_rate(ctx: AnalysisContext, t_list: Sequence[float]) -> list[BoundReport]:
    """Convergence of the coupled ground energy to the Dirichlet one.

    Checks that the restricted ground energy dominates every coupled one,
    that the coupled ground energy is nondecreasing in t, and that above
    the coupling threshold the gap closes at least like
    4 ||H+1||^2 (lam+1)^2 / (t+1), with the coarser all-norm variant
    4 ||H+1||^4 / (t+1) reported alongside.
    """
    ctx.require_region()
    ts = [float(t) for t in t_list]
    if not ts:
        raise ValueError("need at least one coupling value")

    h1, threshold = ctx.shifted_norm, ctx.threshold
    lam_inf = ctx.lambda_omega
    lam_ts = [
        ctx.coupled_ground_energy(t) if t > 0.0 else float(ctx.spectrum[0]) for t in ts
    ]

    rows = [
        make_report(
            "coupling/limit_dominates",
            lam_inf,
            max(lam_ts),
            ">=",
            note="restricted ground energy vs largest sampled coupled one",
        )
    ]
    order = np.argsort(ts)
    if len(ts) >= 2:
        sorted_lams = [lam_ts[i] for i in order]
        worst_step = min(b - a for a, b in zip(sorted_lams, sorted_lams[1:]))
        rows.append(
            make_report(
                "coupling/monotone_in_t", worst_step, 0.0, ">=",
                note="smallest increment of the ground energy along the grid",
            )
        )

    refined_factor = 4.0 * h1 * h1 * (lam_inf + 1.0) ** 2
    coarse_factor = 4.0 * h1 ** 4
    for k, i in enumerate(order):
        t = ts[i]
        below = t < threshold
        note = f"t={t!r}" + ("; below coupling threshold" if below else "")
        rows.append(
            make_report(
                f"coupling/rate#{k}",
                lam_ts[i],
                lam_inf - coarse_factor / (t + 1.0),
                ">=",
                vacuous=below,
                note=note,
            )
        )
        rows.append(
            make_report(
                f"coupling/rate_refined#{k}",
                lam_ts[i],
                lam_inf - refined_factor / (t + 1.0),
                ">=",
                vacuous=below,
                note=note,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Spectral projections and the uncertainty constant
# ---------------------------------------------------------------------------

ENDPOINT_TOLERANCE = 1e-12


def spectral_projection(sd: SpectralData, interval: tuple[float, float]) -> SpectralProjection:
    """Projection onto eigenvectors with eigenvalues in a closed interval.

    Endpoint membership allows 1e-12 of solver jitter.  An interval that
    captures no eigenvalue yields the zero projection with empty=True.
    """
    a, b = float(interval[0]), float(interval[1])
    if a > b:
        raise ValueError("interval endpoints must satisfy a <= b")
    sel = np.flatnonzero(
        (sd.eigenvalues >= a - ENDPOINT_TOLERANCE)
        & (sd.eigenvalues <= b + ENDPOINT_TOLERANCE)
    )
    phi = sd.vectors[:, sel]
    matrix = phi @ (phi * sd.m[:, None]).T
    return SpectralProjection(
        matrix=_readonly(matrix),
        indices=tuple(int(i) for i in sel),
        empty=sel.size == 0,
    )


def compressed_penalty_matrix(
    sd: SpectralData, g: WeightedGraph, d_set: Iterable[str], indices: Sequence[int]
) -> np.ndarray:
    """Gram matrix of the penalty mass over selected eigenvectors.

    Entry (i, j) is sum over x in D of phi_i(x) phi_j(x) m(x); its lowest
    eigenvalue is the exact uncertainty constant for the spanned subspace.
    """
    idx = g.indices(d_set)
    mass = np.zeros(g.n)
    mass[idx] = g.m[idx]
    phi = sd.vectors[:, list(indices)]
    gram = phi.T @ (phi * mass[:, None])
    return 0.5 * (gram + gram.T)


def uncertainty_constant(
    ctx: AnalysisContext, interval: tuple[float, float], grid_points: int = 16
) -> list[BoundReport]:
    """Lower bounds for the penalty mass of low-energy spectral subspaces.

    The exact constant is the lowest eigenvalue of the compressed penalty
    matrix over the eigenvectors with eigenvalues in the interval.  It is
    checked against three proved lower bounds: the energy-form constant
    (lam_omega - max I)^2 / (16 ||H+1||^2 (lam_omega+1)^2), the fully
    geometric variant with 1/(R vol[R]) in place of lam_omega and
    ||H+1||^4 in the denominator, and the best sampled coupling value
    (lam_t - max I)/t over a geometric grid plus the analytic optimizer.
    Here ||H+1|| comes from the eigh spectrum that also gives the projection.
    """
    ctx.require_region()
    a, b = float(interval[0]), float(interval[1])
    if a > b:
        raise ValueError("interval endpoints must satisfy a <= b")
    max_i = b

    sd = ctx.decomposition
    h1 = float(np.max(np.abs(sd.eigenvalues + 1.0)))
    lam_omega = ctx.lambda_omega
    if max_i >= lam_omega:
        raise PreconditionInterval(
            f"max I = {max_i!r} reaches the Dirichlet ground energy {lam_omega!r}"
        )

    kappa_thm = (lam_omega - max_i) ** 2 / (
        16.0 * h1 * h1 * (lam_omega + 1.0) ** 2
    )
    geo = 1.0 / (ctx.R * ctx.vol_R)
    kappa_cor = None
    if max_i < geo:
        kappa_cor = (geo - max_i) ** 2 / (16.0 * h1 ** 4)

    proj = spectral_projection(sd, (a, b))
    rows: list[BoundReport] = []
    if proj.empty:
        rows.append(
            make_report(
                "uncertainty/energy_form", 0.0, kappa_thm, ">=",
                vacuous=True, note="no spectrum in the interval; statement vacuous",
            )
        )
        if kappa_cor is not None:
            rows.append(
                make_report(
                    "uncertainty/geometry_form", 0.0, kappa_cor, ">=",
                    vacuous=True, note="no spectrum in the interval; statement vacuous",
                )
            )
        return rows

    gram = compressed_penalty_matrix(sd, ctx.graph, ctx.centers, proj.indices)
    truth = float(np.linalg.eigvalsh(gram)[0])

    threshold = 2.0 * h1 * h1
    t_grid = list(np.geomspace(threshold, 1.0e4 * h1 * h1, grid_points))
    t_opt = 8.0 * h1 * h1 * (lam_omega + 1.0) ** 2 / (lam_omega - max_i)
    t_grid.append(t_opt)
    kappa_samples = []
    for t in t_grid:
        lam_t = ctx.coupled_ground_energy(t)
        kappa_samples.append((lam_t - max_i) / t)
    kappa_best = max(kappa_samples)

    rows.append(
        make_report(
            "uncertainty/energy_form", truth, kappa_thm, ">=",
            note=f"projection rank {len(proj.indices)}",
        )
    )
    if kappa_cor is not None:
        rows.append(
            make_report("uncertainty/geometry_form", truth, kappa_cor, ">="),
        )
        rows.append(
            make_report(
                "uncertainty/energy_vs_geometry", kappa_thm, kappa_cor, ">=",
                note="energy-form constant dominates the geometric one",
            )
        )
    else:
        rows.append(
            make_report(
                "uncertainty/geometry_form", truth, 0.0, ">=",
                vacuous=True,
                note="interval reaches the geometric bound; variant skipped",
            )
        )
    rows.append(
        make_report(
            "uncertainty/sampled_coupling", truth, kappa_best, ">=",
            note=f"best of {len(t_grid)} sampled couplings",
        )
    )
    rows.append(
        make_report(
            "uncertainty/sampled_vs_energy", kappa_best, kappa_thm, ">=",
            note="sampled constant at the analytic optimizer dominates",
        )
    )
    return rows
