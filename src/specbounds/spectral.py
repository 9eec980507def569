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
H is assembled once, in that picture, from the edge list: a CSC matrix
with -b(x,y)/sqrt(m(x) m(y)) at each edge end and (sum_y b(x,y))/m(x) +
V(x)/m(x) on the diagonal (AnalysisContext.sparse_operator).  The dense H
is that matrix densified.

The bound functions take an AnalysisContext: one graph with one penalty
set, whose shared quantities (lambda_0(H), ||H||, lambda_Omega, R,
vol[R], ...) are each computed once, on first use.

The bounds read only the low end of the spectrum and its top: lambda_0(H),
lambda_max(H) (for ||H|| and ||H+1||), lambda_Omega, the eigenpairs in the
uncertainty window and the coupled ground energies lambda_0(H + t 1_D).
Those are one curve, t -> lambda_0(H + t 1_D) for finite t >= 0, which
rises to lambda_Omega.  The context keeps one record of it, seeded at
t = 0 with lambda_0(H) itself, and refuses any other t with one ValueError.
Below SPARSE_MIN_N vertices H is densified and solved once, by eigh: both
ends of its spectrum and the window's pairs come from that decomposition.
lambda_Omega and the coupled energies come from eigvalsh of the dense H's
block on the region and of copies of it with t added on D's diagonal.
From there on no dense n x n matrix is formed, and each comes from the
CSC form through one certified Lanczos run, _lanczos: it calls ARPACK's
eigsh (shift-invert with a given factorization of A - sigma, or on A
itself for the top end), turns an ArpackError into ConvergenceFailure,
sorts the pairs and holds every residual ||Ax - lambda x|| to the budget.
Each solver below adds only its own check:

    lambda_0(H)
        _ground_solve: shift-invert Lanczos (ARPACK) with the shift
        min V/m - 1, below the whole spectrum since the Laplacian part is
        positive semidefinite, so the largest eigenvalue of the
        shift-inverted operator is the ground energy.  The residual is its
        only check.
    lambda_Omega, lambda_0(H + t 1_D)
        sparse_ground_state, the one certified ground solve: the
        factorization of A - sigma must have no negative pivot (by
        Sylvester's law no eigenvalue lies below sigma), and one Lanczos
        run then gives the ground pair.  lambda_Omega takes the shift
        lambda_0(H) - 1 (below the region block's spectrum by interlacing)
        and ARPACK's default basis.  The coupled energy takes the shift
        just below the eigenvalue: the curve's lower bound at the largest
        t' <= t already solved (lambda_0(H) less its residual at t' = 0),
        less the budget.  That lies below the spectrum, since
        lambda_0(H + t 1_D) is nondecreasing in t, and three Lanczos
        vectors suffice.
    lambda_max(H)
        sparse_top_eigenvalue: Lanczos on H itself, certified by the
        residual and by the inertia of H - (theta + residual + budget),
        which must count all n eigenvalues below that shift.
    the eigenpairs in [a, b]
        sparse_window: count_below at a and b (Sylvester's law of inertia
        on an LDL^T factorization) gives how many eigenvalues lie below
        each end; one shift-invert Lanczos run returns that many lowest
        pairs, which must split at a as the counts do and be orthonormal
        to n eps, and those in [a, b] are kept.

No solver falls back to a dense eigh: when SuperLU pivots off the
diagonal, a residual exceeds its budget or a check fails, the
ConvergenceFailure propagates, and the CLI reports it as an error.

AnalysisContext.window(interval) returns the window's eigenvalues and
m-orthonormal eigenvectors on both sides of SPARSE_MIN_N: the uncertainty
constant reads those pairs, with no index into a full decomposition.

Every residual must stay within n eps ||H||_1 (n eps (||H|| + t) for the
coupled operators): the dense solver's own error budget n eps ||H||, with
||H|| bounded by the largest absolute column sum, which needs no solve.
Every other factorization of a matrix with H's sparsity pattern reuses
the fill-reducing ordering SuperLU found for H's ground-state
factorization (AnalysisContext.ordering): the matrix is permuted
symmetrically and factored in that order, with the same fill and no new
search, so no value depends on which quantity was asked first.  When a
context first assembles H, the OpenBLAS copies bundled with scipy (the
BLAS of ARPACK and SuperLU) and with numpy (that of its LAPACK: eigh,
solve, qr) are set to one thread for the rest of the process
(_one_blas_thread): scipy's workers otherwise spin on both cores of a
small machine and slow numpy's, and numpy's thread count otherwise moves
the last bits of the dense values.

The resolvent row never forms an n x n inverse.  With A = H + t 1_D + 1,
Y = A^(-1) E_D (the columns of the coupled resolvent on D) and
C = Y[D, :] = S^(-1), the inverse Schur complement of A on D,

    (H + t 1_D + 1)^(-1) - ((H_Omega + 1)^(-1) + 0) = Y C^(-1) Y^T,

so its norm is that of the |D| x |D| matrix R C^(-1) R^T, Y = QR.  From
SPARSE_MIN_N vertices on, Y comes from a sparse LU of A with partial
pivoting (A is indefinite when V < 0), whose unit right-hand sides are
written straight into factored order: the solve holds at most two n x |D|
arrays at a time (the right-hand sides and SuperLU's solution, then that
and Y).
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy
from scipy import linalg, sparse
from scipy.sparse.linalg import ArpackError, LinearOperator, SuperLU, eigsh, splu

from .errors import (
    ConvergenceFailure,
    DistanceOverflow,
    EmptyCenters,
    EmptyOmega,
    PreconditionInterval,
)
from .graph import WeightedGraph, _readonly
from .metric import MetricData, compute_metric, inradius
from .report import BoundReport, make_report


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """A self-adjoint operator as the symmetric matrix M^(1/2) A M^(-1/2),
    with the measure m that maps its eigenvectors back to the vertex
    basis."""

    sym: np.ndarray
    m: np.ndarray


def eigdecompose(op: OperatorMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Full symmetric eigendecomposition: the eigenvalues ascending and the
    m-orthonormal eigenvectors as columns.  Deterministic for fixed input."""
    try:
        evals, evecs = np.linalg.eigh(op.sym)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return _readonly(evals), _readonly(evecs / np.sqrt(op.m)[:, None])


def eigenvalues_of(op: OperatorMatrix) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(op.sym)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


# Membership of an interval's endpoints allows this much solver jitter.
ENDPOINT_TOLERANCE = 1e-12


@cache
def _openblas_thread_setters() -> tuple:
    """The thread-count setters of the OpenBLAS copies bundled with scipy
    (the BLAS of ARPACK and SuperLU) and with numpy (that of its LAPACK,
    whose symbols carry the suffix 64_); a copy that is not found is
    left out."""
    setters = []
    for module, symbol in (
        (scipy, "scipy_openblas_set_num_threads"),
        (np, "scipy_openblas_set_num_threads64_"),
    ):
        libs = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            set_threads = getattr(ctypes.CDLL(str(path)), symbol, None)
            if set_threads is not None:
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                setters.append(set_threads)
                break
    return tuple(setters)


def _one_blas_thread() -> None:
    """Hold both bundled OpenBLAS copies at one thread for the rest of the
    process.

    The sparse solves make many small BLAS calls; with two threads on two
    cores they run slower, and the idle workers keep spinning against
    numpy's copy.  numpy's thread count splits the dense LAPACK work
    differently, which moves the last bits of its values; at one thread
    a report is the same on any core count of one CPU.  The count is never
    set back: numpy's next LAPACK call can stall behind the workers that
    wakes.  The libraries are looked up on first use, not at import;
    without them this does nothing.
    """
    for set_threads in _openblas_thread_setters():
        set_threads(1)


@dataclass(frozen=True, eq=False)
class _Factorization:
    """A SuperLU factorization of A - shift, or of P (A - shift) P^T when
    order (the rows and columns of A in factored order) is given."""

    lu: SuperLU
    order: np.ndarray | None
    shift: float

    def solve(self, b: np.ndarray) -> np.ndarray:
        """(A - shift)^(-1) b, for one or more right-hand sides."""
        if self.order is None:
            return self.lu.solve(b)
        x = np.empty_like(b)
        x[self.order] = self.lu.solve(b[self.order])
        return x

    def solve_unit_columns(self, idx: np.ndarray) -> np.ndarray:
        """(A - shift)^(-1) E, E the columns of the identity at the rows
        idx, as solve(E) gives it bit for bit.  The ones are written
        straight into factored order, so no E or permuted copy of it is
        formed beside the solution."""
        n = self.lu.shape[0]
        rows = idx if self.order is None else np.argsort(self.order)[idx]
        rhs = np.zeros((n, idx.size))
        rhs[rows, np.arange(idx.size)] = 1.0
        x = self.lu.solve(rhs)
        if self.order is None:
            return x
        del rhs  # freed before y is formed
        y = np.empty(x.shape)
        y[self.order] = x
        return y

    def negative_pivots(self) -> int:
        """The number of eigenvalues of A below the shift.  By Sylvester's
        law of inertia it is the number of negative pivots of an LDL^T
        factorization, which SuperLU gives when it keeps to the diagonal
        (perm_r == perm_c); otherwise this raises ConvergenceFailure."""
        if not np.array_equal(self.lu.perm_r, self.lu.perm_c):
            raise ConvergenceFailure(
                f"no inertia at {self.shift!r}: SuperLU pivoted off the diagonal"
            )
        return int(np.count_nonzero(self.lu.U.diagonal() < 0.0))


def _factor(
    A: sparse.spmatrix,
    shift: float,
    order: np.ndarray | None = None,
    diagonal: bool = True,
) -> _Factorization:
    """LU of A - shift under a symmetric fill-reducing ordering: order, the
    rows and columns of A in factored order, when given, and otherwise the
    one SuperLU finds (minimum degree on A^T + A).  With diagonal, the
    pivots stay on the diagonal unless one is exactly zero; otherwise
    SuperLU pivots partially.  Raises ConvergenceFailure when A - shift is
    exactly singular."""
    B = (A - shift * sparse.identity(A.shape[0], format="csc")).tocsc()
    pivoting = {"diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}} if diagonal else {}
    try:
        if order is None:
            lu = splu(B, permc_spec="MMD_AT_PLUS_A", **pivoting)
        else:
            lu = splu(B[order][:, order], permc_spec="NATURAL", **pivoting)
    except RuntimeError as exc:
        raise ConvergenceFailure(f"no LU at the shift {shift!r}: {exc}") from exc
    return _Factorization(lu, order, shift)


def _start_vector(n: int) -> np.ndarray:
    """A fixed pseudo-random Lanczos start.  Not a constant vector: that is
    the null vector of H on a graph with m = 1 and no potential, from which
    ARPACK stops at once (error -9, starting vector is zero)."""
    return np.random.default_rng(0).standard_normal(n)


def _lanczos(
    A: sparse.spmatrix,
    k: int,
    v0: np.ndarray,
    budget: float,
    factor: _Factorization | None = None,
    ncv: int | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """k eigenpairs of the sparse symmetric A from one ARPACK run: every
    sparse eigensolve goes through here.

    Without factor, Lanczos on A itself gives the k largest; with factor,
    the factorization of A - sigma, shift-invert Lanczos gives the k
    nearest sigma.  v0 is the start vector, never None, since ARPACK's
    random start is not reproducible.  Returns (eigenvalues ascending, unit
    eigenvectors as columns, the largest residual ||Ax - lambda x||), and
    raises ConvergenceFailure when ARPACK fails or a residual exceeds
    budget.
    """
    if factor is None:
        options = {"which": "LA"}
    else:
        opinv = LinearOperator(A.shape, matvec=factor.solve, dtype=float)
        options = {"sigma": factor.shift, "which": "LM", "OPinv": opinv}
    try:
        evals, evecs = eigsh(A, k=k, v0=v0, ncv=ncv, **options)
    except ArpackError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    order = np.argsort(evals)
    evals, evecs = evals[order], evecs[:, order]
    # BLAS nrm2 scales as it sums, so the norm does not overflow where the
    # squares of the entries would (t near 1e300).
    residual = max(
        float(linalg.norm(A @ x - lam * x, check_finite=False)) for lam, x in zip(evals, evecs.T)
    )
    if not residual <= budget:
        raise ConvergenceFailure(f"Lanczos residual {residual!r} exceeds the budget {budget!r}")
    return evals, evecs, residual


# The Lanczos basis of a solve whose shift lies just below the ground
# energy: the shift-inverted operator's top eigenvalue then stands far
# above the rest, and three vectors find it in a few restarts.
NEAR_SHIFT_NCV = 3


def sparse_ground_state(
    A: sparse.spmatrix,
    sigma: float,
    v0: np.ndarray,
    budget: float,
    order: np.ndarray | None = None,
    ncv: int | None = None,
) -> tuple[float, np.ndarray, float]:
    """Lowest eigenpair of a sparse symmetric matrix A, and its residual.

    sigma must lie below the spectrum of A: then (A - sigma)^(-1) is
    positive definite and its largest eigenvalue belongs to the lowest of
    A.  The factorization of A - sigma certifies it: no negative pivot
    means no eigenvalue of A below sigma, by Sylvester's law of inertia.
    One shift-invert Lanczos run with a basis of ncv vectors (ARPACK's
    default when None; NEAR_SHIFT_NCV suffices for a shift just below the
    ground energy) then finds the pair.  v0 is the Lanczos start vector;
    pass one that cannot be orthogonal to the ground state (a positive
    vector for a positive ground state).  order, when given, is the
    fill-reducing ordering of A's sparsity pattern.  Returns
    (lambda, x, ||Ax - lambda x||) with x of unit length, and raises
    ConvergenceFailure when the shift is not below the spectrum, ARPACK
    fails or the residual exceeds budget.
    """
    lu = _factor(A, sigma, order)
    if lu.negative_pivots() != 0:
        raise ConvergenceFailure(f"the shift {sigma!r} is not below the spectrum")
    evals, evecs, residual = _lanczos(A, 1, v0, budget, lu, ncv)
    return float(evals[0]), evecs[:, 0], residual


def count_below(A: sparse.spmatrix, shift: float, order: np.ndarray | None = None) -> int:
    """The number of eigenvalues of the sparse symmetric A below shift.

    By Sylvester's law of inertia it is the number of negative pivots of
    an LDL^T factorization of A - shift.  SuperLU gives one when it keeps
    to the diagonal under a symmetric ordering (perm_r == perm_c); when it
    has to pivot elsewhere, or A - shift is exactly singular, this raises
    ConvergenceFailure.  order, when given, is the fill-reducing ordering
    of A's sparsity pattern.
    """
    return _factor(A, shift, order).negative_pivots()


def sparse_top_eigenvalue(
    A: sparse.spmatrix, budget: float, order: np.ndarray | None = None
) -> float:
    """The largest eigenvalue of a sparse symmetric matrix A.

    Lanczos on A itself (the top end converges without shift-invert)
    gives theta with residual r, so an eigenvalue lies within r of theta;
    the inertia of A - (theta + r + budget) must then count all n
    eigenvalues below that shift, so none lies above it.  Raises
    ConvergenceFailure when r exceeds budget or the count falls short.
    """
    n = A.shape[0]
    evals, _, residual = _lanczos(A, 1, _start_vector(n), budget)
    theta = float(evals[0])
    if count_below(A, theta + residual + budget, order) != n:
        raise ConvergenceFailure(f"an eigenvalue lies above the Ritz value {theta!r}")
    return theta


def sparse_window(
    A: sparse.spmatrix,
    sigma: float,
    interval: tuple[float, float],
    budget: float,
    order: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a sparse symmetric A with eigenvalues in [a, b].

    Endpoints allow ENDPOINT_TOLERANCE of jitter, as window_indices does.
    sigma must lie below the spectrum.  The inertia counts below
    a - tol and b + tol give how many eigenvalues lie below the window
    (lo) and below its top (k); one shift-invert Lanczos run returns the
    k lowest pairs, of which the last k - lo are the window.  Certified
    when the k values split at a - tol as the counts do, none exceeds
    b + tol, the vectors are orthonormal to n eps and every residual is
    within budget; otherwise this raises ConvergenceFailure.  Returns
    (eigenvalues ascending, unit eigenvectors as columns).
    """
    n = A.shape[0]
    lo = count_below(A, interval[0] - ENDPOINT_TOLERANCE, order)
    k = count_below(A, interval[1] + ENDPOINT_TOLERANCE, order)
    if k == lo:
        return np.empty(0), np.empty((n, 0))
    if k >= n:
        raise ConvergenceFailure(f"the window reaches {k} of {n} eigenvalues; eigsh needs fewer")
    evals, evecs, _ = _lanczos(A, k, _start_vector(n), budget, _factor(A, sigma, order))
    drift = float(np.max(np.abs(evecs.T @ evecs - np.eye(k))))
    if not (
        np.count_nonzero(evals < interval[0] - ENDPOINT_TOLERANCE) == lo
        and evals[-1] <= interval[1] + ENDPOINT_TOLERANCE
        and drift <= n * np.finfo(float).eps
    ):
        raise ConvergenceFailure(
            f"window of {k - lo} pairs not certified: orthogonality drift {drift!r}"
        )
    return evals[lo:], evecs[:, lo:]


def window_indices(eigenvalues: np.ndarray, interval: tuple[float, float]) -> np.ndarray:
    """Positions of the eigenvalues that lie in the closed interval, with
    ENDPOINT_TOLERANCE of solver jitter at both ends."""
    return np.flatnonzero(
        (eigenvalues >= interval[0] - ENDPOINT_TOLERANCE)
        & (eigenvalues <= interval[1] + ENDPOINT_TOLERANCE)
    )


def dirichlet_energy(
    g: WeightedGraph, f: Sequence[float] | np.ndarray, include_potential: bool = False
) -> float | np.ndarray:
    """Energy form: sum over edges of b(x,y) (f(x)-f(y))^2, plus V f^2 if asked.

    f of shape (n,) gives one float; f of shape (k, n) gives the k energies
    of its rows as an array.  The edge terms are added one after another in
    stored edge order (cumsum, not the pairwise np.sum), so each energy has
    the same bits as a plain loop over the edges.  Both sums run along the
    contiguous last axis, so a row of a batch gets the bits of the 1-D call
    on that row.
    """
    fa = np.asarray(f, dtype=float)
    i, j, w = g.edge_arrays
    diff = fa[..., i] - fa[..., j]
    terms = w * diff * diff
    total = np.cumsum(terms, axis=-1)[..., -1] if w.size else np.zeros(fa.shape[:-1])
    if include_potential:
        total = total + np.sum(g.V * fa * fa, axis=-1)
    return float(total) if fa.ndim == 1 else total


# From this many vertices on, the context is matrix-free: every spectral
# quantity comes from a sparse solve.  Below about n=200 the fixed cost of
# a sparse solve (an LU and ARPACK's set-up) loses to dense eigvalsh; at
# n=256 sparse is 1.5-2x faster.
SPARSE_MIN_N = 256


@dataclass(frozen=True, eq=False)
class AnalysisContext:
    """One graph and one penalty set D (the centres), analysed once.

    Every property is computed on first use and then kept, so each shared
    quantity costs one assembly or one eigensolve per context.  centers
    may be empty for quantities of the graph alone.  sparse_operator, the
    CSC matrix of H built from the edge list, is the context's one
    assembly of H; every other operator is a copy or a cut of it.

    Below SPARSE_MIN_N vertices operator is sparse_operator densified once,
    and decomposition, its eigh, is H's one eigensolve: ground_pair and
    lambda_0 are its first pair, lambda_max its last eigenvalue, norm,
    shifted_norm and threshold follow from the two, and window(interval)
    cuts the pairs in the interval from it.  lambda_omega is the eigvalsh
    of operator's block on region_indices (region_operator),
    coupled_ground_energy(t) for t > 0 that of operator with t added on the
    diagonal at penalty_indices (coupled(t)).
    Both index sets, which also cut the sparse operators, are found once.

    The coupling curve t -> lambda_0(H + t 1_D) is one record, _curve: for
    each t asked so far, (lambda_t, a lower bound, a start vector), solved
    once.  t = 0 is seeded with lambda_0, so coupled_ground_energy(0.0) is
    lambda_0 bit for bit on both sides; only the matrix-free side keeps the
    last two fields.  _coupling_indices is the one check of t: every
    coupled operator and coupled_ground_energy refuse a t that is not
    finite and >= 0 with the same ValueError.

    From SPARSE_MIN_N vertices on (matrix_free) no dense n x n matrix is
    formed or solved.  Everything comes from sparse_operator, and each
    value is certified within budget = n eps ||H||_1:
      - ground_pair, lambda_0: _ground_solve, one shift-invert Lanczos
        run with the shift min V/m - 1 (the Laplacian part is positive
        semidefinite) from sqrt(m); certified by the residual.
      - lambda_max: sparse_top_eigenvalue, certified by the residual and
        the inertia above it.
      - lambda_omega: sparse_ground_state on the region block with the
        shift lambda_0 - 1 (below it by interlacing) from sqrt(m) on the
        region; certified by the inertia at the shift and the residual.
      - window(interval): sparse_window, certified by the inertia at both
        ends and the residuals.
    On both sides window returns the pairs in the interval alone: their
    eigenvalues ascending and m-orthonormal eigenvectors as columns.
      - coupled_ground_energy(t): sparse_ground_state on H + t 1_D,
        certified by the residual within n eps (||H|| + t).  Its shift is
        the curve's lower bound at the largest t' <= t solved so far
        (lambda_0 less its residual at the seed t' = 0) less the budget of
        t, below lambda_0(H + t 1_D) because the ground energy is
        nondecreasing in t, and the inertia of the factorization
        certifies it; NEAR_SHIFT_NCV Lanczos vectors then suffice.  Each
        solve starts from the ground state at that t' (H's at the
        seed), a positive vector, so the values are reproducible bit for
        bit for the same sequence of t.
    When a certificate fails (SuperLU pivots off the diagonal, a residual
    exceeds the budget, a check fails) the ConvergenceFailure propagates:
    no matrix-free value reads operator or decomposition.
    ordering is a value of _ground_solve: the fill-reducing ordering
    SuperLU found when it factored H below its spectrum.  Every other
    factorization of H's sparsity pattern (the inertia counts, the window,
    the coupled solves and the resolvent's LU) is permuted by it and
    factored with no new search; reading ordering runs the ground solve
    first, so each value has the same bits in whatever order the
    properties are read.
    """

    graph: WeightedGraph
    centers: tuple[str, ...] = ()

    @cached_property
    def metric(self) -> MetricData:
        """All-pairs distances; DistanceOverflow names the first inf one."""
        self.graph.constants  # a disconnected graph is refused as such
        md = compute_metric(self.graph)
        # The first inf entry in row-major order, found from the row maxima
        # and then one row, with no n x n mask.
        row_max = md.dist.max(axis=1)
        if math.isinf(row_max.max()):
            i = int(np.argmax(np.isinf(row_max)))
            j = int(np.argmax(np.isinf(md.dist[i])))
            x, y = self.graph.vertices[i], self.graph.vertices[j]
            raise DistanceOverflow(f"the distance from {x!r} to {y!r} overflows float64")
        return md

    @cached_property
    def omega(self) -> tuple[str, ...]:
        """The region X \\ D, in canonical vertex order."""
        return self.graph.complement(self.centers)

    @cached_property
    def matrix_free(self) -> bool:
        """Whether the spectral quantities come from sparse solves."""
        return self.graph.n >= SPARSE_MIN_N

    @cached_property
    def region_indices(self) -> np.ndarray:
        """The indices of the region; raises EmptyOmega when D covers the graph."""
        idx = self.graph.indices(self.omega)
        if idx.size == 0:
            raise EmptyOmega()
        return idx

    @cached_property
    def penalty_indices(self) -> np.ndarray:
        """The indices of D; raises EmptyCenters when D is empty."""
        idx = self.graph.indices(self.centers)
        if idx.size == 0:
            raise EmptyCenters()
        return idx

    def _coupling_indices(self, t: float) -> np.ndarray:
        """Where t 1_D adds t: the penalty indices.  The one check of a
        coupling strength: t must be finite and >= 0."""
        if not (math.isfinite(t) and t >= 0.0):
            raise ValueError(f"coupling strength must be finite and nonnegative, got {float(t)!r}")
        return self.penalty_indices

    @cached_property
    def operator(self) -> OperatorMatrix:
        """H on the whole graph as a dense matrix: sparse_operator densified."""
        return OperatorMatrix(_readonly(self.sparse_operator.toarray()), self.graph.m)

    @cached_property
    def decomposition(self) -> tuple[np.ndarray, np.ndarray]:
        """eigdecompose(operator): H's eigenvalues and m-orthonormal
        eigenvectors."""
        return eigdecompose(self.operator)

    @cached_property
    def budget(self) -> float:
        """n eps ||H||_1, the error budget of a sparse solve: a dense
        eigensolve's n eps ||H||, with ||H|| bounded by the largest
        absolute column sum, which needs no solve."""
        column_sums = abs(self.sparse_operator).sum(axis=0)
        return float(self.graph.n * np.finfo(float).eps * column_sums.max())

    @cached_property
    def ground_pair(self) -> tuple[float, np.ndarray]:
        """lambda_0(H) and its eigenvector, of unit length in the
        m-weighted inner product."""
        if not self.matrix_free:
            evals, vectors = self.decomposition
            return float(evals[0]), vectors[:, 0]
        lam, x, _, _ = self._ground_solve
        return lam, _readonly(x / np.sqrt(self.graph.m))

    @cached_property
    def _ground_solve(self) -> tuple[float, np.ndarray, float, np.ndarray]:
        """H's ground state from one shift-invert Lanczos run at the shift
        min V/m - 1, below the spectrum since the Laplacian part is
        positive semidefinite, from sqrt(m): lambda_0, the unit eigenvector
        in the symmetric picture, its residual, and the ordering SuperLU
        found for that factorization."""
        g = self.graph
        A = self.sparse_operator
        lu = _factor(A, float(np.min(g.V / g.m)) - 1.0)
        evals, evecs, residual = _lanczos(A, 1, np.sqrt(g.m), self.budget, lu)
        return float(evals[0]), evecs[:, 0], residual, _readonly(np.argsort(lu.lu.perm_c))

    @cached_property
    def ordering(self) -> np.ndarray:
        """The fill-reducing ordering of H's sparsity pattern, H's rows and
        columns in factored order: the one SuperLU found for the ground
        solve, shared by every later factorization of H - s or
        H + t 1_D - s, whichever quantity is asked first."""
        return self._ground_solve[3]

    @cached_property
    def lambda_0(self) -> float:
        """The lowest eigenvalue of H."""
        return self.ground_pair[0]

    @cached_property
    def lambda_max(self) -> float:
        """The largest eigenvalue of H."""
        if self.matrix_free:
            return sparse_top_eigenvalue(self.sparse_operator, self.budget, self.ordering)
        return float(self.decomposition[0][-1])

    @cached_property
    def norm(self) -> float:
        """||H||, the largest |eigenvalue|."""
        return float(max(abs(self.lambda_0), abs(self.lambda_max)))

    @cached_property
    def shifted_norm(self) -> float:
        """||H + 1||."""
        return float(max(abs(self.lambda_0 + 1.0), abs(self.lambda_max + 1.0)))

    @cached_property
    def threshold(self) -> float:
        """Couplings at or above 2 ||H+1||^2 are inside the estimate's regime."""
        return 2.0 * self.shifted_norm * self.shifted_norm

    @cached_property
    def region_operator(self) -> OperatorMatrix:
        """H restricted to the region: its block on region_indices, whose
        diagonal keeps the full weighted degree."""
        idx = self.region_indices
        return OperatorMatrix(
            _readonly(self.operator.sym[np.ix_(idx, idx)]), _readonly(self.graph.m[idx])
        )

    @cached_property
    def lambda_omega(self) -> float:
        """The lowest Dirichlet eigenvalue of the region."""
        if not self.matrix_free:
            return float(eigenvalues_of(self.region_operator)[0])
        idx = self.region_indices
        lam, _, _ = sparse_ground_state(
            self.sparse_operator[idx][:, idx],
            self.lambda_0 - 1.0,
            np.sqrt(self.graph.m[idx]),
            self.budget,
        )
        return lam

    def window(self, interval: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
        """The eigenpairs of H with eigenvalues in the closed interval
        (ENDPOINT_TOLERANCE of jitter at both ends): the eigenvalues
        ascending and the m-orthonormal eigenvectors as columns."""
        if self.matrix_free:
            evals, x = sparse_window(
                self.sparse_operator, self.lambda_0 - 1.0, interval, self.budget, self.ordering
            )
            return _readonly(evals), _readonly(x / np.sqrt(self.graph.m)[:, None])
        evals, vectors = self.decomposition
        inside = window_indices(evals, interval)
        return _readonly(evals[inside]), _readonly(vectors[:, inside])

    @cached_property
    def R(self) -> float:
        """The inradius of the region, equal to the covering radius of D."""
        return inradius(self.metric, self.omega)

    @cached_property
    def min_potential(self) -> float:
        """The smallest V(x); 0 on a graph without potential."""
        return float(self.graph.V.min())

    @cached_property
    def potential_norm(self) -> float:
        """max |V(x)|/m(x), the norm of the potential's part V/m of H; 0 on
        a graph without potential."""
        g = self.graph
        return float(np.abs(g.V / g.m).max())

    @cached_property
    def vol_R(self) -> float:
        """vol[R], the largest closed-ball volume of radius R."""
        return self.metric.vol_bracket(self.R)

    def coupled(self, t: float) -> OperatorMatrix:
        """H + t 1_D on the whole graph: a copy of operator with t added on
        D's diagonal."""
        d_idx = self._coupling_indices(t)
        sym = self.operator.sym.copy()
        sym[d_idx, d_idx] += t
        return OperatorMatrix(_readonly(sym), self.graph.m)

    @cached_property
    def sparse_operator(self) -> sparse.csc_matrix:
        """The symmetric picture of H in CSC form, built from the edge list:
        the program's one assembly of H.  Every sparse factorization and
        Lanczos run is of this matrix or one cut from it, so both bundled
        OpenBLAS copies are held at one thread here, before the first."""
        _one_blas_thread()
        g = self.graph
        i, j, w = g.edge_arrays
        sqrt_m = np.sqrt(g.m)
        off = -w / (sqrt_m[i] * sqrt_m[j])
        diag = np.arange(g.n)
        return sparse.csc_matrix(
            (
                np.concatenate([off, off, g.weighted_degree / g.m + g.V / g.m]),
                (np.concatenate([i, j, diag]), np.concatenate([j, i, diag])),
            ),
            shape=(g.n, g.n),
        )

    def coupled_sparse(self, t: float) -> sparse.csc_matrix:
        """The symmetric picture of H + t 1_D in CSC form: a copy of
        sparse_operator with t added on D's diagonal entries, which it
        stores already (so the pattern is unchanged)."""
        A = self.sparse_operator.copy()
        diagonal = A.diagonal()
        diagonal[self._coupling_indices(t)] += t
        A.setdiag(diagonal)
        return A

    @cached_property
    def _curve(self) -> dict[float, tuple[float, float | None, np.ndarray | None]]:
        """The coupling curve solved so far: for each t, lambda_0(H + t 1_D),
        a lower bound for it (the value less its residual) and its ground
        state, positive and of unit length in the symmetric picture, which
        starts the next solve.  Only the matrix-free side keeps the last
        two.  t = 0 is seeded from H's own solve, so it is lambda_0."""
        if not self.matrix_free:
            return {0.0: (self.lambda_0, None, None)}
        lam, x, residual, _ = self._ground_solve
        return {0.0: (lam, lam - residual, np.abs(x))}

    def coupled_budget(self, t: float) -> float:
        """n eps (||H|| + t), the error budget of lambda_0(H + t 1_D): the
        dense solver's n eps ||H + t 1_D||, and the residual a sparse
        solve must stay within."""
        return float(self.graph.n * np.finfo(float).eps * (self.norm + t))

    def coupled_ground_energy(self, t: float) -> float:
        """The lowest eigenvalue of H + t 1_D for finite t >= 0, read from
        the curve record or solved once and stored there (the coupling and
        uncertainty grids can share their first t); t = 0 is lambda_0."""
        self._coupling_indices(t)
        curve = self._curve
        if t not in curve:
            if not self.matrix_free:
                curve[t] = (float(eigenvalues_of(self.coupled(t))[0]), None, None)
            else:
                budget = self.coupled_budget(t)
                # lambda_0(H + t 1_D) is nondecreasing in t, so the bound
                # at the largest t' <= t solved so far lies below it.
                _, floor, v0 = curve[max(s for s in curve if s <= t)]
                A = self.coupled_sparse(t)
                lam, x, residual = sparse_ground_state(
                    A, floor - budget, v0, budget, self.ordering, NEAR_SHIFT_NCV
                )
                # The ground state is positive up to sign; abs fixes the sign.
                curve[t] = (lam, lam - residual, np.abs(x))
        return curve[t][0]

    def require_region(self) -> None:
        """Raise EmptyCenters unless D is nonempty, then EmptyOmega unless
        the region X \\ D is."""
        self.penalty_indices
        self.region_indices


# ---------------------------------------------------------------------------
# Dirichlet eigenvalue bounds
# ---------------------------------------------------------------------------


def _geometric_row(
    ctx: AnalysisContext, name: str, true_value: float, bound: float, note: str = ""
) -> BoundReport:
    """true_value >= bound, for a bound that rests on the geometric lower
    bounds for lambda_Omega.  Those are proved for V >= 0 (by monotonicity
    from the Laplacian), so with some V(x) < 0 the row is not asserted."""
    v_min = ctx.min_potential
    if v_min < 0.0:
        note = (note + "; " if note else "") + (
            f"min V = {v_min!r} < 0; bound proved for V >= 0 only, not asserted"
        )
    return make_report(name, true_value, bound, ">=", vacuous=v_min < 0.0, note=note)


def dirichlet_bounds_finite(ctx: AnalysisContext) -> tuple[BoundReport, BoundReport]:
    """Two-sided finite-volume bounds for the lowest Dirichlet eigenvalue.

    Lower: 1 / (Inr(omega) * vol(omega)), proved for V >= 0 and not
    asserted otherwise.  Upper: (||H|| + a) times the measure fraction
    vol D / vol X of the complement, plus b, with a = max |V/m| and b the
    largest V/m on the region; for V = 0 this is ||H|| vol D / vol X,
    which is tight for a single free vertex on the two-point graph.  It is
    the Rayleigh quotient of 1_Omega: with g = 1_D - (vol D / vol X) 1 the
    Laplacian part gives <L 1_Omega, 1_Omega> = <L g, g> <= ||L|| vol D
    vol Omega / vol X and ||L|| <= ||H|| + a, and the potential's part is
    the sum of V over the region, at most b vol Omega.
    """
    g = ctx.graph
    lam = ctx.lambda_omega
    vol_omega = g.vol(ctx.omega)
    lower = _geometric_row(
        ctx, "dirichlet/lower_inradius_volume", lam, 1.0 / (ctx.R * vol_omega)
    )
    vol_x = g.vol_total()
    region_potential = float((g.V / g.m)[ctx.region_indices].max())
    upper = make_report(
        "dirichlet/upper_complement_fraction",
        lam,
        (ctx.norm + ctx.potential_norm) * ((vol_x - vol_omega) / vol_x) + region_potential,
        "<=",
    )
    return lower, upper


def dirichlet_lower_bound(ctx: AnalysisContext) -> list[BoundReport]:
    """Ball-volume lower bounds for the lowest Dirichlet eigenvalue.

    Main row: 1 / (R * vol[R]) with R the inradius of the region and
    vol[s] the largest closed-ball volume.  Two refinements are emitted
    alongside: ball volumes counted inside the region only, and ball
    volumes around the complement points only.  Both refinements dominate
    the main bound.  All three are proved for V >= 0 and are not asserted
    when some V(x) < 0.
    """
    lam, R = ctx.lambda_omega, ctx.R
    vol_in = ctx.metric.vol_bracket_within(R, ctx.omega)
    vol_centers = ctx.metric.vol_bracket_centers(R, ctx.centers)
    return [
        _geometric_row(ctx, "dirichlet/lower_ball_volume", lam, 1.0 / (R * ctx.vol_R)),
        _geometric_row(
            ctx, "dirichlet/lower_ball_volume_in_region", lam, 1.0 / (R * vol_in),
            note="ball mass counted inside the region only",
        ),
        _geometric_row(
            ctx, "dirichlet/lower_center_balls", lam, 1.0 / (R * vol_centers),
            note="ball mass around complement points only",
        ),
    ]


# ---------------------------------------------------------------------------
# Large-coupling limit
# ---------------------------------------------------------------------------


def resolvent_gap(ctx: AnalysisContext, t: float) -> BoundReport:
    """Distance between the coupled resolvent and the restricted resolvent.

    Compares (H + t 1_D + 1)^(-1) against the resolvent of the restriction
    to the region, extended by zero, in operator norm.  The proved decay is
    4 ||H+1||^2 / (1+t) once t >= 2 ||H+1||^2; smaller couplings are
    evaluated anyway and flagged as out of regime.  The estimate assumes
    H >= 0: when some V(x) < 0 and the lowest eigenvalue of H is negative
    too, the row is reported but not asserted.

    The difference is never formed.  Let A = H + t 1_D + 1 (symmetric
    picture), E_D the columns of the identity on D, Y = A^(-1) E_D and
    C = Y[D, :], which is the inverse of the Schur complement
    S = A_DD - A_DO A_OO^(-1) A_OD.  The block-inverse formula gives

        (H + t 1_D + 1)^(-1) - ((H_Omega + 1)^(-1) + 0) = Y C^(-1) Y^T

    whenever A and H_Omega + 1 are invertible.  With the thin QR Y = QR,
    the gap is the largest |eigenvalue| of the |D| x |D| matrix
    R C^(-1) R^T: one solve with |D| right-hand sides, one QR and one small
    eigvalsh.  Nothing subtracts two O(1) resolvents to get an O(1/t)
    difference, so the value keeps its relative accuracy at large t.
    From SPARSE_MIN_N vertices on the solve is a sparse LU of A, with the
    unit columns written in its factored order (solve_unit_columns).
    """
    t = float(t)
    g = ctx.graph
    ctx.require_region()
    h1, threshold = ctx.shifted_norm, ctx.threshold

    d_idx = ctx.penalty_indices
    if ctx.matrix_free:
        # Partial pivoting: A is indefinite when V < 0.
        y = _factor(
            ctx.coupled_sparse(t), -1.0, ctx.ordering, diagonal=False
        ).solve_unit_columns(d_idx)
    else:
        e_d = np.zeros((g.n, d_idx.size))
        e_d[d_idx, np.arange(d_idx.size)] = 1.0
        y = np.linalg.solve(ctx.coupled(t).sym + np.eye(g.n), e_d)
    r = np.linalg.qr(y, mode="r")
    m = r @ np.linalg.solve(y[d_idx], r.T)
    gap = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (m + m.T)))))

    bound = 4.0 * h1 * h1 / (1.0 + t)
    below = t < threshold
    note = f"t={t!r}, threshold={threshold!r}"
    if below:
        note += "; below coupling threshold, bound not asserted"
    # The sign of V decides: a potential-free H may give lambda_0 = -1e-17.
    indefinite = ctx.min_potential < 0.0 and ctx.lambda_0 < 0.0
    if indefinite:
        note += (
            f"; min V = {ctx.min_potential!r} and lambda_0(H) = "
            f"{ctx.lambda_0!r} < 0, so H >= 0 fails; bound not asserted"
        )
    return make_report(
        "resolvent/schur_gap", gap, bound, "<=", vacuous=below or indefinite, note=note
    )


def _power(x: float, y: float) -> float:
    """x ** y, or inf where that leaves float64 (Python's ** raises there)."""
    try:
        return x**y
    except OverflowError:
        return math.inf


def coupling_rate(ctx: AnalysisContext, t_list: Sequence[float]) -> list[BoundReport]:
    """Convergence of the coupled ground energy to the Dirichlet one.

    Checks that the restricted ground energy dominates every coupled one,
    that the coupled ground energy is nondecreasing in t, and that above
    the coupling threshold the gap closes at least like
    4 ||H+1||^2 (lam+1)^2 / (t+1), with the coarser all-norm variant
    4 ||H+1||^4 / (t+1) reported alongside.  Where 4 ||H+1||^4 overflows
    float64, that variant is evaluated as (4 ||H+1||^2) (||H+1||^2 / (t+1)).
    """
    ctx.require_region()
    ts = [float(t) for t in t_list]
    if not ts:
        raise ValueError("need at least one coupling value")

    h1, threshold = ctx.shifted_norm, ctx.threshold
    lam_inf = ctx.lambda_omega
    lam_ts = [ctx.coupled_ground_energy(t) for t in ts]

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
    coarse_factor = 4.0 * _power(h1, 4)

    def coarse_bound(t: float) -> float:
        if math.isfinite(coarse_factor):
            return lam_inf - coarse_factor / (t + 1.0)
        return lam_inf - (4.0 * h1 * h1) * (h1 * h1 / (t + 1.0))

    for k, i in enumerate(order):
        t = ts[i]
        below = t < threshold
        note = f"t={t!r}" + ("; below coupling threshold" if below else "")
        rows.append(
            make_report(
                f"coupling/rate#{k}",
                lam_ts[i],
                coarse_bound(t),
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
# The uncertainty constant
# ---------------------------------------------------------------------------


def compressed_penalty_matrix(
    phi: np.ndarray, g: WeightedGraph, d_set: Iterable[str]
) -> np.ndarray:
    """Gram matrix of the penalty mass over the eigenvectors phi (columns).

    Entry (i, j) is sum over x in D of phi_i(x) phi_j(x) m(x); its lowest
    eigenvalue is the exact uncertainty constant for the spanned subspace.
    """
    idx = g.indices(d_set)
    mass = np.zeros(g.n)
    mass[idx] = g.m[idx]
    gram = phi.T @ (phi * mass[:, None])
    return 0.5 * (gram + gram.T)


# The geometric part of the uncertainty grid: this many couplings from the
# threshold 2 ||H+1||^2 to 1e4 ||H+1||^2; t_opt makes one more.
UNCERTAINTY_GRID_POINTS = 16


def uncertainty_constant(
    ctx: AnalysisContext, interval: tuple[float, float]
) -> list[BoundReport]:
    """Lower bounds for the penalty mass of low-energy spectral subspaces.

    The exact constant is the lowest eigenvalue of the compressed penalty
    matrix over the eigenvectors with eigenvalues in the interval.  It is
    checked against three proved lower bounds: the energy-form constant
    (lam_omega - max I)^2 / (16 ||H+1||^2 (lam_omega+1)^2), the fully
    geometric variant with 1/(R vol[R]) in place of lam_omega and
    ||H+1||^4 in the denominator, and the best sampled coupling value
    (lam_t - max I)/t over a geometric grid of UNCERTAINTY_GRID_POINTS
    couplings plus the analytic optimizer t_opt.  Couplings that overflow
    float64 are not sampled, and the row's note says how many of the 17
    are finite; when none is (the threshold overflows) this raises
    ValueError.
    The eigenpairs in the interval come from ctx.window, and ||H+1|| is
    ctx.shifted_norm.
    The geometric variant, and its comparison with the energy form, need
    lam_omega >= 1/(R vol[R]), proved for V >= 0; with some V(x) < 0 both
    rows are reported but not asserted.  Where ||H+1||^4 overflows float64
    it is evaluated as (geo - max I)^2 / (16 ||H+1||^2) / ||H+1||^2.

    The sampled constant solves only the couplings that can raise it.  The
    grid is walked in order (ascending, t_opt last); the first t is always
    solved, and a later one is skipped when
    (lam_omega + e_t - max I)/t < kappa_best, with
    e_t = ctx.budget + ctx.coupled_budget(t), the budgets of lam_omega and
    of lam_t.  The premise is lam_t <= lam_omega, since lambda_0(H + t 1_D)
    rises with t to the Dirichlet energy; within those budgets, and with
    monotone rounding, no skipped sample exceeds kappa_best, so the bound
    is that of the best of all samples.  Where e_t / t is not small (t up
    to 1e33 on comb:26) the rule skips nothing.  In a report, after the
    coupling grid's 8 solves, this skips all 16 new couplings on random:100
    to random:800, lattice:2:20 and apex_ray:200, 13 on comb:12 and none on
    comb:26.
    """
    ctx.require_region()
    a, b = float(interval[0]), float(interval[1])
    if a > b:
        raise ValueError("interval endpoints must satisfy a <= b")
    max_i = b

    lam_omega = ctx.lambda_omega
    if max_i >= lam_omega:
        raise PreconditionInterval(
            f"max I = {max_i!r} reaches the Dirichlet ground energy {lam_omega!r}"
        )
    evals, phi = ctx.window((a, b))
    h1 = ctx.shifted_norm

    kappa_thm = (lam_omega - max_i) ** 2 / (
        16.0 * h1 * h1 * (lam_omega + 1.0) ** 2
    )
    geo = 1.0 / (ctx.R * ctx.vol_R)
    kappa_cor = None
    if max_i < geo:
        h1_fourth = _power(h1, 4)
        if math.isfinite(h1_fourth):
            kappa_cor = (geo - max_i) ** 2 / (16.0 * h1_fourth)
        else:
            kappa_cor = (geo - max_i) ** 2 / (16.0 * h1 * h1) / (h1 * h1)

    rows: list[BoundReport] = []
    if not evals.size:
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

    gram = compressed_penalty_matrix(phi, ctx.graph, ctx.centers)
    truth = float(np.linalg.eigvalsh(gram)[0])

    # Where 1e4 ||H+1||^2 overflows, geomspace's steps are inf (0 * inf at
    # the first) and the couplings past the threshold are inf.
    with np.errstate(invalid="ignore"):
        grid = np.geomspace(ctx.threshold, 1.0e4 * h1 * h1, UNCERTAINTY_GRID_POINTS)
    t_opt = 8.0 * h1 * h1 * (lam_omega + 1.0) ** 2 / (lam_omega - max_i)
    t_grid = [t for t in [*grid, t_opt] if math.isfinite(t)]
    if not t_grid:
        raise ValueError(
            f"the coupling threshold 2 ||H+1||^2 = {ctx.threshold!r} overflows "
            "float64; no coupling of the uncertainty grid can be sampled"
        )
    kappa_best = None
    for t in t_grid:
        # No sample at t exceeds this ceiling.
        e_t = ctx.budget + ctx.coupled_budget(t)
        ceiling = (lam_omega + e_t - max_i) / t
        if kappa_best is not None and ceiling < kappa_best:
            continue
        kappa = (ctx.coupled_ground_energy(t) - max_i) / t
        if kappa_best is None or kappa > kappa_best:
            kappa_best = kappa

    rows.append(
        make_report(
            "uncertainty/energy_form", truth, kappa_thm, ">=",
            note=f"projection rank {evals.size}",
        )
    )
    if kappa_cor is not None:
        rows.append(_geometric_row(ctx, "uncertainty/geometry_form", truth, kappa_cor))
        rows.append(
            _geometric_row(
                ctx, "uncertainty/energy_vs_geometry", kappa_thm, kappa_cor,
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
    total = UNCERTAINTY_GRID_POINTS + 1
    sampled = str(total) if len(t_grid) == total else f"{len(t_grid)} finite of {total}"
    rows.append(
        make_report(
            "uncertainty/sampled_coupling", truth, kappa_best, ">=",
            note=f"best of {sampled} sampled couplings",
        )
    )
    rows.append(
        make_report(
            "uncertainty/sampled_vs_energy", kappa_best, kappa_thm, ">=",
            note="sampled constant at the analytic optimizer dominates",
        )
    )
    return rows
