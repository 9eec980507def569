"""Geometric spectral bounds on finite weighted graphs.

The package computes path metrics, Voronoi decompositions with geodesic
witnesses, Dirichlet eigenvalue bounds from inradius and ball volumes,
large-coupling resolvent convergence rates, low-energy uncertainty
constants, isoperimetric bound chains on combinatorial graphs, and
ground-state transforms for potentials.  Every bound is a theorem: a
failing report row signals an implementation bug.
"""

# Set before the submodules load: report reads it while this package initialises.
__version__ = "0.1.0"

from .cheeger import (
    IsoperimetricData,
    cheeger_chain,
    growth_diagnostic,
    region_constant,
)
from .errors import (
    CapacityOverflow,
    ConvergenceFailure,
    DisconnectedGraph,
    DistanceOverflow,
    DoublingUnverified,
    EmptyCenters,
    EmptyOmega,
    EmptySet,
    FullSet,
    GraphError,
    GraphFormatError,
    InvalidSpec,
    NegativeEdgeWeight,
    NonFinitePotential,
    NonPositiveMeasure,
    NonSymmetricWeights,
    NonzeroDiagonal,
    NotCombinatorial,
    PreconditionInterval,
)
from .generators import (
    DEFAULT_SEED,
    apex_ray,
    complete_graph,
    cycle_graph,
    generate,
    geometric_comb,
    lattice_box,
    normalized,
    path_graph,
    random_connected,
)
from .graph import (
    GeometryConstants,
    WeightedGraph,
    dumps_graph,
    is_combinatorial,
    load_graph,
    loads_graph,
    save_graph,
    validate,
)
from .metric import (
    BallVolumeTable,
    MetricData,
    ball,
    check_homogeneity,
    compute_metric,
    covering_radius,
    geodesic,
    inradius,
)
from .potential import (
    GroundState,
    ground_state,
    ground_state_transform,
    ground_state_transform_check,
    potential_dirichlet_bound,
    verify_doubling,
)
from .report import (
    BoundReport,
    PASS_TOLERANCE,
    Report,
    make_report,
    render,
    render_csv,
    render_json,
    rows_pass,
)
from .spectral import (
    AnalysisContext,
    OperatorMatrix,
    compressed_penalty_matrix,
    count_below,
    coupling_rate,
    dirichlet_bounds_finite,
    dirichlet_energy,
    dirichlet_lower_bound,
    eigdecompose,
    eigenvalues_of,
    lowest_eigenvalue,
    resolvent_gap,
    sparse_ground_state,
    sparse_top_eigenvalue,
    sparse_window,
    uncertainty_constant,
    window_indices,
)
from .voronoi import VoronoiDecomposition, build_voronoi, verify_voronoi
