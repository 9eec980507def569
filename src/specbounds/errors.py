"""Exception types shared across the package."""


class GraphError(Exception):
    """Base class for all graph-related errors."""


class DisconnectedGraph(GraphError):
    """The positive-weight edge set does not connect all vertices."""


class NonSymmetricWeights(GraphError):
    """Conflicting weights were supplied for the two orientations of an edge."""


class NonPositiveMeasure(GraphError):
    """A vertex measure is zero, negative or not finite."""


class NegativeEdgeWeight(GraphError):
    """An edge weight is negative or not finite (or a stored edge has weight 0)."""


class NonFinitePotential(GraphError):
    """A vertex potential is NaN or infinite."""


class NonzeroDiagonal(GraphError):
    """A self-loop was supplied; the weight function must vanish on the diagonal."""


class GraphFormatError(GraphError):
    """A graph file violates the JSON schema (duplicates, self-loops, bad weights)."""


class InvalidSpec(GraphError):
    """A generator specification is malformed or out of range."""


class DistanceOverflow(GraphError):
    """A shortest-path distance exceeds the float64 range."""


class EmptySet(GraphError):
    """An operation received an empty vertex set where a nonempty one is required."""


class FullSet(GraphError):
    """The inradius of the whole vertex set is undefined (no exterior point)."""


class EmptyCenters(GraphError):
    """A Voronoi decomposition needs at least one center."""


class EmptyOmega(GraphError):
    """An operator restriction received an empty index set."""


class ConvergenceFailure(GraphError):
    """The eigensolver did not converge."""


class NotCombinatorial(GraphError):
    """An operation requires unit edge weights and unit vertex measure."""


class CapacityOverflow(GraphError):
    """A minimum-cut capacity does not fit the int32 flow solver."""


class PreconditionInterval(GraphError):
    """The energy interval reaches or exceeds the Dirichlet ground energy."""


class DoublingUnverified(GraphError):
    """The sampled volume-doubling check failed for the requested exponent."""
