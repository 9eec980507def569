"""Exception types shared across the package.

Every bound concerns a penalty set D with a nonempty region X \\ D, so
the two degenerate sets have one error type each, raised by every entry
point that reads them: EmptyCenters when D is empty, EmptyOmega when D
covers the graph.  Each has one message, defined here.
"""


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
    """A graph's input is malformed: not valid JSON, a missing field, a
    duplicate vertex or edge, or an unknown vertex id.  Self-loops raise
    NonzeroDiagonal and bad weights NegativeEdgeWeight."""


class InvalidSpec(GraphError):
    """A generator specification is malformed or out of range."""


class DistanceOverflow(GraphError):
    """A shortest-path distance exceeds the float64 range."""


class EmptyCenters(GraphError):
    """The penalty set (the centers) D is empty."""

    def __init__(self) -> None:
        super().__init__("penalty set must be nonempty")


class EmptyOmega(GraphError):
    """The region X \\ D is empty: the penalty set covers the graph."""

    def __init__(self) -> None:
        super().__init__("penalty set covers the graph; no region remains")


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
