"""Exception hierarchy and warning categories for the votefuse package."""


class VoteFuseError(Exception):
    """Base class for all votefuse errors."""


# --- graph construction / validation -----------------------------------------

class GraphError(VoteFuseError):
    pass


class AssignmentMissing(GraphError):
    """A source is not assigned to any task."""


class SelfEdge(GraphError):
    """An edge connects a vertex to itself."""


class NotTriangulated(GraphError):
    """A junction tree was requested for a non-chordal graph."""


class UnsupportedCliqueSize(GraphError):
    """The triangulated graph contains a clique outside the supported shapes.

    Supported maximal cliques are either all-task cliques, or one task plus
    at most two sources assigned to that task.
    """


# --- estimation ---------------------------------------------------------------

class EstimationError(VoteFuseError):
    pass


class InsufficientIndependence(EstimationError):
    """No observed variable admits a valid triplet and the ratio fallback is off."""


class NoUsableTriplet(EstimationError):
    """A variable has no valid triplet, or its pooled triplet fit divides by
    near-zero partner moments, and no fallback is available."""


class PriorNearZero(EstimationError):
    """The ratio fallback needs |E[Y]| bounded away from zero."""


class TooFewAbstainRows(EstimationError):
    """Not enough abstain rows to estimate an abstain-conditioned accuracy."""


class AnchorUnreachable(EstimationError):
    """Sign propagation from the anchor cannot reach some variable."""


# --- parameter recovery -------------------------------------------------------

class RecoveryError(VoteFuseError):
    pass


class NumericalInstability(RecoveryError):
    """A solved marginal fell too far outside the probability simplex."""


# --- inference ----------------------------------------------------------------

class InferenceError(VoteFuseError):
    pass


class AllZeroLikelihood(InferenceError):
    """Every task configuration has zero joint probability for a vote row."""


class ShapeMismatch(InferenceError):
    """Input dimensions do not match the fitted model."""


class DegenerateClass(InferenceError):
    """A class never receives a vote in the multiclass reduction."""


# --- oracle -------------------------------------------------------------------

class OracleError(VoteFuseError):
    pass


class TooLarge(OracleError):
    """The model exceeds the exact-enumeration size cap."""


# --- data / configuration -----------------------------------------------------

class DataFormatError(VoteFuseError):
    """A text input (CSV, graph spec, prior, model spec) is malformed."""


class ConfigError(VoteFuseError):
    """A run configuration is invalid or contains unknown keys."""


# --- warnings -----------------------------------------------------------------

class EstimationWarning(UserWarning):
    """Soft estimator degradations: clamped accuracies, fallback substitutions,
    sign ties, clipped marginals."""
