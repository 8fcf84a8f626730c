"""Exception hierarchy for the ordist package."""


class OrdistError(Exception):
    """Base class for all package-specific errors."""


class SystemFormatError(OrdistError):
    """A system description (file or in-memory) is structurally invalid."""


class UnknownInput(OrdistError):
    """An input identifier is not part of the design."""


class SameInput(OrdistError):
    """Two distinct inputs were required but the same one was given twice."""


class UnrankedValue(OrdistError):
    """An outcome value has no rank under the given order."""


class ValueNotInPartition(OrdistError):
    """An outcome value belongs to no cell of a classification partition."""


class InvalidP(OrdistError):
    """Minkowski exponent p < 1."""


class InvalidExponent(OrdistError):
    """Power-transform exponent outside (0, 1]."""


class GroundAxiomViolation(OrdistError):
    """A ground distance table fails the pseudo-quasi-metric axioms."""


class MetricEvaluationError(OrdistError):
    """A metric could not be evaluated on the given marginal."""


class CapExceeded(OrdistError):
    """Sequence enumeration exceeded the configured count bound."""


class HiddenSpaceTooLarge(OrdistError):
    """The hypothetical joint over all input points exceeds the size cap."""


class MarginalSelectivityViolated(OrdistError):
    """An operation requires marginal selectivity but the tables break it."""


class NumericalInstability(OrdistError):
    """The simplex did not finish, or a verdict failed its own check."""


class InvalidCorrelation(OrdistError):
    """A correlation coefficient outside [-1, 1]."""
