"""Exception hierarchy shared across the estimators, oracle, and CLI."""


class TrimregError(Exception):
    """Base class for all package-specific errors."""


class RankDeficient(TrimregError):
    """Restricted design matrix is numerically singular."""


class TooFewRows(TrimregError):
    """Active set has fewer rows than design columns."""


class TooFewInliers(TrimregError):
    """Sparsity budget leaves fewer inliers than design columns."""


class NotConverged(TrimregError):
    """Iterative fit exhausted its iteration budget."""


class AllFitsFailed(TrimregError):
    """No point of a tuning grid produced a converged fit."""


class DegenerateFit(TrimregError):
    """Residual sum of squares too small for a log-based criterion."""


class InvariantViolated(TrimregError):
    """A search step broke a property it guarantees, such as descent."""


class TooLarge(TrimregError):
    """Instance exceeds the exact solver's size limit."""


class ParseError(TrimregError):
    """Input file could not be parsed; carries row/column context."""


class DimensionError(TrimregError):
    """Input dimensions are inconsistent with the requested fit."""


class WindowTooLarge(TrimregError):
    """Rolling window does not leave any forecast targets."""
