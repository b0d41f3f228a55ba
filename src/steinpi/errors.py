"""Exception types shared across the package."""


class SteinpiError(Exception):
    """Base class for all library errors."""


class NonConvergence(SteinpiError):
    """An iterative routine exhausted its iteration budget."""


class NotPositiveDefinite(SteinpiError):
    """A matrix required to be positive definite is not (within tolerance)."""


class InvalidSimplex(SteinpiError):
    """Weights are not a valid point of the probability simplex."""


class NegativeQuadraticForm(SteinpiError):
    """A Gram quadratic form was negative beyond rounding tolerance."""


class GramTooLarge(SteinpiError):
    """Point set exceeds the dense Gram-matrix size guard."""


class DimensionMismatch(SteinpiError):
    """Inputs have incompatible dimensions."""


class SizeGuard(SteinpiError):
    """Problem size exceeds a configured safety limit."""


class InsufficientReplicates(SteinpiError):
    """A summary cell has fewer than two replicates."""


class EmptySummary(SteinpiError):
    """No summary rows were provided."""


class ConfigError(SteinpiError):
    """An experiment configuration is invalid.

    The message carries the JSON path of the offending key.
    """
