"""Exception types shared across the package."""


class SingularTensor(ValueError):
    """A tensor that must be invertible is (numerically) singular."""


class NonPositiveDeterminant(ValueError):
    """An operation requiring det > 0 received a tensor violating it."""


class NonPositiveStretch(ValueError):
    """A stretch ratio that must be positive is not."""


class DomainError(ValueError):
    """Kinematically inadmissible input (negative radicand, radius out of range, ...)."""


class NoConvergence(RuntimeError):
    """An iterative solve failed; carries the last iterate and residuals."""

    def __init__(self, message, last_iterate=None, residuals=None, iterations=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residuals = residuals
        self.iterations = iterations


class ConfigError(ValueError):
    """Invalid or incomplete run configuration; message names the offending field."""
