"""Exception types shared across the package."""


class FluxgateError(Exception):
    """Base class for all package-specific failures."""


class ConvergenceError(FluxgateError):
    """An eigenproblem or finite-difference result failed its convergence bound."""

    def __init__(self, message, last_delta=None):
        super().__init__(message)
        self.last_delta = last_delta


class CutoffError(FluxgateError):
    """A truncated basis leaks weight into its edge states."""


class ConstructionError(FluxgateError):
    """Operator assembly produced inconsistent dimensions."""


class LabelingError(FluxgateError):
    """A required dressed-state label is ambiguous or missing."""

    def __init__(self, message, flagged=()):
        super().__init__(message)
        self.flagged = tuple(flagged)


class DomainError(FluxgateError, ValueError):
    """A flux value or schedule leaves the physical parameter domain."""


class IntegrationError(FluxgateError):
    """Time propagation violated its accuracy contract (norm drift, unitarity)."""


class SearchError(FluxgateError):
    """A parameter search had no usable candidates."""


class ConfigError(FluxgateError):
    """A run configuration failed validation.

    ``field`` holds the dotted section.key path when one is known.
    """

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field

