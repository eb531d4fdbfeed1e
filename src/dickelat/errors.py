"""Exception types shared across the package."""


class DickelatError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(DickelatError):
    """Invalid or unresolvable run configuration."""


class CapacityError(DickelatError):
    """Requested matrix exceeds the configured memory budget."""


class SolverError(DickelatError):
    """Dense eigensolver failed to converge."""


class InsufficientDataError(DickelatError):
    """Too few data points for the requested analysis."""
