"""Exception types shared across the package; each carries only its message."""


class RadcomError(Exception):
    """Base class for all radcom-specific errors."""


class ValidationError(RadcomError, ValueError):
    """An input value or precondition is outside its documented domain."""


class InfeasibleError(RadcomError):
    """A constrained problem has no solution for the requested inputs."""
