"""Exception types shared across the package; each carries only its message."""


class RadcomError(Exception):
    """Base class for all radcom-specific errors."""


class ValidationError(RadcomError, ValueError):
    """An input value or precondition is outside its documented domain."""


class ScenarioParseError(ValidationError):
    """A scenario source could not be parsed; the message starts ``line N:``."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")


class InfeasibleError(RadcomError):
    """A constrained problem has no solution for the requested inputs."""
