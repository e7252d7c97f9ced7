"""Exception types and input checks shared across the package; they need no numpy."""

MIN_OVERSAMPLING = 8.0          # sample_rate_hz >= MIN_OVERSAMPLING * W


class RadcomError(Exception):
    """Base class for all radcom-specific errors."""


class ValidationError(RadcomError, ValueError):
    """An input value or precondition is outside its documented domain."""


class InfeasibleError(RadcomError):
    """A constrained problem has no solution for the requested inputs."""


def checked_number(name: str, value, integer: bool = False):
    """``value`` if JSON gave it as a number (an integer if ``integer``, else one
    a float can hold), never a bool."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        what = "an integer" if integer else "a number"
        raise ValidationError(f"{name} must be {what}, got {value!r}")
    if not integer:
        try:
            float(value)
        except OverflowError:
            raise ValidationError(
                f"{name} is too large for a float, got {value!r}") from None
    return value
