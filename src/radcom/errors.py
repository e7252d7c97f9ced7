"""Exception types and input checks shared across the package; they need no numpy."""

import math

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


def check_pulse(bandwidth_hz: float, time_bandwidth: float) -> None:
    """Refuse a pulse whose closed-form moments leave the float range: they
    square pi W, so (pi W)^2 must be finite and > 0, and TW finite and >= 1."""
    pi_w = math.pi * bandwidth_hz
    if not (bandwidth_hz > 0.0 and 0.0 < pi_w * pi_w < math.inf):
        raise ValidationError(f"bandwidth_hz must be > 0 with (pi W)^2 finite and "
                              f"> 0, got {bandwidth_hz!r}")
    if not (math.isfinite(time_bandwidth) and time_bandwidth >= 1.0):
        raise ValidationError(f"time_bandwidth must be >= 1, got {time_bandwidth!r}")
