"""Experiment configuration: unit conversion, scenario files, power splits.

All stored quantities are linear: channel gains are dimensionless power
ratios, noise and transmit powers are in mW. dB/dBm forms are accepted at
the parsing boundary and re-emitted only in reports.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ValidationError, checked_number


def db_to_linear(value_db: float) -> float:
    """Convert a dB (or dBm) value to its linear ratio (or mW power)."""
    if not math.isfinite(value_db):
        raise ValidationError(f"dB value must be finite, got {value_db!r}")
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        raise ValidationError(f"dB value {value_db!r} is too large for a float") from None


def linear_to_db(value: float) -> float:
    """Convert a positive linear ratio (or mW power) to dB (or dBm)."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValidationError(f"linear value must be finite and > 0, got {value!r}")
    return 10.0 * math.log10(value)


@dataclass(frozen=True)
class ScenarioConfig:
    """Physical parameters of one experiment.

    Defaults are the baseline simulation setup: a strong user at -90 dB
    gain, a weak user 10 dB below it, -105 dBm receiver noise, -110 dBm
    radar noise, a 20 MHz sweep with time-bandwidth product 1000, and
    0 dBm total emission.
    """

    h1_gain: float = 1e-9            # |h1|^2, user-1 linear power gain
    h2_gain: float = 1e-10           # |h2|^2, user-2 linear power gain
    sigma1_sq: float = 10.0 ** -10.5  # user-1 noise power, mW (-105 dBm)
    sigma2_sq: float = 10.0 ** -10.5  # user-2 noise power, mW (-105 dBm)
    sigma_r_sq: float = 1e-11        # radar receiver noise power, mW (-110 dBm)
    eta1: float = 0.1                # user-1 radar cross-section, m^2
    eta2: float = 0.5                # user-2 radar cross-section, m^2
    bandwidth_hz: float = 2e7        # sweep bandwidth W, Hz
    time_bandwidth: float = 1000.0   # TW product, dimensionless
    total_power_mw: float = 1.0      # total transmit power P, mW (0 dBm)

    def __post_init__(self):
        for name in ("sigma1_sq", "sigma2_sq", "sigma_r_sq", "eta1", "eta2",
                     "bandwidth_hz", "total_power_mw"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValidationError(f"{name} must be finite and > 0, got {value!r}")
        if not (math.isfinite(self.h1_gain) and math.isfinite(self.h2_gain)):
            raise ValidationError("channel gains must be finite")
        # User 1 strips s2 by SIC before decoding s1, which is sound only when
        # it hears s2 better than user 2 does (the larger effective gain
        # h/sigma^2); then user 2's own SINR sets its rate for every split.
        if not (self.h2_gain > 0.0
                and self.h1_gain / self.sigma1_sq > self.h2_gain / self.sigma2_sq):
            raise ValidationError(
                "SIC ordering violated: require h2_gain > 0 and "
                "h1_gain/sigma1_sq > h2_gain/sigma2_sq (user 1 is the strong user), "
                f"got h1_gain={self.h1_gain:.6g}, h2_gain={self.h2_gain:.6g}, "
                f"sigma1_sq={self.sigma1_sq:.6g}, sigma2_sq={self.sigma2_sq:.6g}")
        if not (math.isfinite(self.time_bandwidth) and self.time_bandwidth >= 1.0):
            raise ValidationError(
                f"time_bandwidth must be >= 1, got {self.time_bandwidth!r}")
        for k in (1, 2):   # float products give inf or nan (inf * 0), never raise
            if not math.isfinite(self.echo_gain(k) * self.total_power_mw):
                raise ValidationError(
                    f"target {k}'s full-power echo eta{k}^2 h{k}_gain^2 total_power_mw "
                    f"leaves the float range, got eta{k}={getattr(self, f'eta{k}'):.6g}, "
                    f"h{k}_gain={getattr(self, f'h{k}_gain'):.6g}, "
                    f"total_power_mw={self.total_power_mw:.6g}")

    def echo_gain(self, k: int) -> float:
        """Radar target k's two-way gain eta^2 h^2: user k's cross-section and gain."""
        if k not in (1, 2):
            raise ValidationError(f"target index must be 1 or 2, got {k!r}")
        eta, h = (self.eta1, self.h1_gain) if k == 1 else (self.eta2, self.h2_gain)
        return eta * eta * (h * h)


@dataclass(frozen=True)
class PowerAllocation:
    """Fractions of total transmit power given to s1, s2 and the radar waveform.

    Construction only requires finite, non-negative values; the power budget
    and the QoS rates are the optimizer's to meet (see :mod:`radcom.optimizer`).
    Array fractions hold many splits.
    """

    a1_sq: float  # power fraction of user-1 signal
    a2_sq: float  # power fraction of user-2 signal
    ar_sq: float  # power fraction of radar waveform

    def __post_init__(self):
        for name in ("a1_sq", "a2_sq", "ar_sq"):
            value = getattr(self, name)
            ok = (0.0 <= value) & (value < math.inf)
            if not np.all(ok):
                if np.ndim(value):   # name the first offending entry, not the array
                    value = np.asarray(value)[~ok][0].item()
                raise ValidationError(
                    f"{name} must be finite and >= 0, got {value!r}")

    @property
    def power_sum(self) -> float:
        return self.a1_sq + self.a2_sq + self.ar_sq


@dataclass(frozen=True)
class QosRequirement:
    """Minimum spectral efficiencies guaranteed to each user, bits/s/Hz."""

    r01: float  # strong user minimum rate
    r02: float  # weak user minimum rate

    def __post_init__(self):
        for name in ("r01", "r02"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")


# Scenario-file keys: every field's own name takes its linear value, and
# these fields also take a dB/dBm value under a second key.
_DB_KEYS = {
    "h1_gain": "h1_gain_db",
    "h2_gain": "h2_gain_db",
    "sigma1_sq": "sigma1_sq_dbm",
    "sigma2_sq": "sigma2_sq_dbm",
    "sigma_r_sq": "sigma_r_sq_dbm",
    "total_power_mw": "total_power_dbm",
}

# file key -> (field, whether the value is in dB/dBm)
_KEY_TO_FIELD = {f.name: (f.name, False) for f in fields(ScenarioConfig)}
_KEY_TO_FIELD.update((db_key, (name, True)) for name, db_key in _DB_KEYS.items())
_RETIRED_KEYS = frozenset({"si_suppression_db"})  # deleted fields old manifests hold


def load_scenario(source: str) -> ScenarioConfig:
    """Build a validated ScenarioConfig from flat ``key=value`` text.

    Lines may hold several comma-separated pairs; ``#`` starts a comment.
    Gains and powers are accepted either linear (``h1_gain``, ``sigma1_sq``)
    or logarithmic (``h1_gain_db``, ``sigma1_sq_dbm``); giving both forms of
    one field is rejected.  Missing fields take the baseline defaults.
    """
    assigned: dict[str, tuple[float, str]] = {}
    for line_no, raw_line in enumerate(source.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        for entry in line.split(","):
            entry = entry.strip()
            if not entry:
                continue
            key, sep, text = entry.partition("=")
            key = key.strip()
            text = text.strip()
            if not sep or not key or not text:
                raise ValidationError(f"line {line_no}: expected key=value, got {entry!r}")
            if key not in _KEY_TO_FIELD:
                raise ValidationError(f"line {line_no}: unknown key {key!r}")
            try:
                value = float(text)
            except ValueError:
                raise ValidationError(
                    f"line {line_no}: value for {key!r} is not a number: {text!r}") from None
            field, is_db = _KEY_TO_FIELD[key]
            if not (is_db or math.isfinite(value)):
                raise ValidationError(
                    f"line {line_no}: value for {key!r} must be finite: {text!r}")
            if field in assigned:
                raise ValidationError(
                    f"line {line_no}: {key!r} conflicts with earlier "
                    f"{assigned[field][1]!r} (field given twice)")
            if is_db:
                try:
                    value = db_to_linear(value)
                except ValidationError as exc:
                    raise ValidationError(f"line {line_no}: {key}={text}: {exc}") from None
            assigned[field] = (value, key)
    kwargs = {field: value for field, (value, _key) in assigned.items()}
    return ScenarioConfig(**kwargs)


def scenario_report_fields(cfg: ScenarioConfig) -> dict:
    """Serialize a config for reports: exact linear values plus dB/dBm views.

    The logarithmic entries are views rounded to 6 significant digits, which
    ``scenario_from_report`` checks; the linear entries round-trip exactly.
    """
    out = asdict(cfg)
    out.update((db_key, float(f"{linear_to_db(out[name]):.6g}"))
               for name, db_key in _DB_KEYS.items())
    return out


def scenario_from_report(report) -> ScenarioConfig:
    """Read a manifest's scenario: scenario-file keys, each holding a number.

    A dB/dBm key alone sets its field; beside its linear key it must equal the
    view ``scenario_report_fields`` writes.  Keys of deleted fields are skipped.
    """
    if not isinstance(report, dict):
        raise ValidationError("manifest holds no scenario")
    assigned, views = {}, {}
    for key, value in report.items():
        if key in _RETIRED_KEYS:
            continue
        if key not in _KEY_TO_FIELD:
            raise ValidationError(f"unknown scenario key {key!r}")
        field, is_db = _KEY_TO_FIELD[key]
        checked_number(key, value)
        if is_db and field in report:
            views[key] = (field, value)
        else:
            assigned[field] = db_to_linear(value) if is_db else value
    cfg = ScenarioConfig(**assigned)
    written = scenario_report_fields(cfg)
    for key, (field, view) in views.items():
        if view != written[key]:
            raise ValidationError(f"{key}={view!r} is not the view {written[key]!r} "
                                  f"of {field}={written[field]!r}")
    return cfg
