"""Radar side: the FM law table, the link budget, the SNR and the delay bounds.

Each FM law, a target's echo power and its SNR are written once: ``FM_LAWS``,
:func:`echo_power`, ``_snr``.  The delay bound is the CRLB 1/(SNR beta^2).  The
SNR counts sigma_r_sq alone, not the s1 and s2 echoes the Monte Carlo adds as
noise, so with strong echoes the bound is optimistic (ROADMAP item 2).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError
from .scenario import PowerAllocation, ScenarioConfig, linear_to_db


class WaveformKind(Enum):
    """Supported frequency-modulation laws, both with rectangular envelope."""

    LINEAR_FM = "linear"
    PARABOLIC_FM = "parabolic"


# One FM law over normalized time u = t / T in [0, 1]: freq(u) = f / W,
# phase(u) = phase / (2 pi TW), the integral of f / W over u, and moment, the
# exact ratio 4 mean((f / W)^2) over the pulse.  Both laws have zero mean
# frequency and excursion W; the parabolic one widens the moment by 16/15.
FmLaw = namedtuple("FmLaw", "freq phase moment")
FM_LAWS = {
    WaveformKind.LINEAR_FM: FmLaw(lambda u: u - 0.5, lambda u: u * (u - 1.0) / 2.0,
                                  (1, 3)),
    WaveformKind.PARABOLIC_FM: FmLaw(lambda u: u * u - 1.0 / 3.0,
                                     lambda u: u * (u * u - 1.0) / 3.0, (16, 45)),
}


@dataclass(frozen=True)
class WaveformSpec:
    """Analytic descriptor of one constant-modulus FM pulse."""

    kind: WaveformKind
    bandwidth_hz: float      # total frequency excursion W, Hz
    time_bandwidth: float    # TW product, dimensionless

    def __post_init__(self):
        if not isinstance(self.kind, WaveformKind):
            raise ValidationError(f"kind must be a WaveformKind, got {self.kind!r}")
        # The closed-form moments square pi W, which must neither overflow nor vanish.
        pi_w = math.pi * self.bandwidth_hz
        if not (self.bandwidth_hz > 0.0 and 0.0 < pi_w * pi_w < math.inf):
            raise ValidationError(f"bandwidth_hz must be > 0 with (pi W)^2 finite and "
                                  f"> 0, got {self.bandwidth_hz!r}")
        if not (math.isfinite(self.time_bandwidth) and self.time_bandwidth >= 1.0):
            raise ValidationError(
                f"time_bandwidth must be >= 1, got {self.time_bandwidth!r}")

    @property
    def duration_s(self) -> float:
        """Pulse duration T = TW / W, seconds."""
        return self.time_bandwidth / self.bandwidth_hz


def analytic_energy(spec: WaveformSpec) -> float:
    """Pulse energy per unit transmit power: T/2 for a unit rectangular envelope."""
    return spec.duration_s / 2.0


def analytic_rms_bandwidth_sq(spec: WaveformSpec) -> float:
    """Squared rms bandwidth beta^2, rad^2/s^2: (pi W)^2 times the normalized moment."""
    num, den = FM_LAWS[spec.kind].moment
    return num * (math.pi * spec.bandwidth_hz) ** 2 / den


def _echo(cfg: ScenarioConfig, share, k: int):
    """Target k's two-way echo eta^2 h^2 share P as (m, e), echo = m 2^e: m has
    the float product's bits up to a power of two, and e cannot overflow."""
    (m_gain, e_gain), (m_share, e_share), (m_power, e_power) = (np.frexp(x) for x in (
        cfg.echo_gain(k), share, cfg.total_power_mw))
    return m_gain * m_share * m_power, e_gain + e_share + e_power


def echo_power(cfg: ScenarioConfig, share: float, k: int) -> float:
    """Target k's two-way echo of a power ``share``: eta^2 h^2 share P, mW."""
    return float(np.ldexp(*_echo(cfg, share, k)))


def _snr(cfg: ScenarioConfig, share, spec: WaveformSpec, k: int):
    """Target k's post-integration SNR, echo power times TW over sigma_r^2, as
    (m, e) with SNR = m 2^e, so the bound stays exact where the echo or the SNR
    leaves the float range."""
    (m_echo, e_echo), (m_tw, e_tw), (m_noise, e_noise) = (
        _echo(cfg, share, k), np.frexp(spec.time_bandwidth), np.frexp(cfg.sigma_r_sq))
    return m_echo * m_tw / m_noise, e_echo + e_tw - e_noise


def crlb_delay(cfg: ScenarioConfig, alloc: PowerAllocation, spec: WaveformSpec,
               k: int) -> float:
    """Round-trip delay variance bound of target k (1 or 2), 1/(SNR beta^2), s^2:
    the inverse SNR over the normalized moment and over pi W twice, all as
    mantissas scaled by one power of two at the end, so the bound stays exact
    where the echo, the SNR or (pi W)^2 leaves the float range.  ar_sq = 0 (a
    float or an array entry) gives inf, as does a bound past the float range."""
    num, den = FM_LAWS[spec.kind].moment
    m_snr, e_snr = _snr(cfg, alloc.ar_sq, spec, k)
    m_w, e_w = np.frexp(math.pi * spec.bandwidth_hz)
    with np.errstate(divide="ignore", over="ignore"):
        return np.ldexp(np.divide(1.0, m_snr) / (num / den) / m_w / m_w, -e_snr - 2 * e_w)


def post_integration_snr_db(cfg: ScenarioConfig, alloc: PowerAllocation,
                            spec: WaveformSpec) -> float:
    """Matched-filter output SNR for target 1's echo, dB."""
    with np.errstate(over="ignore"):   # an SNR past the float range is refused
        return linear_to_db(float(np.ldexp(*_snr(cfg, alloc.ar_sq, spec, 1))))


def total_estimation_variance(cfg: ScenarioConfig, alloc: PowerAllocation,
                              spec: WaveformSpec) -> float:
    """Sum of both targets' delay bounds, s^2; each scales as 1/ar_sq, so the
    sum over its all-power-to-radar value is 1/ar_sq."""
    return sum(crlb_delay(cfg, alloc, spec, k) for k in (1, 2))
