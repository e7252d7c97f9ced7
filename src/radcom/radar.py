"""Radar side: closed-form waveform moments, link budget and delay bounds.

The link budget lives in :func:`echo_power` alone; the delay bound, the
post-integration SNR and the Monte Carlo in :mod:`radcom.waveforms` read it.
The bound and the SNR take their noise from sigma_r_sq alone and leave out
the reflected communications signals, which the Monte Carlo adds as white
Gaussian interference, so with strong communications echoes the bound is
optimistic, not conservative (ROADMAP item 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError
from .scenario import PowerAllocation, ScenarioConfig, linear_to_db


class WaveformKind(Enum):
    """Supported frequency-modulation laws, both with rectangular envelope."""

    LINEAR_FM = "linear"
    PARABOLIC_FM = "parabolic"


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
    """Squared rms bandwidth, rad^2/s^2 (4 pi^2 weighted second spectral moment).

    pi^2 W^2 / 3 for the linear sweep, 16 pi^2 W^2 / 45 for the parabolic
    sweep; the parabolic law spends more time near its frequency extremes,
    widening the moment by 16/15.
    """
    w_sq = (math.pi * spec.bandwidth_hz) ** 2
    if spec.kind is WaveformKind.LINEAR_FM:
        return w_sq / 3.0
    return 16.0 * w_sq / 45.0


def echo_power(cfg: ScenarioConfig, share: float, k: int) -> float:
    """Target k's two-way echo of a power ``share``: eta^2 h^2 share P, mW."""
    eta, h_gain = cfg.target(k)
    return eta ** 2 * h_gain ** 2 * share * cfg.total_power_mw


def crlb_delay(cfg: ScenarioConfig, alloc: PowerAllocation, spec: WaveformSpec,
               k: int) -> float:
    """Variance lower bound for the round-trip delay of target k (1 or 2), s^2.

    Scales as noise / (echo power * energy * bandwidth * rms-bandwidth^2).
    ar_sq = 0 gives zero Fisher information and an inf bound, for a float
    ar_sq as for each entry of an array.
    """
    echo = echo_power(cfg, alloc.ar_sq, k)
    energy = analytic_energy(spec)
    brms_sq = analytic_rms_bandwidth_sq(spec)
    denom = 2.0 * echo * energy * spec.bandwidth_hz * brms_sq
    with np.errstate(divide="ignore"):
        return np.divide(cfg.sigma_r_sq, denom)


def post_integration_snr_db(cfg: ScenarioConfig, alloc: PowerAllocation,
                            spec: WaveformSpec) -> float:
    """Matched-filter output SNR for target 1's echo, dB: the echo power times
    the pulse-compression gain TW over the radar noise power."""
    snr = echo_power(cfg, alloc.ar_sq, 1) * spec.time_bandwidth / cfg.sigma_r_sq
    return linear_to_db(snr)


def total_estimation_variance(cfg: ScenarioConfig, alloc: PowerAllocation,
                              spec: WaveformSpec) -> float:
    """Sum of both targets' delay bounds, s^2; each scales as 1/ar_sq, so the
    sum over its all-power-to-radar value is 1/ar_sq."""
    return sum(crlb_delay(cfg, alloc, spec, k) for k in (1, 2))
