"""Shared helpers for the test suite."""

import math
from fractions import Fraction

import numpy as np

from radcom import ScenarioConfig, WaveformKind

# The radar-share grid of the command line's --grid 0.01:0.99:200.
GRID = {"lo": 0.01, "hi": 0.99, "count": 200}


def random_table_like_config(rng: np.random.Generator) -> ScenarioConfig:
    """A random scenario respecting the baseline's standing assumptions.

    Strong user above weak user by 2-25 dB, strong user's noise no higher
    than the weak user's, and a transmit power within +/-5 dB of 0 dBm.
    """
    h1 = 10.0 ** rng.uniform(-10.0, -7.0)
    gap_db = rng.uniform(2.0, 25.0)
    sigma2 = 10.0 ** rng.uniform(-11.5, -9.5)
    return ScenarioConfig(
        h1_gain=h1,
        h2_gain=h1 * 10.0 ** (-gap_db / 10.0),
        sigma2_sq=sigma2,
        sigma1_sq=sigma2 * 10.0 ** (-rng.uniform(0.0, 1.0)),
        sigma_r_sq=10.0 ** rng.uniform(-12.0, -10.0),
        eta1=rng.uniform(0.05, 1.0),
        eta2=rng.uniform(0.05, 1.0),
        total_power_mw=10.0 ** rng.uniform(-0.5, 0.5),
    )


def exact_crlb(cfg: ScenarioConfig, ar_sq: float, spec, k: int) -> Fraction:
    """Target k's delay bound sigma_r^2 / (eta^2 h^2 ar P TW c (pi W)^2) in exact
    arithmetic on the same float inputs, with c = 1/3 linear, 16/45 parabolic."""
    eta, h_gain = (cfg.eta1, cfg.h1_gain) if k == 1 else (cfg.eta2, cfg.h2_gain)
    c = Fraction(1, 3) if spec.kind is WaveformKind.LINEAR_FM else Fraction(16, 45)
    pi_w = Fraction(math.pi) * Fraction(spec.bandwidth_hz)
    echo_tw = (Fraction(eta) ** 2 * Fraction(h_gain) ** 2 * Fraction(ar_sq)
                    * Fraction(cfg.total_power_mw) * Fraction(spec.time_bandwidth))
    return Fraction(cfg.sigma_r_sq) / (echo_tw * c * pi_w * pi_w)
