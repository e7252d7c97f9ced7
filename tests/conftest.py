"""Shared helpers for the test suite."""

import dataclasses
import math
from collections import namedtuple
from fractions import Fraction

import numpy as np

from radcom.optimizer import TradeoffPoint
from radcom.radar import FM_LAWS, WaveformKind, echo_power
from radcom.scenario import PowerAllocation, ScenarioConfig
from radcom.waveforms import BAND_MARGIN, MIN_OVERSAMPLING, _smooth_len

# The radar-share grid of the command line's --grid 0.01:0.99:200.
GRID = {"lo": 0.01, "hi": 0.99, "count": 200}


def whole_curve(result) -> TradeoffPoint:
    """Every point of a SweepResult as one array-valued TradeoffPoint: its
    blocks() joined, ascending in ar_sq."""
    blocks = list(result.blocks())

    def joined(read):
        return np.concatenate([read(block) for block in blocks])

    alloc = PowerAllocation(*(joined(lambda b, name=name: getattr(b.alloc, name))
                              for name in ("a1_sq", "a2_sq", "ar_sq")))
    return TradeoffPoint(alloc, **{
        f.name: joined(lambda b, name=f.name: getattr(b, name))
        for f in dataclasses.fields(TradeoffPoint) if f.name != "alloc"})


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


McBandModel = namedtuple(
    "McBandModel", "bins template omega delay_w amplitude scale fft_len max_lag")


def mc_band_model(cfg: ScenarioConfig, alloc, spec, delay_s: float) -> McBandModel:
    """The Monte Carlo's per-bin model, built here from the phase law.

    The template is the pulse at its n = round(8 TW) midpoints, zero-padded to
    fft_len, the least 5-smooth length >= n_obs = n + ceil(8 W tau) + 8.  The
    fields: the kept bins k, signed, where f / W = 8 k / fft_len lies within
    BAND_MARGIN of the law's frequency range; the template's DFT X_k;
    omega_k / W; the delay tau W; the echo amplitude A; the noise's standard
    deviation per real dimension in time (radar noise white over 8 W, plus
    the comm echoes); fft_len; and the largest kept lag n_obs - n, in samples.
    """
    cells = MIN_OVERSAMPLING * spec.time_bandwidth
    n = round(cells)
    law = FM_LAWS[spec.kind]
    pulse = np.exp(2j * math.pi * spec.time_bandwidth * law.phase((np.arange(n) + 0.5) / cells))
    n_obs = n + int(math.ceil(delay_s * (MIN_OVERSAMPLING * spec.bandwidth_hz))) + 8
    fft_len = _smooth_len(n_obs)
    per_bin = MIN_OVERSAMPLING / fft_len
    bins = np.arange(math.ceil((law.freq(0.0) - BAND_MARGIN) / per_bin),
                     math.floor((law.freq(1.0) + BAND_MARGIN) / per_bin) + 1)
    scale = math.sqrt(cfg.sigma_r_sq * MIN_OVERSAMPLING
                      + echo_power(cfg, alloc.a1_sq + alloc.a2_sq, 1) / 2.0)
    return McBandModel(bins=bins, template=np.fft.fft(pulse, fft_len)[bins],
                       omega=(2.0 * math.pi * per_bin) * bins,
                       delay_w=delay_s * spec.bandwidth_hz,
                       amplitude=math.sqrt(echo_power(cfg, alloc.ar_sq, 1)),
                       scale=scale, fft_len=fft_len, max_lag=n_obs - n)


def mc_band_bound(cfg: ScenarioConfig, alloc, spec, delay_s: float) -> float:
    """The exact Fisher bound 1/J on the delay, s^2, in the Monte Carlo's
    per-bin model with an unknown echo phase (Kay 1993, ch. 3):
    J = (2 A^2 / sigma_b^2) (sum w^2 |X|^2 - (sum w |X|^2)^2 / sum |X|^2),
    with w = omega / W over the kept bins and sigma_b^2 = 2 scale^2 fft_len
    the noise power E|N_k|^2 of one bin."""
    m = mc_band_model(cfg, alloc, spec, delay_s)
    power = np.abs(m.template) ** 2
    total, first, second = (math.fsum(power * m.omega ** i) for i in range(3))
    sigma_b_sq = 2.0 * m.scale ** 2 * m.fft_len
    j_w = 2.0 * m.amplitude ** 2 / sigma_b_sq * (second - first * first / total)
    return 1.0 / j_w / spec.bandwidth_hz / spec.bandwidth_hz
