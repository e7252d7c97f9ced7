"""Sampled FM pulses: numeric spectral moments and matched-filter Monte Carlo.

Everything here exists to check the closed forms in :mod:`radcom.radar`
against discretized signals, and to verify by simulation that a matched
filter with sub-sample interpolation approaches the delay bound once the
post-integration SNR is high enough.  The bound, the SNR and every echo's
power come from the radar link budget in :mod:`radcom.radar`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, ValidationError
from .radar import (WaveformKind, WaveformSpec, crlb_delay, echo_power,
                    post_integration_snr_db)
from .scenario import PowerAllocation, ScenarioConfig

MIN_OVERSAMPLING = 8.0          # sample_rate_hz >= MIN_OVERSAMPLING * W
MIN_MC_SNR_DB = 10.0            # asymptotic-region guard for the estimator
MIN_MC_TRIALS = 100
TRIAL_BATCH = 8                 # Monte Carlo trials per draw and inverse FFT


@dataclass(frozen=True)
class SampledWaveform:
    """Complex baseband samples of one constant-modulus FM pulse."""

    samples: np.ndarray      # unit-modulus complex values at midpoint times
    sample_rate_hz: float
    spec: WaveformSpec       # the pulse law; its duration_s is T


@dataclass(frozen=True)
class McDelayReport:
    """Result of one Monte Carlo delay-estimation run."""

    trials: int
    true_delay_s: float
    snr_post_db: float       # post-integration (matched-filter output) SNR, dB
    empirical_var: float     # mean squared delay error, s^2
    crlb: float              # closed-form bound for the same setup, s^2
    efficiency: float        # empirical_var / crlb
    seed: int


def instantaneous_frequency(spec: WaveformSpec, t: np.ndarray) -> np.ndarray:
    """Frequency law f(t) in Hz over t in [0, T].

    Both laws have zero mean frequency and total excursion W: the linear
    sweep runs W(t/T - 1/2), the parabolic sweep W((t/T)^2 - 1/3).
    """
    u = t / spec.duration_s
    if spec.kind is WaveformKind.LINEAR_FM:
        return spec.bandwidth_hz * (u - 0.5)
    return spec.bandwidth_hz * (u * u - 1.0 / 3.0)


def _phase(spec: WaveformSpec, t: np.ndarray) -> np.ndarray:
    """Running phase 2 pi * integral of f, closed form per law."""
    big_t = spec.duration_s
    w = spec.bandwidth_hz
    if spec.kind is WaveformKind.LINEAR_FM:
        return 2.0 * math.pi * w * (t * t / (2.0 * big_t) - t / 2.0)
    return 2.0 * math.pi * w * (t ** 3 / (3.0 * big_t ** 2) - t / 3.0)


def synthesize(spec: WaveformSpec, sample_rate_hz: float) -> SampledWaveform:
    """Sample the pulse at cell midpoints with a unit rectangular envelope."""
    if not (math.isfinite(sample_rate_hz)
            and sample_rate_hz >= MIN_OVERSAMPLING * spec.bandwidth_hz):
        raise ValidationError(
            f"undersampled: sample_rate_hz = {sample_rate_hz!r} but the law "
            f"needs at least {MIN_OVERSAMPLING:g} x W = "
            f"{MIN_OVERSAMPLING * spec.bandwidth_hz:.6g} Hz")
    samples = _pulse(spec, sample_rate_hz, round(sample_rate_hz * spec.duration_s), 0.0)
    return SampledWaveform(
        samples=samples,
        sample_rate_hz=sample_rate_hz,
        spec=spec,
    )


def _midpoints(sample_rate_hz: float, n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) / sample_rate_hz


def _pulse(spec: WaveformSpec, sample_rate_hz: float, n: int,
           delay_s: float) -> np.ndarray:
    """x(t - delay) at the n cell midpoints, zero off the pulse.  The support
    test counts in samples, so each of synthesize's round(fs T) midpoints is
    on it, also at a half-integer fs T, where the last one falls on T."""
    try:
        cells = np.arange(n) + 0.5 - delay_s * sample_rate_hz
    except (MemoryError, ValueError) as err:   # ValueError: past numpy's size limit
        raise ValidationError(
            f"pulse of {n:.6g} samples is too large to sample: {err}") from None
    inside = (cells >= 0.0) & (cells <= sample_rate_hz * spec.duration_s)
    shifted = _midpoints(sample_rate_hz, n)[inside] - delay_s
    out = np.zeros(n, dtype=complex)
    out[inside] = np.exp(1j * _phase(spec, shifted))
    return out


def numeric_energy(w: SampledWaveform) -> float:
    """Riemann sum of |x|^2 / 2 over the pulse; T/2 for a unit envelope."""
    return float(np.sum(np.abs(w.samples) ** 2)) / (2.0 * w.sample_rate_hz)


def numeric_rms_bandwidth_sq(w: SampledWaveform) -> float:
    """Squared rms bandwidth of the sampled pulse, rad^2/s^2: the average of
    (2 pi f(t))^2 over the pulse, exact for a constant-modulus FM law up to
    discretization."""
    f = instantaneous_frequency(w.spec, _midpoints(w.sample_rate_hz, len(w.samples)))
    # Square f / 2^e with W = m 2^e, so no square overflows; power-of-two scaling is exact.
    e = math.frexp(w.spec.bandwidth_hz)[1]
    return math.ldexp(float(np.mean((2.0 * math.pi * np.ldexp(f, -e)) ** 2)), 2 * e)


def spectral_rms_bandwidth_sq(w: SampledWaveform) -> float:
    """Squared rms bandwidth of the sampled pulse, rad^2/s^2, as the DFT moment
    truncated to |f| <= 2W.  The rectangular envelope makes the untruncated
    moment diverge, so this is an approximation that converges toward the
    closed form as TW grows."""
    spectrum = np.fft.fft(w.samples)
    freqs = np.fft.fftfreq(len(w.samples), d=1.0 / w.sample_rate_hz)
    power = np.abs(spectrum) ** 2
    mask = np.abs(freqs) <= 2.0 * w.spec.bandwidth_hz
    weight = float(np.sum(power[mask]))
    # As in numeric_rms_bandwidth_sq: square f / 2^e and scale the moment back.
    e = math.frexp(w.spec.bandwidth_hz)[1]
    moment = float(np.sum((np.ldexp(freqs[mask], -e) ** 2) * power[mask]))
    return math.ldexp(4.0 * math.pi ** 2 * moment / weight, 2 * e)


def _smooth_len(m: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= m (m >= 1): a length numpy's FFT does fast."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def mc_delay_estimation(cfg: ScenarioConfig, alloc: PowerAllocation,
                        spec: WaveformSpec, true_delay_s: float,
                        trials: int, seed: int) -> McDelayReport:
    """Monte Carlo delay estimation of target 1 against its closed-form bound.

    Each trial superposes target 1's delayed radar echo with fresh circular
    Gaussian communications interference and radar noise, cross-correlates
    against the known pulse, and refines the peak with a three-point
    parabolic fit.  The noise is drawn directly as its spectrum, and the
    trials run TRIAL_BATCH at a time: one draw and one batched inverse FFT
    per batch, in one buffer whose size does not depend on ``trials``.
    Every trial draws from one generator seeded by ``seed``, in trial order.

    The estimator is only compared against the bound in its asymptotic
    region; runs below a 10 dB post-integration SNR are refused.
    """
    if trials < MIN_MC_TRIALS:
        raise ValidationError(f"trials must be >= {MIN_MC_TRIALS}, got {trials}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if alloc.ar_sq <= 0.0:
        raise ValidationError("mc_delay_estimation needs ar_sq > 0")
    w_hz = spec.bandwidth_hz
    if not (2.0 / w_hz <= true_delay_s <= spec.duration_s / 2.0):
        raise ValidationError(
            f"true_delay_s = {true_delay_s!r} outside [2/W, T/2] = "
            f"[{2.0 / w_hz:.6g}, {spec.duration_s / 2.0:.6g}]")
    snr_db = post_integration_snr_db(cfg, alloc, spec)
    if snr_db < MIN_MC_SNR_DB:
        raise InfeasibleError(
            f"post-integration SNR {snr_db:.2f} dB is below the "
            f"{MIN_MC_SNR_DB:g} dB asymptotic-region guard; the bound "
            "comparison would be meaningless")

    fs = MIN_OVERSAMPLING * w_hz
    template = synthesize(spec, fs)
    xt = template.samples
    n = len(xt)
    n_obs = n + int(math.ceil(true_delay_s * fs)) + 8
    echo = (math.sqrt(echo_power(cfg, alloc.ar_sq, 1))
            * _pulse(spec, fs, n_obs, true_delay_s))

    # White noise across the full sampling band carrying sigma_r_sq in-band
    # power per real dimension: the complex envelope of a real receiver's
    # noise carries twice the passband power, which is what makes the
    # closed-form bound attainable here.  The comm signals s1 and s2 are
    # independent white circular Gaussians too, so with the noise they sum
    # to one circular Gaussian whose variance per real dimension is the sum.
    scale = math.sqrt(cfg.sigma_r_sq * (fs / w_hz)
                      + echo_power(cfg, alloc.a1_sq + alloc.a2_sq, 1) / 2.0)

    # corr[m] sums z[m + j] * conj(x[j]) over j < n; for every kept lag
    # m <= max_lag, m + j <= n_obs - 1 < fft_len, so no term wraps around
    # and no noise sample at index n_obs or later reaches a kept lag.
    fft_len = _smooth_len(n_obs)
    template_fft = np.conj(np.fft.fft(xt, fft_len))
    max_lag = n_obs - n
    crlb = crlb_delay(cfg, alloc, spec, 1)

    # The noise is drawn as its spectrum: the unitary DFT maps white circular
    # Gaussians to white circular Gaussians, so the unscaled DFT of fft_len
    # noise samples is white with fft_len times their variance.
    signal_fft = np.fft.fft(echo, fft_len) * template_fft
    noise_gain = scale * math.sqrt(fft_len) * template_fft
    # Trials run in batches of TRIAL_BATCH rows through one buffer: one draw
    # fills the rows in trial order, and each row of the batched inverse FFT
    # is bitwise its own transform, so every trial matches a one-row loop.
    g = np.empty((min(TRIAL_BATCH, trials), 2 * fft_len))
    z = g.view(complex)      # real parts at even columns, imaginary at odd
    rng = np.random.default_rng(seed)
    sum_sq = 0.0
    for start in range(0, trials, TRIAL_BATCH):
        b = min(TRIAL_BATCH, trials - start)
        rng.standard_normal(out=g[:b])
        z[:b] *= noise_gain
        z[:b] += signal_fft
        corr = np.fft.ifft(z[:b], axis=1, out=z[:b])
        mag = np.abs(corr[:, :max_lag + 1])
        rows = np.arange(b)
        peak = np.argmax(mag, axis=1)
        # The 3-point fit runs only off the lag edges and where the peak is
        # concave; any other peak keeps its whole-sample lag.
        mid = np.clip(peak, 1, max_lag - 1)
        left, centre, right = mag[rows, mid - 1], mag[rows, mid], mag[rows, mid + 1]
        curvature = left - 2.0 * centre + right
        fit = (peak > 0) & (peak < max_lag) & (curvature < 0.0)
        delta = np.divide(0.5 * (left - right), curvature,
                          out=np.zeros(b), where=fit)
        # One at a time in trial order, so the float sum is a one-row loop's.
        for err in ((peak + delta) / fs - true_delay_s).tolist():
            sum_sq += err ** 2

    empirical_var = float(sum_sq / trials)
    return McDelayReport(
        trials=trials,
        true_delay_s=true_delay_s,
        snr_post_db=snr_db,
        empirical_var=empirical_var,
        crlb=crlb,
        efficiency=empirical_var / crlb,
        seed=seed,
    )
