"""Sampled FM pulses: numeric spectral moments and matched-filter Monte Carlo.

Everything here exists to check the closed forms in :mod:`radcom.radar`
against discretized signals, and to verify by simulation that a matched
filter with sub-sample interpolation approaches the delay bound once the
post-integration SNR is high enough.  The FM laws, the bound, the SNR and
every echo's power come from :mod:`radcom.radar`.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, ValidationError
from .radar import (FM_LAWS, WaveformSpec, crlb_delay, echo_power,
                    post_integration_snr_db)
from .scenario import PowerAllocation, ScenarioConfig

MIN_OVERSAMPLING = 8.0          # sample_rate_hz >= MIN_OVERSAMPLING * W
MIN_MC_SNR_DB = 10.0            # asymptotic-region guard for the estimator
MIN_MC_TRIALS = 100
TRIAL_BATCH = 8                 # Monte Carlo trials per draw and inverse FFT
TRIALS_PER_STREAM = 8 * TRIAL_BATCH   # trials per seeded stream, run by one worker


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


def synthesize(spec: WaveformSpec, sample_rate_hz: float) -> SampledWaveform:
    """Sample the pulse at cell midpoints with a unit rectangular envelope."""
    if not (math.isfinite(sample_rate_hz)
            and sample_rate_hz >= MIN_OVERSAMPLING * spec.bandwidth_hz):
        raise ValidationError(
            f"undersampled: sample_rate_hz = {sample_rate_hz!r} but the law "
            f"needs at least {MIN_OVERSAMPLING:g} x W = "
            f"{MIN_OVERSAMPLING * spec.bandwidth_hz:.6g} Hz")
    samples = _pulse(spec, sample_rate_hz, round(_pulse_cells(spec, sample_rate_hz)), 0.0)
    return SampledWaveform(
        samples=samples,
        sample_rate_hz=sample_rate_hz,
        spec=spec,
    )


def _pulse_cells(spec: WaveformSpec, sample_rate_hz: float) -> float:
    """fs T, the pulse in samples, as (fs / W) TW: exact for a power-of-two fs / W."""
    return sample_rate_hz / spec.bandwidth_hz * spec.time_bandwidth


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
    pulse_cells = _pulse_cells(spec, sample_rate_hz)
    inside = (cells >= 0.0) & (cells <= pulse_cells)
    phase = FM_LAWS[spec.kind].phase(cells[inside] / pulse_cells)
    out = np.zeros(n, dtype=complex)
    out[inside] = np.exp(2j * math.pi * spec.time_bandwidth * phase)
    return out


def numeric_energy(w: SampledWaveform) -> float:
    """Riemann sum of |x|^2 / 2 over the pulse; T/2 for a unit envelope."""
    return float(np.sum(np.abs(w.samples) ** 2)) / (2.0 * w.sample_rate_hz)


def instfreq_moment(w: SampledWaveform) -> float:
    """4 mean((f / W)^2) over the sampled pulse: the normalized moment, discretized."""
    u = (np.arange(len(w.samples)) + 0.5) / _pulse_cells(w.spec, w.sample_rate_hz)
    return 4.0 * float(np.mean(FM_LAWS[w.spec.kind].freq(u) ** 2))


def spectral_moment(w: SampledWaveform) -> float:
    """4 times the DFT moment of f / W within |f| <= 2W; it nears the normalized
    moment as TW grows, as the rectangular envelope's whole moment diverges."""
    power = np.abs(np.fft.fft(w.samples)) ** 2
    f_w = np.fft.fftfreq(len(w.samples), d=w.spec.bandwidth_hz / w.sample_rate_hz)
    mask = np.abs(f_w) <= 2.0
    return 4.0 * float(np.sum(f_w[mask] ** 2 * power[mask])) / float(np.sum(power[mask]))


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


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the OS has one), >= 1."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


def _sum_sq_by_block(block_sq, n_blocks: int, shape: tuple) -> float:
    """math.fsum of block_sq(k, g) over blocks k = 0 .. n_blocks - 1.  fsum
    is exactly rounded, so the sum depends on neither the worker count nor
    the order in which blocks finish.  The main thread and one thread per
    further usable CPU run whole blocks, worker i blocks i, i + workers, ...,
    each through its own buffer of ``shape``.  Every worker stops before its
    next block once any has failed; the first failure is raised here, after
    every thread is joined."""
    workers = min(_usable_cpus(), n_blocks)
    sums, failures = [], []

    def work(i: int) -> None:
        g = np.empty(shape)
        for k in range(i, n_blocks, workers):
            if failures:
                return
            try:
                sums.append(block_sq(k, g))
            except BaseException as exc:    # raised again on the main thread
                failures.append(exc)

    threads = [threading.Thread(target=work, args=(i,), daemon=True)
               for i in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return math.fsum(sums)


def mc_delay_estimation(cfg: ScenarioConfig, alloc: PowerAllocation,
                        spec: WaveformSpec, true_delay_s: float,
                        trials: int, seed: int) -> McDelayReport:
    """Monte Carlo delay estimation of target 1 against its closed-form bound.

    Each trial superposes target 1's delayed radar echo with fresh circular
    Gaussian communications interference and radar noise, cross-correlates
    against the known pulse, and refines the peak with a three-point
    parabolic fit.  The noise is drawn directly as its spectrum, and the
    trials run TRIAL_BATCH at a time: one draw and one batched inverse FFT
    per batch, in a buffer per worker whose size does not depend on ``trials``.
    Block k of TRIALS_PER_STREAM trials draws from its own stream, seeded by
    ``SeedSequence(seed, spawn_key=(k,))``, and the blocks run on one worker
    per usable CPU; no output depends on the number of workers.

    The estimator is only compared against the bound in its asymptotic
    region; runs below MIN_MC_SNR_DB of post-integration SNR are refused.
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
    del template, xt, echo, template_fft    # freed before the trials' buffers

    def block_sq(k: int, g: np.ndarray) -> float:
        """Block k's squared delay errors, summed in trial order.  Its batches
        run through the rows of g: one draw fills them in trial order, and
        each row of the batched inverse FFT is bitwise its own transform, so
        every trial matches a one-row loop over the block's stream."""
        z = g.view(complex)      # real parts at even columns, imaginary at odd
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
        sum_sq = 0.0
        first = k * TRIALS_PER_STREAM
        for start in range(first, min(first + TRIALS_PER_STREAM, trials), TRIAL_BATCH):
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
            for err in ((peak + delta) / fs - true_delay_s).tolist():
                sum_sq += err ** 2
        return sum_sq

    sum_sq = _sum_sq_by_block(block_sq, -(-trials // TRIALS_PER_STREAM),
                              (TRIAL_BATCH, 2 * fft_len))
    empirical_var = sum_sq / trials
    return McDelayReport(
        trials=trials,
        true_delay_s=true_delay_s,
        snr_post_db=snr_db,
        empirical_var=empirical_var,
        crlb=crlb,
        efficiency=empirical_var / crlb,
        seed=seed,
    )
