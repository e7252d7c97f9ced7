"""Sampled FM pulses: numeric spectral moments and matched-filter Monte Carlo.

Everything here exists to check the closed forms in :mod:`radcom.radar`
against discretized signals, and to verify by simulation that a matched
filter reaches the delay bound once the post-integration SNR is high enough.
The FM laws, the bound, the SNR and every echo's power come from
:mod:`radcom.radar`.

The Monte Carlo works on the DFT bins of the sweep's band.  It keeps the bins
whose f / W lies within BAND_MARGIN = 0.25 of the law's instantaneous
frequencies, [freq(0) - 0.25, freq(1) + 0.25]: [-0.75, 0.75] for linear FM
and [-0.58, 0.92] for parabolic, about 3/16 of the bins at fs = 8 W.  On each
kept bin the echo is the template's DFT times a phase ramp exp(-i omega tau),
so the likelihood is smooth in the delay.  In this model the paper's closed
form, (pi W)^2 times the moment, is the delay bound's large-TW limit: the
model's exact Fisher bound is 1.008 of it at TW = 100 and 1.0008 at TW = 1000
(Kay 1993, ch. 3).  The reported ``crlb`` stays the closed form.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import MIN_OVERSAMPLING, InfeasibleError, ValidationError
from .radar import (FM_LAWS, WaveformSpec, crlb_delay, echo_power,
                    post_integration_snr_db)
from .scenario import PowerAllocation, ScenarioConfig

MIN_MC_SNR_DB = 10.0            # asymptotic-region guard for the estimator
MIN_MC_TRIALS = 100
TRIALS_PER_STREAM = 64          # Monte Carlo trials per seeded stream, run by one worker
# A batch, the trials of one draw and one inverse FFT, is the largest
# power-of-two share of a block whose kept bins number at most BATCH_BINS:
# 8 trials at TW = 1000, a whole block at TW = 100, where the per-batch calls
# would otherwise outweigh the arithmetic.
BATCH_BINS = 16384
BAND_MARGIN = 0.25              # kept bins: the law's f / W range widened by this each side
# Newton refinements of each trial's coarse peak.  From up to 1 / (6 W) off,
# two leave an error of about 6e-7 / W rms, which outgrows the bound above
# about 110 dB of SNR; with a third the efficiency holds to at least 250 dB.
NEWTON_STEPS = 3


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
    """Sample the pulse at its round(fs T) cell midpoints with a unit
    rectangular envelope; each midpoint lies on the pulse, also at a
    half-integer fs T, where the last one falls on T."""
    if not (math.isfinite(sample_rate_hz)
            and sample_rate_hz >= MIN_OVERSAMPLING * spec.bandwidth_hz):
        raise ValidationError(
            f"undersampled: sample_rate_hz = {sample_rate_hz!r} but the law "
            f"needs at least {MIN_OVERSAMPLING:g} x W = "
            f"{MIN_OVERSAMPLING * spec.bandwidth_hz:.6g} Hz")
    cells = _pulse_cells(spec, sample_rate_hz)
    n = round(cells)
    try:
        u = (np.arange(n) + 0.5) / cells
    except (MemoryError, ValueError) as err:   # ValueError: past numpy's size limit
        raise ValidationError(
            f"pulse of {n:.6g} samples is too large to sample: {err}") from None
    return SampledWaveform(
        samples=np.exp(2j * math.pi * spec.time_bandwidth * FM_LAWS[spec.kind].phase(u)),
        sample_rate_hz=sample_rate_hz,
        spec=spec,
    )


def _pulse_cells(spec: WaveformSpec, sample_rate_hz: float) -> float:
    """fs T, the pulse in samples, as (fs / W) TW: exact for a power-of-two fs / W."""
    return sample_rate_hz / spec.bandwidth_hz * spec.time_bandwidth


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


def _sum_sq_by_block(block_sq, n_blocks: int, buffers) -> float:
    """math.fsum of block_sq(k, *buffers()) over blocks k = 0 .. n_blocks - 1.
    fsum is exactly rounded, so the sum depends on neither the worker count
    nor the order in which blocks finish.  The main thread and one thread per
    further usable CPU run whole blocks, worker i blocks i, i + workers, ...,
    each through its own ``buffers()``.  Every worker stops before its
    next block once any has failed; the first failure is raised here, after
    every thread is joined."""
    workers = min(_usable_cpus(), n_blocks)
    sums, failures = [], []

    def work(i: int) -> None:
        own = buffers()
        for k in range(i, n_blocks, workers):
            if failures:
                return
            try:
                sums.append(block_sq(k, *own))
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

    Each trial sees target 1's radar echo on the K kept bins (see the module
    docstring) with fresh circular Gaussian communications interference and
    radar noise, drawn directly as their spectrum, and multiplies by the
    template's conjugate DFT.  One inverse FFT of that product, of
    L = _smooth_len(2 K) points, samples the correlation about every
    1 / (3 W) and gives the coarse peak over the lags in [0, n_obs - n];
    NEWTON_STEPS Newton steps on |C(tau)|^2, C(tau) = sum_k Y_k
    exp(i omega_k tau), refine it.  So a trial costs 2 K normals, one L-point
    inverse FFT and, per Newton step, about 2 sqrt(K) complex exponentials
    and two small matrix products, which release the GIL.  The trials run
    in batches of at most BATCH_BINS kept bins, one draw and one batched
    inverse FFT per batch, in buffers per worker whose size does not
    depend on ``trials``.  Block k of TRIALS_PER_STREAM trials draws from
    its own stream, seeded by ``SeedSequence(seed, spawn_key=(k,))``, and
    the blocks run on one worker per usable CPU; no output depends on the
    number of workers or on the batch size.  Every trial works in f / W and
    tau W, so a power-of-two W keeps the efficiency's bits.

    The estimator is only compared against the bound in its asymptotic
    region; runs below MIN_MC_SNR_DB of post-integration SNR are refused,
    and so are runs whose bound or variance leaves the float range.
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
    crlb = crlb_delay(cfg, alloc, spec, 1)
    if not (math.isfinite(crlb) and crlb > 0.0):
        raise ValidationError(f"delay bound {crlb:g} s^2 is outside the float range; "
                              "the efficiency would be meaningless")
    # The efficiency's denominator, crlb W^2: it keeps its digits where crlb is subnormal.
    crlb_w_sq = float(crlb_delay(cfg, alloc, replace(spec, bandwidth_hz=1.0), 1))

    fs = MIN_OVERSAMPLING * w_hz
    xt = synthesize(spec, fs).samples
    # n_obs sizes the lag window, as for an echo observed over n_obs samples;
    # the correlation's period is fft_len samples, so no kept lag wraps around.
    n_obs = len(xt) + int(math.ceil(true_delay_s * fs)) + 8
    fft_len = _smooth_len(n_obs)
    max_lag = n_obs - len(xt)
    law = FM_LAWS[spec.kind]
    per_bin = MIN_OVERSAMPLING / fft_len          # f / W of DFT bin 1
    bins = np.arange(math.ceil((law.freq(0.0) - BAND_MARGIN) / per_bin),
                     math.floor((law.freq(1.0) + BAND_MARGIN) / per_bin) + 1)
    template = np.fft.fft(xt, fft_len)[bins]     # bin -k is bin fft_len - k
    bin_step = 2.0 * math.pi * per_bin           # omega / W per bin
    omega = bin_step * bins
    delay_w = true_delay_s * w_hz
    # White noise across the full sampling band carrying sigma_r_sq in-band
    # power per real dimension: the complex envelope of a real receiver's
    # noise carries twice the passband power.  The comm signals s1 and s2 are
    # independent white circular Gaussians too, so with the noise they sum to
    # one circular Gaussian whose variance per real dimension is the sum.  Its
    # unscaled DFT is white with fft_len times that variance on every bin.
    scale = math.sqrt(cfg.sigma_r_sq * MIN_OVERSAMPLING
                      + echo_power(cfg, alloc.a1_sq + alloc.a2_sq, 1) / 2.0)
    signal = (math.sqrt(echo_power(cfg, alloc.ar_sq, 1)) * np.abs(template) ** 2
              * np.exp(-1j * (omega * delay_w)))
    noise_gain = scale * math.sqrt(fft_len) * template.conj()
    n_bins = len(bins)
    coarse_len = _smooth_len(2 * n_bins)
    coarse_step = fft_len / (MIN_OVERSAMPLING * coarse_len)    # tau W per coarse lag
    coarse_lags = max_lag * coarse_len // fft_len + 1          # those in [0, max_lag]
    # Bin k = m Q + r sits at row m, column r of an M x Q grid, which fits a coarse
    # row (M Q < K + Q <= 2 K <= L), and omega_k = a_m + b_r: a_m = omega_mQ and
    # b_r = r bin_step.  b_pows times B_r is rows 2r and 2r + 1 of [B, B b, B b^2]
    # in the real form that the grid's float view multiplies: row r and i times it.
    cols = math.isqrt(n_bins - 1) + 1
    rows = -(-n_bins // cols)
    a_b = np.concatenate((omega[::cols], bin_step * np.arange(cols)))    # a_m, then b_r
    a_pows, b_pows = (np.array([x ** 0, x, x * x]) for x in np.split(a_b, [rows]))
    b_pows = b_pows.T[:, None, :] * np.array([[1.0], [1j]])
    batch = TRIALS_PER_STREAM
    while batch > 1 and batch * n_bins > BATCH_BINS:
        batch //= 2
    del xt, template

    def block_sq(k: int, draws: np.ndarray, coarse: np.ndarray) -> float:
        """Block k's squared delay errors, in units of 1 / W^2, summed in
        trial order.  Its batches run through the rows of the buffers: one
        draw fills them in trial order, and every later step is elementwise
        or a row's inverse FFT, argmax or matrix product, of one shape for
        every row, so each trial matches a one-row loop bit for bit."""
        y = draws.view(complex)     # real parts at even columns, imaginary at odd
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
        sum_sq = 0.0
        first = k * TRIALS_PER_STREAM
        for start in range(first, min(first + TRIALS_PER_STREAM, trials), batch):
            b = min(batch, trials - start)
            rng.standard_normal(out=draws[:b])
            yb = y[:b]
            yb *= noise_gain
            yb += signal
            # Bin k sits at column k - bins[0], not at k mod coarse_len: that
            # turns each coarse lag by a unit phase and keeps its magnitude.
            corr = np.fft.ifft(yb, coarse_len, axis=1, out=coarse[:b])
            tau_w = coarse_step * np.argmax(np.abs(corr[:, :coarse_lags]), axis=1)
            coarse[:b, :n_bins] = yb    # the coarse rows are free once the argmax is taken
            coarse[:b, n_bins:rows * cols] = 0.0
            grid = coarse[:b, :rows * cols].view(float).reshape(b, rows, 2 * cols)
            for _ in range(NEWTON_STEPS):
                # exp(i omega_k tau) = A_m B_r, A = exp(i a tau), B = exp(i b tau);
                # with omega^2 = a^2 + 2 a b + b^2, C, C' / i and -C'' are sums in
                # [1, a, a^2] times A (grid times [B, B b, B b^2]).  The step is in real
                # arithmetic, which rounds the same per element of an array as on one float.
                phase = np.exp(1j * np.multiply.outer(tau_w, a_b))
                bw = np.multiply(phase[:, rows:, None, None], b_pows, order="C")
                s = (grid @ bw.view(float).reshape(b, 2 * cols, 6)).view(complex)
                s *= phase[:, :rows, None]
                s = (a_pows @ s.view(float)).view(complex)
                c0, c1 = s[:, 0, 0], s[:, 1, 0] + s[:, 0, 1]
                c2 = s[:, 2, 0] + 2.0 * s[:, 1, 1] + s[:, 0, 2]
                tau_w += ((c0.real * c1.imag - c0.imag * c1.real)
                          / (c1.real * c1.real + c1.imag * c1.imag
                             - c0.real * c2.real - c0.imag * c2.imag))
            for err in (tau_w - delay_w).tolist():
                sum_sq += err ** 2
        return sum_sq

    sum_sq = _sum_sq_by_block(
        block_sq, -(-trials // TRIALS_PER_STREAM),
        lambda: (np.empty((batch, 2 * n_bins)),
                 np.empty((batch, coarse_len), complex)))
    empirical_var = sum_sq / trials / w_hz / w_hz
    if math.isinf(empirical_var):   # a bound within a few percent of the float maximum
        raise ValidationError(f"delay variance past the float range (bound {crlb:g} s^2)")
    return McDelayReport(
        trials=trials,
        true_delay_s=true_delay_s,
        snr_post_db=snr_db,
        empirical_var=empirical_var,
        crlb=crlb,
        efficiency=sum_sq / trials / crlb_w_sq,
        seed=seed,
    )
