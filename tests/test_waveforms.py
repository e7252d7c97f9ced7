"""Sampled pulses: discretized moments and the Monte Carlo delay harness."""

import bisect
import math
import os
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import mc_band_bound, mc_band_model

from radcom import waveforms
from radcom.errors import InfeasibleError, ValidationError
from radcom.radar import (FM_LAWS, WaveformKind, WaveformSpec, analytic_rms_bandwidth_sq,
                          crlb_delay, echo_power, post_integration_snr_db)
from radcom.scenario import PowerAllocation, ScenarioConfig
from radcom.waveforms import (NEWTON_STEPS, TRIALS_PER_STREAM, SampledWaveform, _smooth_len,
                              instfreq_moment, mc_delay_estimation, numeric_energy,
                              spectral_moment, synthesize)

W_HZ = 2e7
SHORT_W = 2e6   # TW = 100 with the same 50 us pulse as LINEAR
LINEAR = WaveformSpec(WaveformKind.LINEAR_FM, W_HZ, 1000.0)
PARABOLIC = WaveformSpec(WaveformKind.PARABOLIC_FM, W_HZ, 1000.0)
RADAR_ONLY = PowerAllocation(0.0, 0.0, 1.0)
# Radar noise lowered until the full-power echo sits at exactly 20 dB
# post-integration SNR, where the estimator is safely asymptotic.
BOOSTED = ScenarioConfig(sigma_r_sq=1e-19)
DELAY_S = 6.2832e-6


def test_synthesize_rejects_undersampling():
    with pytest.raises(ValidationError, match="undersampled"):
        synthesize(LINEAR, 7.9 * W_HZ)


@pytest.mark.parametrize("spec", [LINEAR, PARABOLIC])
def test_synthesize_shape_and_envelope(spec):
    sampled = synthesize(spec, 8 * W_HZ)
    assert len(sampled.samples) == round(8 * W_HZ * spec.duration_s)
    assert np.allclose(np.abs(sampled.samples), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("spec", [LINEAR, PARABOLIC])
def test_frequency_law_has_zero_mean(spec):
    u = (np.arange(16000) + 0.5) / 16000
    mean_f = float(np.mean(FM_LAWS[spec.kind].freq(u)))
    assert abs(mean_f) < 1e-6


def test_linear_law_sweeps_symmetric_endpoints():
    ends = FM_LAWS[LINEAR.kind].freq(np.array([0.0, 1.0]))
    assert ends[0] == -0.5
    assert ends[1] == 0.5


def test_numeric_energy_is_half_duration():
    for spec in (LINEAR, PARABOLIC):
        sampled = synthesize(spec, 8 * W_HZ)
        assert numeric_energy(sampled) == pytest.approx(
            spec.duration_s / 2.0, rel=1e-9, abs=0)


def test_numeric_energy_scales_quadratically_with_amplitude():
    sampled = synthesize(LINEAR, 8 * W_HZ)
    scaled = SampledWaveform(samples=3.0 * sampled.samples,
                             sample_rate_hz=sampled.sample_rate_hz, spec=sampled.spec)
    assert numeric_energy(scaled) == pytest.approx(
        9.0 * numeric_energy(sampled), rel=1e-12, abs=0)


def test_numeric_energy_linear_in_duration():
    short = synthesize(WaveformSpec(WaveformKind.LINEAR_FM, W_HZ, 100.0), 8 * W_HZ)
    long = synthesize(LINEAR, 8 * W_HZ)
    assert numeric_energy(long) == pytest.approx(10.0 * numeric_energy(short),
                                                 rel=1e-9, abs=0)


def _midpoint_moment_ratio(kind, n):
    """Exact mean of (f/W)^2 over the n midpoints u = (k + 1/2) / n, over its
    integral over [0, 1] (1/12 linear, 4/45 parabolic)."""
    u = [Fraction(2 * k + 1, 2 * n) for k in range(n)]
    if kind is WaveformKind.LINEAR_FM:
        return float(sum((x - Fraction(1, 2)) ** 2 for x in u) / n / Fraction(1, 12))
    return float(sum((x * x - Fraction(1, 3)) ** 2 for x in u) / n / Fraction(4, 45))


@pytest.mark.parametrize("spec", [LINEAR, PARABOLIC])
def test_instfreq_moment_matches_closed_form(spec):
    for tw in (100.0, 1000.0):
        spec_tw = WaveformSpec(spec.kind, W_HZ, tw)
        sampled = synthesize(spec_tw, 8 * W_HZ)
        n = len(sampled.samples)
        ratio = _midpoint_moment_ratio(spec.kind, n)
        if spec.kind is WaveformKind.LINEAR_FM:
            assert ratio == 1.0 - 1.0 / n ** 2
        assert (math.pi * W_HZ) ** 2 * instfreq_moment(sampled) == pytest.approx(
            analytic_rms_bandwidth_sq(spec_tw) * ratio, rel=1e-12, abs=0)


@pytest.mark.parametrize("kind", [WaveformKind.LINEAR_FM,
                                  WaveformKind.PARABOLIC_FM])
def test_spectrum_moment_converges_with_time_bandwidth(kind):
    errors = {}
    for tw in (100.0, 1000.0):
        spec = WaveformSpec(kind, W_HZ, tw)
        sampled = synthesize(spec, 8 * W_HZ)
        numeric = (math.pi * W_HZ) ** 2 * spectral_moment(sampled)
        closed = analytic_rms_bandwidth_sq(spec)
        errors[tw] = abs(numeric - closed) / closed
    assert errors[1000.0] < 0.05
    assert errors[1000.0] < errors[100.0]


@pytest.mark.parametrize("k", [-480, 480])
def test_moments_scale_exactly_with_a_power_of_two_bandwidth(k):
    # W 2^k keeps every sample and scales each frequency by 2^k, so both moments
    # scale by 4^k bit for bit; at W 2^480 = 6e151 plain squares overflow.
    for kind in (WaveformKind.LINEAR_FM, WaveformKind.PARABOLIC_FM):
        scaled_spec = WaveformSpec(kind, math.ldexp(W_HZ, k), 100.0)
        sampled = synthesize(WaveformSpec(kind, W_HZ, 100.0), 16 * W_HZ)
        scaled = synthesize(scaled_spec, 16 * scaled_spec.bandwidth_hz)
        assert np.array_equal(scaled.samples, sampled.samples)
        for moment in (lambda w: (math.pi * w.spec.bandwidth_hz) ** 2 * instfreq_moment(w),
                       lambda w: (math.pi * w.spec.bandwidth_hz) ** 2 * spectral_moment(w)):
            assert moment(scaled) == math.ldexp(moment(sampled), 2 * k)


def test_post_integration_snr_reference():
    assert post_integration_snr_db(ScenarioConfig(), RADAR_ONLY, LINEAR) \
        == pytest.approx(-60.0, abs=1e-9)
    assert post_integration_snr_db(BOOSTED, RADAR_ONLY, LINEAR) \
        == pytest.approx(20.0, abs=1e-9)


def test_post_integration_snr_without_radar_power_is_a_validation_error():
    with pytest.raises(ValidationError, match="linear value must be finite and > 0"):
        post_integration_snr_db(BOOSTED, PowerAllocation(0.5, 0.5, 0.0), LINEAR)


def test_mc_guards():
    with pytest.raises(ValidationError, match="trials"):
        mc_delay_estimation(BOOSTED, RADAR_ONLY, LINEAR, DELAY_S, 50, 0)
    with pytest.raises(ValidationError, match="seed"):
        mc_delay_estimation(BOOSTED, RADAR_ONLY, LINEAR, DELAY_S, 100, -1)
    with pytest.raises(ValidationError, match="ar_sq"):
        mc_delay_estimation(BOOSTED, PowerAllocation(0.5, 0.5, 0.0), LINEAR,
                            DELAY_S, 200, 0)
    with pytest.raises(ValidationError, match="true_delay_s"):
        mc_delay_estimation(BOOSTED, RADAR_ONLY, LINEAR, 1e-8, 200, 0)
    with pytest.raises(InfeasibleError, match="SNR"):
        mc_delay_estimation(ScenarioConfig(), RADAR_ONLY, LINEAR,
                            DELAY_S, 200, 0)


@pytest.mark.parametrize("w_hz, sigma_r_sq, delay_s", [
    (1e-160, 1e-19, 6.2832e161),    # the bound overflows to inf
    (1e150, 1e-45, 6.2832e-149),    # the bound underflows to 0
])
def test_mc_refuses_a_bound_outside_the_float_range(monkeypatch, w_hz, sigma_r_sq, delay_s):
    def no_trials(*args):
        raise AssertionError("a trial ran")
    monkeypatch.setattr(waveforms, "_sum_sq_by_block", no_trials)
    spec = WaveformSpec(WaveformKind.LINEAR_FM, w_hz, 1000.0)
    with pytest.raises(ValidationError, match="outside the float range"):
        mc_delay_estimation(ScenarioConfig(sigma_r_sq=sigma_r_sq, bandwidth_hz=w_hz),
                            RADAR_ONLY, spec, delay_s, 100, 0)


def test_mc_refuses_a_variance_past_the_float_range():
    # A bound about 1.5 % below the float maximum: the run's efficiency of
    # about 1.02 puts its variance past it.
    w_hz = 4.144e-156
    cfg = ScenarioConfig(sigma_r_sq=1e-19, bandwidth_hz=w_hz)
    spec = WaveformSpec(WaveformKind.LINEAR_FM, w_hz, 1000.0)
    assert math.isfinite(crlb_delay(cfg, RADAR_ONLY, spec, 1))
    with pytest.raises(ValidationError, match="delay variance past the float range"):
        mc_delay_estimation(cfg, RADAR_ONLY, spec, 6.2832 / w_hz, 400, 12345)


def test_mc_is_deterministic_for_a_seed():
    a = mc_delay_estimation(BOOSTED, RADAR_ONLY, LINEAR, DELAY_S, 150, 42)
    b = mc_delay_estimation(BOOSTED, RADAR_ONLY, LINEAR, DELAY_S, 150, 42)
    assert a == b
    c = mc_delay_estimation(BOOSTED, RADAR_ONLY, LINEAR, DELAY_S, 150, 43)
    assert c.empirical_var != a.empirical_var


def test_mc_keeps_no_per_trial_buffer(monkeypatch):
    # A trial count no array could hold still reaches the first trial.  One
    # failure, on a worker thread or on the main one, stops the two other
    # workers and reaches the caller, and no thread is left running.
    class FirstTrial(Exception):
        pass

    monkeypatch.setattr(waveforms, "_usable_cpus", lambda: 3)
    ifft = np.fft.ifft
    shapes = set()
    for fail_on_main in (False, True):
        once = threading.Lock()

        def first_trial(*args, fail_on_main=fail_on_main, once=once, **kwargs):
            shapes.add((args[0].shape, args[1], kwargs["out"].shape))
            on_main = threading.current_thread() is threading.main_thread()
            if on_main == fail_on_main and once.acquire(blocking=False):
                raise FirstTrial(on_main)
            return ifft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", first_trial)
        threads = threading.active_count()
        with pytest.raises(FirstTrial) as failure:
            mc_delay_estimation(BOOSTED, RADAR_ONLY, LINEAR, DELAY_S, 10 ** 20, 0)
        assert failure.value.args == (fail_on_main,)
        assert threading.active_count() == threads
    # Every batch's inverse FFT runs on the K kept bins of its trials (2 K
    # floats a row) into an L-point row of the worker's coarse buffer.  A
    # batch holds at most 16 384 kept bins: 8 trials at TW = 1000, and a
    # whole block of 64 at TW = 100, where 100 trials run as 64 and 36.
    n_bins = len(mc_band_model(BOOSTED, RADAR_ONLY, LINEAR, DELAY_S).bins)
    coarse_len = _smooth_len(2 * n_bins)
    assert shapes == {((8, n_bins), coarse_len, (8, coarse_len))}
    tw, w_hz, sigma_r_sq, delay_s = MC_CASES["tw100-inside"]
    cfg = ScenarioConfig(sigma_r_sq=sigma_r_sq, bandwidth_hz=w_hz, time_bandwidth=tw)
    spec = WaveformSpec(WaveformKind.LINEAR_FM, w_hz, tw)
    n_bins = len(mc_band_model(cfg, RADAR_ONLY, spec, delay_s).bins)
    coarse_len = _smooth_len(2 * n_bins)
    shapes.clear()

    def spy(*args, **kwargs):
        shapes.add((args[0].shape, args[1], kwargs["out"].shape))
        return ifft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", spy)
    mc_delay_estimation(cfg, RADAR_ONLY, spec, delay_s, 100, 0)
    assert shapes == {((64, n_bins), coarse_len, (64, coarse_len)),
                      ((36, n_bins), coarse_len, (36, coarse_len))}


def test_mc_sum_does_not_depend_on_block_finish_order(monkeypatch):
    # Seven blocks of a few ms at TW = 100.  With two workers the main
    # thread's first inverse FFT sleeps, so block 1 finishes before block 0,
    # and the worker's blocks 1, 3 and 5 usually before it too.  A running
    # sum in finish order moves the last bits of this run.
    tw, w_hz, sigma_r_sq, delay_s = MC_CASES["tw100-inside"]
    cfg = ScenarioConfig(sigma_r_sq=sigma_r_sq, bandwidth_hz=w_hz, time_bandwidth=tw)
    spec = WaveformSpec(WaveformKind.LINEAR_FM, w_hz, tw)
    alloc = PowerAllocation(0.2, 0.55, 0.25)
    monkeypatch.setattr(waveforms, "_usable_cpus", lambda: 1)
    one_worker = mc_delay_estimation(cfg, alloc, spec, delay_s, 400, 2024)
    ifft = np.fft.ifft
    slept = threading.Lock()

    def late_on_main(*args, **kwargs):
        if (threading.current_thread() is threading.main_thread()
                and slept.acquire(blocking=False)):
            time.sleep(0.02)
        return ifft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", late_on_main)
    monkeypatch.setattr(waveforms, "_usable_cpus", lambda: 2)
    assert mc_delay_estimation(cfg, alloc, spec, delay_s, 400, 2024) == one_worker
    assert slept.locked()


def test_mc_report_does_not_depend_on_the_worker_count(monkeypatch):
    # 200 trials make four blocks: one to three workers, and five capped at
    # four, with threads switched as often as can be.
    cfg = ScenarioConfig(sigma_r_sq=1e-21)
    alloc = PowerAllocation(0.2, 0.55, 0.25)
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    reports = []
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 2, 3, 5):
            monkeypatch.setattr(waveforms, "_usable_cpus", lambda n=workers: n)
            reports.append(mc_delay_estimation(cfg, alloc, LINEAR, DELAY_S, 200, 2024))
            assert threading.active_count() == threads
    finally:
        sys.setswitchinterval(interval)
    assert reports == [reports[0]] * 4


def test_usable_cpus_is_the_affinity_mask_or_else_the_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert waveforms._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert waveforms._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert waveforms._usable_cpus() == 1


def test_mc_noiseless_peak_is_sub_sample_accurate():
    quiet = ScenarioConfig(sigma_r_sq=1e-30)
    report = mc_delay_estimation(quiet, RADAR_ONLY, LINEAR, DELAY_S, 100, 3)
    # interpolated peak lands within a quarter sample at 8x oversampling
    assert math.sqrt(report.empirical_var) < 1.0 / (32.0 * W_HZ)


def test_mc_efficiency_in_the_asymptotic_region():
    for seed in (1, 2, 3):
        report = mc_delay_estimation(BOOSTED, RADAR_ONLY, LINEAR,
                                     DELAY_S, 300, seed)
        assert report.efficiency >= 0.8
        assert report.efficiency <= 3.0


def test_mc_efficiency_stays_in_the_band_at_100_db():
    # The three-point fit this receiver replaced read 4 574 here: its
    # offset-dependent error did not shrink with the SNR.
    cfg = ScenarioConfig(sigma_r_sq=echo_power(ScenarioConfig(), 1.0, 1) * 1000.0 / 1e10)
    report = mc_delay_estimation(cfg, RADAR_ONLY, LINEAR, DELAY_S, 400, 1)
    assert report.snr_post_db == pytest.approx(100.0)
    assert 0.8 <= report.efficiency <= 3.0


def test_mc_efficiency_stays_in_the_band_at_250_db():
    # The precision floor: delay errors of about 2e-13 / W rms.  Two Newton
    # steps would leave 6e-7 / W; phases as a running product over the bins
    # read 5.2 at 280 dB.
    cfg = ScenarioConfig(sigma_r_sq=echo_power(ScenarioConfig(), 1.0, 1) * 1000.0 / 1e25)
    report = mc_delay_estimation(cfg, RADAR_ONLY, LINEAR, DELAY_S, 400, 1)
    assert report.snr_post_db == pytest.approx(250.0)
    assert 0.8 <= report.efficiency <= 3.0


def test_the_closed_form_is_the_per_bin_bound_at_large_tw():
    # The paper's (pi W)^2 moment leaves out the kept band's edges, which the
    # per-bin model's exact bound counts: 0.8 % at TW = 100, 0.08 % at 1000.
    for tw, w_hz, tol in ((100.0, SHORT_W, 0.01), (1000.0, W_HZ, 0.001)):
        cfg = ScenarioConfig(sigma_r_sq=1e-21, bandwidth_hz=w_hz, time_bandwidth=tw)
        for kind in (WaveformKind.LINEAR_FM, WaveformKind.PARABOLIC_FM):
            spec = WaveformSpec(kind, w_hz, tw)
            ratio = (mc_band_bound(cfg, RADAR_ONLY, spec, 20.0 / w_hz)
                     / crlb_delay(cfg, RADAR_ONLY, spec, 1))
            assert 1.0 < ratio < 1.0 + tol


@pytest.mark.parametrize("offset", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("kind", [WaveformKind.LINEAR_FM, WaveformKind.PARABOLIC_FM],
                         ids=["linear", "parabolic"])
@pytest.mark.parametrize("tw,w_hz,lag,trials", [(100.0, SHORT_W, 197, 2000),
                                                (1000.0, W_HZ, 1005, 1000)],
                         ids=["tw100", "tw1000"])
def test_mc_efficiency_meets_the_per_bin_bound_from_both_sides(tw, w_hz, lag, trials,
                                                               kind, offset):
    # Radar only at 30 dB, the delay `offset` of a sample (1 / 8W) past lag
    # `lag`.  An efficient unbiased estimator's mean squared error has a
    # standard error of sqrt(2 / trials) of the bound; allow four either side,
    # which is inside the [0.8, 3.0] band at both trial counts.
    sigma_r_sq = echo_power(ScenarioConfig(), 1.0, 1) * tw / 1e3
    cfg = ScenarioConfig(sigma_r_sq=sigma_r_sq, bandwidth_hz=w_hz, time_bandwidth=tw)
    spec = WaveformSpec(kind, w_hz, tw)
    delay_s = (lag + offset) / (8.0 * w_hz)
    report = mc_delay_estimation(cfg, RADAR_ONLY, spec, delay_s, trials, 5)
    ratio = report.empirical_var / mc_band_bound(cfg, RADAR_ONLY, spec, delay_s)
    assert abs(ratio - 1.0) <= 4.0 * math.sqrt(2.0 / trials)


def test_mc_parabolic_variance_tracks_the_closed_form_ratio():
    lin = mc_delay_estimation(BOOSTED, RADAR_ONLY, LINEAR, DELAY_S, 1500, 7)
    par = mc_delay_estimation(BOOSTED, RADAR_ONLY, PARABOLIC, DELAY_S, 1500, 7)
    assert par.crlb / lin.crlb == pytest.approx(15.0 / 16.0, rel=1e-12, abs=0)
    assert 0.8 <= par.empirical_var / lin.empirical_var <= 1.1


def test_comm_interference_never_helps():
    # 30 dB so the interference is visible over the radar noise; with one
    # seed both runs use identical normals, only at different scales.
    cfg = ScenarioConfig(sigma_r_sq=1e-21)
    quiet = PowerAllocation(0.0, 0.0, 0.25)
    loud = PowerAllocation(0.2, 0.55, 0.25)
    for seed in range(10):
        without = mc_delay_estimation(cfg, quiet, LINEAR, DELAY_S, 200, seed)
        with_comm = mc_delay_estimation(cfg, loud, LINEAR, DELAY_S, 200, seed)
        assert with_comm.empirical_var >= without.empirical_var


def test_comm_echoes_act_as_extra_radar_noise():
    # With identical normals the two runs differ only in the noise scale, so
    # each squared error, and so the variance, scales by the total noise
    # power over the radar noise alone: 1 + INR.
    cfg = ScenarioConfig(sigma_r_sq=1e-21)
    quiet = PowerAllocation(0.0, 0.0, 0.25)
    loud = PowerAllocation(0.2, 0.55, 0.25)
    amp_sq = (cfg.eta1 * cfg.h1_gain) ** 2 * cfg.total_power_mw
    noise = cfg.sigma_r_sq * 8.0    # per real dimension, white over fs = 8 W
    inr = amp_sq * (loud.a1_sq + loud.a2_sq) / (2.0 * noise)
    for spec in (LINEAR, PARABOLIC):
        for seed in range(5):
            without = mc_delay_estimation(cfg, quiet, spec, DELAY_S, 200, seed)
            with_comm = mc_delay_estimation(cfg, loud, spec, DELAY_S, 200, seed)
            assert with_comm.empirical_var / without.empirical_var == pytest.approx(
                1.0 + inr, rel=0.02, abs=0)


def _real_form(y):
    """The real matrix that a complex matrix's float view multiplies as y:
    rows 2j and 2j + 1 hold row j of y and of i y, as (real, imaginary) pairs."""
    return np.stack((y, 1j * y), axis=1).view(float).reshape(2 * len(y), -1)


def _one_trial_loop(cfg, alloc, spec, delay_s, trials, seed, direct_phases=False):
    """The mean squared delay error in tau W, from a plain loop over the per-bin
    model of conftest.mc_band_model, one trial at a time.  Block k of
    TRIALS_PER_STREAM trials draws from SeedSequence(seed, spawn_key=(k,)).
    Per trial: 2 K normals, read as (real, imaginary) pairs, into a one-row
    buffer; Y = A |X|^2 exp(-i omega tau) plus the noise times conj(X); the
    coarse peak over the lags in [0, max_lag] of Y's inverse DFT, zero-padded
    to L = the least 5-smooth length >= 2 K; and NEWTON_STEPS Newton steps on
    |C(t)|^2, C(t) = sum_k Y_k exp(i omega_k t), in tau W.  Each block's
    squared errors are summed in trial order, and the block sums by fsum.

    Each Newton step lays Y out as an M x Q grid, Q = isqrt(K - 1) + 1, with
    bin k = m Q + r at row m, column r and omega_k = a_m + b_r, a_m = omega_mQ
    and b_r = r (omega_1 - omega_0), and takes C, C' / i and -C'' from two
    products of real matrices.  With ``direct_phases`` it sums Y_k
    exp(i omega_k t) times 1, omega_k and omega_k^2 instead."""
    m = mc_band_model(cfg, alloc, spec, delay_s)
    n_bins = len(m.bins)
    signal = m.amplitude * np.abs(m.template) ** 2 * np.exp(-1j * (m.omega * m.delay_w))
    # The noise's unscaled DFT has fft_len times its time-domain variance.
    noise_gain = m.scale * math.sqrt(m.fft_len) * m.template.conj()
    coarse_len = _smooth_len(2 * n_bins)
    # Lag j of the short inverse DFT is the correlation at j fft_len / L samples.
    coarse_step = m.fft_len / (8.0 * coarse_len)
    coarse_lags = m.max_lag * coarse_len // m.fft_len + 1
    bin_step = 2.0 * math.pi * (8.0 / m.fft_len)    # omega / W from one bin to the next
    cols = math.isqrt(n_bins - 1) + 1
    rows = -(-n_bins // cols)
    a_m, b_r = m.omega[::cols], bin_step * np.arange(cols)
    g = np.empty(2 * n_bins)
    y = g.view(complex)
    block_sums = []
    for trial in range(trials):
        if trial % TRIALS_PER_STREAM == 0:
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(trial // TRIALS_PER_STREAM,)))
            block_sums.append(0.0)
        rng.standard_normal(out=g)
        y *= noise_gain
        y += signal
        corr = np.fft.ifft(y, coarse_len)
        tau = coarse_step * int(np.argmax(np.abs(corr[:coarse_lags])))
        grid = np.zeros(rows * cols, complex)
        grid[:n_bins] = y
        grid = grid.view(float).reshape(rows, 2 * cols)
        for _ in range(NEWTON_STEPS):
            if direct_phases:
                p = np.exp(1j * (m.omega * tau)) * y
                c0, c1, c2 = (complex(np.sum(p * m.omega ** j)) for j in range(3))
            else:
                # C, C' / i, -C'': with A_m = exp(i a_m t), B_r = exp(i b_r t)
                # and omega^2 = a^2 + 2 a b + b^2, the 3 x 3 products
                # [A, A a, A a^2] Y [B, B b, B b^2] give them as sums of entries.
                b_part = (np.exp(1j * (b_r * tau))[:, None]
                          * np.stack((b_r ** 0, b_r, b_r * b_r), axis=1))
                s = (grid @ _real_form(b_part)).view(complex)
                s *= np.exp(1j * (a_m * tau))[:, None]
                s = (np.array([a_m ** 0, a_m, a_m * a_m]) @ s.view(float)).view(complex)
                c0, c1, c2 = (complex(c) for c in (s[0, 0], s[1, 0] + s[0, 1],
                                                   s[2, 0] + 2.0 * s[1, 1] + s[0, 2]))
            # C = c0, C' = i c1, C'' = -c2; tau - (|C|^2)' / (|C|^2)'' in floats.
            tau += ((c0.real * c1.imag - c0.imag * c1.real)
                    / (c1.real * c1.real + c1.imag * c1.imag
                       - c0.real * c2.real - c0.imag * c2.imag))
        block_sums[-1] += (tau - m.delay_w) ** 2
    return math.fsum(block_sums) / trials


# (time-bandwidth, bandwidth, radar noise, delay): the delay range is [2/W, T/2].
MC_CASES = {
    "tw100-at-2/W": (100.0, SHORT_W, 1e-22, 2.0 / SHORT_W),
    "tw100-at-T/2": (100.0, SHORT_W, 1e-22, 0.5 * 100.0 / SHORT_W),
    "tw100-inside": (100.0, SHORT_W, 1e-22, 1.234e-5),
    "tw1000": (1000.0, W_HZ, 1e-21, DELAY_S),
}


@pytest.mark.parametrize("kind", [WaveformKind.LINEAR_FM, WaveformKind.PARABOLIC_FM],
                         ids=["linear", "parabolic"])
@pytest.mark.parametrize("alloc", [RADAR_ONLY, PowerAllocation(0.2, 0.55, 0.25)],
                         ids=["radar-only", "interference"])
@pytest.mark.parametrize("tw,w_hz,sigma_r_sq,delay_s", MC_CASES.values(),
                         ids=MC_CASES.keys())
def test_mc_matches_the_original_trial_loop(kind, alloc, tw, w_hz, sigma_r_sq, delay_s):
    # Both lag-window edges, both laws, with and without interference: the
    # batched run is the plain one-trial loop over the per-bin model, bit for bit.
    cfg = ScenarioConfig(sigma_r_sq=sigma_r_sq, bandwidth_hz=w_hz, time_bandwidth=tw)
    spec = WaveformSpec(kind, w_hz, tw)
    report = mc_delay_estimation(cfg, alloc, spec, delay_s, 100, 2024)
    reference = _one_trial_loop(cfg, alloc, spec, delay_s, 100, 2024)
    assert report.empirical_var == reference / w_hz / w_hz
    # The efficiency is over crlb W^2, the bound at W = 1.
    crlb_w_sq = crlb_delay(cfg, alloc, WaveformSpec(kind, 1.0, tw), 1)
    assert report.efficiency == reference / crlb_w_sq


@pytest.mark.parametrize("kind", [WaveformKind.LINEAR_FM, WaveformKind.PARABOLIC_FM],
                         ids=["linear", "parabolic"])
@pytest.mark.parametrize("k", [-480, 480, 487])
def test_mc_efficiency_is_exact_under_a_power_of_two_bandwidth(kind, k):
    # W 2^k with the delay scaled by 2^-k samples the same pulse and echo, so
    # every delay error scales by 2^-k and the efficiency keeps its bits, also
    # at k = 487, where the bound in s^2 is subnormal (about 5e-311).
    tw, w_hz, sigma_r_sq, delay_s = MC_CASES["tw100-inside"]
    cfg = ScenarioConfig(sigma_r_sq=sigma_r_sq)
    reference = mc_delay_estimation(cfg, RADAR_ONLY, WaveformSpec(kind, w_hz, tw),
                                    delay_s, 100, 2024)
    scaled_spec = WaveformSpec(kind, math.ldexp(w_hz, k), tw)
    scaled = mc_delay_estimation(cfg, RADAR_ONLY, scaled_spec,
                                 math.ldexp(delay_s, -k), 100, 2024)
    assert scaled.efficiency == reference.efficiency


@pytest.mark.parametrize("spec", [LINEAR, PARABOLIC], ids=["linear", "parabolic"])
@pytest.mark.parametrize("trials", [100, 101, 107, 200])
def test_mc_batches_match_the_one_trial_loop_bitwise(spec, trials):
    # 100, 101 and 107 trials end on batches of 4, 5 and 3 rows; 200 trials
    # span four streams.
    cfg = ScenarioConfig(sigma_r_sq=1e-21)
    alloc = PowerAllocation(0.2, 0.55, 0.25)
    report = mc_delay_estimation(cfg, alloc, spec, DELAY_S, trials, 2024)
    assert report.empirical_var == _one_trial_loop(cfg, alloc, spec, DELAY_S,
                                                   trials, 2024) / W_HZ / W_HZ


@pytest.mark.parametrize("spec", [LINEAR, PARABOLIC], ids=["linear", "parabolic"])
@pytest.mark.parametrize("case", ["tw100-inside", "tw1000"])
def test_mc_newton_matches_directly_computed_phases(spec, case):
    # One exponential per bin and three sums along the bins, against the
    # factored phases and the two matrix products: only rounding differs.
    tw, w_hz, sigma_r_sq, delay_s = MC_CASES[case]
    cfg = ScenarioConfig(sigma_r_sq=sigma_r_sq, bandwidth_hz=w_hz, time_bandwidth=tw)
    spec = WaveformSpec(spec.kind, w_hz, tw)
    alloc = PowerAllocation(0.2, 0.55, 0.25)
    report = mc_delay_estimation(cfg, alloc, spec, delay_s, 100, 2024)
    direct = _one_trial_loop(cfg, alloc, spec, delay_s, 100, 2024, direct_phases=True)
    assert report.empirical_var == pytest.approx(direct / w_hz / w_hz, rel=1e-12, abs=0)


def test_smooth_fft_length_is_the_least_5_smooth_bound():
    def is_smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    smooth = [k for k in range(1, 20001) if is_smooth(k)]
    for m in range(1, 20001):
        assert _smooth_len(m) == smooth[bisect.bisect_left(smooth, m)]
