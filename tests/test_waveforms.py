"""Sampled pulses: discretized moments and the Monte Carlo delay harness."""

import bisect
import math

import numpy as np
import pytest

from radcom import (InfeasibleError, PowerAllocation,
                    SampledWaveform, ScenarioConfig, ValidationError,
                    WaveformKind, WaveformSpec, analytic_rms_bandwidth_sq,
                    instantaneous_frequency, mc_delay_estimation, numeric_energy,
                    numeric_rms_bandwidth_sq, post_integration_snr_db,
                    spectral_rms_bandwidth_sq, synthesize)
from radcom.radar import crlb_delay, echo_power
from radcom.waveforms import _phase, _pulse, _smooth_len

W_HZ = 2e7
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
    t = (np.arange(16000) + 0.5) * spec.duration_s / 16000
    mean_f = float(np.mean(instantaneous_frequency(spec, t)))
    assert abs(mean_f) < 1e-6 * W_HZ


def test_linear_law_sweeps_symmetric_endpoints():
    ends = instantaneous_frequency(LINEAR, np.array([0.0, LINEAR.duration_s]))
    assert ends[0] == -W_HZ / 2.0
    assert ends[1] == W_HZ / 2.0


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


@pytest.mark.parametrize("spec", [LINEAR, PARABOLIC])
def test_instfreq_moment_matches_closed_form(spec):
    sampled = synthesize(spec, 8 * W_HZ)
    numeric = numeric_rms_bandwidth_sq(sampled)
    assert numeric == pytest.approx(analytic_rms_bandwidth_sq(spec), rel=1e-6, abs=0)


@pytest.mark.parametrize("kind", [WaveformKind.LINEAR_FM,
                                  WaveformKind.PARABOLIC_FM])
def test_spectrum_moment_converges_with_time_bandwidth(kind):
    errors = {}
    for tw in (100.0, 1000.0):
        spec = WaveformSpec(kind, W_HZ, tw)
        sampled = synthesize(spec, 8 * W_HZ)
        numeric = spectral_rms_bandwidth_sq(sampled)
        closed = analytic_rms_bandwidth_sq(spec)
        errors[tw] = abs(numeric - closed) / closed
    assert errors[1000.0] < 0.05
    assert errors[1000.0] < errors[100.0]


@pytest.mark.parametrize("k", [-480, 480])
def test_moments_scale_exactly_with_a_power_of_two_bandwidth(k):
    # W 2^k keeps every sample and scales each frequency by 2^k, so both moments
    # scale by 4^k bit for bit; at W 2^480 = 6e151 plain squares overflow.
    scaled_spec = WaveformSpec(WaveformKind.LINEAR_FM, math.ldexp(W_HZ, k), 100.0)
    sampled = synthesize(WaveformSpec(WaveformKind.LINEAR_FM, W_HZ, 100.0), 16 * W_HZ)
    scaled = synthesize(scaled_spec, 16 * scaled_spec.bandwidth_hz)
    assert np.array_equal(scaled.samples, sampled.samples)
    for moment in (numeric_rms_bandwidth_sq, spectral_rms_bandwidth_sq):
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


def test_mc_is_deterministic_for_a_seed():
    a = mc_delay_estimation(BOOSTED, RADAR_ONLY, LINEAR, DELAY_S, 150, 42)
    b = mc_delay_estimation(BOOSTED, RADAR_ONLY, LINEAR, DELAY_S, 150, 42)
    assert a == b
    c = mc_delay_estimation(BOOSTED, RADAR_ONLY, LINEAR, DELAY_S, 150, 43)
    assert c.empirical_var != a.empirical_var


def test_mc_keeps_no_per_trial_buffer(monkeypatch):
    # A trial count no array could hold still reaches the first trial.
    class FirstTrial(Exception):
        pass

    def first_trial(*args, **kwargs):
        raise FirstTrial

    monkeypatch.setattr(np.fft, "ifft", first_trial)
    with pytest.raises(FirstTrial):
        mc_delay_estimation(BOOSTED, RADAR_ONLY, LINEAR, DELAY_S, 10 ** 20, 0)


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
    eta, h_gain = cfg.target(1)
    amp_sq = (eta * h_gain) ** 2 * cfg.total_power_mw
    noise = cfg.sigma_r_sq * 8.0    # per real dimension, white over fs = 8 W
    inr = amp_sq * (loud.a1_sq + loud.a2_sq) / (2.0 * noise)
    for spec in (LINEAR, PARABOLIC):
        for seed in range(5):
            without = mc_delay_estimation(cfg, quiet, spec, DELAY_S, 200, seed)
            with_comm = mc_delay_estimation(cfg, loud, spec, DELAY_S, 200, seed)
            assert with_comm.empirical_var / without.empirical_var == pytest.approx(
                1.0 + inr, rel=0.02, abs=0)


def _reference_mc_var(cfg, alloc, spec, delay_s, trials, seed):
    """Mean squared delay error from a plain trial loop in the time domain.

    The pulse and its echo are sampled here from the phase law, not by the
    sampler under test.  One generator; per trial, 2 L normals read as
    (real, imaginary) pairs, with L the 5-smooth length >= n_obs.  The noise
    is their inverse DFT, scaled to the summed variance and cut to its first
    n_obs samples, and the correlation runs at a power-of-two length
    >= n_obs + n - 1."""
    fs = 8.0 * spec.bandwidth_hz
    n = round(fs * spec.duration_s)
    xt = np.exp(1j * _phase(spec, (np.arange(n) + 0.5) / fs))
    n_obs = n + int(math.ceil(delay_s * fs)) + 8
    shifted = (np.arange(n_obs) + 0.5) / fs - delay_s
    on_pulse = (shifted >= 0.0) & (shifted <= spec.duration_s)
    echo = np.where(on_pulse, np.exp(1j * _phase(spec, shifted)), 0.0)
    eta, h_gain = cfg.target(1)
    amp = eta * h_gain * math.sqrt(cfg.total_power_mw)
    a1, a2, ar = (math.sqrt(v) for v in (alloc.a1_sq, alloc.a2_sq, alloc.ar_sq))
    # Per real dimension: the radar noise, then s1 and s2 as unit circular
    # Gaussians, each independent, so their variances add.
    variance = (cfg.sigma_r_sq * (fs / spec.bandwidth_hz)
                + (amp * a1) ** 2 / 2.0 + (amp * a2) ** 2 / 2.0)
    draw_len = _smooth_len(n_obs)
    fft_len = 1 << (n_obs + n - 1).bit_length()
    template_fft = np.conj(np.fft.fft(xt, fft_len))
    max_lag = n_obs - n
    errors_sq = np.empty(trials)
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        g = rng.standard_normal(2 * draw_len)
        # The inverse DFT divides the variance of L white values by L.
        noise = np.fft.ifft(math.sqrt(variance * draw_len) * (g[0::2] + 1j * g[1::2]))
        z = noise[:n_obs] + amp * ar * echo
        corr = np.fft.ifft(np.fft.fft(z, fft_len) * template_fft)
        mag = np.abs(corr[:max_lag + 1])
        peak = int(np.argmax(mag))
        delta = 0.0
        if 0 < peak < max_lag:
            left, mid, right = mag[peak - 1], mag[peak], mag[peak + 1]
            curvature = left - 2.0 * mid + right
            if curvature < 0.0:
                delta = 0.5 * (left - right) / curvature
        errors_sq[trial] = ((peak + delta) / fs - delay_s) ** 2
    return float(np.mean(errors_sq))


SHORT_W = 2e6   # TW = 100 with the same 50 us pulse as LINEAR
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
    cfg = ScenarioConfig(sigma_r_sq=sigma_r_sq, bandwidth_hz=w_hz, time_bandwidth=tw)
    spec = WaveformSpec(kind, w_hz, tw)
    report = mc_delay_estimation(cfg, alloc, spec, delay_s, 100, 2024)
    reference = _reference_mc_var(cfg, alloc, spec, delay_s, 100, 2024)
    assert report.empirical_var == pytest.approx(reference, rel=1e-9, abs=0)
    assert report.efficiency == pytest.approx(
        reference / crlb_delay(cfg, alloc, spec, 1), rel=1e-9, abs=0)


def _one_trial_loop(cfg, alloc, spec, delay_s, trials, seed):
    """(empirical_var, lag-edge peaks) from the trial loop as it ran before
    batching: per trial one frequency-domain draw into a one-row buffer, one
    inverse FFT and a scalar three-point fit."""
    fs = 8.0 * spec.bandwidth_hz
    xt = synthesize(spec, fs).samples
    n = len(xt)
    n_obs = n + int(math.ceil(delay_s * fs)) + 8
    echo = math.sqrt(echo_power(cfg, alloc.ar_sq, 1)) * _pulse(spec, fs, n_obs, delay_s)
    scale = math.sqrt(cfg.sigma_r_sq * (fs / spec.bandwidth_hz)
                      + echo_power(cfg, alloc.a1_sq + alloc.a2_sq, 1) / 2.0)
    fft_len = _smooth_len(n_obs)
    template_fft = np.conj(np.fft.fft(xt, fft_len))
    max_lag = n_obs - n
    signal_fft = np.fft.fft(echo, fft_len) * template_fft
    noise_gain = scale * math.sqrt(fft_len) * template_fft
    g = np.empty(2 * fft_len)
    z = g.view(complex)
    rng = np.random.default_rng(seed)
    sum_sq = 0.0
    edges = 0
    for _ in range(trials):
        rng.standard_normal(out=g)
        z *= noise_gain
        z += signal_fft
        corr = np.fft.ifft(z)
        mag = np.abs(corr[:max_lag + 1])
        peak = int(np.argmax(mag))
        delta = 0.0
        if 0 < peak < max_lag:
            left, mid, right = mag[peak - 1], mag[peak], mag[peak + 1]
            curvature = left - 2.0 * mid + right
            if curvature < 0.0:
                delta = 0.5 * (left - right) / curvature
        else:
            edges += 1
        sum_sq += ((peak + delta) / fs - delay_s) ** 2
    return float(sum_sq / trials), edges


@pytest.mark.parametrize("spec", [LINEAR, PARABOLIC], ids=["linear", "parabolic"])
@pytest.mark.parametrize("trials", [100, 101, 107])
def test_mc_batches_match_the_one_trial_loop_bitwise(spec, trials):
    # 100, 101 and 107 trials end on batches of 4, 5 and 3 rows.
    cfg = ScenarioConfig(sigma_r_sq=1e-21)
    alloc = PowerAllocation(0.2, 0.55, 0.25)
    report = mc_delay_estimation(cfg, alloc, spec, DELAY_S, trials, 2024)
    assert report.empirical_var == _one_trial_loop(cfg, alloc, spec, DELAY_S,
                                                   trials, 2024)[0]


def test_mc_batches_keep_the_lag_edge_rule():
    # Near the 10 dB guard some peaks land on a lag edge, where no fit runs.
    spec = WaveformSpec(WaveformKind.LINEAR_FM, W_HZ, 250.0)
    sigma_r_sq = echo_power(ScenarioConfig(), 1.0, 1) * 250.0 / 10.0 ** 1.05
    cfg = ScenarioConfig(sigma_r_sq=sigma_r_sq, time_bandwidth=250.0)
    assert post_integration_snr_db(cfg, RADAR_ONLY, spec) == pytest.approx(10.5)
    expected, edges = _one_trial_loop(cfg, RADAR_ONLY, spec, 3e-6, 400, 1)
    assert edges >= 1
    report = mc_delay_estimation(cfg, RADAR_ONLY, spec, 3e-6, 400, 1)
    assert report.empirical_var == expected


def test_smooth_fft_length_is_the_least_5_smooth_bound():
    def is_smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    smooth = [k for k in range(1, 20001) if is_smooth(k)]
    for m in range(1, 20001):
        assert _smooth_len(m) == smooth[bisect.bisect_left(smooth, m)]
