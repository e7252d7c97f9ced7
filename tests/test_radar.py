"""Closed-form radar bounds against numeric waveform moments."""

import math

import pytest

from conftest import whole_curve
from radcom.errors import ValidationError
from radcom.optimizer import star_point, tradeoff_sweep
from radcom.radar import (WaveformKind, WaveformSpec, analytic_energy,
                          analytic_rms_bandwidth_sq, crlb_delay, total_estimation_variance)
from radcom.scenario import PowerAllocation, QosRequirement, ScenarioConfig
from radcom.waveforms import instfreq_moment, numeric_energy, synthesize

CFG = ScenarioConfig()
LINEAR = WaveformSpec(WaveformKind.LINEAR_FM, 2e7, 1000.0)
PARABOLIC = WaveformSpec(WaveformKind.PARABOLIC_FM, 2e7, 1000.0)
RADAR_ONLY = PowerAllocation(0.0, 0.0, 1.0)


def test_waveform_spec_validation():
    for w in (0.0, -2e7, math.inf, math.nan):
        with pytest.raises(ValidationError, match="bandwidth_hz must be > 0"):
            WaveformSpec(WaveformKind.LINEAR_FM, w, 1000.0)
    with pytest.raises(ValidationError):
        WaveformSpec(WaveformKind.LINEAR_FM, 2e7, 0.5)
    # a kind that is not a WaveformKind has no FM law
    with pytest.raises(KeyError):
        analytic_rms_bandwidth_sq(WaveformSpec("linear", 2e7, 1000.0))
    # (pi W)^2 overflows a float, or underflows to 0
    for w in (1e200, 1e300, 1e-300):
        with pytest.raises(ValidationError, match=r"\(pi W\)\^2 finite and > 0"):
            WaveformSpec(WaveformKind.LINEAR_FM, w, 1000.0)
    # the extremes that still keep it
    for w in (1e153, 1e-161):
        spec = WaveformSpec(WaveformKind.LINEAR_FM, w, 1.0)
        assert 0.0 < analytic_rms_bandwidth_sq(spec) < math.inf
    assert LINEAR.duration_s == pytest.approx(5e-5, rel=1e-12, abs=0)


def test_analytic_energy_is_half_the_duration():
    assert analytic_energy(LINEAR) == pytest.approx(2.5e-5, rel=1e-12, abs=0)
    assert analytic_energy(PARABOLIC) == pytest.approx(2.5e-5, rel=1e-12, abs=0)
    short = WaveformSpec(WaveformKind.LINEAR_FM, 2e7, 100.0)
    assert analytic_energy(short) == pytest.approx(2.5e-6, rel=1e-12, abs=0)


def test_analytic_rms_bandwidth_closed_forms():
    w = 2e7
    assert analytic_rms_bandwidth_sq(LINEAR) == pytest.approx(
        math.pi ** 2 * w ** 2 / 3.0, rel=1e-15, abs=0)
    assert analytic_rms_bandwidth_sq(LINEAR) == pytest.approx(1.3159e15, rel=1e-4, abs=0)
    assert analytic_rms_bandwidth_sq(PARABOLIC) == pytest.approx(
        16.0 * math.pi ** 2 * w ** 2 / 45.0, rel=1e-15, abs=0)
    assert analytic_rms_bandwidth_sq(PARABOLIC) == pytest.approx(1.4036e15, rel=1e-4, abs=0)
    ratio = analytic_rms_bandwidth_sq(PARABOLIC) / analytic_rms_bandwidth_sq(LINEAR)
    assert ratio == 16.0 / 15.0


def test_delay_bound_reference_values():
    assert crlb_delay(CFG, RADAR_ONLY, LINEAR, 1) == pytest.approx(
        7.599e-10, rel=1e-3, abs=0)
    # weaker echo despite the larger cross-section: the channel enters ^4
    assert crlb_delay(CFG, RADAR_ONLY, LINEAR, 2) == pytest.approx(
        3.0396e-9, rel=1e-3, abs=0)


def test_delay_bound_against_numeric_moments():
    # Independent route: the sampled pulse's energy and rms bandwidth.
    sampled = synthesize(LINEAR, 8 * LINEAR.bandwidth_hz)
    e_num = numeric_energy(sampled)
    b_num = (math.pi * LINEAR.bandwidth_hz) ** 2 * instfreq_moment(sampled)
    expected = CFG.sigma_r_sq / (
        2.0 * CFG.eta1 ** 2 * CFG.h1_gain ** 2 * 1.0 * CFG.total_power_mw
        * e_num * LINEAR.bandwidth_hz * b_num)
    assert crlb_delay(CFG, RADAR_ONLY, LINEAR, 1) == pytest.approx(
        expected, rel=1e-6, abs=0)


def test_delay_bound_inverse_in_radar_power():
    half = crlb_delay(CFG, PowerAllocation(0.0, 0.0, 0.5), LINEAR, 1)
    quarter = crlb_delay(CFG, PowerAllocation(0.0, 0.0, 0.25), LINEAR, 1)
    assert quarter == 2.0 * half


def test_delay_bound_guards():
    assert crlb_delay(CFG, PowerAllocation(0.3, 0.4, 0.0), LINEAR, 1) == math.inf
    with pytest.raises(KeyError):   # there are two targets
        crlb_delay(CFG, RADAR_ONLY, LINEAR, 3)


def test_total_variance_at_full_radar_power():
    total = total_estimation_variance(CFG, RADAR_ONLY, LINEAR)
    bounds = [crlb_delay(CFG, RADAR_ONLY, LINEAR, k) for k in (1, 2)]
    assert total == pytest.approx(3.7995e-9, rel=1e-3, abs=0)
    assert total == sum(bounds)
    # with no QoS the star point puts all power on the radar
    star = star_point(CFG, QosRequirement(0.0, 0.0), LINEAR)
    assert star.alloc == RADAR_ONLY
    assert star.sigma_eps_sq == total
    assert star.sigma_eps_sq_normalized == 1.0
    # target 1's bound is the smaller one for the baseline parameters
    assert bounds[0] < bounds[1]


def test_total_variance_normalization_at_the_qos_star():
    star = star_point(CFG, QosRequirement(1.5, 0.7), LINEAR)
    assert star.alloc.ar_sq == pytest.approx(0.70858, abs=1e-5)
    assert star.sigma_eps_sq_normalized == pytest.approx(1.4113, abs=1e-3)


def test_parabolic_to_linear_bound_ratio():
    alloc = PowerAllocation(0.1, 0.3, 0.4)
    lin = total_estimation_variance(CFG, alloc, LINEAR)
    par = total_estimation_variance(CFG, alloc, PARABOLIC)
    assert par / lin == pytest.approx(15.0 / 16.0, rel=1e-12, abs=0)


def test_bound_depends_on_allocation_only_through_radar_share():
    reference = None
    for a1, a2, ar in ((0.0, 0.0, 0.3), (0.2, 0.5, 0.3), (0.05, 0.65, 0.3)):
        r = total_estimation_variance(CFG, PowerAllocation(a1, a2, ar), LINEAR)
        if reference is None:
            reference = r
        assert r == reference


def test_normalized_bound_at_least_one():
    full = star_point(CFG, QosRequirement(0.0, 0.0), LINEAR)
    grids = [{"lo": ar, "hi": ar, "count": 1} for ar in (0.05, 0.3, 0.77, 0.999)]
    points = [whole_curve(tradeoff_sweep(CFG, 1e-3, LINEAR, grid)).split()[0]
              for grid in grids]
    for pt in [*points, full]:
        ar = pt.alloc.ar_sq
        if ar == 1.0:
            assert pt.sigma_eps_sq_normalized == 1.0
        else:
            assert pt.sigma_eps_sq_normalized > 1.0
        assert pt.sigma_eps_sq_normalized == 1.0 / ar
        # 1/ar_sq is the bound over its all-power-to-radar value
        assert pt.sigma_eps_sq / full.sigma_eps_sq == pytest.approx(
            pt.sigma_eps_sq_normalized, rel=1e-12, abs=0)

