"""SINRs, rate bounds, fairness, and the sum rate's fall toward the weak user."""

import math

import numpy as np
import pytest

from conftest import random_table_like_config
from radcom.comms import compute_sinr, jain_fairness, rate_report
from radcom.errors import ValidationError
from radcom.optimizer import optimal_allocation_for_sumrate
from radcom.scenario import PowerAllocation, ScenarioConfig

CFG = ScenarioConfig()
# Sum-rate optimum for r02 = 1 at half the power on the radar.
OPT_HALF = optimal_allocation_for_sumrate(CFG, 1.0, 0.5)


def test_sinr_at_the_half_radar_optimum():
    gamma1, gamma2 = compute_sinr(CFG, OPT_HALF)
    assert gamma1 == pytest.approx(2.9057, rel=1e-3, abs=0)
    # the weak user's QoS of 1 bit/s/Hz pins its SINR to exactly 2^1 - 1
    assert gamma2 == pytest.approx(1.0, rel=1e-9, abs=0)


def test_sinr_zero_power_degenerate_cases():
    no_s1 = PowerAllocation(0.0, 0.3, 0.5)
    gamma1, gamma2 = compute_sinr(CFG, no_s1)
    assert gamma1 == 0.0
    assert gamma2 == pytest.approx(
        0.3 * CFG.h2_gain * CFG.total_power_mw / CFG.sigma2_sq, rel=1e-12, abs=0)

    no_s2 = PowerAllocation(0.3, 0.0, 0.5)
    _, gamma2 = compute_sinr(CFG, no_s2)
    assert gamma2 == 0.0


def test_rate_report_at_the_half_radar_optimum():
    r1, r2 = rate_report(CFG, OPT_HALF)
    assert r2 == pytest.approx(1.0, abs=1e-3)
    assert r1 == pytest.approx(1.9657, abs=1e-3)
    assert r1 + r2 == pytest.approx(2.9657, abs=1e-3)
    # the weak user's own SINR sets its rate
    assert r2 == np.log2(1.0 + compute_sinr(CFG, OPT_HALF)[1])


def test_rate_report_meets_both_qos_rates_at_the_power_minimum():
    # Allocation holding (r01, r02) = (1.5, 0.7) with equality.
    r1, r2 = rate_report(CFG, PowerAllocation(0.05782, 0.23360, 0.70858))
    assert r1 == pytest.approx(1.5, abs=1e-4)
    assert r2 == pytest.approx(0.7, abs=1e-4)


def test_rate_report_zero_comm_power():
    assert sum(rate_report(CFG, PowerAllocation(0.0, 0.0, 0.7))) == 0.0


# Scenarios at the edge of the SIC ordering: h1 = h2 (1 + eps) at equal noise.
NEAR_TIES = [ScenarioConfig(h1_gain=CFG.h2_gain * (1.0 + eps))
             for eps in (1e-15, 1e-14, 1e-12, 1e-9)]


def _r2_of_both_sic_branches(cfg, alloc):
    """The weak user's rate as the min of its own SINR and the SINR with which
    user 1 decodes s2 to strip it: the reference the one-SINR rate must match."""
    p = cfg.total_power_mw
    gamma2 = (alloc.a2_sq * cfg.h2_gain * p
              / (cfg.h2_gain * alloc.a1_sq * p + cfg.sigma2_sq))
    gamma2_bar = (alloc.a2_sq * cfg.h1_gain * p
                  / (cfg.h1_gain * alloc.a1_sq * p + cfg.sigma1_sq))
    assert np.all(gamma2_bar >= gamma2)
    return np.minimum(np.log2(1.0 + gamma2), np.log2(1.0 + gamma2_bar))


def test_sic_never_binds_for_table_like_configs():
    rng = np.random.default_rng(11)
    configs = [CFG, ScenarioConfig(sigma1_sq=1e-10), *NEAR_TIES,
               *(random_table_like_config(rng) for _ in range(100))]
    for cfg in configs:
        # splits drawn over the power simplex
        u = rng.uniform(0.0, 1.0, size=(3, 2000))
        splits = [u / (np.maximum(u.sum(axis=0), 1.0) * rng.uniform(1.0, 2.0, size=2000))]
        # and the sum-rate-optimal splits of sweeps, where r2 meets the QoS exactly
        for r02 in (0.01, 0.3, 0.7, 1.5):
            need = cfg.sigma2_sq / cfg.total_power_mw * (2.0 ** r02 - 1.0)
            if need < cfg.h2_gain:
                grid = np.linspace(0.0, 1.0 - need / cfg.h2_gain, 1000, endpoint=False)
                a = optimal_allocation_for_sumrate(cfg, r02, grid)
                splits.append([a.a1_sq, a.a2_sq, a.ar_sq])
        u = np.hstack(splits)
        for alloc in (PowerAllocation(*u), PowerAllocation(*u[:, 0])):
            r2 = rate_report(cfg, alloc)[1]
            assert np.array_equal(r2, _r2_of_both_sic_branches(cfg, alloc))
            assert np.array_equal(r2, np.log2(1.0 + compute_sinr(cfg, alloc)[1]))


def test_rates_invariant_to_joint_power_and_noise_rescaling():
    alloc = PowerAllocation(0.2, 0.5, 0.3)
    base = sum(rate_report(CFG, alloc))
    base_sinr = compute_sinr(CFG, alloc)
    for factor in (1e-3, 4.7, 1e3):
        scaled_cfg = ScenarioConfig(
            sigma1_sq=CFG.sigma1_sq * factor,
            sigma2_sq=CFG.sigma2_sq * factor,
            sigma_r_sq=CFG.sigma_r_sq * factor,
            total_power_mw=CFG.total_power_mw * factor,
        )
        scaled = sum(rate_report(scaled_cfg, alloc))
        scaled_sinr = compute_sinr(scaled_cfg, alloc)
        assert scaled_sinr == pytest.approx(base_sinr, rel=1e-12, abs=0)
        assert scaled == pytest.approx(base, rel=1e-12, abs=0)


def test_jain_fairness_reference_values():
    assert jain_fairness(1.0, 1.0) == 1.0
    assert jain_fairness(3.0, 1.0) == pytest.approx(0.8, rel=1e-12, abs=0)


def test_jain_fairness_at_the_no_radar_optimum():
    # Rates from the closed-form split for r02 = 0.7 as ar_sq -> 0.
    alloc = optimal_allocation_for_sumrate(CFG, 0.7, 0.0)
    assert jain_fairness(*rate_report(CFG, alloc)) == pytest.approx(0.6678, abs=1e-3)


def test_jain_fairness_rejects_degenerate_inputs():
    assert math.isnan(jain_fairness(0.0, 0.0))
    with pytest.raises(ValidationError):
        jain_fairness(1.0, -0.5)


def test_jain_fairness_scale_invariance():
    rng = np.random.default_rng(3)
    for _ in range(100):
        r1, r2 = rng.uniform(0.0, 5.0, size=2).tolist()
        if r1 + r2 == 0.0:
            continue
        c = 10.0 ** rng.uniform(-3, 3)
        assert jain_fairness(c * r1, c * r2) == pytest.approx(
            jain_fairness(r1, r2), rel=1e-12, abs=0)


def test_sum_rate_strictly_decreasing_in_weak_user_power():
    rng = np.random.default_rng(17)
    for _ in range(100):
        kappa = rng.uniform(0.05, 0.95)
        grid = np.sort(rng.uniform(1e-4, kappa - 1e-4, size=12))
        r_sums = [
            sum(rate_report(CFG, PowerAllocation(kappa - a2, a2, 1.0 - kappa)))
            for a2 in grid
        ]
        assert all(a > b for a, b in zip(r_sums, r_sums[1:]))


def test_jain_fairness_over_arrays_marks_all_zero_entries_nan():
    r1 = np.array([1.0, 3.0, 0.0])
    r2 = np.array([1.0, 1.0, 0.0])
    index = jain_fairness(r1, r2)
    assert index[0] == jain_fairness(1.0, 1.0)
    assert index[1] == jain_fairness(3.0, 1.0)
    assert math.isnan(index[2])
    with pytest.raises(ValidationError):
        jain_fairness(r1, np.array([1.0, -1.0, 0.0]))
