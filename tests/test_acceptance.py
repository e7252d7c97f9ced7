"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict
line; without ``-s`` the lines still appear in captured output.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from conftest import GRID, random_table_like_config, whole_curve
from radcom.comms import rate_report
from radcom.optimizer import (asymmetry_sweep, max_radar_allocation,
                              optimal_allocation_for_sumrate, star_point, tradeoff_sweep)
from radcom.radar import (WaveformKind, WaveformSpec, analytic_rms_bandwidth_sq,
                          total_estimation_variance)
from radcom.scenario import PowerAllocation, QosRequirement, ScenarioConfig
from radcom.waveforms import mc_delay_estimation, synthesize
from radcom.cli import main
from radcom.waveforms import instfreq_moment, spectral_moment

CFG = ScenarioConfig()
LINEAR = WaveformSpec(WaveformKind.LINEAR_FM, 2e7, 1000.0)
PARABOLIC = WaveformSpec(WaveformKind.PARABOLIC_FM, 2e7, 1000.0)


def verdict(number, label):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} [FAIL] {label}")
                raise
            print(f"criterion {number} [PASS] {label}")
        return wrapper
    return decorator


def _random_feasible_case(rng):
    while True:
        cfg = random_table_like_config(rng)
        r02 = rng.uniform(0.1, 2.2)
        ar_sq = rng.uniform(0.0, 0.95)
        kappa_min = (cfg.sigma2_sq / cfg.total_power_mw) \
            * (2.0 ** r02 - 1.0) / cfg.h2_gain
        if 1.0 - ar_sq >= kappa_min:
            return cfg, r02, ar_sq


@verdict(1, "closed-form split holds the QoS rate exactly on 1000 random cases")
def test_criterion_1_closed_form_allocation():
    rng = np.random.default_rng(101)
    cases = [_random_feasible_case(rng) for _ in range(1000)]
    start = time.perf_counter()
    for cfg, r02, ar_sq in cases:
        alloc = optimal_allocation_for_sumrate(cfg, r02, ar_sq)
        assert alloc.a1_sq + alloc.a2_sq == 1.0 - ar_sq
        assert rate_report(cfg, alloc)[1] == pytest.approx(r02, rel=1e-9, abs=0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"1000 closed-form evaluations took {elapsed:.2f}s"


def _triangle_samples(rng, kappa, count):
    """Uniform (a1_sq, a2_sq) with a1_sq + a2_sq <= kappa."""
    u = np.sort(rng.random((count, 2)), axis=1)
    return kappa * u[:, 0], kappa * (u[:, 1] - u[:, 0])


@verdict(2, "closed-form split beats 10^4 random QoS-feasible splits, 50 cases")
def test_criterion_2_optimality_oracle():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    for _ in range(50):
        cfg, r02, ar_sq = _random_feasible_case(rng)
        best = sum(rate_report(cfg, optimal_allocation_for_sumrate(cfg, r02, ar_sq)))
        kappa = 1.0 - ar_sq
        a1, a2 = _triangle_samples(rng, kappa, 10_000)
        p = cfg.total_power_mw
        gamma1 = a1 * cfg.h1_gain * p / cfg.sigma1_sq
        gamma2 = a2 * cfg.h2_gain * p / (cfg.h2_gain * a1 * p + cfg.sigma2_sq)
        gamma2_bar = a2 * cfg.h1_gain * p / (cfg.h1_gain * a1 * p + cfg.sigma1_sq)
        r2 = np.minimum(np.log2(1.0 + gamma2), np.log2(1.0 + gamma2_bar))
        r_sum = np.log2(1.0 + gamma1) + r2
        satisfies_qos = r2 >= r02
        if np.any(satisfies_qos):
            assert float(np.max(r_sum[satisfies_qos])) <= best + 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"optimality oracle took {elapsed:.1f}s"


@verdict(3, "star points and the strong-vs-weak QoS gap comparison")
def test_criterion_3_star_points():
    expectations = {
        (1.5, 0.7): (0.70858, 1.4113),
        (0.7, 0.7): (0.77043, 1.2980),
        (1.5, 1.5): (0.25826, 3.8721),
    }
    norms = {}
    for qos, (ar_expected, norm_expected) in expectations.items():
        alloc = max_radar_allocation(CFG, QosRequirement(*qos))
        assert alloc.ar_sq == pytest.approx(ar_expected, abs=1e-4)
        pt = star_point(CFG, QosRequirement(*qos), LINEAR)
        assert pt.sigma_eps_sq_normalized == pytest.approx(norm_expected, abs=1e-3)
        norms[qos] = pt.sigma_eps_sq_normalized
    # Raising the weak user's QoS costs far more radar accuracy than
    # raising the strong user's.
    weak_gap = abs(norms[(1.5, 1.5)] - norms[(1.5, 0.7)])
    strong_gap = abs(norms[(0.7, 0.7)] - norms[(1.5, 0.7)])
    assert weak_gap == pytest.approx(2.461, abs=1e-3)
    assert strong_gap == pytest.approx(0.113, abs=1e-3)
    assert weak_gap > strong_gap


@verdict(4, "sweep infeasibility onsets for r02 = 0.7 / 1.0 / 1.5")
def test_criterion_4_feasibility_thresholds():
    expected = {0.7: 0.8025, 1.0: 0.6837, 1.5: 0.4218}
    start = time.perf_counter()
    for r02, tail in expected.items():
        result = tradeoff_sweep(CFG, r02, LINEAR, GRID)
        assert result.infeasible_tail_start == pytest.approx(tail, abs=1e-3)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"three 200-point sweeps took {elapsed:.1f}s"
    # higher weak-user QoS curtails the feasible radar region
    tails = [tradeoff_sweep(CFG, r, LINEAR, GRID).infeasible_tail_start
             for r in (0.7, 1.0, 1.5)]
    assert tails[0] > tails[1] > tails[2]


@verdict(5, "waveform closed forms: numeric moments and the 15/16 ratio")
def test_criterion_5_waveform_closed_forms():
    for spec in (LINEAR, PARABOLIC):
        sampled = synthesize(spec, 8 * spec.bandwidth_hz)
        closed = analytic_rms_bandwidth_sq(spec)
        instfreq = (math.pi * spec.bandwidth_hz) ** 2 * instfreq_moment(sampled)
        assert instfreq == pytest.approx(closed, rel=1e-6, abs=0)
        spectrum_errors = {}
        for tw in (100.0, 1000.0):
            short = WaveformSpec(spec.kind, spec.bandwidth_hz, tw)
            spectrum = (math.pi * spec.bandwidth_hz) ** 2 * spectral_moment(
                synthesize(short, 8 * spec.bandwidth_hz))
            spectrum_errors[tw] = abs(
                spectrum - analytic_rms_bandwidth_sq(short)) \
                / analytic_rms_bandwidth_sq(short)
        assert spectrum_errors[1000.0] < 0.05
        assert spectrum_errors[1000.0] < spectrum_errors[100.0]
    # closed-form moment ratio is exact; the summed bounds carry it through
    assert analytic_rms_bandwidth_sq(PARABOLIC) \
        / analytic_rms_bandwidth_sq(LINEAR) == 16.0 / 15.0
    alloc = PowerAllocation(0.1, 0.3, 0.5)
    ratio = total_estimation_variance(CFG, alloc, PARABOLIC) \
        / total_estimation_variance(CFG, alloc, LINEAR)
    assert ratio == pytest.approx(15.0 / 16.0, rel=1e-12, abs=0)


@verdict(6, "Monte Carlo delay variance sits within [0.8, 3.0] of the bound")
def test_criterion_6_monte_carlo_attainment():
    boosted = ScenarioConfig(sigma_r_sq=1e-19)  # 20 dB post-integration SNR
    start = time.perf_counter()
    report = mc_delay_estimation(boosted, PowerAllocation(0.0, 0.0, 1.0),
                                 LINEAR, true_delay_s=6.2832e-6,
                                 trials=2000, seed=2026)
    elapsed = time.perf_counter() - start
    assert report.snr_post_db == pytest.approx(20.0, abs=1e-9)
    assert 0.8 <= report.efficiency <= 3.0, f"efficiency {report.efficiency:.3f}"
    assert elapsed < 60.0, f"2000 trials took {elapsed:.1f}s"


@verdict(7, "Jain fairness at the maximum-rate end: 0.668 / 0.760 / 0.940")
def test_criterion_7_fairness_ordering():
    expected = {0.7: 0.668, 1.0: 0.760, 1.5: 0.940}
    observed = {}
    for r02, target in expected.items():
        points = whole_curve(tradeoff_sweep(CFG, r02, LINEAR, GRID)).split()
        # the sum rate is maximal at the smallest radar share (first point)
        assert points[0].r_sum == max(pt.r_sum for pt in points)
        observed[r02] = points[0].fairness
        assert observed[r02] == pytest.approx(target, abs=1e-2)
    assert observed[1.5] > observed[1.0] > observed[0.7]


@verdict(8, "sum rate degrades pointwise as channel asymmetry grows")
def test_criterion_8_asymmetry_degradation():
    results = [whole_curve(r).split() for r in
               asymmetry_sweep(CFG, 0.7, LINEAR, [5.0, 10.0, 15.0], GRID)]
    n_common = min(len(points) for points in results)
    assert n_common > 0
    for narrower, wider in zip(results[:-1], results[1:]):
        for i in range(n_common):
            assert wider[i].alloc.ar_sq == narrower[i].alloc.ar_sq
            assert wider[i].r_sum < narrower[i].r_sum


@verdict(9, "rerunning a manifest reproduces outputs byte-identically")
def test_criterion_9_manifest_reproducibility(tmp_path):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text("sigma_r_sq=1e-19\n", encoding="utf-8")

    sweep_out = tmp_path / "sweep.csv"
    assert main(["sweep", str(scenario), "--r02", "0.7",
                 "--out", str(sweep_out)]) == 0
    sweep_replay = tmp_path / "sweep_replay.csv"
    assert main(["rerun", str(tmp_path / "sweep.csv.manifest.json"),
                 "--out", str(sweep_replay)]) == 0
    assert sweep_replay.read_bytes() == sweep_out.read_bytes()

    mc_out = tmp_path / "mc.json"
    assert main(["mc-delay", str(scenario), "--delay", "6.2832e-6",
                 "--trials", "150", "--seed", "11", "--out", str(mc_out)]) == 0
    mc_replay = tmp_path / "mc_replay.json"
    assert main(["rerun", str(tmp_path / "mc.json.manifest.json"),
                 "--out", str(mc_replay)]) == 0
    assert mc_replay.read_bytes() == mc_out.read_bytes()
    assert json.loads(mc_out.read_text())["seed"] == 11
