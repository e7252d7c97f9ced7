"""Closed-form splits, sweeps, region sampling, and asymmetry studies."""

import math
import re
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import GRID, exact_crlb, random_table_like_config
from radcom.comms import jain_fairness, rate_report
from radcom.errors import InfeasibleError, ValidationError
from radcom.optimizer import (_evaluate, asymmetry_sweep, default_grid, max_radar_allocation,
                              optimal_allocation_for_sumrate, sample_feasible_region,
                              star_point, tradeoff_sweep)
from radcom.radar import WaveformKind, WaveformSpec, crlb_delay, total_estimation_variance
from radcom.scenario import PowerAllocation, QosRequirement, ScenarioConfig

CFG = ScenarioConfig()
LINEAR = WaveformSpec(WaveformKind.LINEAR_FM, 2e7, 1000.0)


def test_optimal_allocation_reference_split():
    alloc = optimal_allocation_for_sumrate(CFG, 1.0, 0.5)
    assert alloc.a1_sq == pytest.approx(0.09189, abs=1e-5)
    assert alloc.a2_sq == pytest.approx(0.40811, abs=1e-5)
    assert alloc.ar_sq == 0.5
    assert alloc.a1_sq + alloc.a2_sq == 0.5
    assert rate_report(CFG, alloc)[1] == pytest.approx(1.0, rel=1e-9, abs=0)


def test_optimal_allocation_infeasible_when_budget_too_small():
    with pytest.raises(InfeasibleError, match="kappa_min = 0.578"):
        optimal_allocation_for_sumrate(CFG, 1.5, 0.5)


def test_optimal_allocation_vanishing_qos_gives_everything_to_the_strong_user():
    alloc = optimal_allocation_for_sumrate(CFG, 1e-9, 0.3)
    assert alloc.a2_sq == pytest.approx(0.0, abs=1e-8)
    assert alloc.a1_sq == pytest.approx(0.7, abs=1e-8)


def test_optimal_allocation_input_guards():
    with pytest.raises(ValidationError):
        optimal_allocation_for_sumrate(CFG, 0.7, 1.0)
    with pytest.raises(ValidationError):
        optimal_allocation_for_sumrate(CFG, 0.7, -0.1)
    with pytest.raises(ValidationError):
        optimal_allocation_for_sumrate(CFG, 0.0, 0.5)


def test_min_power_reference_values():
    alloc = max_radar_allocation(CFG, QosRequirement(1.5, 0.7))
    assert alloc.a1_sq == pytest.approx(0.057822, abs=1e-5)
    assert alloc.a2_sq == pytest.approx(0.233598, abs=1e-5)
    r1, r2 = rate_report(CFG, PowerAllocation(alloc.a1_sq, alloc.a2_sq,
                                              1 - alloc.a1_sq - alloc.a2_sq))
    assert r1 == pytest.approx(1.5, rel=1e-9, abs=0)
    assert r2 == pytest.approx(0.7, rel=1e-9, abs=0)

    alloc = max_radar_allocation(CFG, QosRequirement(0.7, 0.7))
    assert alloc.a1_sq == pytest.approx(0.019749, abs=1e-5)
    assert alloc.a2_sq == pytest.approx(0.209820, abs=1e-5)

    alloc = max_radar_allocation(CFG, QosRequirement(0.0, 0.0))
    assert (alloc.a1_sq, alloc.a2_sq) == (0.0, 0.0)


def test_min_power_infeasible_qos():
    with pytest.raises(InfeasibleError, match="nothing left"):
        max_radar_allocation(CFG, QosRequirement(5.0, 5.0))
    # 2^r overflows a float from r = 1024 on: the least share is inf, out of
    # reach, also beside a zero rate, whose share is 0 and not 0 * inf = nan
    for qos in [(2000.0, 0.7), (1e308, 1.0), (0.7, 1024.0), (2000.0, 0.0)]:
        with pytest.raises(InfeasibleError, match="communications power inf >= 1"):
            max_radar_allocation(CFG, QosRequirement(*qos))


@pytest.mark.parametrize("qos,ar_expected", [
    ((1.5, 0.7), 0.70858),
    ((0.7, 0.7), 0.77043),
    ((1.5, 1.5), 0.25826),
])
def test_max_radar_allocation_reference_values(qos, ar_expected):
    alloc = max_radar_allocation(CFG, QosRequirement(*qos))
    assert alloc.ar_sq == pytest.approx(ar_expected, abs=1e-4)


@pytest.mark.parametrize("qos,norm_expected,rsum_expected", [
    ((1.5, 0.7), 1.4113, 2.2),
    ((0.7, 0.7), 1.2980, 1.4),
    ((1.5, 1.5), 3.8721, 3.0),
])
def test_star_point_reference_values(qos, norm_expected, rsum_expected):
    pt = star_point(CFG, QosRequirement(*qos), LINEAR)
    assert pt.sigma_eps_sq_normalized == pytest.approx(norm_expected, abs=1e-3)
    assert pt.r_sum == pytest.approx(rsum_expected, rel=1e-9, abs=0)


@pytest.mark.parametrize("r02,tail_expected", [
    (0.7, 0.8025),
    (1.0, 0.6837),
    (1.5, 0.4218),
])
def test_sweep_infeasibility_onset(r02, tail_expected):
    result = tradeoff_sweep(CFG, r02, LINEAR, GRID)
    assert result.infeasible_tail_start == pytest.approx(tail_expected, abs=1e-3)
    assert result.curve.split()[-1].alloc.ar_sq < result.infeasible_tail_start


def test_sweep_points_are_ordered_and_monotone():
    points = tradeoff_sweep(CFG, 0.7, LINEAR, GRID).curve.split()
    ar = [pt.alloc.ar_sq for pt in points]
    r_sum = [pt.r_sum for pt in points]
    sigma = [pt.sigma_eps_sq for pt in points]
    assert all(a < b for a, b in zip(ar, ar[1:]))
    assert all(a >= b for a, b in zip(r_sum, r_sum[1:]))
    assert all(a >= b for a, b in zip(sigma, sigma[1:]))


def test_sweep_holds_the_weak_user_at_its_qos():
    result = tradeoff_sweep(CFG, 1.0, LINEAR, GRID)
    for pt in result.curve.split():
        assert pt.r2 == pytest.approx(1.0, rel=1e-9, abs=0)


def test_sweep_points_recompute_consistently():
    result = tradeoff_sweep(CFG, 0.7, LINEAR, {"lo": 0.05, "hi": 0.75, "count": 15})
    for pt in result.curve.split():
        fresh = sum(rate_report(CFG, pt.alloc))
        assert pt.r_sum == pytest.approx(fresh, rel=1e-9, abs=0)
        bound = total_estimation_variance(CFG, pt.alloc, LINEAR)
        assert pt.sigma_eps_sq == pytest.approx(bound, rel=1e-9, abs=0)


def test_sweep_zero_radar_share_is_flagged_infinite():
    result = tradeoff_sweep(CFG, 0.7, LINEAR, {"lo": 0.0, "hi": 0.0, "count": 1})
    points = result.curve.split()
    assert len(points) == 1
    assert math.isinf(points[0].sigma_eps_sq)
    assert math.isinf(points[0].sigma_eps_sq_normalized)
    assert result.infeasible_tail_start is None


def test_sweep_with_no_feasible_point_raises():
    with pytest.raises(InfeasibleError, match="kappa_min = 0.578"):
        tradeoff_sweep(CFG, 1.5, LINEAR, {"lo": 0.5, "hi": 0.9, "count": 50})
    # a QoS no budget can carry fails even on the full default grid
    with pytest.raises(InfeasibleError):
        tradeoff_sweep(CFG, 3.0, LINEAR, GRID)
    # so does one whose least power overflows a float
    for r02 in (1024.0, 2000.0):
        with pytest.raises(InfeasibleError, match=r"kappa_min = inf\)"):
            tradeoff_sweep(CFG, r02, LINEAR, GRID)
        with pytest.raises(InfeasibleError, match="kappa_min = inf,"):
            optimal_allocation_for_sumrate(CFG, r02, 0.5)


# Grids {lo, hi, count} that default_grid refuses, with a part of its error.
REFUSED_GRIDS = [
    (0.5, 0.4, 2, "0 <= lo <= hi < 1"),
    (0.5, 1.0, 2, "0 <= lo <= hi < 1"),
    (math.nan, 0.5, 2, "0 <= lo <= hi < 1"),
    (0.1, 0.5, 0, "at least one point"),
    (0.5, 0.5, 10, "strictly increasing"),
    (0.5, math.nextafter(0.5, 1.0), 10, "strictly increasing"),   # spacing below an ulp
    # numpy refuses each count before allocating anything: past its size limit,
    # and 711 PiB, beyond any 57-bit address space
    (0.0, 0.5, 10 ** 20, f"grid count {10 ** 20} is too large: Maximum allowed size"),
    (0.0, 0.5, 10 ** 17, f"grid count {10 ** 17} is too large: Unable to allocate"),
]


def test_sweep_grid_validation():
    for lo, hi, count, error in REFUSED_GRIDS:
        grid = {"lo": lo, "hi": hi, "count": count}
        with pytest.raises(ValidationError, match=re.escape(error)):
            tradeoff_sweep(CFG, 0.7, LINEAR, grid)
        with pytest.raises(ValidationError, match=re.escape(error)):
            asymmetry_sweep(CFG, 0.7, LINEAR, [5.0], grid)


def test_region_samples_are_feasible_and_deterministic():
    points = sample_feasible_region(CFG, LINEAR, 1000, seed=31)
    assert len(points) == 1000
    a = np.array([(pt.alloc.a1_sq, pt.alloc.a2_sq, pt.alloc.ar_sq) for pt in points])
    assert np.all(a >= 0.0) and np.all(a.sum(axis=1) <= 1.0 + 1e-12)
    # the whole simplex: splits favouring either user are both drawn
    assert 0 < np.count_nonzero(a[:, 1] > a[:, 0]) < len(points)
    again = sample_feasible_region(CFG, LINEAR, 1000, seed=31)
    assert [p.alloc for p in again] == [p.alloc for p in points]
    with pytest.raises(ValidationError):
        sample_feasible_region(CFG, LINEAR, 0, seed=1)


def test_region_samples_never_beat_the_sweep_curve():
    r02 = 0.7
    for pt in sample_feasible_region(CFG, LINEAR, 400, seed=5):
        if pt.r2 < r02:
            continue  # outside this curve's QoS constraint
        best = optimal_allocation_for_sumrate(CFG, r02, pt.alloc.ar_sq)
        assert pt.r_sum <= sum(rate_report(CFG, best)) + 1e-12


def test_star_point_dominates_qos_satisfying_samples():
    qos = QosRequirement(1.5, 0.7)
    star = star_point(CFG, qos, LINEAR)
    checked = 0
    for pt in sample_feasible_region(CFG, LINEAR, 2000, seed=9):
        if pt.r1 >= qos.r01 and pt.r2 >= qos.r02:
            checked += 1
            assert star.sigma_eps_sq <= pt.sigma_eps_sq * (1 + 1e-12)
    assert checked > 0


def test_swapping_waveforms_rescales_only_the_radar_side():
    grid = {"lo": 0.05, "hi": 0.7, "count": 10}
    lin = tradeoff_sweep(CFG, 0.7, LINEAR, grid)
    par = tradeoff_sweep(
        CFG, 0.7, WaveformSpec(WaveformKind.PARABOLIC_FM, 2e7, 1000.0), grid)
    for a, b in zip(lin.curve.split(), par.curve.split()):
        assert b.r_sum == a.r_sum
        assert b.r1 == a.r1
        assert b.fairness == a.fairness
        assert b.sigma_eps_sq / a.sigma_eps_sq == pytest.approx(15 / 16, rel=1e-12, abs=0)


def test_asymmetry_ten_db_gap_reproduces_the_baseline():
    grid = {"lo": 0.05, "hi": 0.7, "count": 20}
    baseline = tradeoff_sweep(CFG, 0.7, LINEAR, grid)
    swept = asymmetry_sweep(CFG, 0.7, LINEAR, [10.0], grid)[0]
    assert len(swept.curve.r_sum) == len(baseline.curve.r_sum)
    for mine, ref in zip(swept.curve.split(), baseline.curve.split()):
        assert mine.r_sum == pytest.approx(ref.r_sum, rel=1e-9, abs=0)
        assert mine.sigma_eps_sq == pytest.approx(ref.sigma_eps_sq, rel=1e-9, abs=0)


def test_asymmetry_rejects_non_positive_gaps():
    with pytest.raises(ValidationError, match="> 0 dB"):
        asymmetry_sweep(CFG, 0.7, LINEAR, [0.0], GRID)
    with pytest.raises(ValidationError):
        asymmetry_sweep(CFG, 0.7, LINEAR, [], GRID)


def test_larger_asymmetry_degrades_the_sum_rate_pointwise():
    grid = {"lo": 0.05, "hi": 0.3, "count": 12}
    results = [r.curve.split() for r in
               asymmetry_sweep(CFG, 0.7, LINEAR, [5.0, 10.0, 15.0], grid)]
    for tighter, looser in zip(results[1:], results[:-1]):
        n = min(len(tighter), len(looser))
        assert n > 0
        for i in range(n):
            assert tighter[i].r_sum < looser[i].r_sum


def test_random_configs_keep_the_qos_equality():
    rng = np.random.default_rng(23)
    for _ in range(50):
        cfg = random_table_like_config(rng)
        r02 = rng.uniform(0.1, 2.0)
        ar_sq = rng.uniform(0.0, 0.9)
        try:
            alloc = optimal_allocation_for_sumrate(cfg, r02, ar_sq)
        except InfeasibleError:
            continue
        assert alloc.a1_sq + alloc.a2_sq == 1.0 - ar_sq
        assert rate_report(cfg, alloc)[1] == pytest.approx(r02, rel=1e-9, abs=0)


@pytest.mark.parametrize("kind", list(WaveformKind))
def test_sweep_columns_equal_the_scalar_api(kind):
    rng = np.random.default_rng(41)
    for _ in range(3):
        cfg = random_table_like_config(rng)
        spec = WaveformSpec(kind, cfg.bandwidth_hz, cfg.time_bandwidth)
        # QoS whose infeasibility onset falls near ar_sq = 0.8
        r02 = math.log2(1.0 + 0.2 * cfg.h2_gain * cfg.total_power_mw / cfg.sigma2_sq)
        for lo, hi, count in ((0.01, 0.99, 2000), (0.0, 0.9, 37)):
            result = tradeoff_sweep(cfg, r02, spec, {"lo": lo, "hi": hi, "count": count})
            grid = default_grid(lo, hi, count)
            points = result.curve.split()
            assert 0 < len(points) < len(grid)
            # the sweep stops exactly where the scalar split turns infeasible
            with pytest.raises(InfeasibleError):
                optimal_allocation_for_sumrate(cfg, r02, float(grid[len(points)]))
            for pt, ar_sq in zip(points, grid):
                alloc = optimal_allocation_for_sumrate(cfg, r02, float(ar_sq))
                assert pt.alloc == alloc
                r1, r2 = rate_report(cfg, alloc)
                assert (pt.r1, pt.r2, pt.r_sum) == (r1, r2, r1 + r2)
                assert pt.fairness == jain_fairness(r1, r2)
                assert pt.sigma_eps_sq == total_estimation_variance(cfg, alloc, spec)
                norm = math.inf if ar_sq == 0.0 else 1.0 / ar_sq
                assert pt.sigma_eps_sq_normalized == norm


def _same(scalar, column):
    """A float answer equals the 1-entry array answer bit for bit, inf and nan too."""
    assert np.ndim(scalar) == 0 and np.shape(column) == (1,)
    np.testing.assert_array_equal(np.atleast_1d(scalar), column, strict=True)


def _same_tradeoff(pt, cfg, spec):
    """Each scalar field of pt equals the closed forms over its split as 1-entry arrays."""
    a = pt.alloc
    column = PowerAllocation(*(np.array([x]) for x in (a.a1_sq, a.a2_sq, a.ar_sq)))
    r1, r2 = rate_report(cfg, column)
    _same(pt.r1, r1)
    _same(pt.r2, r2)
    _same(pt.r_sum, r1 + r2)
    _same(pt.sigma_eps_sq, total_estimation_variance(cfg, column, spec))
    _same(pt.sigma_eps_sq_normalized, 1.0 / column.ar_sq)
    _same(pt.fairness, jain_fairness(r1, r2))


def test_floats_and_one_entry_arrays_give_the_same_answer():
    rng = np.random.default_rng(59)
    for _ in range(20):
        cfg = random_table_like_config(rng)
        kind = list(WaveformKind)[rng.integers(2)]
        spec = WaveformSpec(kind, cfg.bandwidth_hz, cfg.time_bandwidth)
        a1, a2, ar = np.diff(np.sort(rng.random(3)), prepend=0.0).tolist()
        # a random split, one without radar power (inf bound), one without
        # communications power (all-zero rates, nan fairness), and all off
        for split in ((a1, a2, ar), (a1, a2, 0.0), (0.0, 0.0, ar), (0.0, 0.0, 0.0)):
            alloc = PowerAllocation(*split)
            column = PowerAllocation(*(np.array([x]) for x in split))
            for k in (1, 2):
                _same(crlb_delay(cfg, alloc, spec, k), crlb_delay(cfg, column, spec, k))
            _same(total_estimation_variance(cfg, alloc, spec),
                  total_estimation_variance(cfg, column, spec))
            _same(_evaluate(cfg, alloc, spec).sigma_eps_sq_normalized,
                  _evaluate(cfg, column, spec).sigma_eps_sq_normalized)
            r1, r2 = rate_report(cfg, alloc)
            r1_column, r2_column = rate_report(cfg, column)
            _same(r1, r1_column)
            _same(r2, r2_column)
            _same(r1 + r2, r1_column + r2_column)
            _same(jain_fairness(r1, r2), jain_fairness(r1_column, r2_column))
        # QoS rates whose least powers are a1_min = u1 and a2_min = u2
        u1, u2 = rng.uniform(0.0, 0.45, size=2)
        noise1, noise2 = (cfg.sigma1_sq / cfg.total_power_mw,
                          cfg.sigma2_sq / cfg.total_power_mw)
        r01 = math.log2(1.0 + u1 * cfg.h1_gain / noise1)
        r02 = math.log2(1.0 + u2 / (u1 + noise2 / cfg.h2_gain))
        for qos in (QosRequirement(0.0, 0.0), QosRequirement(r01, r02)):
            _same_tradeoff(star_point(cfg, qos, spec), cfg, spec)


def _sorted_spacing_splits(n, seed):
    """Splits from one draw of n uniform triples, sorted and spaced one row at a time."""
    splits = []
    for row in np.random.default_rng(seed).random((n, 3)).tolist():
        u0, u1, u2 = sorted(row)
        splits.append(PowerAllocation(u0, u1 - u0, u2 - u1))
    return splits


@pytest.mark.parametrize("n,seed", [(1, 0), (31, 5), (64, 9), (1000, 31)])
def test_region_sampler_keeps_its_draws(n, seed):
    points = sample_feasible_region(CFG, LINEAR, n, seed)
    assert [pt.alloc for pt in points] == _sorted_spacing_splits(n, seed)
    for pt in points[:50]:
        assert (pt.r1, pt.r2) == rate_report(CFG, pt.alloc)
        assert pt.sigma_eps_sq == total_estimation_variance(CFG, pt.alloc, LINEAR)


def test_star_point_without_rates_has_undefined_fairness():
    pt = star_point(CFG, QosRequirement(0.0, 0.0), LINEAR)
    assert pt.alloc == PowerAllocation(0.0, 0.0, 1.0)
    assert pt.r_sum == 0.0
    assert math.isnan(pt.fairness)


def _random_scenario(rng, regime):
    """A config drawn log-uniform over a wide box, or None when ScenarioConfig rejects it.

    Regime 0 draws every field independently, so it also proposes configs
    that break the SIC ordering.  The edge regimes make the strong user the
    noisier one with the ordering held (1), put the effective-gain ratio
    within 1 % of 1 on either side (2), or set the total power to +-20 dBm (3).
    """
    def log_uniform(lo_db, hi_db):
        return 10.0 ** (rng.uniform(lo_db, hi_db) / 10.0)

    h1, h2 = log_uniform(-120.0, -60.0), log_uniform(-130.0, -60.0)
    sigma1_sq, sigma2_sq = log_uniform(-125.0, -85.0), log_uniform(-125.0, -85.0)
    power = log_uniform(-10.0, 10.0)
    if regime == 1:
        sigma1_sq = sigma2_sq * log_uniform(0.0, 20.0)
        h2 = h1 * sigma2_sq / sigma1_sq * log_uniform(-20.0, 0.0)
    elif regime == 2:
        h2 = h1 * sigma2_sq / sigma1_sq * rng.uniform(0.99, 1.01)
    elif regime == 3:
        power = 10.0 ** rng.choice([-2.0, 2.0])
    try:
        return ScenarioConfig(h1_gain=h1, h2_gain=h2, sigma1_sq=sigma1_sq,
                              sigma2_sq=sigma2_sq,
                              sigma_r_sq=log_uniform(-130.0, -90.0),
                              eta1=rng.uniform(0.05, 1.0), eta2=rng.uniform(0.05, 1.0),
                              total_power_mw=power)
    except ValidationError:
        return None


def test_random_accepted_configs_meet_qos_and_optimality():
    def assert_exact_bound(cfg, spec, ar_sq):
        # Exact to a few ulps, to half the subnormal spacing below the normal
        # range, and inf where the exact bound is past the float range.
        for k in (1, 2):
            got = crlb_delay(cfg, PowerAllocation(0.0, 0.0, ar_sq), spec, k)
            exact = exact_crlb(cfg, ar_sq, spec, k)
            if exact > sys.float_info.max:
                assert got == math.inf
            else:
                assert abs(Fraction(float(got)) - exact) <= (exact * Fraction(1e-15)
                                                             + Fraction(2) ** -1075)

    # SNRs echo TW / sigma_r^2 of 1e383 and 1e-327, past the float range.
    for wide in ({"total_power_mw": 1e200, "sigma_r_sq": 1e-200, "bandwidth_hz": 1e-100},
                 {"total_power_mw": 1e-10, "sigma_r_sq": 1e300, "bandwidth_hz": 1e150}):
        cfg = ScenarioConfig(**wide)
        for kind in WaveformKind:
            assert_exact_bound(cfg, WaveformSpec(kind, cfg.bandwidth_hz, 1000.0), 1.0)

    rng = np.random.default_rng(2024)
    bound_rng = np.random.default_rng(2025)   # apart, so the draws above stay put
    grid = {**GRID, "count": 40}
    checked = {"sweep": 0, "region": 0, "star": 0}
    for draw in range(240):
        cfg = _random_scenario(rng, draw % 4)
        if cfg is None:
            continue
        # Noise, power and bandwidth over most of the float range.
        wide = replace(cfg, sigma_r_sq=10.0 ** bound_rng.uniform(-300.0, 300.0),
                       total_power_mw=10.0 ** bound_rng.uniform(-300.0, 300.0))
        for kind in WaveformKind:
            spec = WaveformSpec(kind, 10.0 ** bound_rng.uniform(-150.0, 150.0), 1000.0)
            assert_exact_bound(wide, spec, bound_rng.uniform(0.01, 1.0))
        r01, r02 = 10.0 ** rng.uniform(-2.0, 0.9, size=2)
        try:
            curve = tradeoff_sweep(cfg, r02, LINEAR, grid).curve
        except InfeasibleError:
            pass
        else:
            assert np.all(curve.r2 >= r02 * (1.0 - 1e-9))
            assert np.all(curve.alloc.power_sum <= 1.0 + 1e-12)
            checked["sweep"] += 1

        # No split of the whole simplex that meets r02 beats the closed form.
        region = [pt for pt in sample_feasible_region(cfg, LINEAR, 60, draw)
                  if pt.r2 >= r02]
        if region:
            ar_sq = np.array([pt.alloc.ar_sq for pt in region])
            best = sum(rate_report(cfg, optimal_allocation_for_sumrate(cfg, r02, ar_sq)))
            r_sum = np.array([pt.r_sum for pt in region])
            assert np.all(r_sum <= best * (1.0 + 1e-12))
            checked["region"] += 1

        try:
            star = star_point(cfg, QosRequirement(r01, r02), LINEAR)
        except InfeasibleError:
            continue
        assert star.r1 >= r01 * (1.0 - 1e-9) and star.r2 >= r02 * (1.0 - 1e-9)
        checked["star"] += 1
    assert min(checked.values()) >= 40, checked
