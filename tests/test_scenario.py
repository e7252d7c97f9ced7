"""Unit conversion, scenario parsing, and the scenario's SIC ordering rule."""

import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from radcom.comms import rate_report
from radcom.errors import ValidationError
from radcom.optimizer import optimal_allocation_for_sumrate, star_point
from radcom.radar import WaveformKind, WaveformSpec
from radcom.scenario import (PowerAllocation, QosRequirement, ScenarioConfig, checked_number,
                             db_to_linear, linear_to_db, load_scenario,
                             scenario_from_report, scenario_report_fields)

# The scenario file's dB/dBm keys and the field each one sets.
DB_KEYS = {
    "h1_gain_db": "h1_gain",
    "h2_gain_db": "h2_gain",
    "sigma1_sq_dbm": "sigma1_sq",
    "sigma2_sq_dbm": "sigma2_sq",
    "sigma_r_sq_dbm": "sigma_r_sq",
    "total_power_dbm": "total_power_mw",
}


def _pulse(cfg):
    """The pulse a scenario describes: its bandwidth and time-bandwidth product."""
    return WaveformSpec(WaveformKind.LINEAR_FM, cfg.bandwidth_hz, cfg.time_bandwidth)


def test_db_to_linear_reference_points():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(-90.0) == pytest.approx(1e-9, rel=1e-12, abs=0)
    # -105 dBm, the baseline receiver noise power in mW
    assert db_to_linear(-105.0) == pytest.approx(3.1623e-11, rel=1e-4, abs=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 4000.0])
def test_db_to_linear_rejects_non_finite(bad):
    with pytest.raises(ValidationError):
        db_to_linear(bad)


def test_checked_number_refuses_an_integer_no_float_holds():
    assert checked_number("eta1", 10 ** 300) == 10 ** 300
    assert checked_number("trials", 10 ** 400, integer=True) == 10 ** 400
    with pytest.raises(ValidationError, match="eta1 is too large for a float, got 1000"):
        checked_number("eta1", 10 ** 400)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_linear_to_db_rejects_non_positive(bad):
    with pytest.raises(ValidationError):
        linear_to_db(bad)


def test_db_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = 10.0 ** rng.uniform(-30.0, 30.0)
        assert db_to_linear(linear_to_db(x)) == pytest.approx(x, rel=1e-12, abs=0)


def test_empty_source_gives_baseline_defaults():
    cfg = load_scenario("")
    assert cfg.h1_gain == pytest.approx(1e-9, rel=1e-12, abs=0)
    assert cfg.h2_gain == pytest.approx(1e-10, rel=1e-12, abs=0)
    assert cfg.sigma1_sq == pytest.approx(3.1623e-11, rel=1e-4, abs=0)
    assert cfg.sigma2_sq == cfg.sigma1_sq
    assert cfg.sigma_r_sq == pytest.approx(1e-11, rel=1e-12, abs=0)
    assert cfg.eta1 == 0.1
    assert cfg.eta2 == 0.5
    assert cfg.bandwidth_hz == 2e7
    assert cfg.time_bandwidth == 1000.0
    assert cfg.total_power_mw == 1.0
    assert _pulse(cfg).duration_s == pytest.approx(5e-5, rel=1e-12, abs=0)


def test_defaults_pass_their_own_validation():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ScenarioConfig()


def test_swapped_gains_rejected():
    with pytest.raises(ValidationError, match="h1_gain"):
        load_scenario("h1_gain_db=-100, h2_gain_db=-90")


def test_time_bandwidth_override_sets_duration():
    cfg = load_scenario("time_bandwidth=100")
    assert cfg.time_bandwidth == 100.0
    assert _pulse(cfg).duration_s == pytest.approx(100 / 2e7, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "key", [f.name for f in fields(ScenarioConfig)] + list(DB_KEYS))
def test_every_file_key_sets_its_field(key):
    # Each value doubles the default (3 dB up), which keeps the SIC ordering.
    field = DB_KEYS.get(key, key)
    default = getattr(ScenarioConfig(), field)
    if key in DB_KEYS:
        value_db = linear_to_db(default) + 3.0
        cfg = load_scenario(f"{key}={value_db!r}")
        expected = db_to_linear(value_db)
    else:
        cfg = load_scenario(f"{key}={2.0 * default!r}")
        expected = 2.0 * default
    assert cfg == replace(ScenarioConfig(), **{field: expected})
    report = scenario_report_fields(cfg)
    assert set(report) == {f.name for f in fields(ScenarioConfig)} | set(DB_KEYS)
    assert report[field] == expected
    assert scenario_from_report(report) == cfg


def test_comments_blank_lines_and_dbm_keys():
    cfg = load_scenario(
        "# scenario with log-scale entries\n"
        "\n"
        "h1_gain_db = -90   # strong user\n"
        "sigma1_sq_dbm = -105\n"
        "total_power_dbm = 0\n")
    assert cfg.h1_gain == pytest.approx(1e-9, rel=1e-12, abs=0)
    assert cfg.sigma1_sq == pytest.approx(10.0 ** -10.5, rel=1e-12, abs=0)
    assert cfg.total_power_mw == 1.0


def test_key_order_does_not_matter():
    a = load_scenario("eta1=0.2\nh1_gain_db=-80\ntime_bandwidth=500")
    b = load_scenario("time_bandwidth=500\neta1=0.2\nh1_gain_db=-80")
    assert a == b
    assert a == load_scenario("eta1=0.2\nh1_gain_db=-80\ntime_bandwidth=500")


def test_empty_comma_separated_entries_are_skipped():
    expected = load_scenario("h1_gain_db=-90\neta1=0.1\neta2=0.3\n")
    assert load_scenario("h1_gain_db=-90,,eta1=0.1\neta2=0.3,\n") == expected
    assert load_scenario("h1_gain_db=-90, ,eta1=0.1,\n, eta2=0.3\n") == expected


def test_unknown_key_reports_line_number():
    with pytest.raises(ValidationError, match="line 2"):
        load_scenario("eta1=0.2\nbogus_key=1\n")


def test_malformed_entry_reports_line_number():
    with pytest.raises(ValidationError, match="line 3"):
        load_scenario("eta1=0.2\neta2=0.3\njust some words\n")
    with pytest.raises(ValidationError, match="not a number"):
        load_scenario("eta1=abc")


def test_conflicting_linear_and_db_forms_rejected():
    with pytest.raises(ValidationError, match="h1_gain"):
        load_scenario("h1_gain=1e-9\nh1_gain_db=-90")
    with pytest.raises(ValidationError, match="twice"):
        load_scenario("eta1=0.2, eta1=0.3")


@pytest.mark.parametrize("source,field", [
    ("sigma1_sq=0", "sigma1_sq"),
    ("eta2=-1", "eta2"),
    ("time_bandwidth=0.5", "time_bandwidth"),
    ("total_power_mw=0", "total_power_mw"),
])
def test_invariant_violations_name_the_field(source, field):
    with pytest.raises(ValidationError, match=field):
        load_scenario(source)


@pytest.mark.parametrize("bandwidth", [1e200, 1e-300])
def test_scenario_refuses_a_pulse_whose_squared_bandwidth_leaves_the_float_range(bandwidth):
    # (pi W)^2 overflows, or underflows to 0: the pulse check WaveformSpec makes
    text = f"bandwidth_hz must be > 0 with (pi W)^2 finite and > 0, got {bandwidth!r}"
    for make in (lambda: ScenarioConfig(bandwidth_hz=bandwidth),
                 lambda: load_scenario(f"bandwidth_hz={bandwidth!r}"),
                 lambda: WaveformSpec(WaveformKind.LINEAR_FM, bandwidth, 1000.0)):
        with pytest.raises(ValidationError) as err:
            make()
        assert str(err.value) == text


def test_scenario_refuses_a_user_snr_past_the_float_range():
    # h1 / sigma1^2 = 1e311 at a subnormal noise power, before any rate is taken
    with pytest.raises(ValidationError) as err:
        load_scenario("sigma1_sq=1e-320")
    assert str(err.value) == (
        "user 1's full-power SNR h1_gain total_power_mw / sigma1_sq leaves the float "
        "range, got h1_gain=1e-09, total_power_mw=1, sigma1_sq=9.99989e-321")
    # h2 P overflows although h2 P / sigma2^2 is 1e300 and every echo is finite
    with pytest.raises(ValidationError, match=r"^user 2's full-power SNR .* "
                                              r"sigma2_sq=1e\+10$"):
        ScenarioConfig(h1_gain=1e-9, sigma1_sq=1e-150, h2_gain=1e150, sigma2_sq=1e10,
                       eta2=1e-160, total_power_mw=1e160)
    # a subnormal noise power whose SNR is finite still loads, with exact rates
    cfg = load_scenario("sigma1_sq=1e-308")
    star = star_point(cfg, QosRequirement(1.5, 0.7), _pulse(cfg))
    assert "%.8e" % star.r_sum == "2.20000000e+00"


def test_noisier_strong_user_loads_only_with_the_ordering():
    # 5 dB more noise at user 1 still leaves it 5 dB ahead in h/sigma^2.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = load_scenario("sigma1_sq_dbm=-100")
    assert cfg.sigma1_sq > cfg.sigma2_sq
    # 20 dB more noise puts user 1 10 dB behind, so SIC cannot strip s2.
    with pytest.raises(ValidationError, match="SIC ordering"):
        load_scenario("sigma1_sq=1e-9")
    with pytest.raises(ValidationError, match="SIC ordering"):
        ScenarioConfig(sigma1_sq=1e-9)


def test_ordering_compares_effective_gains():
    # A weaker channel at user 1 is accepted when its noise is lower still,
    sigma = 10.0 ** -10.5
    cfg = ScenarioConfig(h1_gain=1e-10, h2_gain=2e-10, sigma1_sq=sigma / 4)
    assert cfg.h1_gain < cfg.h2_gain
    # and equal effective gains are not an ordering.
    with pytest.raises(ValidationError, match="h1_gain"):
        ScenarioConfig(h1_gain=2.0 ** -30, h2_gain=2.0 ** -32,
                       sigma1_sq=2.0 ** -30, sigma2_sq=2.0 ** -32)
    with pytest.raises(ValidationError, match="h2_gain > 0"):
        ScenarioConfig(h2_gain=0.0)


def test_validate_allocation_accepts_the_optimal_split():
    # The reference split is a valid allocation within the power budget,
    # and nothing on the way from the scenario to its rates warns.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = ScenarioConfig()
        alloc = optimal_allocation_for_sumrate(cfg, 1.0, 0.5)
        assert alloc.a1_sq == pytest.approx(0.09189, abs=1e-5)
        assert alloc.a2_sq == pytest.approx(0.40811, abs=1e-5)
        assert PowerAllocation(alloc.a1_sq, alloc.a2_sq, alloc.ar_sq) == alloc
        assert alloc.a1_sq + alloc.a2_sq + alloc.ar_sq <= 1.0
        assert rate_report(cfg, alloc)[1] == pytest.approx(1.0, rel=1e-9, abs=0)


def test_power_allocation_rejects_negative_and_non_finite():
    with pytest.raises(ValidationError):
        PowerAllocation(-0.1, 0.5, 0.2)
    with pytest.raises(ValidationError):
        PowerAllocation(0.1, math.nan, 0.2)


def test_power_allocation_holds_the_unit_budget():
    for shares in [(0.9, 0.9, 0.9), (0.5, 0.5, 0.5), (1.0 + 1e-13, 0.0, 0.0),
                   (0.0, 0.0, 1.5), (0.5, 0.5, 1e-11)]:
        with pytest.raises(ValidationError, match="exceeds the unit power budget"):
            PowerAllocation(*shares)
    # the budget's edges, and a sum past 1 by less than the 1e-12 slack
    for shares in [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.5, 0.5, 1e-13), (0.0, 0.0, 0.0)]:
        PowerAllocation(*shares)


def test_array_split_names_its_over_budget_entry():
    a1 = np.array([0.3, 0.3, 0.75, 0.3])
    ar = np.array([0.1, 0.2, 0.3, 0.4])
    # a scalar share broadcasts against the arrays
    for a2 in (np.full(4, 0.2), 0.2):
        with pytest.raises(ValidationError, match=r"^allocation 0\.75:0\.2:0\.3 exceeds "
                                                  r"the unit power budget$"):
            PowerAllocation(a1, a2, ar)
    a1[2] = 0.3
    PowerAllocation(a1, 0.2, ar)
    ar[3] = 1.25
    with pytest.raises(ValidationError, match=r"^allocation 0\.3:0\.2:1\.25 exceeds"):
        PowerAllocation(a1, 0.2, ar)


def test_qos_requirement_rejects_negative():
    with pytest.raises(ValidationError):
        QosRequirement(r01=-0.1, r02=0.7)
    QosRequirement(r01=0.0, r02=0.0)
