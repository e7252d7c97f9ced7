"""CLI surface: exit codes, CSV/JSON formatting, manifests, reruns."""

import builtins
import errno
import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import exact_crlb, whole_curve
from radcom import cli, csvtext, optimizer
from radcom.cli import main
from radcom.csvtext import csv_chunks
from radcom.optimizer import default_grid, max_radar_allocation
from radcom.radar import WaveformKind, WaveformSpec
from radcom.scenario import QosRequirement, ScenarioConfig

NUMBER = re.compile(r"^(-?\d\.\d{8}e[+-]\d{2,3}|inf|nan)$")


@pytest.fixture
def scenario(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text("# baseline parameters\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def boosted(tmp_path):
    path = tmp_path / "boosted.txt"
    path.write_text("sigma_r_sq=1e-19\n", encoding="utf-8")
    return str(path)


def _scenario_file(tmp_path, text):
    path = tmp_path / "scenario.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_sweep_writes_feasible_rows_and_manifest(tmp_path, scenario):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", scenario, "--r02", "0.7", "--out", str(out)]) == 0
    header, rows = _rows(out)
    assert header == ("ar_sq,a1_sq,a2_sq,r1,r2,r_sum,sigma_eps_sq,"
                      "sigma_eps_sq_norm,log10_norm,fairness")
    # default 200-point grid truncated at the infeasibility onset ~0.8025
    assert len(rows) == 161
    assert float(rows[-1][0]) == pytest.approx(0.80, abs=5e-3)
    for row in rows:
        assert all(NUMBER.match(cell) for cell in row)
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert manifest["command"] == "sweep"
    assert manifest["scenario"]["h1_gain"] == 1e-9
    assert manifest["scenario"]["h1_gain_db"] == -90.0
    assert manifest["outputs"] == [str(out)]


def test_sweep_restricted_grid_is_infeasible(tmp_path, scenario):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", scenario, "--r02", "1.5", "--grid", "0.5:0.9:50",
                 "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_outputs_are_not_overwritten_without_force(tmp_path, scenario):
    out = tmp_path / "sweep.csv"
    args = ["sweep", scenario, "--out", str(out)]
    assert main(args) == 0
    assert main(args) == 3
    assert main(args + ["--force"]) == 0


def test_bad_flags_exit_3(tmp_path, scenario):
    out = str(tmp_path / "x.csv")
    # argparse's own usage errors, whose text varies between Python versions
    assert main(["sweep", scenario, "--waveform", "triangular", "--out", out]) == 3
    assert main(["bogus-command"]) == 3


def test_starpoints_defaults(tmp_path, scenario):
    out = tmp_path / "stars.csv"
    assert main(["starpoints", scenario, "--out", str(out)]) == 0
    header, rows = _rows(out)
    assert header == "r01,r02,ar_sq,r_sum,sigma_eps_sq_norm"
    assert len(rows) == 3
    ar_values = [float(r[2]) for r in rows]
    assert ar_values == pytest.approx([0.709, 0.770, 0.258], abs=1e-3)


def test_starpoints_infeasible_qos(tmp_path, scenario):
    out = tmp_path / "stars.csv"
    assert main(["starpoints", scenario, "--qos", "5:5", "--out", str(out)]) == 2


def test_fairness_curves_and_ordering(tmp_path, scenario):
    out = tmp_path / "fairness.csv"
    assert main(["fairness", scenario, "--out", str(out)]) == 0
    header, rows = _rows(out)
    assert header == "r02,ar_sq,r_sum,fairness"
    first_point = {}
    for row in rows:
        r02 = float(row[0])
        if r02 not in first_point:
            first_point[r02] = float(row[3])
    assert set(first_point) == {0.7, 1.0, 1.5}
    # stricter weak-user QoS drags the split toward even rates
    assert first_point[1.5] > first_point[1.0] > first_point[0.7]


def test_fairness_unreachable_qos(tmp_path, scenario):
    out = tmp_path / "fairness.csv"
    assert main(["fairness", scenario, "--r02-list", "3", "--out", str(out)]) == 2


SWEEP_OVERFLOW = "no grid point is feasible for r02 = 2000 (kappa_min = inf)"


@pytest.mark.parametrize("argv, error", [
    (["sweep", "--r02", "2000"], SWEEP_OVERFLOW),
    (["fairness", "--r02-list", "0.7,2000"], SWEEP_OVERFLOW),
    (["asymmetry", "--r02", "2000"], SWEEP_OVERFLOW),
    (["sweep", "--r02", "1024"],
     "no grid point is feasible for r02 = 1024 (kappa_min = inf)"),
    (["starpoints", "--qos", "2000:0.7"],
     "QoS (2000, 0.7) needs communications power inf"),
    (["starpoints", "--qos", "1e308:1"],
     "QoS (1e+308, 1) needs communications power inf"),
    (["starpoints", "--qos", "2000:0"],
     "QoS (2000, 0) needs communications power inf >= 1"),
], ids=["sweep", "fairness", "asymmetry", "sweep-1024", "starpoints-r01",
        "starpoints-1e308", "starpoints-zero-r02"])
def test_qos_whose_power_overflows_a_float_exits_2(tmp_path, scenario, capsys, argv,
                                                   error):
    # 2^r overflows a float from r = 1024 bits/s/Hz on.
    out = tmp_path / "out" / "data"
    assert main([argv[0], scenario, *argv[1:], "--out", str(out)]) == 2
    assert not out.parent.exists()
    assert capsys.readouterr().err.startswith(f"error: {error}")


def test_numbers_too_large_for_their_field_exit_3(tmp_path, scenario, capsys):
    out = tmp_path / "out" / "s.csv"
    # numpy refuses this count before allocating anything
    assert main(["sweep", scenario, "--grid", "0:0.5:99999999999999999999",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == ("error: grid count 99999999999999999999 is too "
                                       "large: Maximum allowed size exceeded\n")
    assert not out.parent.exists()


# The scenario files each refusal below starts with; {name} is the path of name.txt.
SCENARIO_FILES = {
    "scenario": "# baseline parameters\n",
    "long": "time_bandwidth=1e15\nsigma_r_sq=1e-19\n",
    "bad": "h1_gain=oops\n",
    "si": "si_suppression_db=110\n",
    "huge_db": "h1_gain_db=4000\n",
    "nan_db": "h1_gain_db=nan\n",
    **{f"{name}_gain": f"# gains\neta1=0.2, h1_gain={text}\n"
       for name, text in (("inf", "inf"), ("minus_inf", "-inf"), ("nan", "nan"))},
    "wide": "bandwidth_hz=1e200\n",
    "narrow": "bandwidth_hz=1e-300\n",
    # full-power echoes eta^2 h^2 P past the float range
    "loud": "h1_gain=7.5e157\n",
    "louder": "h1_gain=2e212, eta1=1e139\n",
    "undefined": "eta1=1e200, h1_gain=1e-200, h2_gain=1e-210\n",
    # a post-integration SNR echo TW / sigma_r^2 of 1e383
    "snr_overflow": "total_power_mw=1e200, sigma_r_sq=1e-200\n",
    # 20 and 280 dB of SNR whose delay bounds leave the float range
    "bound_overflow": "sigma_r_sq=1e-19, bandwidth_hz=1e-160\n",
    "bound_underflow": "sigma_r_sq=1e-45, bandwidth_hz=1e150\n",
    # 20 dB more noise at user 1 than at user 2 outweighs its 10 dB stronger channel
    "noisy": "sigma1_sq=1e-9\n",
    # 5 dB more noise at user 1 leaves it 5 dB ahead in h/sigma^2
    "noisier": "sigma1_sq_dbm=-100\n",
}
NOT_FINITE = "line 2: value for 'h1_gain' must be finite: "
BANDWIDTH = "bandwidth_hz must be > 0 with (pi W)^2 finite and > 0, got "
ECHO = ("target 1's full-power echo eta1^2 h1_gain^2 total_power_mw leaves the float "
        "range, got eta1={eta1}, h1_gain={h1_gain}, total_power_mw=1")
BOUND_RANGE = "s^2 is outside the float range; the efficiency would be meaningless"
GRID_BOUNDS = "grid bounds must satisfy 0 <= lo <= hi < 1, got [0.5, 0.1]"
SIC_VIOLATED = ("SIC ordering violated: require h2_gain > 0 and h1_gain/sigma1_sq > "
                "h2_gain/sigma2_sq (user 1 is the strong user), got h1_gain=1e-09, ")
NOISY_GAINS = "h2_gain=1e-10, sigma1_sq=1e-09, sigma2_sq=3.16228e-11"
# Command lines refused with exit 3 and this error ({tmp} is the test's directory,
# also the working one; a command line without --out gets one).
USAGE_ERRORS = {
    "missing-scenario": (["sweep", "{tmp}/missing.txt"],
                         "cannot read scenario file {tmp}/missing.txt: [Errno 2] "
                         "No such file or directory: '{tmp}/missing.txt'"),
    "malformed-scenario": (["sweep", "{bad}"],
                           "line 1: value for 'h1_gain' is not a number: 'oops'"),
    "deleted-si-suppression-key": (["sweep", "{si}"],
                                   "line 1: unknown key 'si_suppression_db'"),
    # numbers too large for their field, or not finite
    "h1-gain-db-4000": (["sweep", "{huge_db}"],
                        "line 1: h1_gain_db=4000: dB value 4000.0 is too large for a "
                        "float"),
    "h1-gain-db-nan": (["sweep", "{nan_db}"],
                       "line 1: h1_gain_db=nan: dB value must be finite, got nan"),
    "h1-gain-inf": (["sweep", "{inf_gain}"], f"{NOT_FINITE}'inf'"),
    "h1-gain-minus-inf": (["sweep", "{minus_inf_gain}"], f"{NOT_FINITE}'-inf'"),
    "h1-gain-nan": (["sweep", "{nan_gain}"], f"{NOT_FINITE}'nan'"),
    # (pi W)^2 overflows a float, or underflows to 0
    "sweep-bandwidth-1e200": (["sweep", "{wide}"], f"{BANDWIDTH}1e+200"),
    "sweep-bandwidth-1e-300": (["sweep", "{narrow}"], f"{BANDWIDTH}1e-300"),
    "bandwidth-1e300": (["waveform-validate", "--bandwidth-hz", "1e300"],
                        f"{BANDWIDTH}1e+300"),
    "bandwidth-1e-300": (["waveform-validate", "--bandwidth-hz", "1e-300"],
                         f"{BANDWIDTH}1e-300"),
    # a full-power echo that overflows a float
    "sweep-echo-overflow": (["sweep", "{loud}"],
                            ECHO.format(eta1="0.1", h1_gain="7.5e+157")),
    "starpoints-echo-overflow": (["starpoints", "{loud}"],
                                 ECHO.format(eta1="0.1", h1_gain="7.5e+157")),
    "mc-delay-echo-overflow": (["mc-delay", "{louder}", "--delay", "6.2832e-6"],
                               ECHO.format(eta1="1e+139", h1_gain="2e+212")),
    "mc-delay-snr-overflow": (["mc-delay", "{snr_overflow}", "--delay", "6.2832e-6"],
                              "linear value must be finite and > 0, got inf"),
    "mc-delay-bound-overflow": (["mc-delay", "{bound_overflow}", "--delay", "6.2832e161",
                                 "--trials", "100"], f"delay bound inf {BOUND_RANGE}"),
    "mc-delay-bound-underflow": (["mc-delay", "{bound_underflow}", "--delay", "6.2832e-149",
                                  "--trials", "100"], f"delay bound 0 {BOUND_RANGE}"),
    # eta1^2 overflows and h1_gain^2 underflows: inf * 0 is nan
    "sweep-echo-nan": (["sweep", "{undefined}"],
                       ECHO.format(eta1="1e+200", h1_gain="1e-200")),
    "grid-nope": (["sweep", "{scenario}", "--grid", "nope"],
                  "grid must look like lo:hi:count, got 'nope'"),
    "grid-reversed": (["sweep", "{scenario}", "--grid", "0.5:0.1:10"], GRID_BOUNDS),
    "grid-repeated": (["sweep", "{scenario}", "--grid", "0.5:0.5:10"],
                      "grid values must be strictly increasing"),
    "grid-zero-count": (["sweep", "{scenario}", "--grid", "0.1:0.5:0"],
                        "grid needs at least one point, got 0"),
    # numpy refuses 711 PiB, beyond any 57-bit address space, without allocating it
    "grid-count-711-pib": (["sweep", "{scenario}", "--grid", "0:0.5:100000000000000000"],
                           "grid count 100000000000000000 is too large: Unable to "
                           "allocate 711. PiB for an array with shape "
                           "(100000000000000000,) and data type float64"),
    "fairness-grid-reversed": (["fairness", "{scenario}", "--grid", "0.5:0.1:10"],
                               GRID_BOUNDS),
    # the grid is checked where it is used: a malformed scenario is reported first
    "malformed-scenario-and-grid": (["sweep", "{bad}", "--grid", "0.5:0.1:10"],
                                    "line 1: value for 'h1_gain' is not a number: 'oops'"),
    "qos-empty-entry": (["starpoints", "{scenario}", "--qos", ""],
                        "empty QoS list entry"),
    "qos-single": (["starpoints", "{scenario}", "--qos", "1.5"],
                   "QoS pair must look like r01:r02, got '1.5'"),
    # PowerAllocation's own refusals, a share joined to its flag included
    "alloc-over-budget": (["mc-delay", "{scenario}", "--delay", "6.2832e-6",
                           "--alloc", "0.5:0.5:0.5"],
                          "allocation 0.5:0.5:0.5 exceeds the unit power budget"),
    "alloc-negative": (["mc-delay", "{scenario}", "--delay", "6.2832e-6",
                        "--alloc=-0.1:0.2:0.5"], "a1_sq must be finite and >= 0, got -0.1"),
    "gap-zero": (["asymmetry", "{scenario}", "--gaps-db", "0,5"],
                 "asymmetry gap must be > 0 dB to keep h1_gain > h2_gain, got 0.0"),
    # scenarios breaking the SIC ordering
    "sic-ordering-sweep": (["sweep", "{noisy}"], f"{SIC_VIOLATED}{NOISY_GAINS}"),
    "sic-ordering-starpoints": (["starpoints", "{noisy}"], f"{SIC_VIOLATED}{NOISY_GAINS}"),
    "sic-ordering-asymmetry": (["asymmetry", "{noisy}"], f"{SIC_VIOLATED}{NOISY_GAINS}"),
    # a 3 dB gap keeps h1_gain > h2_gain but puts user 2 ahead in h/sigma^2;
    # the refusal names the gap that broke the ordering
    "sic-ordering-asymmetry-gap": (["asymmetry", "{noisier}", "--gaps-db", "10,3"],
                                   f"asymmetry gap 3 dB: {SIC_VIOLATED}"
                                   "h2_gain=5.01187e-10, sigma1_sq=1e-10, "
                                   "sigma2_sq=3.16228e-11"),
    "rerun-missing-manifest": (["rerun", "{tmp}/nope.json"],
                               "cannot load manifest: [Errno 2] No such file or directory: "
                               "'{tmp}/nope.json'"),
    # pulses too long to sample: numpy refuses each size without allocating it
    "tw-1e15": (["waveform-validate", "--tw-list", "1e15"],
                "pulse of 1.6e+16 samples is too large to sample: Unable to "
                "allocate 114. PiB for an array with shape (16000000000000000,) and "
                "data type int64"),
    "oversampling-1e300": (["waveform-validate", "--oversampling", "1e300"],
                           "pulse of 1e+302 samples is too large to sample: Maximum "
                           "allowed size exceeded"),
    "mc-delay-tw-1e15": (["mc-delay", "{long}", "--delay", "6.2832e-6"],
                         "pulse of 8e+15 samples is too large to sample: "
                         "Unable to allocate 56.8 PiB for an array with shape "
                         "(8000000000000000,) and data type int64"),
    # output paths that name no file, refused before any work even with --force
    "sweep-out-empty": (["sweep", "{scenario}", "--out", "", "--force"],
                        "output path '' names no file"),
    "sweep-out-dot": (["sweep", "{scenario}", "--out", ".", "--force"],
                      "output path '.' names no file"),
    "sweep-out-root": (["sweep", "{scenario}", "--out", "/", "--force"],
                       "output path '/' names no file"),
    "asymmetry-out-empty": (["asymmetry", "{scenario}", "--out", ""],
                            "output path '' names no file"),
}


@pytest.mark.parametrize("case", list(USAGE_ERRORS))
def test_usage_errors_exit_3_and_write_nothing(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    names = {"tmp": tmp_path}
    for name, text in SCENARIO_FILES.items():
        names[name] = tmp_path / f"{name}.txt"
        names[name].write_text(text, encoding="utf-8")
    argv, error = USAGE_ERRORS[case]
    argv = [arg.format(**names) for arg in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out" / "data")]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: {error.format(**names)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{name}.txt" for name in SCENARIO_FILES)


def test_asymmetry_outputs(tmp_path, scenario):
    out = tmp_path / "asym.json"
    assert main(["asymmetry", scenario, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert [c["gap_db"] for c in payload["curves"]] == [5.0, 10.0, 15.0]
    for curve in payload["curves"]:
        assert (tmp_path / curve["csv"]).name in {
            "asym_gap5db.csv", "asym_gap10db.csv", "asym_gap15db.csv"}
    assert (tmp_path / "asym_gap10db.csv").exists()


def test_waveform_validate_passes_by_default(tmp_path):
    out = tmp_path / "wf.csv"
    assert main(["waveform-validate", "--out", str(out)]) == 0
    header, rows = _rows(out)
    assert header.startswith("tw,energy_analytic")
    assert len(rows) == 2
    # instantaneous-frequency deviation stays under the gate for every row
    assert all(float(r[6]) <= 1e-6 for r in rows)


@pytest.mark.parametrize("bandwidth,tw_list", [(1e150, "100,1000"),
                                               (3e153, "100,1000,2000")])
def test_waveform_validate_keeps_large_bandwidth_moments_finite(tmp_path, capsys,
                                                                bandwidth, tw_list):
    # At these W a square of a frequency in hertz overflows, and (pi W)^2 is near
    # the float limit at 3e153.  W / 2^480 samples the same pulse with every
    # frequency scaled by 2^-480.
    for name, w in (("w.csv", bandwidth), ("ref.csv", math.ldexp(bandwidth, -480))):
        assert main(["waveform-validate", "--bandwidth-hz", repr(w), "--tw-list", tw_list,
                     "--out", str(tmp_path / name)]) == 0
    assert capsys.readouterr().err == ""
    _, rows = _rows(tmp_path / "w.csv")
    _, ref_rows = _rows(tmp_path / "ref.csv")
    assert len(rows) == len(ref_rows) == len(tw_list.split(","))
    for row, ref in zip(rows, ref_rows):
        assert all(math.isfinite(float(cell)) for cell in row)
        # both moments' relative deviations match bit for bit
        assert row[-2:] == ref[-2:]


@pytest.mark.parametrize("waveform", ["linear", "parabolic"])
@pytest.mark.parametrize("bandwidth", [1e-155, 1e-150, 1e110, 1e150])
def test_waveform_validate_is_independent_of_the_bandwidth(tmp_path, capsys,
                                                           waveform, bandwidth):
    # The pulse depends on W only through its sample rate, so every row's
    # deviations are the ones at the default W, whatever the scale.
    for name, w in (("w.csv", bandwidth), ("ref.csv", 2e7)):
        assert main(["waveform-validate", "--waveform", waveform,
                     "--bandwidth-hz", repr(w), "--tw-list", "100,1000,2000",
                     "--out", str(tmp_path / name)]) == 0
    assert capsys.readouterr().err == ""
    _, rows = _rows(tmp_path / "w.csv")
    _, ref_rows = _rows(tmp_path / "ref.csv")
    assert len(rows) == len(ref_rows) == 3
    for row, ref in zip(rows, ref_rows):
        assert all(math.isfinite(float(cell)) for cell in row)
        # both deviations compare normalized moments, exact at every W
        assert float(row[-2]) == pytest.approx(float(ref[-2]), rel=1e-12, abs=0)
        assert float(row[-1]) == pytest.approx(float(ref[-1]), rel=1e-12, abs=0)


def test_waveform_validate_flags_coarse_sampling(tmp_path):
    # 8x oversampling leaves a 1.6e-6 discretization error at TW=100
    out = tmp_path / "wf.csv"
    assert main(["waveform-validate", "--oversampling", "8",
                 "--out", str(out)]) == 2
    assert out.exists()


def test_mc_delay_guard_and_success(tmp_path, scenario, boosted):
    out = tmp_path / "mc.json"
    assert main(["mc-delay", scenario, "--delay", "6.2832e-6",
                 "--trials", "150", "--out", str(out)]) == 2
    assert main(["mc-delay", boosted, "--delay", "6.2832e-6", "--trials", "150",
                 "--seed", "5", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["snr_post_db"] == pytest.approx(20.0, abs=1e-9)
    assert 0.8 <= payload["efficiency"] <= 3.0
    assert payload["trials"] == 150


RERUN_CASES = {
    "sweep": (["sweep", "{scenario}", "--r02", "1.0", "--grid", "0.01:0.99:20"],
              "sweep.csv", 0),
    # its manifest gets the deleted si_suppression_db, which the rerun drops
    "sweep-old-manifest": (["sweep", "{scenario}", "--r02", "1.0",
                            "--grid", "0.01:0.99:20"], "sweep.csv", 0),
    "starpoints": (["starpoints", "{scenario}", "--qos", "1.5:0.7", "--qos", "0.7:0.7"],
                   "stars.csv", 0),
    "fairness": (["fairness", "{scenario}", "--r02-list", "0.7,1.5",
                  "--grid", "0.01:0.99:20"], "fairness.csv", 0),
    "asymmetry": (["asymmetry", "{scenario}", "--gaps-db", "5,10",
                   "--grid", "0.01:0.99:20"], "asym.json", 0),
    "waveform-validate": (["waveform-validate", "--tw-list", "100"], "wf.csv", 0),
    "waveform-validate-coarse": (["waveform-validate", "--oversampling", "8"],
                                 "wf.csv", 2),
    "mc-delay": (["mc-delay", "{boosted}", "--delay", "6.2832e-6", "--trials", "120",
                  "--seed", "9", "--alloc", "0.01:0.04:0.95"], "mc.json", 0),
}


@pytest.mark.parametrize("case", list(RERUN_CASES))
def test_rerun_reproduces_every_output(tmp_path, scenario, boosted, case):
    argv, name, code = RERUN_CASES[case]
    argv = [arg.format(scenario=scenario, boosted=boosted) for arg in argv]
    out = tmp_path / "run" / name
    assert main(argv + ["--out", str(out)]) == code
    manifest = out.parent / (name + ".manifest.json")
    outputs = json.loads(manifest.read_text(encoding="utf-8"))["outputs"]
    listed = [Path(path) for path in outputs]
    if case == "asymmetry":
        assert [p.name for p in listed] == ["asym.json", "asym_gap5db.csv",
                                            "asym_gap10db.csv"]
    written = {p: p.read_bytes() for p in [*listed, manifest]}
    assert sorted(out.parent.iterdir()) == sorted(written)
    if case == "sweep-old-manifest":
        old = json.loads(written[manifest])
        old["scenario"]["si_suppression_db"] = 110.0
        manifest.write_text(json.dumps(old), encoding="utf-8")
    for path in listed:
        path.unlink()
    # The manifest replays onto its own listed paths, so it must be byte-identical too.
    assert main(["rerun", str(manifest), "--force"]) == code
    assert {p: p.read_bytes() for p in out.parent.iterdir()} == written
    # --out moves every output; only asymmetry's JSON names the CSV paths it lists.
    replay = tmp_path / "replay" / name
    assert main(["rerun", str(manifest), "--out", str(replay)]) == code
    for path in listed[1:] if case == "asymmetry" else listed:
        assert (replay.parent / path.name).read_bytes() == written[path]


DELETE = object()  # an edit that removes the key
# Manifest params the command line refuses, as (command line, output, param, value):
# the manifest of a valid run gets the param edited to the value.
BAD_MANIFEST_PARAMS = {
    "empty-gap-list": (["asymmetry", "--gaps-db", "5"], "asym.json", "gaps_db", []),
    "qos-empty": (["starpoints", "--qos", "1.5:0.7"], "stars.csv", "qos", []),
    "r02-deleted": (["sweep", "--grid", "0.01:0.99:20"], "sweep.csv", "r02", DELETE),
    "qos-single": (["starpoints", "--qos", "1.5:0.7"], "stars.csv", "qos", [[1.5]]),
    "qos-triple": (["starpoints", "--qos", "1.5:0.7"], "stars.csv", "qos",
                   [[1.5, 0.7, 3]]),
    "alloc-over-budget": (["mc-delay", "--delay", "6.2832e-6", "--trials", "100"],
                          "mc.json", "alloc", [0.5, 0.5, 0.5]),
    "unknown-param": (["sweep", "--grid", "0.01:0.99:20"], "sweep.csv", "r03", 0.7),
    "grid-missing-count": (["sweep", "--grid", "0.01:0.99:20"], "sweep.csv", "grid",
                           {"lo": 0.01, "hi": 0.99}),
    "grid-unknown-key": (["fairness", "--grid", "0.01:0.99:20"], "fair.csv", "grid",
                         {"lo": 0.01, "hi": 0.99, "count": 20, "step": 0.05}),
    "grid-list": (["sweep", "--grid", "0.01:0.99:20"], "sweep.csv", "grid",
                  ["lo", "hi", "count"]),
    # numbers too large for their field
    "r02-huge": (["sweep", "--grid", "0.01:0.99:20"], "sweep.csv", "r02", 10 ** 400),
    "r02-list-huge": (["fairness", "--grid", "0.01:0.99:20"], "fair.csv", "r02_list",
                      [0.7, 10 ** 400]),
    "grid-count-huge": (["sweep", "--grid", "0.01:0.99:20"], "sweep.csv", "grid",
                        {"lo": 0.0, "hi": 0.5, "count": 10 ** 20}),
}
MC_RUN = ["mc-delay", "--delay", "6.2832e-6", "--trials", "100"]
WAVEFORM_RUN = ["waveform-validate", "--tw-list", "100"]
# Values of int and float options that argparse would not turn into their type.
MISTYPED_PARAMS = {
    "seed-true": (MC_RUN, "mc.json", "seed", True),
    "seed-fraction": (MC_RUN, "mc.json", "seed", 1.5),
    "trials-text": (MC_RUN, "mc.json", "trials", "100"),
    "delay-text": (MC_RUN, "mc.json", "delay_s", "6e-6"),
    "r02-true": (["sweep", "--grid", "0.01:0.99:20"], "sweep.csv", "r02", True),
    "r02-text": (["asymmetry", "--gaps-db", "5", "--grid", "0.01:0.99:20"], "asym.json",
                 "r02", "0.7"),
    "bandwidth-true": (WAVEFORM_RUN, "w.csv", "bandwidth_hz", True),
    "oversampling-text": (WAVEFORM_RUN, "w.csv", "oversampling", "16"),
    # The entries of lists, pairs, splits and grids take the same number rule.
    "r02-list-true": (["fairness", "--grid", "0.01:0.99:20"], "fair.csv", "r02_list",
                      [0.7, True]),
    "qos-true": (["starpoints", "--qos", "1.5:0.7"], "stars.csv", "qos", [[True, 0.7]]),
    "alloc-true": (MC_RUN, "mc.json", "alloc", [0, 0, True]),
    "grid-count-true": (["sweep", "--grid", "0.01:0.99:20"], "sweep.csv", "grid",
                        {"lo": 0.01, "hi": 0.99, "count": True}),
    "grid-lo-false": (["sweep", "--grid", "0.01:0.99:20"], "sweep.csv", "grid",
                      {"lo": False, "hi": 0.99, "count": 20}),
}
BAD_MANIFEST_PARAMS.update(MISTYPED_PARAMS)
# A mistyped entry's error; a list, pair or split keeps its own wording.
ENTRY_ERRORS = {
    "r02-list-true": "bad r02 list [0.7, True]",
    "qos-true": "QoS pair must look like r01:r02, got [True, 0.7]",
    "alloc-true": "allocation must look like a1_sq:a2_sq:ar_sq, got [0, 0, True]",
    "grid-count-true": "grid count must be an integer, got True",
    "grid-lo-false": "grid lo must be a number, got False",
}
# The whole stderr line of a refusal.
PARAM_ERRORS = {
    "qos-empty": "empty QoS list",
    "r02-deleted": "manifest is missing or mistypes a field: 'r02'",
    "alloc-over-budget": "allocation 0.5:0.5:0.5 exceeds the unit power budget",
}


@pytest.mark.parametrize("case", list(BAD_MANIFEST_PARAMS))
def test_rerun_checks_manifest_params_like_the_command_line(tmp_path, capsys, boosted,
                                                            case):
    (command, *flags), name, param, value = BAD_MANIFEST_PARAMS[case]
    out = tmp_path / name
    scenario = [boosted] if cli.COMMANDS[command].scenario else []
    assert main([command, *scenario, *flags, "--out", str(out)]) == 0
    manifest_path = tmp_path / (name + ".manifest.json")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if value is DELETE:
        del manifest["params"][param]
    else:
        manifest["params"][param] = value
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    replay = tmp_path / "replay"
    assert main(["rerun", str(manifest_path), "--out", str(replay / name)]) == 3
    assert not replay.exists()
    if case in MISTYPED_PARAMS:
        expected = ENTRY_ERRORS.get(case, f"{param} must be ")
        assert f"error: {expected}" in capsys.readouterr().err
    if case in PARAM_ERRORS:
        assert capsys.readouterr().err == f"error: {PARAM_ERRORS[case]}\n"


# Hand edits of a sweep manifest's scenario, each refused with exit 3 and this error.
REFUSED_SCENARIOS = {
    "edited-view": ({"sigma_r_sq_dbm": -80.0},
                    "sigma_r_sq_dbm=-80.0 is not the view -110.0 of sigma_r_sq=1e-11"),
    "misspelt-key": ({"sigma_r_sq": DELETE, "sigma_r_sqq": 1e-11},
                     "unknown scenario key 'sigma_r_sqq'"),
    "unknown-key": ({"bogus": 1.0}, "unknown scenario key 'bogus'"),
    "true": ({"eta1": True}, "eta1 must be a number, got True"),
    "text": ({"h1_gain": "1e-9"}, "h1_gain must be a number, got '1e-9'"),
    "null": ({"eta2": None}, "eta2 must be a number, got None"),
    "huge-integer": ({"eta1": 10 ** 400},
                     f"eta1 is too large for a float, got {10 ** 400}"),
    "huge-db-key-alone": ({"h1_gain": DELETE, "h1_gain_db": 4000.0},
                          "dB value 4000.0 is too large for a float"),
    # json writes it as Infinity
    "infinite-gain": ({"h1_gain": math.inf, "h1_gain_db": DELETE},
                      "channel gains must be finite"),
}
# Hand edits that rerun as a scenario file holding the given text would run.
ACCEPTED_SCENARIOS = {
    "linear-without-view": ({"sigma_r_sq": 1e-10, "sigma_r_sq_dbm": DELETE},
                            "sigma_r_sq=1e-10"),
    "db-key-alone": ({"sigma_r_sq": DELETE, "sigma_r_sq_dbm": -100.0},
                     "sigma_r_sq_dbm=-100"),
}


def _edit_scenario(manifest_path, target, changes):
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    for key, value in changes.items():
        if value is DELETE:
            del manifest["scenario"][key]
        else:
            manifest["scenario"][key] = value
    target.write_text(json.dumps(manifest), encoding="utf-8")


def test_rerun_reads_the_manifest_scenario_like_a_scenario_file(tmp_path, scenario, capsys):
    grid = ["--grid", "0.01:0.99:20"]
    original = tmp_path / "run" / "s.csv"
    assert main(["sweep", scenario, *grid, "--out", str(original)]) == 0
    manifest = tmp_path / "run" / "s.csv.manifest.json"
    edited = tmp_path / "edited.json"
    capsys.readouterr()
    for case, (changes, error) in REFUSED_SCENARIOS.items():
        _edit_scenario(manifest, edited, changes)
        assert main(["rerun", str(edited), "--out", str(tmp_path / "r" / "s.csv")]) == 3, case
        assert not (tmp_path / "r").exists()
        assert capsys.readouterr().err == f"error: {error}\n"
    for case, (changes, text) in ACCEPTED_SCENARIOS.items():
        _edit_scenario(manifest, edited, changes)
        rerun, direct = tmp_path / case / "rerun.csv", tmp_path / case / "direct.csv"
        assert main(["rerun", str(edited), "--out", str(rerun)]) == 0
        path = tmp_path / f"{case}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        assert main(["sweep", str(path), *grid, "--out", str(direct)]) == 0
        assert rerun.read_bytes() == direct.read_bytes() != original.read_bytes()
        written = [json.loads(Path(f"{p}.manifest.json").read_text(encoding="utf-8"))
                   for p in (rerun, direct)]
        assert written[0]["scenario"] == written[1]["scenario"]


# Whole-manifest edits of a sweep's manifest, each refused with exit 3 and this error.
MALFORMED_MANIFESTS = {
    "list": (lambda manifest: [1, 2], "manifest must be a JSON object"),
    "no-outputs": (lambda manifest: {**manifest, "outputs": []},
                   "manifest lists no outputs"),
    "outputs-text": (lambda manifest: {**manifest, "outputs": "zz.csv"},
                     "manifest outputs must be a list of paths, got 'zz.csv'"),
    "outputs-number": (lambda manifest: {**manifest, "outputs": [1]},
                       "manifest outputs must be a list of paths, got [1]"),
    "unknown-command": (lambda manifest: {**manifest, "command": "bogus"},
                        "manifest names unknown command 'bogus'"),
    "no-scenario": (lambda manifest: {**manifest, "scenario": None},
                    "manifest holds no scenario"),
}


@pytest.mark.parametrize("case", list(MALFORMED_MANIFESTS))
def test_rerun_refuses_a_malformed_manifest(tmp_path, scenario, capsys, case):
    edit, error = MALFORMED_MANIFESTS[case]
    assert main(["sweep", scenario, "--grid", "0.01:0.99:20",
                 "--out", str(tmp_path / "run" / "s.csv")]) == 0
    manifest = json.loads((tmp_path / "run" / "s.csv.manifest.json").read_text())
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(edit(manifest)), encoding="utf-8")
    capsys.readouterr()
    assert main(["rerun", str(edited), "--out", str(tmp_path / "r" / "s.csv")]) == 3
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "r").exists()


def test_rerun_refuses_an_output_path_that_names_no_file(tmp_path, scenario, capsys,
                                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", scenario, "--grid", "0.01:0.99:20", "--out", "run/s.csv"]) == 0
    manifest = json.loads(Path("run/s.csv.manifest.json").read_text(encoding="utf-8"))
    capsys.readouterr()
    for path in ("", "."):
        Path("edited.json").write_text(json.dumps({**manifest, "outputs": [path]}),
                                       encoding="utf-8")
        assert main(["rerun", "edited.json", "--force"]) == 3
        assert capsys.readouterr().err == f"error: output path {path!r} names no file\n"
    assert main(["rerun", "run/s.csv.manifest.json", "--out", "", "--force"]) == 3
    assert capsys.readouterr().err == "error: output path '' names no file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["edited.json", "run",
                                                          "scenario.txt"]
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
        "s.csv", "s.csv.manifest.json"]


def test_mc_delay_rejects_a_negative_seed(tmp_path, boosted):
    out = tmp_path / "mc.json"
    args = ["mc-delay", boosted, "--delay", "6.2832e-6", "--trials", "100"]
    assert main(args + ["--seed", "-1", "--out", str(out)]) == 3
    assert not out.exists()
    assert main(args + ["--seed", "0", "--out", str(out)]) == 0
    manifest_path = tmp_path / "mc.json.manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["params"]["seed"] = -1
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    replay = tmp_path / "replay.json"
    assert main(["rerun", str(manifest_path), "--out", str(replay)]) == 3
    assert not replay.exists()


def _fail_second_open(monkeypatch):
    """Make the second file opened for writing by the CLI fail after creation."""
    opened = []

    def failing_open(path, mode="r", *args, **kwargs):
        handle = builtins.open(path, mode, *args, **kwargs)
        if "w" in mode:
            opened.append(path)
            if len(opened) == 2:
                handle.close()
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
        return handle

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    return opened


def test_failed_write_leaves_no_output(tmp_path, scenario, monkeypatch):
    out = tmp_path / "sweep.csv"
    opened = _fail_second_open(monkeypatch)
    assert main(["sweep", scenario, "--out", str(out)]) == 3
    assert len(opened) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.txt"]


def test_failed_forced_write_keeps_the_old_outputs(tmp_path, scenario, monkeypatch):
    out = tmp_path / "asym.json"
    assert main(["asymmetry", scenario, "--gaps-db", "5,10", "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    _fail_second_open(monkeypatch)
    assert main(["asymmetry", scenario, "--gaps-db", "5,10", "--r02", "1.0",
                 "--out", str(out), "--force"]) == 3
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    monkeypatch.undo()
    assert main(["asymmetry", scenario, "--gaps-db", "5,10", "--r02", "1.0",
                 "--out", str(out), "--force"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)
    assert (tmp_path / "asym_gap5db.csv").read_bytes() != before["asym_gap5db.csv"]


def _fail_second_csv_block(monkeypatch):
    """Make the second CSV row block raise while the CLI streams it to disk."""
    calls = []
    block = csvtext._csv_block

    def failing_block(table):
        calls.append(len(table))
        if len(calls) == 2:
            raise RuntimeError("formatting failed")
        return block(table)

    monkeypatch.setattr(csvtext, "_csv_block", failing_block)
    return calls


def test_failure_while_streaming_a_csv_leaves_no_output(tmp_path, scenario, monkeypatch):
    calls = _fail_second_csv_block(monkeypatch)
    with pytest.raises(RuntimeError, match="formatting failed"):
        main(["sweep", scenario, "--grid", "0.01:0.99:5000",
              "--out", str(tmp_path / "s.csv")])
    assert len(calls) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.txt"]


def test_failure_while_streaming_a_forced_csv_keeps_the_old_outputs(
        tmp_path, scenario, monkeypatch):
    out = tmp_path / "s.csv"
    assert main(["sweep", scenario, "--grid", "0.01:0.99:5000", "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    _fail_second_csv_block(monkeypatch)
    with pytest.raises(RuntimeError, match="formatting failed"):
        main(["sweep", scenario, "--grid", "0.01:0.99:5000", "--r02", "1.0",
              "--out", str(out), "--force"])
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("argv", [
    ["sweep", "--grid", "0.01:0.99:20000"],
    ["asymmetry", "--gaps-db", "5,10", "--grid", "0.01:0.99:20000"],
], ids=["sweep", "asymmetry"])
def test_dense_commands_hold_no_whole_csv(tmp_path, scenario, argv):
    # The warm-up builds the formatter's tables, which every later call shares.
    assert main([argv[0], scenario, "--out", str(tmp_path / "warm" / "out")]) == 0
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert main([argv[0], scenario, *argv[1:], "--out", str(out / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = sum(p.stat().st_size for p in out.iterdir())
    assert written > 2_000_000
    assert peak < 2 * written


def test_dense_asymmetry_memory_does_not_grow_with_the_grid(tmp_path, scenario):
    # 200 000 points per gap: the curves are evaluated a block at a time, so
    # what is held is the grid itself, not the curves or their text.
    assert main(["asymmetry", scenario, "--out", str(tmp_path / "warm" / "a.json")]) == 0
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert main(["asymmetry", scenario, "--gaps-db", "5,10",
                     "--grid", "0.01:0.99:200000", "--out", str(out / "a.json")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = sum(p.stat().st_size for p in out.iterdir())
    assert written > 50_000_000
    assert peak < written / 10


def _cells(*columns):
    return [",".join("%.8e" % v for v in row)
            for row in zip(*(np.asarray(c).tolist() for c in columns))]


def _sweep_lines(result):
    c = whole_curve(result)
    return [cli.SWEEP_HEADER, *_cells(
        c.alloc.ar_sq, c.alloc.a1_sq, c.alloc.a2_sq, c.r1, c.r2, c.r_sum, c.sigma_eps_sq,
        c.sigma_eps_sq_normalized, np.log10(c.sigma_eps_sq_normalized), c.fairness)]


@pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)],
                         ids=["1", "B-1", "B", "B+1", "2B+1"])
def test_block_boundaries_never_change_bytes(tmp_path, scenario, capsys, blocks, extra):
    # On 0.01:0.5 r02 = 0.7 is feasible at every grid value (onset ~0.80, or
    # later for the smaller gap), so each sweep CSV holds `count` rows, while
    # r02 = 1.5 (onset ~0.42) ends the second fairness curve partway.
    count = blocks * optimizer.BLOCK_ROWS + extra
    grid = {"lo": 0.01, "hi": 0.5, "count": count}
    grid_text = f"0.01:0.5:{count}"
    cfg = ScenarioConfig()
    spec = WaveformSpec(WaveformKind.LINEAR_FM, cfg.bandwidth_hz, cfg.time_bandwidth)

    out = tmp_path / "s.csv"
    assert main(["sweep", scenario, "--grid", grid_text, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").splitlines() == _sweep_lines(
        optimizer.tradeoff_sweep(cfg, 0.7, spec, grid))
    assert capsys.readouterr().out == f"sweep: {count} feasible points -> {out}\n"

    out = tmp_path / "f.csv"
    assert main(["fairness", scenario, "--r02-list", "0.7,1.5", "--grid", grid_text,
                 "--out", str(out)]) == 0
    expected = ["r02,ar_sq,r_sum,fairness"]
    for r02 in (0.7, 1.5):
        c = whole_curve(optimizer.tradeoff_sweep(cfg, r02, spec, grid))
        expected += _cells(np.full(len(c.r_sum), r02), c.alloc.ar_sq, c.r_sum, c.fairness)
    assert out.read_text(encoding="utf-8").splitlines() == expected
    assert capsys.readouterr().out == (
        f"fairness: 2 curves, {len(expected) - 1} rows -> {out}\n")

    out = tmp_path / "a.json"
    assert main(["asymmetry", scenario, "--gaps-db", "5,10", "--grid", grid_text,
                 "--out", str(out)]) == 0
    curves = json.loads(out.read_text(encoding="utf-8"))["curves"]
    results = optimizer.asymmetry_sweep(cfg, 0.7, spec, [5.0, 10.0], grid)
    for curve, result in zip(curves, results, strict=True):
        lines = (tmp_path / curve["csv"]).read_text(encoding="utf-8").splitlines()
        assert lines == _sweep_lines(result)
        assert curve["feasible_points"] == len(lines) - 1 == count
        assert curve["infeasible_tail_start"] is None


@pytest.mark.parametrize("grid", ["0.01:0.99:200", "0.01:0.99:20000"])
def test_refused_split_names_its_first_bad_value(tmp_path, scenario, capsys, grid):
    # At r02 = 1e-16 the weak user's share rounds below zero at some grid values.
    out = tmp_path / "out" / "s.csv"
    assert main(["sweep", scenario, "--r02", "1e-16", "--grid", grid,
                 "--out", str(out)]) == 3
    assert not out.parent.exists()
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: a2_sq must be finite and >= 0, got -\S+\n", err)
    assert "array(" not in err and len(err) < 100


def test_rerun_of_an_unreadable_manifest_exits_3(tmp_path, capsys):
    # json refuses to convert an integer of more than 4300 digits
    huge = tmp_path / "huge.json"
    huge.write_text('{"r02": ' + "1" * 5000 + "}\n", encoding="utf-8")
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"command": "sweep\xe9"}\n')
    for manifest, error in [(huge, "Exceeds the limit (4300 digits)"),
                            (latin1, "'utf-8' codec can't decode byte 0xe9")]:
        assert main(["rerun", str(manifest), "--out", str(tmp_path / "r" / "s.csv")]) == 3
        assert capsys.readouterr().err.startswith(f"error: cannot load manifest: {error}")
    assert not (tmp_path / "r").exists()


def test_version_flag():
    assert main(["--version"]) == 0


def test_refused_sweep_writes_nothing(tmp_path, scenario, capsys):
    out = tmp_path / "sweep.csv"
    manifest = tmp_path / "sweep.csv.manifest.json"
    manifest.write_text("{}\n", encoding="utf-8")
    assert main(["sweep", scenario, "--out", str(out)]) == 3
    assert not out.exists()
    assert manifest.read_text(encoding="utf-8") == "{}\n"
    # an existing output is refused before the QoS or the grid is even checked
    capsys.readouterr()
    for inputs in (["--r02", "3"], ["--grid", "0.5:0.1:10"]):
        assert main(["sweep", scenario, *inputs, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: refusing to overwrite {manifest} (use --force)\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "scenario.txt", "sweep.csv.manifest.json"]


@pytest.mark.parametrize("argv, name", [
    (["starpoints", "--qos", "5:5"], "stars.csv"),
    (["mc-delay", "--delay", "6.2832e-6", "--trials", "100"], "mc.json"),
], ids=["starpoints-infeasible-qos", "mc-delay-below-snr-guard"])
def test_existing_output_wins_over_exit_2(tmp_path, scenario, argv, name):
    # Without the existing output each command exits 2 (infeasible QoS, SNR guard).
    args = [argv[0], scenario, *argv[1:]]
    assert main(args + ["--out", str(tmp_path / "fresh" / name)]) == 2
    existing = tmp_path / name
    existing.write_text("keep\n", encoding="utf-8")
    assert main(args + ["--out", str(existing)]) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([name, "scenario.txt"])
    assert existing.read_text(encoding="utf-8") == "keep\n"


def test_refused_asymmetry_writes_nothing(tmp_path, scenario):
    out = tmp_path / "asym.json"
    existing = tmp_path / "asym_gap15db.csv"
    existing.write_text("keep\n", encoding="utf-8")
    assert main(["asymmetry", scenario, "--out", str(out)]) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "asym_gap15db.csv", "scenario.txt"]
    assert existing.read_text(encoding="utf-8") == "keep\n"
    assert main(["asymmetry", scenario, "--out", str(out), "--force"]) == 0
    assert (tmp_path / "asym_gap5db.csv").exists()
    assert existing.read_text(encoding="utf-8").startswith("ar_sq,")


@pytest.mark.parametrize("force", [[], ["--force"]])
def test_distinct_gaps_sharing_a_csv_name_exit_3(tmp_path, scenario, capsys, force):
    # {gap:g} keeps 6 digits, so both gaps would name asym_gap10db.csv.
    out = tmp_path / "asym.json"
    assert main(["asymmetry", scenario, "--gaps-db", "10,10.0000001",
                 "--out", str(out)] + force) == 3
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.txt"]
    assert capsys.readouterr().err == (
        "error: gaps 10.0 and 10.0000001 dB would both write asym_gap10db.csv\n")
    # an exact repeat names one CSV too
    assert main(["asymmetry", scenario, "--gaps-db", "5,5", "--out", str(out)] + force) == 3
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.txt"]
    assert capsys.readouterr().err == (
        "error: gaps 5.0 and 5.0 dB would both write asym_gap5db.csv\n")


def test_csv_cells_match_fixed_scientific_formatting():
    # The fast path's error bound assumes each power of ten is within one ulp.
    exact = np.array([float(f"1e{8 - e}") for e in range(-290, 291)])
    pow10 = csvtext._format_tables()[0]
    assert np.all(np.abs(pow10.view(np.int64) - exact.view(np.int64)) <= 1)
    rng = np.random.default_rng(14)
    exps = rng.integers(-300, 300, 20_000)
    ties = (rng.integers(10**8, 10**9, 20_000) + 0.5) * 10.0 ** (exps - 8)
    decades = np.array([float(f"1e{k}") for k in range(-323, 309)])
    cells = np.concatenate([
        [0.0, -0.0, 1.0, 2.5, 1e-300, 5e-324, 1.7976931348623157e308, 0.123456789012345,
         9.999999995, math.inf, -math.inf, math.nan, 2.5e-308, 1e-100, 9.999999995e-100,
         1.234567891e200],
        rng.integers(0, 2**64, 40_000, dtype=np.uint64).view(np.float64),
        10.0 ** rng.uniform(-320, 308, 40_000),
        ties, np.nextafter(ties, 0), np.nextafter(ties, math.inf),
        decades, np.nextafter(decades, 0), np.nextafter(decades, math.inf),
    ])
    cells = np.concatenate([cells, -cells])
    cells = np.concatenate([cells, np.ones(-len(cells) % 7)]).reshape(-1, 7)
    header = "a,b,c,d,e,f,g"
    chunks = list(csv_chunks(header, [cells[:5], cells[5:]]))
    # the header, one chunk per table, the final newline
    assert len(chunks) == 4
    assert b"".join(chunks).decode("ascii").split("\n") == [
        header, *(",".join("%.8e" % v for v in row) for row in cells.tolist()), ""]
    assert b"".join(csv_chunks("a", [[2.0], [-0.5]])) == (
        b"a\n2.00000000e+00\n-5.00000000e-01\n")
    # an empty table adds no chunk
    assert (list(csv_chunks(header, [])) == list(csv_chunks(header, np.empty((0, 7))))
            == list(csv_chunks(header, [np.empty((0, 7))])) == [header.encode(), b"\n"])


@pytest.mark.parametrize("bandwidth", ["1e-160", "1e-150"])
def test_tiny_bandwidth_normalizes_the_bound_as_one_over_the_radar_share(
        tmp_path, capsys, bandwidth):
    path = _scenario_file(tmp_path, f"bandwidth_hz={bandwidth}\n")
    cfg = ScenarioConfig(bandwidth_hz=float(bandwidth))
    qos = [QosRequirement(1.5, 0.7), QosRequirement(0.7, 0.7)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for waveform in ("linear", "parabolic"):
            assert main(["sweep", path, "--grid", "0.01:0.99:200", "--waveform", waveform,
                         "--out", str(tmp_path / f"s-{waveform}.csv")]) == 0
        assert main(["starpoints", path, "--qos", "1.5:0.7", "--qos", "0.7:0.7",
                     "--out", str(tmp_path / "p.csv")]) == 0
    assert capsys.readouterr().err == ""
    for kind in WaveformKind:
        header, rows = _rows(tmp_path / f"s-{kind.value}.csv")
        columns = header.split(",")
        ar_sq = default_grid(0.01, 0.99, 200)[:len(rows)].tolist()
        assert [row[columns.index("sigma_eps_sq_norm")] for row in rows] == [
            "%.8e" % (1.0 / ar) for ar in ar_sq]
        bounds = [row[columns.index("sigma_eps_sq")] for row in rows]
        if bandwidth == "1e-160":
            assert set(bounds) == {"inf"}
        else:
            # each target's bound is exact, so their sum is too at 9 digits
            spec = WaveformSpec(kind, cfg.bandwidth_hz, cfg.time_bandwidth)
            assert bounds == ["%.8e" % sum(exact_crlb(cfg, ar, spec, k) for k in (1, 2))
                              for ar in ar_sq]
    header, rows = _rows(tmp_path / "p.csv")
    assert [row[header.split(",").index("sigma_eps_sq_norm")] for row in rows] == [
        "%.8e" % (1.0 / max_radar_allocation(cfg, q).ar_sq) for q in qos]


def test_noisier_strong_user_keeping_the_ordering_runs_quietly(tmp_path, capsys):
    # 5 dB more noise at user 1 leaves it 5 dB ahead in h/sigma^2.
    path = _scenario_file(tmp_path, "sigma1_sq_dbm=-100\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", path, "--r02", "0.7", "--out", str(tmp_path / "s.csv")]) == 0
        assert main(["starpoints", path, "--qos", "1.5:0.7", "--qos", "0.7:0.7",
                     "--out", str(tmp_path / "p.csv")]) == 0
        assert main(["asymmetry", path, "--gaps-db", "10,15",
                     "--out", str(tmp_path / "a.json")]) == 0
    assert capsys.readouterr().err == ""
    _, rows = _rows(tmp_path / "s.csv")
    assert min(float(row[4]) for row in rows) == pytest.approx(0.7, rel=1e-8, abs=0)
