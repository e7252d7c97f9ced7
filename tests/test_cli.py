"""CLI surface: exit codes, CSV/JSON formatting, manifests, reruns."""

import ast
import builtins
import errno
import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import golden_gate
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


def test_outputs_are_not_overwritten_without_force(tmp_path, scenario):
    out = tmp_path / "sweep.csv"
    args = ["sweep", scenario, "--out", str(out)]
    assert main(args) == 0
    assert main(args) == 3
    assert main(args + ["--force"]) == 0


def test_starpoints_defaults(tmp_path, scenario):
    out = tmp_path / "stars.csv"
    assert main(["starpoints", scenario, "--out", str(out)]) == 0
    header, rows = _rows(out)
    assert header == "r01,r02,ar_sq,r_sum,sigma_eps_sq_norm"
    assert len(rows) == 3
    ar_values = [float(r[2]) for r in rows]
    assert ar_values == pytest.approx([0.709, 0.770, 0.258], abs=1e-3)


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


CATALOGUE = golden_gate.catalogue()
REFUSALS = {case.name: case for case in CATALOGUE if case.codes}
ROOT = Path(__file__).resolve().parent.parent


def test_no_catalogue_case_is_defined_twice():
    names = [case.name for case in CATALOGUE]
    assert sorted({name for name in names if names.count(name) > 1}) == []
    # a dict literal keeps only the last of two equal keys, silently
    source = Path(golden_gate.__file__).read_text(encoding="utf-8")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Dict):
            keys = [key.value for key in node.keys if isinstance(key, ast.Constant)]
            assert len(keys) == len(set(keys)), keys


def _tree(directory):
    return {p: p.is_file() and p.read_bytes() for p in directory.rglob("*")}


def _refuse(tmp_path, monkeypatch, capsys, *names):
    """Run catalogue refusals in process through the gate's steps, each in its
    own directory: every exit code, the last stderr line, and a directory that
    each refusing command left as it found it (but for waveform-validate's
    exit 2, which writes its CSV by design)."""
    for name in names:
        case, directory = REFUSALS[name], tmp_path / name

        def command(argv):
            before = _tree(directory)
            code = main(argv)
            if code == 3 or (code == 2 and case.steps[0][0] != "waveform-validate"):
                assert _tree(directory) == before, argv
            return code, *capsys.readouterr()

        directory.mkdir()
        monkeypatch.chdir(directory)
        golden_gate.prepare(ROOT, directory)
        records = golden_gate.run_steps(directory, case.steps, command)
        assert not golden_gate.moved(case, [code for code, _, _ in records], records[-1][2])


@pytest.mark.parametrize("name", REFUSALS)
def test_catalogue_refusal(tmp_path, monkeypatch, capsys, name):
    _refuse(tmp_path, monkeypatch, capsys, name)


# Tests whose cases the catalogue took over keep their names and ids, each now
# running its catalogue cases: test -> its cases, or {id: the id's cases}.
FORMER = {
    "test_usage_errors_exit_3_and_write_nothing": {
        **{name: f"usage-{name}" for name in (
            "sweep-bandwidth-1e200", "sweep-bandwidth-1e-300", "sweep-echo-overflow",
            "starpoints-echo-overflow", "sweep-echo-nan", "mc-delay-echo-overflow",
            "mc-delay-snr-overflow", "mc-delay-bound-overflow", "mc-delay-bound-underflow",
            "mc-delay-tw-1e15", "fairness-grid-reversed", "sweep-out-empty", "sweep-out-dot",
            "sweep-out-root", "asymmetry-out-empty")},
        **{name: f"usage-sweep-{name}" for name in (
            "missing-scenario", "h1-gain-db-4000", "h1-gain-db-nan", "grid-nope",
            "grid-reversed", "grid-repeated", "grid-zero-count")},
        **{name: f"usage-waveform-validate-{name}" for name in (
            "bandwidth-1e300", "bandwidth-1e-300", "tw-1e15", "oversampling-1e300")},
        **{f"h1-gain-{n}": f"usage-sweep-gains-{n}" for n in ("inf", "minus-inf", "nan")},
        **{f"sic-ordering-{n}": f"noisy-{n}" for n in ("sweep", "starpoints", "asymmetry")},
        "sic-ordering-asymmetry-gap": "noisier-asymmetry-10-3",
        "malformed-scenario": "usage-sweep-bad-scenario",
        "malformed-scenario-and-grid": "usage-sweep-bad-scenario-and-grid",
        "deleted-si-suppression-key": "sweep-si-suppression",
        "grid-count-711-pib": "usage-sweep-grid-711-pib",
        "qos-empty-entry": "usage-starpoints-qos-empty",
        "qos-single": "usage-starpoints-qos-single",
        "alloc-over-budget": "usage-mc-delay-alloc-over-budget",
        "alloc-negative": "usage-mc-delay-alloc-negative-joined",
        "gap-zero": "usage-asymmetry-gap-zero",
        "rerun-missing-manifest": "rerun-missing-manifest",
    },
    "test_qos_whose_power_overflows_a_float_exits_2": {
        "sweep": "infeasible-sweep-r02-2000", "sweep-1024": "infeasible-sweep-r02-1024",
        "fairness": "infeasible-fairness-r02-0.7-2000",
        "asymmetry": "infeasible-asymmetry-r02-2000",
        "starpoints-r01": "infeasible-starpoints-qos-2000",
        "starpoints-1e308": "infeasible-starpoints-qos-1e308",
        "starpoints-zero-r02": "infeasible-starpoints-qos-2000-0",
    },
    "test_rerun_checks_manifest_params_like_the_command_line": {
        "empty-gap-list": "edited-gaps-empty", "r02-deleted": "edited-param-deleted",
        "unknown-param": "edited-param-unknown", **{name: f"edited-{name}" for name in (
            "qos-empty", "qos-single", "qos-triple", "alloc-over-budget",
            "grid-missing-count", "grid-unknown-key", "grid-list", "r02-huge",
            "r02-list-huge", "grid-count-huge", "seed-true", "seed-fraction", "trials-text",
            "delay-text", "r02-true", "r02-text", "bandwidth-true", "oversampling-text",
            "r02-list-true", "qos-true", "alloc-true", "grid-count-true", "grid-lo-false")},
    },
    "test_rerun_refuses_a_malformed_manifest": {
        "list": "manifest-list", "no-outputs": "edited-outputs-empty",
        "outputs-text": "edited-outputs-text", "outputs-number": "edited-outputs-number",
        "unknown-command": "edited-command-bogus", "no-scenario": "edited-scenario-null",
    },
    "test_refused_split_names_its_first_bad_value": {
        "0.01:0.99:200": "usage-sweep-r02-1e-16",
        "0.01:0.99:20000": "usage-sweep-r02-1e-16-dense",
    },
    # without the existing output each command exits 2 (infeasible QoS, SNR guard)
    "test_existing_output_wins_over_exit_2": {
        "starpoints-infeasible-qos": "infeasible-starpoints "
                                     "refuse-existing-starpoints-infeasible",
        "mc-delay-below-snr-guard": "infeasible-mc-delay refuse-existing-mc-delay-guard",
    },
    "test_sweep_restricted_grid_is_infeasible": "infeasible-sweep",
    "test_starpoints_infeasible_qos": "infeasible-starpoints",
    "test_fairness_unreachable_qos": "infeasible-fairness",
    "test_numbers_too_large_for_their_field_exit_3": "usage-sweep-grid-huge-count",
    "test_rerun_of_an_unreadable_manifest_exits_3": "manifest-huge-integer manifest-latin1",
    "test_bad_flags_exit_3": "usage-sweep-waveform-triangular bogus-command",
    "test_rerun_refuses_an_output_path_that_names_no_file": "rerun-outputs-empty "
                                                            "rerun-outputs-dot rerun-out-empty",
    # {gap:g} keeps 6 digits, so both gaps would name one CSV, as an exact repeat does
    "test_distinct_gaps_sharing_a_csv_name_exit_3": {
        "force0": "usage-asymmetry-gaps-collide usage-asymmetry-gaps-repeated",
        "force1": "gap-collision refuse-repeated-gap",
    },
    # an existing output is refused before the QoS or the grid is even checked
    "test_refused_sweep_writes_nothing": "refuse-existing-manifest "
                                         "refuse-existing-manifest-infeasible "
                                         "refuse-existing-manifest-bad-grid",
}


def _former(test):
    """A test that runs FORMER[test]'s cases under their ids."""
    ids = FORMER[test]
    if isinstance(ids, str):
        return lambda tmp_path, monkeypatch, capsys: _refuse(
            tmp_path, monkeypatch, capsys, *ids.split())

    @pytest.mark.parametrize("names", list(ids.values()), ids=list(ids))
    def former(tmp_path, monkeypatch, capsys, names):
        _refuse(tmp_path, monkeypatch, capsys, *names.split())
    return former


globals().update((test, _former(test)) for test in FORMER)


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


def test_rerun_reads_the_manifest_scenario_like_a_scenario_file(tmp_path, scenario):
    grid = ["--grid", "0.01:0.99:20"]
    original = tmp_path / "run" / "s.csv"
    assert main(["sweep", scenario, *grid, "--out", str(original)]) == 0
    manifest = tmp_path / "run" / "s.csv.manifest.json"
    edited = tmp_path / "edited.json"
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


def test_version_flag():
    assert main(["--version"]) == 0


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
