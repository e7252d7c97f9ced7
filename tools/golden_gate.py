"""Run the golden command-line cases of one radcom source tree.

Usage:
    python tools/golden_gate.py SRC OUT

SRC is the root of a radcom checkout (it holds ``src/radcom`` and
``scenarios/baseline.txt``).  Each case runs in its own fresh directory
``OUT/<case>/``, which starts with the scenario files below and ends up
holding every output the case's commands wrote plus three records: ``rc``
(one exit code per command), ``stdout`` and ``stderr`` (each command's
output after a ``$ radcom ...`` line).  Commands run as
``python -m radcom.cli`` with SRC's ``src`` on PYTHONPATH and every path
relative to the case directory, so the outputs of two trees compare
directly:

    python tools/golden_gate.py PARENT_TREE /tmp/gate-parent
    python tools/golden_gate.py .           /tmp/gate-change
    diff -r /tmp/gate-parent /tmp/gate-change

At the end the script lists every case in which a command exited 1 (an
uncaught error) or wrote ``Traceback`` or ``Warning`` to stderr, and exits
1 if there is any.

A case is a list of steps: a command-line argv, ``("write", path, text)``
to create a file first, or ``("edit", manifest, new_path, changes)`` to
copy a manifest with some of its entries replaced (a dotted key such as
``params.grid`` names a nested entry; the value ``DELETE`` removes it).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

SCENARIOS = {
    "boosted.txt": "sigma_r_sq=1e-19\n",
    "bad.txt": "h1_gain=oops\n",
    "noisy.txt": "sigma1_sq=1e-9\n",        # breaks the SIC ordering
    "noisier.txt": "sigma1_sq_dbm=-100\n",  # keeps it, 5 dB ahead
    "si.txt": "si_suppression_db=110\n",   # a key that is no longer a field
    "wide.txt": "bandwidth_hz=1e200\n",     # (pi W)^2 overflows a float
    "narrow.txt": "bandwidth_hz=1e-300\n",  # (pi W)^2 underflows to 0
}
MC = ["--delay", "6.2832e-6", "--trials", "150", "--seed", "5"]
DENSE_GRID = "0.01:0.99:20000"
COMMANDS = ("sweep", "starpoints", "fairness", "asymmetry", "waveform-validate",
            "mc-delay", "rerun")

# Base runs: name -> (argv without --out, primary output).
BASE = {
    "sweep": (["sweep", "baseline.txt"], "s.csv"),
    "sweep-parabolic": (["sweep", "baseline.txt", "--waveform", "parabolic"], "s.csv"),
    "starpoints": (["starpoints", "baseline.txt"], "p.csv"),
    "fairness": (["fairness", "baseline.txt"], "f.csv"),
    "asymmetry": (["asymmetry", "baseline.txt"], "a.json"),
    "waveform-validate": (["waveform-validate"], "w.csv"),
    "mc-delay": (["mc-delay", "boosted.txt", "--delay", "6.2832e-6"], "mc.json"),
    "mc-delay-split": (["mc-delay", "boosted.txt", *MC, "--alloc", "0.01:0.04:0.95"],
                       "mc.json"),
    # 101 trials end on a short batch
    "mc-delay-parabolic-101": (["mc-delay", "boosted.txt", "--delay", "6.2832e-6",
                                "--waveform", "parabolic", "--trials", "101"], "mc.json"),
    "waveform-validate-coarse": (["waveform-validate", "--oversampling", "8"], "w.csv"),
    # over 300 000 cells together, across many CSV row blocks
    "sweep-dense": (["sweep", "baseline.txt", "--grid", DENSE_GRID], "s.csv"),
    "fairness-dense": (["fairness", "baseline.txt", "--grid", DENSE_GRID], "f.csv"),
    # several multi-block CSVs written as one output set
    "asymmetry-dense": (["asymmetry", "baseline.txt", "--gaps-db", "5,10",
                         "--grid", DENSE_GRID], "a.json"),
    # 1 025 feasible rows: one row past a 1 024-row block
    "sweep-block-plus-one": (["sweep", "baseline.txt", "--grid", "0.01:0.5:1025"],
                             "s.csv"),
    # the first curve stops at its onset partway through a block
    "fairness-partial-block": (["fairness", "baseline.txt", "--r02-list", "0.7,1.5",
                                "--grid", "0.01:0.99:3000"], "f.csv"),
}

# Hand-edited manifests: name -> (base run, changed entries).
DELETE = object()  # a changed entry's value that removes the entry
EDITED = {
    "gaps-empty": ("asymmetry", {"params.gaps_db": []}),
    "gaps-zero": ("asymmetry", {"params.gaps_db": [0.0, 5.0]}),
    "qos-single": ("starpoints", {"params.qos": [[1.5]]}),
    "qos-triple": ("starpoints", {"params.qos": [[1.5, 0.7, 3]]}),
    "qos-empty": ("starpoints", {"params.qos": []}),
    "alloc-over-budget": ("mc-delay-split", {"params.alloc": [0.5, 0.5, 0.5]}),
    "alloc-short": ("mc-delay-split", {"params.alloc": [0.5, 0.5]}),
    "seed-negative": ("mc-delay-split", {"params.seed": -1}),
    "seed-true": ("mc-delay-split", {"params.seed": True}),
    "seed-fraction": ("mc-delay-split", {"params.seed": 1.5}),
    "trials-text": ("mc-delay-split", {"params.trials": "150"}),
    "delay-text": ("mc-delay-split", {"params.delay_s": "6e-6"}),
    "r02-true": ("sweep", {"params.r02": True}),
    "bandwidth-true": ("waveform-validate", {"params.bandwidth_hz": True}),
    "oversampling-text": ("waveform-validate", {"params.oversampling": "16"}),
    "waveform-sine": ("sweep", {"params.waveform": "sine"}),
    "grid-reversed": ("sweep", {"params.grid": {"lo": 0.5, "hi": 0.1, "count": 10}}),
    "grid-repeated": ("sweep", {"params.grid": {"lo": 0.5, "hi": 0.5, "count": 10}}),
    "grid-missing-count": ("sweep", {"params.grid": {"lo": 0.01, "hi": 0.99}}),
    "grid-unknown-key": ("sweep", {"params.grid": {"lo": 0.01, "hi": 0.99,
                                                   "count": 200, "step": 1}}),
    "r02-list-empty": ("fairness", {"params.r02_list": []}),
    "tw-list-empty": ("waveform-validate", {"params.tw_list": []}),
    "command-bogus": ("sweep", {"command": "bogus"}),
    "outputs-empty": ("sweep", {"outputs": []}),
    "outputs-text": ("sweep", {"outputs": "zz.csv"}),
    "scenario-h1-negative": ("sweep", {"scenario.h1_gain": -1}),
    "scenario-sigma1-1e-9": ("sweep", {"scenario.sigma1_sq": 1e-9}),
    "scenario-sigma1-1e-10": ("sweep", {"scenario.sigma1_sq": 1e-10}),
    "scenario-sigma1-1e-10-with-view": ("sweep", {"scenario.sigma1_sq": 1e-10,
                                                  "scenario.sigma1_sq_dbm": -100.0}),
    "scenario-view-edited": ("sweep", {"scenario.sigma_r_sq_dbm": -80.0}),
    "scenario-key-misspelt": ("sweep", {"scenario.sigma_r_sq": DELETE,
                                        "scenario.sigma_r_sqq": 1e-11}),
    "scenario-eta1-true": ("sweep", {"scenario.eta1": True}),
    "scenario-db-key-alone": ("sweep", {"scenario.sigma_r_sq": DELETE,
                                        "scenario.sigma_r_sq_dbm": -100.0}),
    "scenario-retired-key": ("sweep", {"scenario.si_suppression_db": 110.0}),
    "r02-list-true": ("fairness", {"params.r02_list": [0.7, True]}),
    "gaps-true": ("asymmetry", {"params.gaps_db": [5.0, True]}),
    "qos-true": ("starpoints", {"params.qos": [[True, 0.7]]}),
    "alloc-true": ("mc-delay-split", {"params.alloc": [0, 0, True]}),
    "grid-count-true": ("sweep", {"params.grid": {"lo": 0.01, "hi": 0.99, "count": True}}),
    "grid-lo-false": ("sweep", {"params.grid": {"lo": False, "hi": 0.99, "count": 200}}),
    # numbers too large for their field
    "scenario-eta1-huge": ("sweep", {"scenario.eta1": 10 ** 400}),
    "scenario-db-key-alone-4000": ("sweep", {"scenario.h1_gain": DELETE,
                                             "scenario.h1_gain_db": 4000.0}),
    "r02-huge": ("sweep", {"params.r02": 10 ** 400}),
}

# Usage errors (exit 3): name -> argv.
USAGE = {
    "sweep-waveform-triangular": ["sweep", "baseline.txt", "--waveform", "triangular"],
    "sweep-grid-reversed": ["sweep", "baseline.txt", "--grid", "0.5:0.1:10"],
    "sweep-grid-nope": ["sweep", "baseline.txt", "--grid", "nope"],
    "sweep-grid-zero-count": ["sweep", "baseline.txt", "--grid", "0.1:0.5:0"],
    "sweep-grid-repeated": ["sweep", "baseline.txt", "--grid", "0.5:0.5:10"],
    "fairness-grid-reversed": ["fairness", "baseline.txt", "--grid", "0.5:0.1:10"],
    # the grid is checked where it is used, after the scenario
    "sweep-bad-scenario-and-grid": ["sweep", "bad.txt", "--grid", "0.5:0.1:10"],
    "sweep-r02-abc": ["sweep", "baseline.txt", "--r02", "abc"],
    "sweep-r02-negative": ["sweep", "baseline.txt", "--r02", "-1"],
    "sweep-missing-scenario": ["sweep", "missing.txt"],
    "sweep-bad-scenario": ["sweep", "bad.txt"],
    "sweep-bad-scenario-and-waveform": ["sweep", "bad.txt", "--waveform", "nope"],
    "starpoints-qos-empty": ["starpoints", "baseline.txt", "--qos", ""],
    "starpoints-qos-single": ["starpoints", "baseline.txt", "--qos", "1.5"],
    "starpoints-qos-triple": ["starpoints", "baseline.txt", "--qos", "1.5:0.7:3"],
    "starpoints-qos-letters": ["starpoints", "baseline.txt", "--qos", "a:b"],
    "fairness-r02-empty": ["fairness", "baseline.txt", "--r02-list", ""],
    "fairness-r02-letter": ["fairness", "baseline.txt", "--r02-list", "0.7,x"],
    "asymmetry-gaps-empty": ["asymmetry", "baseline.txt", "--gaps-db", ""],
    "asymmetry-gap-zero": ["asymmetry", "baseline.txt", "--gaps-db", "0,5"],
    "asymmetry-gap-negative": ["asymmetry", "baseline.txt", "--gaps-db", "-3"],
    "asymmetry-gap-nan": ["asymmetry", "baseline.txt", "--gaps-db", "nan"],
    "waveform-validate-tw-empty": ["waveform-validate", "--tw-list", ""],
    "waveform-validate-undersampled": ["waveform-validate", "--oversampling", "4"],
    "waveform-validate-sine": ["waveform-validate", "--waveform", "sine"],
    "mc-delay-alloc-over-budget": ["mc-delay", "boosted.txt", *MC, "--alloc", "0.5:0.5:0.5"],
    "mc-delay-alloc-letter": ["mc-delay", "boosted.txt", *MC, "--alloc", "x"],
    "mc-delay-alloc-short": ["mc-delay", "boosted.txt", *MC, "--alloc", "0.1:0.2"],
    "mc-delay-alloc-negative": ["mc-delay", "boosted.txt", *MC,
                                "--alloc", "-0.1:0.2:0.5"],
    "mc-delay-seed-negative": ["mc-delay", "boosted.txt", *MC, "--seed", "-1"],
    "mc-delay-few-trials": ["mc-delay", "boosted.txt", *MC, "--trials", "10"],
    "sweep-grid-huge-count": ["sweep", "baseline.txt", "--grid",
                              "0:0.5:99999999999999999999"],
    # 711 PiB, beyond any 57-bit address space: numpy refuses it without allocating
    "sweep-grid-711-pib": ["sweep", "baseline.txt", "--grid", "0:0.5:100000000000000000"],
    "sweep-bandwidth-1e200": ["sweep", "wide.txt"],
    "sweep-bandwidth-1e-300": ["sweep", "narrow.txt"],
    "waveform-validate-bandwidth-1e300": ["waveform-validate", "--bandwidth-hz", "1e300"],
    "waveform-validate-bandwidth-1e-300": ["waveform-validate", "--bandwidth-hz", "1e-300"],
    # pulses too long to sample: numpy refuses them without allocating
    "waveform-validate-tw-1e15": ["waveform-validate", "--tw-list", "1e15"],
    "waveform-validate-oversampling-1e300": ["waveform-validate",
                                             "--oversampling", "1e300"],
}

# Domain infeasibility (exit 2): name -> (argv without --out, output).
INFEASIBLE = {
    "sweep": (["sweep", "baseline.txt", "--r02", "1.5", "--grid", "0.5:0.9:50"], "s.csv"),
    "starpoints": (["starpoints", "baseline.txt", "--qos", "5:5"], "p.csv"),
    "fairness": (["fairness", "baseline.txt", "--r02-list", "3"], "f.csv"),
    "mc-delay": (["mc-delay", "baseline.txt", *MC], "mc.json"),
    "asymmetry": (["asymmetry", "baseline.txt", "--r02", "3"], "a.json"),
    # QoS rates whose least power overflows a float
    "sweep-r02-2000": (["sweep", "baseline.txt", "--r02", "2000"], "s.csv"),
    "fairness-r02-2000": (["fairness", "baseline.txt", "--r02-list", "2000"], "f.csv"),
    "asymmetry-r02-2000": (["asymmetry", "baseline.txt", "--r02", "2000"], "a.json"),
    "starpoints-qos-2000": (["starpoints", "baseline.txt", "--qos", "2000:0.7"], "p.csv"),
    "starpoints-qos-1e308": (["starpoints", "baseline.txt", "--qos", "1e308:1"], "p.csv"),
    "starpoints-qos-2000-0": (["starpoints", "baseline.txt", "--qos", "2000:0"], "p.csv"),
}

# An existing output wins over every outcome (exit 3): name -> (argv, output).
EXISTING_OUTPUT = {
    "starpoints-infeasible": INFEASIBLE["starpoints"],
    "mc-delay-guard": INFEASIBLE["mc-delay"],
    "fairness": BASE["fairness"],
    "waveform-validate": BASE["waveform-validate"],
}

# Every command of a scenario-file study: name -> (argv after the scenario, output).
STUDY = {
    "sweep": (["sweep"], "s.csv"),
    "sweep-parabolic": (["sweep", "--waveform", "parabolic"], "s.csv"),
    "starpoints": (["starpoints"], "p.csv"),
    "starpoints-pairs": (["starpoints", "--qos", "1.5:0.7", "--qos", "0.7:0.7"], "p.csv"),
    "fairness": (["fairness"], "f.csv"),
    "asymmetry": (["asymmetry"], "a.json"),
    "asymmetry-10-15": (["asymmetry", "--gaps-db", "10,15"], "a.json"),
    "asymmetry-10-3": (["asymmetry", "--gaps-db", "10,3"], "a.json"),
    "mc-delay": (["mc-delay", *MC], "mc.json"),
}


def _with_out(argv: list[str], out: str) -> list[str]:
    return [*argv, "--out", out]


def _cases() -> dict[str, list]:
    cases: dict[str, list] = {
        "help": [["--help"]],
        "version": [["--version"]],
        "no-arguments": [[]],
        "bogus-command": [["bogus-command"]],
        "sweep-without-out": [["sweep", "baseline.txt"]],
        "sweep-si-suppression": [_with_out(["sweep", "si.txt"], "s.csv")],
        "mc-delay-without-delay": [_with_out(
            ["mc-delay", "boosted.txt", "--trials", "150", "--seed", "5"], "mc.json")],
        "rerun-missing-manifest": [["rerun", "nope.json"]],
        "manifest-list": [("write", "m.json", "[1, 2]\n"),
                          ["rerun", "m.json", "--out", "r/s.csv"]],
        "manifest-not-json": [("write", "m.json", "not json\n"),
                              ["rerun", "m.json", "--out", "r/s.csv"]],
        "manifest-huge-integer": [("write", "m.json", '{"r02": ' + "1" * 5000 + "}\n"),
                                  ["rerun", "m.json", "--out", "r/s.csv"]],
        # refusals to overwrite (exit 3)
        "refuse-sweep-rerun": [_with_out(["sweep", "baseline.txt"], "s.csv"),
                               _with_out(["sweep", "baseline.txt"], "s.csv"),
                               _with_out(["sweep", "baseline.txt", "--r02", "3"], "s.csv")],
        "refuse-existing-manifest": [("write", "s.csv.manifest.json", "keep\n"),
                                     _with_out(["sweep", "baseline.txt"], "s.csv")],
        "refuse-existing-manifest-bad-grid": [
            ("write", "s.csv.manifest.json", "keep\n"),
            _with_out(["sweep", "baseline.txt", "--grid", "0.5:0.1:10"], "s.csv")],
        "refuse-existing-gap-csv": [("write", "a_gap15db.csv", "keep\n"),
                                    _with_out(["asymmetry", "baseline.txt"], "a.json")],
        "refuse-repeated-gap": [
            _with_out(["asymmetry", "baseline.txt", "--gaps-db", "5,5"], "a.json"),
            _with_out(["asymmetry", "baseline.txt", "--gaps-db", "5,5", "--force"],
                      "a.json")],
        # two distinct gaps whose CSV names round to the same text
        "gap-collision": [
            _with_out(["asymmetry", "baseline.txt", "--gaps-db", "10,10.0000001"],
                      "a.json"),
            _with_out(["asymmetry", "baseline.txt", "--gaps-db", "10,10.0000001",
                       "--force"], "a.json")],
        # ar_sq = 0 on the grid, and a QoS that leaves both rates at zero
        "sweep-parabolic-dense-from-zero": [_with_out(
            ["sweep", "baseline.txt", "--waveform", "parabolic",
             "--grid", "0:0.99:20000"], "s.csv")],
        "fairness-from-zero": [_with_out(
            ["fairness", "baseline.txt", "--grid", "0:0.9:37"], "f.csv")],
        "starpoints-zero-qos": [_with_out(
            ["starpoints", "baseline.txt", "--qos", "0:0", "--qos", "1.5:0.7"], "p.csv")],
        # output paths that name no file
        "usage-sweep-out-empty": [_with_out(["sweep", "baseline.txt", "--force"], "")],
        "usage-asymmetry-out-empty": [_with_out(["asymmetry", "baseline.txt"], "")],
        "usage-sweep-h1-gain-db-4000": [("write", "huge.txt", "h1_gain_db=4000\n"),
                                        _with_out(["sweep", "huge.txt"], "s.csv")],
        "usage-sweep-h1-gain-inf": [("write", "inf.txt", "h1_gain=inf\n"),
                                    _with_out(["sweep", "inf.txt"], "s.csv")],
        # full-power echoes eta^2 h^2 P past the float range
        "usage-sweep-echo-overflow": [("write", "loud.txt", "h1_gain=7.5e157\n"),
                                      _with_out(["sweep", "loud.txt"], "s.csv")],
        "usage-starpoints-echo-overflow": [("write", "loud.txt", "h1_gain=7.5e157\n"),
                                           _with_out(["starpoints", "loud.txt"], "p.csv")],
        "usage-sweep-echo-nan": [
            ("write", "undefined.txt", "eta1=1e200\nh1_gain=1e-200\nh2_gain=1e-210\n"),
            _with_out(["sweep", "undefined.txt"], "s.csv")],
        "usage-mc-delay-echo-overflow": [
            ("write", "louder.txt", "h1_gain=2e212\neta1=1e139\n"),
            _with_out(["mc-delay", "louder.txt", "--delay", "6.2832e-6"], "mc.json")],
        "usage-mc-delay-tw-1e15": [
            ("write", "long.txt", "time_bandwidth=1e15\nsigma_r_sq=1e-19\n"),
            _with_out(["mc-delay", "long.txt", "--delay", "6.2832e-6"], "mc.json")],
        # delay bounds past the float range at 20 and 280 dB of SNR
        "usage-mc-delay-bound-overflow": [
            ("write", "tiny.txt", "sigma_r_sq=1e-19\nbandwidth_hz=1e-160\n"),
            _with_out(["mc-delay", "tiny.txt", "--delay", "6.2832e161", "--trials", "100"],
                      "mc.json")],
        "usage-mc-delay-bound-underflow": [
            ("write", "huge.txt", "sigma_r_sq=1e-45\nbandwidth_hz=1e150\n"),
            _with_out(["mc-delay", "huge.txt", "--delay", "6.2832e-149", "--trials", "100"],
                      "mc.json")],
        # moments whose plain squares overflow a float
        "waveform-validate-bandwidth-1e150": [_with_out(
            ["waveform-validate", "--bandwidth-hz", "1e150"], "w.csv")],
        "waveform-validate-bandwidth-3e153": [_with_out(
            ["waveform-validate", "--bandwidth-hz", "3e153", "--tw-list", "100,1000,2000"],
            "w.csv")],
        # pulses whose phase in seconds and hertz would leave the float range
        "waveform-validate-parabolic-1e110": [_with_out(
            ["waveform-validate", "--waveform", "parabolic", "--bandwidth-hz", "1e110"],
            "w.csv")],
        "waveform-validate-parabolic-1e-155": [_with_out(
            ["waveform-validate", "--waveform", "parabolic", "--bandwidth-hz", "1e-155"],
            "w.csv")],
        "mc-delay-parabolic-wide": [
            ("write", "wide-boosted.txt", "bandwidth_hz=2e110\nsigma_r_sq=1e-19\n"),
            _with_out(["mc-delay", "wide-boosted.txt", "--waveform", "parabolic",
                       "--delay", "6.2832e-109", "--trials", "200"], "mc.json")],
    }
    # delay bounds whose denominators are subnormal (1e-150) or zero (1e-160)
    for bandwidth in ("1e-160", "1e-150"):
        for command, out in (("sweep", "s.csv"), ("starpoints", "p.csv")):
            cases[f"{command}-bandwidth-{bandwidth}"] = [
                ("write", "tiny.txt", f"bandwidth_hz={bandwidth}\n"),
                _with_out([command, "tiny.txt"], out)]
    # SNRs echo TW / sigma_r^2 of 1e383 and 1e-327, past the float range; at
    # P = 1e-10 mW the weak user carries no more than about 5e-10 bits/s/Hz
    for name, text, r02 in (
            ("overflow", "total_power_mw=1e200\nsigma_r_sq=1e-200\nbandwidth_hz=1e-100\n",
             "0.7"),
            ("underflow", "total_power_mw=1e-10\nsigma_r_sq=1e300\nbandwidth_hz=1e150\n",
             "1e-12")):
        cases[f"sweep-snr-{name}"] = [
            ("write", "snr.txt", text),
            _with_out(["sweep", "snr.txt", "--r02", r02], "s.csv")]
    for command in COMMANDS:
        cases[f"help-{command}"] = [[command, "--help"]]
    for name, (argv, out) in BASE.items():
        manifest = f"{out}.manifest.json"
        cases[f"base-{name}"] = [_with_out(argv, out)]
        cases[f"replay-{name}"] = [_with_out(argv, out),
                                   ["rerun", manifest, "--out", f"replay/{out}"],
                                   ["rerun", manifest],
                                   ["rerun", manifest, "--force"]]
    for name, (base, changes) in EDITED.items():
        argv, out = BASE[base]
        cases[f"edited-{name}"] = [_with_out(argv, out),
                                   ("edit", f"{out}.manifest.json", "m.json", changes),
                                   ["rerun", "m.json", "--out", f"r/{out}"]]
    for name, argv in USAGE.items():
        cases[f"usage-{name}"] = [_with_out(argv, "out")]
    for name, (argv, out) in INFEASIBLE.items():
        cases[f"infeasible-{name}"] = [_with_out(argv, out)]
    for name, (argv, out) in EXISTING_OUTPUT.items():
        cases[f"refuse-existing-{name}"] = [("write", out, "keep\n"),
                                            _with_out(argv, out)]
    for scenario in ("noisy.txt", "noisier.txt"):
        stem = scenario[:-4]
        for name, (argv, out) in STUDY.items():
            cases[f"{stem}-{name}"] = [_with_out([argv[0], scenario, *argv[1:]], out)]
        cases[f"{stem}-sweep-rerun"] = [_with_out(["sweep", scenario], "s.csv"),
                                        ["rerun", "s.csv.manifest.json",
                                         "--out", "r/s.csv"]]
    return cases


def _edit(case_dir: Path, source: str, target: str, changes: dict) -> None:
    manifest = json.loads((case_dir / source).read_text(encoding="utf-8"))
    for dotted, value in changes.items():
        *parents, key = dotted.split(".")
        entry = manifest
        for parent in parents:
            entry = entry[parent]
        if value is DELETE:
            del entry[key]
        else:
            entry[key] = value
    (case_dir / target).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                                   encoding="utf-8")


def run_case(src: Path, case_dir: Path, steps: list) -> bool:
    """Run one case; True if a command exited 1 or wrote a traceback or a
    warning to stderr."""
    case_dir.mkdir(parents=True)
    shutil.copyfile(src / "scenarios" / "baseline.txt", case_dir / "baseline.txt")
    for name, text in SCENARIOS.items():
        (case_dir / name).write_text(text, encoding="utf-8")
    # A fixed width keeps argparse's --help layout independent of the terminal.
    env = {**os.environ, "PYTHONPATH": str(src / "src"), "COLUMNS": "80"}
    codes, stdout, stderr = [], [], []
    crashed = False
    for step in steps:
        if isinstance(step, tuple) and step[0] == "write":
            (case_dir / step[1]).write_text(step[2], encoding="utf-8")
            continue
        if isinstance(step, tuple) and step[0] == "edit":
            _edit(case_dir, *step[1:])
            continue
        proc = subprocess.run([sys.executable, "-m", "radcom.cli", *step], cwd=case_dir,
                              env=env, capture_output=True, text=True, check=False)
        header = "$ radcom " + " ".join(repr(a) if not a or " " in a else a for a in step)
        crashed |= (proc.returncode == 1 or "Traceback" in proc.stderr
                    or "Warning" in proc.stderr)
        codes.append(f"{proc.returncode}\n")
        stdout.append(f"{header}\n{proc.stdout}")
        stderr.append(f"{header}\n{proc.stderr}")
    (case_dir / "rc").write_text("".join(codes), encoding="utf-8")
    (case_dir / "stdout").write_text("".join(stdout), encoding="utf-8")
    (case_dir / "stderr").write_text("".join(stderr), encoding="utf-8")
    return crashed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1])
    if not (src / "src" / "radcom").is_dir():
        print(f"{src} holds no src/radcom", file=sys.stderr)
        return 2
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    cases = _cases()
    crashed = [name for name, steps in cases.items() if run_case(src, out / name, steps)]
    print(f"{len(cases)} cases -> {out}")
    for name in crashed:
        print(f"crashed or warned: {name}", file=sys.stderr)
    return 1 if crashed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
