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

The cases are the one catalogue of command lines: a case whose last command
refuses (exit 2 or 3) records every command's exit code and the refusal's
last stderr line, and tier-1 (``tests/test_cli.py``) runs each refusal in
process through the same steps.  At the end the script lists every case in
which a command exited 1 (an uncaught error) or wrote ``Traceback`` or
``Warning`` to stderr, or whose exit codes or refusal differ from its
catalogue entry, and exits 1 if there is any.

A case is a list of steps: a command-line argv, ``("write", path, data)``
to create a file (text or bytes) first, or ``("edit", manifest, new_path,
changes)`` to copy a manifest with some of its entries replaced (a dotted
key such as ``params.grid`` names a nested entry; the value ``DELETE``
removes it).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

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

# Refusal messages that several cases share.  radcom writes a refusal to
# stderr as one "error: <message>" line, and the tables below hold messages.
SIC = ("{}SIC ordering violated: require h2_gain > 0 and h1_gain/sigma1_sq > h2_gain/sigma2_sq "
       "(user 1 is the strong user), got h1_gain={}, h2_gain={}, sigma1_sq={}, sigma2_sq={}")
NOISY = SIC.format("", "1e-09", "1e-10", "1e-09", "3.16228e-11")
BANDWIDTH = "bandwidth_hz must be > 0 with (pi W)^2 finite and > 0, got "
ECHO = ("target 1's full-power echo eta1^2 h1_gain^2 total_power_mw leaves the float range, "
        "got eta1={}, h1_gain={}, total_power_mw=1")
SNR = ("user 1's full-power SNR h1_gain total_power_mw / sigma1_sq leaves the float range, "
       "got h1_gain=1e-09, total_power_mw=1, sigma1_sq=9.99989e-321")
BOUND = "delay bound {} s^2 is outside the float range; the efficiency would be meaningless"
GUARD = ("post-integration SNR -60.00 dB is below the 10 dB asymptotic-region guard; the "
         "bound comparison would be meaningless")
NO_POINT = "no grid point is feasible for r02 = {} (kappa_min = {})"
QOS_POWER = "QoS ({}) needs communications power {} >= 1: nothing left for the radar waveform"
GRID_BOUNDS = "grid bounds must satisfy 0 <= lo <= hi < 1, got [0.5, 0.1]"
GRID_KEYS = "grid must hold lo, hi and count, got "
GAP = "asymmetry gap must be > 0 dB to keep h1_gain > h2_gain, got "
QOS_PAIR = "QoS pair must look like r01:r02, got "
ALLOC = "allocation must look like a1_sq:a2_sq:ar_sq, got "
BUDGET = "allocation 0.5:0.5:0.5 exceeds the unit power budget"
WAVEFORM = "unknown waveform {!r} (choices: linear, parabolic)"
NOT_FINITE = "line {}: value for 'h1_gain' must be finite: {!r}"
BAD_SCENARIO = "line 1: value for 'h1_gain' is not a number: 'oops'"
OVERWRITE = "refusing to overwrite {} (use --force)"
NO_FILE = "output path {!r} names no file"
NO_MANIFEST = "cannot load manifest: [Errno 2] No such file or directory: {!r}"
HUGE = 10 ** 400

# Base runs: name -> (argv without --out, primary output[, the stderr line of a
# run whose check fails: it exits 2 and still writes its CSV]).
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
    "waveform-validate-coarse": (["waveform-validate", "--oversampling", "8"], "w.csv",
                                 "waveform-validate: FAILED, instantaneous-frequency moment "
                                 "off by 1.563e-06 (> 1e-06) -> w.csv"),
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

# Hand-edited manifests: name -> (base run, changed entries, and the message of
# rerun's refusal (exit 3), or None where the manifest reruns).
DELETE = object()  # a changed entry's value that removes the entry
EDITED = {
    "gaps-empty": ("asymmetry", {"params.gaps_db": []}, "empty gap list"),
    "gaps-zero": ("asymmetry", {"params.gaps_db": [0.0, 5.0]}, GAP + "0.0"),
    "qos-single": ("starpoints", {"params.qos": [[1.5]]}, QOS_PAIR + "[1.5]"),
    "qos-triple": ("starpoints", {"params.qos": [[1.5, 0.7, 3]]}, QOS_PAIR + "[1.5, 0.7, 3]"),
    "qos-empty": ("starpoints", {"params.qos": []}, "empty QoS list"),
    "alloc-over-budget": ("mc-delay-split", {"params.alloc": [0.5, 0.5, 0.5]}, BUDGET),
    "alloc-short": ("mc-delay-split", {"params.alloc": [0.5, 0.5]}, ALLOC + "[0.5, 0.5]"),
    "seed-negative": ("mc-delay-split", {"params.seed": -1}, "seed must be >= 0, got -1"),
    "seed-true": ("mc-delay-split", {"params.seed": True}, "seed must be an integer, got True"),
    "seed-fraction": ("mc-delay-split", {"params.seed": 1.5},
                      "seed must be an integer, got 1.5"),
    "trials-text": ("mc-delay-split", {"params.trials": "150"},
                    "trials must be an integer, got '150'"),
    "delay-text": ("mc-delay-split", {"params.delay_s": "6e-6"},
                   "delay_s must be a number, got '6e-6'"),
    "r02-true": ("sweep", {"params.r02": True}, "r02 must be a number, got True"),
    "r02-text": ("asymmetry", {"params.r02": "0.7"}, "r02 must be a number, got '0.7'"),
    "bandwidth-true": ("waveform-validate", {"params.bandwidth_hz": True},
                       "bandwidth_hz must be a number, got True"),
    "oversampling-text": ("waveform-validate", {"params.oversampling": "16"},
                          "oversampling must be a number, got '16'"),
    "waveform-sine": ("sweep", {"params.waveform": "sine"}, WAVEFORM.format("sine")),
    "grid-reversed": ("sweep", {"params.grid": {"lo": 0.5, "hi": 0.1, "count": 10}},
                      GRID_BOUNDS),
    "grid-repeated": ("sweep", {"params.grid": {"lo": 0.5, "hi": 0.5, "count": 10}},
                      "grid values must be strictly increasing"),
    "grid-missing-count": ("sweep", {"params.grid": {"lo": 0.01, "hi": 0.99}},
                           GRID_KEYS + "{'hi': 0.99, 'lo': 0.01}"),
    "grid-unknown-key": ("sweep", {"params.grid": {"lo": 0.01, "hi": 0.99,
                                                   "count": 200, "step": 1}},
                         GRID_KEYS + "{'count': 200, 'hi': 0.99, 'lo': 0.01, 'step': 1}"),
    "grid-list": ("sweep", {"params.grid": ["lo", "hi", "count"]},
                  GRID_KEYS + "['lo', 'hi', 'count']"),
    "r02-list-empty": ("fairness", {"params.r02_list": []}, "empty r02 list"),
    "tw-list-empty": ("waveform-validate", {"params.tw_list": []}, "empty TW list"),
    "command-bogus": ("sweep", {"command": "bogus"}, "manifest names unknown command 'bogus'"),
    "outputs-empty": ("sweep", {"outputs": []}, "manifest lists no outputs"),
    "outputs-text": ("sweep", {"outputs": "zz.csv"},
                     "manifest outputs must be a list of paths, got 'zz.csv'"),
    "outputs-number": ("sweep", {"outputs": [1]},
                       "manifest outputs must be a list of paths, got [1]"),
    "scenario-null": ("sweep", {"scenario": None}, "manifest holds no scenario"),
    "scenario-h1-negative": ("sweep", {"scenario.h1_gain": -1},
                             SIC.format("", "-1", "1e-10", "3.16228e-11", "3.16228e-11")),
    "scenario-sigma1-1e-9": ("sweep", {"scenario.sigma1_sq": 1e-9}, NOISY),
    "scenario-sigma1-1e-10": ("sweep", {"scenario.sigma1_sq": 1e-10},
                              "sigma1_sq_dbm=-105.0 is not the view -100.0 of sigma1_sq=1e-10"),
    "scenario-sigma1-1e-10-with-view": ("sweep", {"scenario.sigma1_sq": 1e-10,
                                                  "scenario.sigma1_sq_dbm": -100.0}, None),
    "scenario-view-edited": ("sweep", {"scenario.sigma_r_sq_dbm": -80.0},
                             "sigma_r_sq_dbm=-80.0 is not the view -110.0 of sigma_r_sq=1e-11"),
    "scenario-key-misspelt": ("sweep", {"scenario.sigma_r_sq": DELETE,
                                        "scenario.sigma_r_sqq": 1e-11},
                              "unknown scenario key 'sigma_r_sqq'"),
    "scenario-unknown-key": ("sweep", {"scenario.bogus": 1.0}, "unknown scenario key 'bogus'"),
    "scenario-eta1-true": ("sweep", {"scenario.eta1": True}, "eta1 must be a number, got True"),
    "scenario-h1-text": ("sweep", {"scenario.h1_gain": "1e-9"},
                         "h1_gain must be a number, got '1e-9'"),
    "scenario-eta2-null": ("sweep", {"scenario.eta2": None}, "eta2 must be a number, got None"),
    # json writes it as Infinity
    "scenario-h1-infinite": ("sweep", {"scenario.h1_gain": float("inf"),
                                       "scenario.h1_gain_db": DELETE},
                             "channel gains must be finite"),
    "scenario-db-key-alone": ("sweep", {"scenario.sigma_r_sq": DELETE,
                                        "scenario.sigma_r_sq_dbm": -100.0}, None),
    "scenario-retired-key": ("sweep", {"scenario.si_suppression_db": 110.0}, None),
    "r02-list-true": ("fairness", {"params.r02_list": [0.7, True]}, "bad r02 list [0.7, True]"),
    "gaps-true": ("asymmetry", {"params.gaps_db": [5.0, True]}, "bad gap list [5.0, True]"),
    "qos-true": ("starpoints", {"params.qos": [[True, 0.7]]}, QOS_PAIR + "[True, 0.7]"),
    "alloc-true": ("mc-delay-split", {"params.alloc": [0, 0, True]}, ALLOC + "[0, 0, True]"),
    "grid-count-true": ("sweep", {"params.grid": {"lo": 0.01, "hi": 0.99, "count": True}},
                        "grid count must be an integer, got True"),
    "grid-lo-false": ("sweep", {"params.grid": {"lo": False, "hi": 0.99, "count": 200}},
                      "grid lo must be a number, got False"),
    # numbers too large for their field
    "scenario-eta1-huge": ("sweep", {"scenario.eta1": HUGE},
                           f"eta1 is too large for a float, got {HUGE}"),
    "scenario-db-key-alone-4000": ("sweep", {"scenario.h1_gain": DELETE,
                                             "scenario.h1_gain_db": 4000.0},
                                   "dB value 4000.0 is too large for a float"),
    "r02-huge": ("sweep", {"params.r02": HUGE}, f"r02 is too large for a float, got {HUGE}"),
    "r02-list-huge": ("fairness", {"params.r02_list": [0.7, HUGE]},
                      f"bad r02 list [0.7, {HUGE}]"),
    "grid-count-huge": ("sweep", {"params.grid": {"lo": 0.0, "hi": 0.5, "count": 10 ** 20}},
                        "grid count 100000000000000000000 is too large: Maximum allowed "
                        "size exceeded"),
    # params the command does not take, or lacks
    "param-unknown": ("sweep", {"params.step": 1}, "unknown sweep params: step"),
    "param-deleted": ("sweep", {"params.r02": DELETE},
                      "manifest is missing or mistypes a field: 'r02'"),
}

# Usage errors (exit 3): name -> (argv, message).
USAGE = {
    "sweep-waveform-triangular": (["sweep", "baseline.txt", "--waveform", "triangular"],
                                  WAVEFORM.format("triangular")),
    "sweep-grid-reversed": (["sweep", "baseline.txt", "--grid", "0.5:0.1:10"], GRID_BOUNDS),
    "sweep-grid-nope": (["sweep", "baseline.txt", "--grid", "nope"],
                        "grid must look like lo:hi:count, got 'nope'"),
    "sweep-grid-zero-count": (["sweep", "baseline.txt", "--grid", "0.1:0.5:0"],
                              "grid needs at least one point, got 0"),
    "sweep-grid-repeated": (["sweep", "baseline.txt", "--grid", "0.5:0.5:10"],
                            "grid values must be strictly increasing"),
    "fairness-grid-reversed": (["fairness", "baseline.txt", "--grid", "0.5:0.1:10"],
                               GRID_BOUNDS),
    # the grid is checked where it is used, after the scenario
    "sweep-bad-scenario-and-grid": (["sweep", "bad.txt", "--grid", "0.5:0.1:10"],
                                    BAD_SCENARIO),
    "sweep-r02-negative": (["sweep", "baseline.txt", "--r02", "-1"],
                           "r02 must be > 0, got -1.0"),
    "sweep-missing-scenario": (["sweep", "missing.txt"], "cannot read scenario file "
                               "missing.txt: [Errno 2] No such file or directory: "
                               "'missing.txt'"),
    "sweep-bad-scenario": (["sweep", "bad.txt"], BAD_SCENARIO),
    "sweep-bad-scenario-and-waveform": (["sweep", "bad.txt", "--waveform", "nope"],
                                        WAVEFORM.format("nope")),
    "starpoints-qos-empty": (["starpoints", "baseline.txt", "--qos", ""],
                             "empty QoS list entry"),
    "starpoints-qos-single": (["starpoints", "baseline.txt", "--qos", "1.5"],
                              QOS_PAIR + "'1.5'"),
    "starpoints-qos-triple": (["starpoints", "baseline.txt", "--qos", "1.5:0.7:3"],
                              QOS_PAIR + "'1.5:0.7:3'"),
    "starpoints-qos-letters": (["starpoints", "baseline.txt", "--qos", "a:b"],
                               QOS_PAIR + "'a:b'"),
    "starpoints-qos-negative": (["starpoints", "baseline.txt", "--qos=-1:0.7"],
                                "r01 must be finite and >= 0, got -1.0"),
    "fairness-r02-empty": (["fairness", "baseline.txt", "--r02-list", ""], "empty r02 list"),
    "fairness-r02-letter": (["fairness", "baseline.txt", "--r02-list", "0.7,x"],
                            "bad r02 list '0.7,x'"),
    "asymmetry-gaps-empty": (["asymmetry", "baseline.txt", "--gaps-db", ""], "empty gap list"),
    "asymmetry-gap-zero": (["asymmetry", "baseline.txt", "--gaps-db", "0,5"], GAP + "0.0"),
    "asymmetry-gap-negative": (["asymmetry", "baseline.txt", "--gaps-db", "-3"], GAP + "-3.0"),
    "asymmetry-gap-nan": (["asymmetry", "baseline.txt", "--gaps-db", "nan"], GAP + "nan"),
    "asymmetry-gaps-collide": (["asymmetry", "baseline.txt", "--gaps-db", "10,10.0000001"],
                               "gaps 10.0 and 10.0000001 dB would both write out_gap10db.csv"),
    "asymmetry-gaps-repeated": (["asymmetry", "baseline.txt", "--gaps-db", "5,5"],
                                "gaps 5.0 and 5.0 dB would both write out_gap5db.csv"),
    "waveform-validate-tw-empty": (["waveform-validate", "--tw-list", ""], "empty TW list"),
    "waveform-validate-undersampled": (["waveform-validate", "--oversampling", "4"],
                                       "undersampled: sample_rate_hz = 80000000.0 but the law "
                                       "needs at least 8 x W = 1.6e+08 Hz"),
    "waveform-validate-sine": (["waveform-validate", "--waveform", "sine"],
                               WAVEFORM.format("sine")),
    "mc-delay-alloc-over-budget": (["mc-delay", "boosted.txt", *MC, "--alloc", "0.5:0.5:0.5"],
                                   BUDGET),
    "mc-delay-alloc-letter": (["mc-delay", "boosted.txt", *MC, "--alloc", "x"], ALLOC + "'x'"),
    "mc-delay-alloc-short": (["mc-delay", "boosted.txt", *MC, "--alloc", "0.1:0.2"],
                             ALLOC + "'0.1:0.2'"),
    # joined to its flag, so argparse takes the leading minus as a value
    "mc-delay-alloc-negative-joined": (["mc-delay", "boosted.txt", *MC, "--alloc=-0.1:0.2:0.5"],
                                       "a1_sq must be finite and >= 0, got -0.1"),
    "mc-delay-alloc-no-radar": (["mc-delay", "boosted.txt", *MC, "--alloc", "0.5:0.5:0"],
                                "mc_delay_estimation needs ar_sq > 0"),
    "mc-delay-delay-1e-9": (["mc-delay", "boosted.txt", "--delay", "1e-9", "--trials", "150",
                             "--seed", "5"],
                            "true_delay_s = 1e-09 outside [2/W, T/2] = [1e-07, 2.5e-05]"),
    "mc-delay-seed-negative": (["mc-delay", "boosted.txt", *MC, "--seed", "-1"],
                               "seed must be >= 0, got -1"),
    "mc-delay-few-trials": (["mc-delay", "boosted.txt", *MC, "--trials", "10"],
                            "trials must be >= 100, got 10"),
    "sweep-grid-huge-count": (["sweep", "baseline.txt", "--grid", "0:0.5:99999999999999999999"],
                              "grid count 99999999999999999999 is too large: Maximum allowed "
                              "size exceeded"),
    # 711 PiB, beyond any 57-bit address space: numpy refuses it without allocating
    "sweep-grid-711-pib": (["sweep", "baseline.txt", "--grid", "0:0.5:100000000000000000"],
                           "grid count 100000000000000000 is too large: Unable to allocate "
                           "711. PiB for an array with shape (100000000000000000,) and data "
                           "type float64"),
    # a QoS rate so small that the weak user's share rounds below 0 (ROADMAP item 1)
    "sweep-r02-1e-16": (["sweep", "baseline.txt", "--r02", "1e-16"],
                        "a2_sq must be finite and >= 0, got -1.1102230246251565e-16"),
    "sweep-r02-1e-16-dense": (["sweep", "baseline.txt", "--r02", "1e-16", "--grid", DENSE_GRID],
                              "a2_sq must be finite and >= 0, got -1.1102230246251565e-16"),
    "sweep-bandwidth-1e200": (["sweep", "wide.txt"], BANDWIDTH + "1e+200"),
    "sweep-bandwidth-1e-300": (["sweep", "narrow.txt"], BANDWIDTH + "1e-300"),
    "waveform-validate-bandwidth-1e300": (["waveform-validate", "--bandwidth-hz", "1e300"],
                                          BANDWIDTH + "1e+300"),
    "waveform-validate-bandwidth-1e-300": (["waveform-validate", "--bandwidth-hz", "1e-300"],
                                           BANDWIDTH + "1e-300"),
    # pulses too long to sample: numpy refuses them without allocating
    "waveform-validate-tw-1e15": (["waveform-validate", "--tw-list", "1e15"],
                                  "pulse of 1.6e+16 samples is too large to sample: Unable to "
                                  "allocate 114. PiB for an array with shape "
                                  "(16000000000000000,) and data type int64"),
    "waveform-validate-oversampling-1e300": (["waveform-validate", "--oversampling", "1e300"],
                                             "pulse of 1e+302 samples is too large to sample: "
                                             "Maximum allowed size exceeded"),
}

# Scenario files refused (exit 3): name -> (file, text, argv with the file left
# out, output, message).
SCENARIO_FILES = {
    "usage-sweep-h1-gain-db-4000": ("huge.txt", "h1_gain_db=4000\n", ["sweep"], "s.csv",
                                    "line 1: h1_gain_db=4000: dB value 4000.0 is too large "
                                    "for a float"),
    "usage-sweep-h1-gain-db-nan": ("nan.txt", "h1_gain_db=nan\n", ["sweep"], "s.csv",
                                   "line 1: h1_gain_db=nan: dB value must be finite, got nan"),
    "usage-sweep-h1-gain-inf": ("inf.txt", "h1_gain=inf\n", ["sweep"], "s.csv",
                                NOT_FINITE.format(1, "inf")),
    # on a file's second line, after a pair on the same line
    "usage-sweep-gains-inf": ("gains.txt", "# gains\neta1=0.2, h1_gain=inf\n", ["sweep"],
                              "s.csv", NOT_FINITE.format(2, "inf")),
    "usage-sweep-gains-minus-inf": ("gains.txt", "# gains\neta1=0.2, h1_gain=-inf\n",
                                    ["sweep"], "s.csv", NOT_FINITE.format(2, "-inf")),
    "usage-sweep-gains-nan": ("gains.txt", "# gains\neta1=0.2, h1_gain=nan\n", ["sweep"],
                              "s.csv", NOT_FINITE.format(2, "nan")),
    "usage-sweep-gain-given-twice": ("twice.txt", "h1_gain=1e-9\nh1_gain_db=-90\n", ["sweep"],
                                     "s.csv", "line 2: 'h1_gain_db' conflicts with earlier "
                                     "'h1_gain' (field given twice)"),
    "usage-sweep-no-equals": ("spaced.txt", "eta1 0.3\n", ["sweep"], "s.csv",
                              "line 1: expected key=value, got 'eta1 0.3'"),
    "usage-sweep-sigma-r-zero": ("quiet.txt", "sigma_r_sq=0\n", ["sweep"], "s.csv",
                                 "sigma_r_sq must be finite and > 0, got 0.0"),
    "usage-sweep-tw-half": ("short.txt", "time_bandwidth=0.5\n", ["sweep"], "s.csv",
                            "time_bandwidth must be >= 1, got 0.5"),
    # full-power echoes eta^2 h^2 P past the float range
    "usage-sweep-echo-overflow": ("loud.txt", "h1_gain=7.5e157\n", ["sweep"], "s.csv",
                                  ECHO.format("0.1", "7.5e+157")),
    "usage-starpoints-echo-overflow": ("loud.txt", "h1_gain=7.5e157\n", ["starpoints"],
                                       "p.csv", ECHO.format("0.1", "7.5e+157")),
    # eta1^2 overflows and h1_gain^2 underflows: inf * 0 is nan
    "usage-sweep-echo-nan": ("undefined.txt", "eta1=1e200\nh1_gain=1e-200\nh2_gain=1e-210\n",
                             ["sweep"], "s.csv", ECHO.format("1e+200", "1e-200")),
    "usage-mc-delay-echo-overflow": ("louder.txt", "h1_gain=2e212\neta1=1e139\n",
                                     ["mc-delay", "--delay", "6.2832e-6"], "mc.json",
                                     ECHO.format("1e+139", "2e+212")),
    # user 1's h/sigma^2 is 1e311
    "usage-sweep-snr-past-float": ("faint.txt", "sigma1_sq=1e-320\n", ["sweep"], "s.csv", SNR),
    "usage-starpoints-snr-past-float": ("faint.txt", "sigma1_sq=1e-320\n", ["starpoints"],
                                        "p.csv", SNR),
    # a post-integration SNR echo TW / sigma_r^2 of 1e383
    "usage-mc-delay-snr-overflow": ("blaring.txt", "total_power_mw=1e200, sigma_r_sq=1e-200\n",
                                    ["mc-delay", "--delay", "6.2832e-6"], "mc.json",
                                    "linear value must be finite and > 0, got inf"),
    "usage-mc-delay-tw-1e15": ("long.txt", "time_bandwidth=1e15\nsigma_r_sq=1e-19\n",
                               ["mc-delay", "--delay", "6.2832e-6"], "mc.json",
                               "pulse of 8e+15 samples is too large to sample: Unable to "
                               "allocate 56.8 PiB for an array with shape (8000000000000000,) "
                               "and data type int64"),
    # delay bounds past the float range at 20 and 280 dB of SNR
    "usage-mc-delay-bound-overflow": ("tiny.txt", "sigma_r_sq=1e-19\nbandwidth_hz=1e-160\n",
                                      ["mc-delay", "--delay", "6.2832e161", "--trials", "100"],
                                      "mc.json", BOUND.format("inf")),
    "usage-mc-delay-bound-underflow": ("huge.txt", "sigma_r_sq=1e-45\nbandwidth_hz=1e150\n",
                                       ["mc-delay", "--delay", "6.2832e-149",
                                        "--trials", "100"], "mc.json", BOUND.format("0")),
    # a finite bound whose trials' squared errors leave the float range
    "usage-mc-delay-variance-overflow": ("vast.txt",
                                         "sigma_r_sq=1e-19, bandwidth_hz=4.144e-156\n",
                                         ["mc-delay", "--delay", "1.516216216216216e156",
                                          "--trials", "400", "--seed", "12345"], "mc.json",
                                         "delay variance past the float range (bound "
                                         "1.77004e+308 s^2)"),
}

# Domain infeasibility (exit 2): name -> (argv without --out, output, message).
INFEASIBLE = {
    "sweep": (["sweep", "baseline.txt", "--r02", "1.5", "--grid", "0.5:0.9:50"], "s.csv",
              NO_POINT.format(1.5, 0.578199)),
    "starpoints": (["starpoints", "baseline.txt", "--qos", "5:5"], "p.csv",
                   QOS_POWER.format("5, 5", 41.1729)),
    "fairness": (["fairness", "baseline.txt", "--r02-list", "3"], "f.csv",
                 NO_POINT.format(3, 2.21359)),
    "mc-delay": (["mc-delay", "baseline.txt", *MC], "mc.json", GUARD),
    "asymmetry": (["asymmetry", "baseline.txt", "--r02", "3"], "a.json",
                  NO_POINT.format(3, 2.21359)),
    # QoS rates whose least power overflows a float: 2^r does from r = 1024 on
    "sweep-r02-2000": (["sweep", "baseline.txt", "--r02", "2000"], "s.csv",
                       NO_POINT.format(2000, "inf")),
    "sweep-r02-1024": (["sweep", "baseline.txt", "--r02", "1024"], "s.csv",
                       NO_POINT.format(1024, "inf")),
    "fairness-r02-2000": (["fairness", "baseline.txt", "--r02-list", "2000"], "f.csv",
                          NO_POINT.format(2000, "inf")),
    "fairness-r02-0.7-2000": (["fairness", "baseline.txt", "--r02-list", "0.7,2000"], "f.csv",
                              NO_POINT.format(2000, "inf")),
    "asymmetry-r02-2000": (["asymmetry", "baseline.txt", "--r02", "2000"], "a.json",
                           NO_POINT.format(2000, "inf")),
    "starpoints-qos-2000": (["starpoints", "baseline.txt", "--qos", "2000:0.7"], "p.csv",
                            QOS_POWER.format("2000, 0.7", "inf")),
    "starpoints-qos-1e308": (["starpoints", "baseline.txt", "--qos", "1e308:1"], "p.csv",
                             QOS_POWER.format("1e+308, 1", "inf")),
    "starpoints-qos-2000-0": (["starpoints", "baseline.txt", "--qos", "2000:0"], "p.csv",
                              QOS_POWER.format("2000, 0", "inf")),
}

# An existing output wins over every outcome (exit 3): name -> (argv, output).
EXISTING_OUTPUT = {
    "starpoints-infeasible": INFEASIBLE["starpoints"][:2],
    "mc-delay-guard": INFEASIBLE["mc-delay"][:2],
    "fairness": BASE["fairness"],
    "waveform-validate": BASE["waveform-validate"],
}

# Every command of a scenario-file study: name -> (argv after the scenario,
# output[, exit code and message of its refusal on noisier.txt]).  On noisy.txt
# each refuses the scenario.
STUDY = {
    "sweep": (["sweep"], "s.csv"),
    "sweep-parabolic": (["sweep", "--waveform", "parabolic"], "s.csv"),
    "starpoints": (["starpoints"], "p.csv", 2, QOS_POWER.format("1.5, 1.5", 1.09536)),
    "starpoints-pairs": (["starpoints", "--qos", "1.5:0.7", "--qos", "0.7:0.7"], "p.csv"),
    "fairness": (["fairness"], "f.csv"),
    "asymmetry": (["asymmetry"], "a.json", 3, SIC.format(
        "asymmetry gap 5 dB: ", "1e-09", "3.16228e-10", "1e-10", "3.16228e-11")),
    "asymmetry-10-15": (["asymmetry", "--gaps-db", "10,15"], "a.json"),
    "asymmetry-10-3": (["asymmetry", "--gaps-db", "10,3"], "a.json", 3, SIC.format(
        "asymmetry gap 3 dB: ", "1e-09", "5.01187e-10", "1e-10", "3.16228e-11")),
    "mc-delay": (["mc-delay", *MC], "mc.json", 2, GUARD),
}


class Case(NamedTuple):
    """One command-line case: its steps and, when its last command refuses
    (exit 2 or 3), every command's exit code and the refusing command's last
    stderr line.  A line that argparse writes (it starts with ``radcom``)
    need only begin with ``line``: Python versions word its tail differently."""
    name: str
    steps: list
    codes: tuple[int, ...] = ()
    line: str = ""


def _with_out(argv: list[str], out: str) -> list[str]:
    return [*argv, "--out", out]


def catalogue() -> list[Case]:
    """Every case; a list, so that a name given twice stays visible."""
    cases = [Case(name, steps) for name, steps in {
        "help": [["--help"]],
        "version": [["--version"]],
        # ar_sq = 0 on the grid, and a QoS that leaves both rates at zero
        "sweep-parabolic-dense-from-zero": [_with_out(
            ["sweep", "baseline.txt", "--waveform", "parabolic",
             "--grid", "0:0.99:20000"], "s.csv")],
        "fairness-from-zero": [_with_out(
            ["fairness", "baseline.txt", "--grid", "0:0.9:37"], "f.csv")],
        "starpoints-zero-qos": [_with_out(
            ["starpoints", "baseline.txt", "--qos", "0:0", "--qos", "1.5:0.7"], "p.csv")],
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
    }.items()]
    # argparse's own refusals (exit 3): name -> (argv, its last line).
    cases += [Case(name, [argv], (3,), line) for name, (argv, line) in {
        "no-arguments": ([], "radcom: error: the following arguments are required: command"),
        "bogus-command": (["bogus-command"], "radcom: error: argument command: invalid "
                          "choice: 'bogus-command'"),
        "sweep-without-out": (["sweep", "baseline.txt"], "radcom sweep: error: the "
                              "following arguments are required: --out"),
        "mc-delay-without-delay": (["mc-delay", "boosted.txt", "--trials", "150", "--seed",
                                    "5", "--out", "mc.json"], "radcom mc-delay: error: the "
                                   "following arguments are required: --delay"),
        "usage-sweep-r02-abc": (["sweep", "baseline.txt", "--r02", "abc", "--out", "out"],
                                "radcom sweep: error: argument --r02: invalid float value: "
                                "'abc'"),
        "usage-mc-delay-alloc-negative": (["mc-delay", "boosted.txt", *MC, "--alloc",
                                           "-0.1:0.2:0.5", "--out", "out"], "radcom mc-delay: "
                                          "error: argument --alloc: expected one argument"),
    }.items()]
    # Other refusals: name -> (steps, message[, every exit code, when not one 3]).
    cases += [Case(name, steps, tuple(codes) or (3,), f"error: {message}")
              for name, (steps, message, *codes) in {
        "sweep-si-suppression": ([_with_out(["sweep", "si.txt"], "s.csv")],
                                 "line 1: unknown key 'si_suppression_db'"),
        "rerun-missing-manifest": ([["rerun", "nope.json"]], NO_MANIFEST.format("nope.json")),
        "manifest-list": ([("write", "m.json", "[1, 2]\n"),
                           ["rerun", "m.json", "--out", "r/s.csv"]],
                          "manifest must be a JSON object"),
        "manifest-not-json": ([("write", "m.json", "not json\n"),
                               ["rerun", "m.json", "--out", "r/s.csv"]], "cannot load "
                              "manifest: Expecting value: line 1 column 1 (char 0)"),
        # a directory to make where a file is: nothing is left behind
        "out-under-a-file": ([("write", "f", "keep\n"),
                              _with_out(["sweep", "baseline.txt"], "f/s.csv")],
                             "cannot write outputs: [Errno 17] File exists: 'f'"),
        "manifest-latin1": ([("write", "m.json", b'{"command": "sweep\xe9"}\n'),
                            ["rerun", "m.json", "--out", "r/s.csv"]],
                           "cannot load manifest: 'utf-8' codec can't decode byte 0xe9 in "
                           "position 18: invalid continuation byte"),
        "manifest-huge-integer": ([("write", "m.json", '{"r02": ' + "1" * 5000 + "}\n"),
                                   ["rerun", "m.json", "--out", "r/s.csv"]],
                                  "cannot load manifest: Exceeds the limit (4300 digits) for "
                                  "integer string conversion: value has 5000 digits; use "
                                  "sys.set_int_max_str_digits() to increase the limit"),
        # refusals to overwrite
        "refuse-sweep-rerun": ([_with_out(["sweep", "baseline.txt"], "s.csv"),
                                _with_out(["sweep", "baseline.txt"], "s.csv"),
                                _with_out(["sweep", "baseline.txt", "--r02", "3"], "s.csv")],
                               OVERWRITE.format("s.csv"), 0, 3, 3),
        "refuse-existing-manifest": ([("write", "s.csv.manifest.json", "keep\n"),
                                      _with_out(["sweep", "baseline.txt"], "s.csv")],
                                     OVERWRITE.format("s.csv.manifest.json")),
        "refuse-existing-manifest-bad-grid": ([
            ("write", "s.csv.manifest.json", "keep\n"),
            _with_out(["sweep", "baseline.txt", "--grid", "0.5:0.1:10"], "s.csv")],
            OVERWRITE.format("s.csv.manifest.json")),
        "refuse-existing-manifest-infeasible": ([
            ("write", "s.csv.manifest.json", "keep\n"),
            _with_out(["sweep", "baseline.txt", "--r02", "3"], "s.csv")],
            OVERWRITE.format("s.csv.manifest.json")),
        "refuse-existing-gap-csv": ([("write", "a_gap15db.csv", "keep\n"),
                                     _with_out(["asymmetry", "baseline.txt"], "a.json")],
                                    OVERWRITE.format("a_gap15db.csv")),
        "refuse-repeated-gap": ([
            _with_out(["asymmetry", "baseline.txt", "--gaps-db", "5,5"], "a.json"),
            _with_out(["asymmetry", "baseline.txt", "--gaps-db", "5,5", "--force"], "a.json")],
            "gaps 5.0 and 5.0 dB would both write a_gap5db.csv", 3, 3),
        # two distinct gaps whose CSV names round to the same text
        "gap-collision": ([
            _with_out(["asymmetry", "baseline.txt", "--gaps-db", "10,10.0000001"], "a.json"),
            _with_out(["asymmetry", "baseline.txt", "--gaps-db", "10,10.0000001", "--force"],
                      "a.json")],
            "gaps 10.0 and 10.0000001 dB would both write a_gap10db.csv", 3, 3),
        # output paths that name no file, refused before any work even with --force
        "usage-sweep-out-empty": ([_with_out(["sweep", "baseline.txt", "--force"], "")],
                                  NO_FILE.format("")),
        "usage-sweep-out-dot": ([_with_out(["sweep", "baseline.txt", "--force"], ".")],
                                NO_FILE.format(".")),
        "usage-sweep-out-root": ([_with_out(["sweep", "baseline.txt", "--force"], "/")],
                                 NO_FILE.format("/")),
        "usage-asymmetry-out-empty": ([_with_out(["asymmetry", "baseline.txt"], "")],
                                      NO_FILE.format("")),
        "rerun-outputs-empty": ([_with_out(["sweep", "baseline.txt"], "s.csv"),
                                 ("edit", "s.csv.manifest.json", "m.json", {"outputs": [""]}),
                                 ["rerun", "m.json", "--force"]], NO_FILE.format(""), 0, 3),
        "rerun-outputs-dot": ([_with_out(["sweep", "baseline.txt"], "s.csv"),
                               ("edit", "s.csv.manifest.json", "m.json", {"outputs": ["."]}),
                               ["rerun", "m.json", "--force"]], NO_FILE.format("."), 0, 3),
        "rerun-out-empty": ([_with_out(["sweep", "baseline.txt"], "s.csv"),
                             ["rerun", "s.csv.manifest.json", "--out", "", "--force"]],
                            NO_FILE.format(""), 0, 3),
    }.items()]
    cases += [Case(name, [("write", file, text), _with_out([argv[0], file, *argv[1:]], out)],
                   (3,), f"error: {message}")
              for name, (file, text, argv, out, message) in SCENARIO_FILES.items()]
    # delay bounds whose denominators are subnormal (1e-150) or zero (1e-160)
    for bandwidth in ("1e-160", "1e-150"):
        for command, out in (("sweep", "s.csv"), ("starpoints", "p.csv")):
            cases.append(Case(f"{command}-bandwidth-{bandwidth}", [
                ("write", "tiny.txt", f"bandwidth_hz={bandwidth}\n"),
                _with_out([command, "tiny.txt"], out)]))
    # SNRs echo TW / sigma_r^2 of 1e383 and 1e-327, past the float range; at
    # P = 1e-10 mW the weak user carries no more than about 5e-10 bits/s/Hz
    for name, text, r02 in (
            ("overflow", "total_power_mw=1e200\nsigma_r_sq=1e-200\nbandwidth_hz=1e-100\n",
             "0.7"),
            ("underflow", "total_power_mw=1e-10\nsigma_r_sq=1e300\nbandwidth_hz=1e150\n",
             "1e-12")):
        cases.append(Case(f"sweep-snr-{name}", [
            ("write", "snr.txt", text),
            _with_out(["sweep", "snr.txt", "--r02", r02], "s.csv")]))
    cases += [Case(f"help-{command}", [[command, "--help"]]) for command in COMMANDS]
    for name, (argv, out, *failed) in BASE.items():
        manifest = f"{out}.manifest.json"
        # rerun without --force refuses to overwrite the outputs
        base, replay = ((2,), (2, 2, 3, 2)) if failed else ((), ())
        cases.append(Case(f"base-{name}", [_with_out(argv, out)], base, *failed))
        cases.append(Case(f"replay-{name}", [_with_out(argv, out),
                                             ["rerun", manifest, "--out", f"replay/{out}"],
                                             ["rerun", manifest],
                                             ["rerun", manifest, "--force"]], replay, *failed))
    for name, (base, changes, message) in EDITED.items():
        argv, out = BASE[base]
        cases.append(Case(f"edited-{name}", [
            _with_out(argv, out), ("edit", f"{out}.manifest.json", "m.json", changes),
            ["rerun", "m.json", "--out", f"r/{out}"]],
            *([(0, 3), f"error: {message}"] if message else [])))
    cases += [Case(f"usage-{name}", [_with_out(argv, "out")], (3,), f"error: {message}")
              for name, (argv, message) in USAGE.items()]
    cases += [Case(f"infeasible-{name}", [_with_out(argv, out)], (2,), f"error: {message}")
              for name, (argv, out, message) in INFEASIBLE.items()]
    cases += [Case(f"refuse-existing-{name}", [("write", out, "keep\n"), _with_out(argv, out)],
                   (3,), f"error: {OVERWRITE.format(out)}")
              for name, (argv, out) in EXISTING_OUTPUT.items()]
    for name, (argv, out, *noisier) in STUDY.items():
        for stem, refusal in (("noisy", [3, NOISY]), ("noisier", noisier)):
            cases.append(Case(f"{stem}-{name}", [
                _with_out([argv[0], f"{stem}.txt", *argv[1:]], out)],
                *([tuple(refusal[:1]), f"error: {refusal[1]}"] if refusal else [])))
    cases.append(Case("noisy-sweep-rerun", [
        _with_out(["sweep", "noisy.txt"], "s.csv"),
        ["rerun", "s.csv.manifest.json", "--out", "r/s.csv"]],
        (3, 3), f"error: {NO_MANIFEST.format('s.csv.manifest.json')}"))
    cases.append(Case("noisier-sweep-rerun", [
        _with_out(["sweep", "noisier.txt"], "s.csv"),
        ["rerun", "s.csv.manifest.json", "--out", "r/s.csv"]]))
    return cases


def prepare(src: Path, case_dir: Path) -> None:
    """Give a case directory the baseline scenario and the SCENARIOS files."""
    shutil.copyfile(src / "scenarios" / "baseline.txt", case_dir / "baseline.txt")
    for name, text in SCENARIOS.items():
        (case_dir / name).write_text(text, encoding="utf-8")


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


def run_steps(case_dir: Path, steps: list,
              command: Callable[[list[str]], tuple[int, str, str]]) -> list:
    """Run steps in case_dir: write and edit files, and hand each argv to
    command, whose (exit code, stdout, stderr) come back one per argv."""
    records = []
    for step in steps:
        if isinstance(step, tuple) and step[0] == "write":
            data = step[2]
            (case_dir / step[1]).write_bytes(data if isinstance(data, bytes) else data.encode())
        elif isinstance(step, tuple) and step[0] == "edit":
            _edit(case_dir, *step[1:])
        else:
            records.append(command(step))
    return records


def moved(case: Case, codes: list[int], stderr: str) -> str:
    """How a run (every exit code, the last command's stderr) differs from its
    catalogue entry, or "" if it does not."""
    last = (stderr.splitlines() or [""])[-1]
    same = (last.startswith(case.line) if case.line.startswith("radcom")
            else stderr == case.line + "\n")
    if tuple(codes) == case.codes and same or not case.codes and codes[-1] not in (2, 3):
        return ""
    return (f"exit codes {tuple(codes)} and last stderr line {last!r}; "
            f"the catalogue holds {case.codes} and {case.line!r}")


def run_case(src: Path, case_dir: Path, case: Case) -> list[str]:
    """Run one case as subprocesses and record it; list what went wrong: a
    command that exited 1 or wrote a traceback or a warning, or a run that
    differs from the catalogue."""
    case_dir.mkdir(parents=True)
    prepare(src, case_dir)
    # A fixed width keeps argparse's --help layout independent of the terminal.
    env = {**os.environ, "PYTHONPATH": str(src / "src"), "COLUMNS": "80"}

    def command(argv: list[str]) -> tuple[int, str, str]:
        proc = subprocess.run([sys.executable, "-m", "radcom.cli", *argv], cwd=case_dir,
                              env=env, capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout, proc.stderr

    records = run_steps(case_dir, case.steps, command)
    headers = ["$ radcom " + " ".join(repr(a) if not a or " " in a else a for a in step)
               for step in case.steps if isinstance(step, list)]
    codes = [code for code, _, _ in records]
    (case_dir / "rc").write_text("".join(f"{code}\n" for code in codes), encoding="utf-8")
    for i, name in ((1, "stdout"), (2, "stderr")):
        (case_dir / name).write_text("".join(f"{header}\n{record[i]}" for header, record
                                             in zip(headers, records)), encoding="utf-8")
    problems = [] if not any(code == 1 or "Traceback" in err or "Warning" in err
                             for code, _, err in records) else ["crashed or warned"]
    difference = moved(case, codes, records[-1][2])
    return problems + [f"moved from its catalogue entry ({difference})"] * bool(difference)


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
    cases = catalogue()
    problems = [f"{problem}: {case.name}" for case in cases
                for problem in run_case(src, out / case.name, case)]
    print(f"{len(cases)} cases -> {out}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
