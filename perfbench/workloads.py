"""Workloads of the radcom benchmark: seeded inputs, CLI operations, output checks.

Every input the program sees is generated here from the workload seed:
scenario files and command-line arguments.  Each operation carries the exit
code it must return and a check of what it wrote, so a change that speeds
the program up but breaks its results shows as a failed operation.

Expected row counts come from the benchmark's own copy of the feasibility
test (``kappa * h2 >= need`` at each grid point), evaluated with the same
floating-point expressions as the program so that boundary points agree.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("closed-form-dense", "mc-fleet")

GRID_DENSE = "0.01:0.99:20000"
GRID_DEFAULT = "0.01:0.99:200"   # the CLI's default grid
WAVEFORMS = ("linear", "parabolic")
SWEEP_HEADER = ("ar_sq,a1_sq,a2_sq,r1,r2,r_sum,sigma_eps_sq,"
                "sigma_eps_sq_norm,log10_norm,fairness")
ROW_COMMANDS = ("sweep", "fairness", "asymmetry")

QOS_REL_TOL = 1e-9        # r2 >= r02 * (1 - QOS_REL_TOL)
POWER_ABS_TOL = 1e-12     # a1_sq + a2_sq + ar_sq <= 1 + POWER_ABS_TOL
MC_EFFICIENCY_BAND = (0.8, 3.0)
MC_MIN_SNR_DB = 20.0
MC_TW = 1000.0
MC_SMALL_TW = 100.0
# Post-integration SNR of the radar-only Monte Carlo cases.  Below about
# 20 dB the matched filter leaves its asymptotic region: at TW = 250 and
# 14 dB the program's 10 dB guard passes, yet threshold-region outliers
# drove the efficiency to several thousand.
MC_SNR_DB = (25.0, 30.0)

Check = Callable[[Path, str, dict], list]


@dataclass
class Op:
    """One CLI invocation: its arguments, expected exit code and output check.

    ``check(pass_dir, stdout, written)`` returns a list of problems; ``written``
    maps each file the invocation created or changed to its size in bytes.
    """

    args: list[str]
    check: Check
    expect_rc: int = 0
    replay: bool = False      # runs in the pass's replay directory
    points: int = 0           # closed-form points written (tradeoff rows, star points)
    trials: int = 0           # Monte Carlo trials

    @property
    def command(self) -> str:
        return self.args[0]


@dataclass
class Workload:
    ops: list[Op]
    # One-operation side measurements for a throughput metric that the
    # workload's own operations never exercise; they feed only that metric.
    probes: list[Op] = field(default_factory=list)
    region_probe: list[str] = field(default_factory=list)


# ---------------------------------------------------------------- inputs

def regime_scenario(rng: random.Random) -> dict:
    """Scenario in the regime the package documents (see tests/conftest.py).

    Strong user 2-25 dB above the weak user, the strong user's noise no
    higher than the weak user's, transmit power within +/-5 dB of 0 dBm.
    """
    h1 = 10.0 ** rng.uniform(-10.0, -7.0)
    sigma2 = 10.0 ** rng.uniform(-11.5, -9.5)
    return {
        "h1_gain": h1,
        "h2_gain": h1 * 10.0 ** (-rng.uniform(2.0, 25.0) / 10.0),
        "sigma1_sq": sigma2 * 10.0 ** (-rng.uniform(0.0, 1.0)),
        "sigma2_sq": sigma2,
        "sigma_r_sq": 10.0 ** rng.uniform(-12.0, -10.0),
        "eta1": rng.uniform(0.05, 1.0),
        "eta2": rng.uniform(0.05, 1.0),
        "total_power_mw": 10.0 ** rng.uniform(-0.5, 0.5),
    }


def boosted_scenario(rng: random.Random, tw: float, snr_db: float) -> dict:
    """Regime scenario whose radar noise gives target 1 the wanted SNR at ar_sq = 1."""
    sc = regime_scenario(rng)
    sc["time_bandwidth"] = tw
    sc["sigma_r_sq"] = (sc["eta1"] ** 2 * sc["h1_gain"] ** 2 * sc["total_power_mw"]
                        * tw / 10.0 ** (snr_db / 10.0))
    return sc


class Inputs:
    """Writes generated scenario files into one directory."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.directory.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def write(self, fields_or_text: dict | str) -> str:
        self.count += 1
        path = self.directory / f"scenario{self.count}.txt"
        if isinstance(fields_or_text, dict):
            text = "".join(f"{k}={v!r}\n" for k, v in fields_or_text.items())
        else:
            text = fields_or_text
        path.write_text(text, encoding="utf-8")
        return str(path)


def _grid(text: str) -> np.ndarray:
    lo, hi, count = text.split(":")
    return np.linspace(float(lo), float(hi), int(count))


def _need(sc: dict, r02: float) -> float:
    return sc["sigma2_sq"] / sc["total_power_mw"] * (2.0 ** r02 - 1.0)


def feasible_rows(sc: dict, r02: float, grid: str, h2: float | None = None) -> int:
    """Grid points before the first one where the weak user's QoS is unreachable."""
    h2 = sc["h2_gain"] if h2 is None else h2
    need = _need(sc, r02)
    rows = 0
    for ar_sq in _grid(grid):
        if (1.0 - float(ar_sq)) * h2 < need:
            break
        rows += 1
    return rows


def r02_for_onset(sc: dict, onset: float, h2: float | None = None) -> str:
    """Weak-user QoS (as CLI text) whose infeasibility onset sits near ``onset``."""
    h2 = sc["h2_gain"] if h2 is None else h2
    snr2 = h2 * sc["total_power_mw"] / sc["sigma2_sq"]
    return f"{math.log2(1.0 + (1.0 - onset) * snr2):.6g}"


def lowered_h2(sc: dict, gap_db: float) -> float:
    """The weak user's gain ``asymmetry`` uses for one gap."""
    return sc["h1_gain"] * 10.0 ** (-gap_db / 10.0)


# ---------------------------------------------------------------- checks

def _half_ulp(cell: str) -> float:
    """Half a unit in the last place of a cell printed with 9 significant digits."""
    return 0.5 * 10.0 ** (int(cell.rsplit("e", 1)[1]) - 8)


def _read_csv(path: Path) -> tuple[str, list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return (lines[0] if lines else ""), [line.split(",") for line in lines[1:]]


def _matches(cell: str, value: float) -> bool:
    """The printed cell stands for ``value``, to its 9 significant digits."""
    return abs(float(cell) - value) <= _half_ulp(cell)


def check_tradeoff_rows(path: Path, r02: float, grid: str, expected: int) -> list:
    """Sweep-format CSV: row count, grid values, weak-user QoS and power budget.

    A cell printed with 9 significant digits stands for any value within half
    a unit of its last digit; a bound holds when some value in that interval
    meets it.
    """
    if not path.is_file():
        return [f"{path.name}: missing"]
    header, rows = _read_csv(path)
    if header != SWEEP_HEADER:
        return [f"{path.name}: header {header!r}"]
    problems = []
    if len(rows) != expected:
        problems.append(f"{path.name}: {len(rows)} rows, expected {expected}")
    grid_values = _grid(grid)
    floor = r02 * (1.0 - QOS_REL_TOL)
    for i, cells in enumerate(rows[:expected]):
        ar, a1, a2, r2 = cells[0], cells[1], cells[2], cells[4]
        if not _matches(ar, float(grid_values[i])):
            problems.append(f"{path.name} row {i}: ar_sq {ar} off grid")
        if float(r2) + _half_ulp(r2) < floor:
            problems.append(f"{path.name} row {i}: r2 {r2} < r02 {r02!r}")
        power = (float(a1) + float(a2) + float(ar)
                 - _half_ulp(a1) - _half_ulp(a2) - _half_ulp(ar))
        if power > 1.0 + POWER_ABS_TOL:
            problems.append(f"{path.name} row {i}: power sum {power!r} > 1")
        if len(problems) > 5:
            break
    return problems


def _onset_problems(tail: float | None, rows: int, grid: str, rel: float) -> list:
    """The reported onset must lie between the last kept and first dropped point."""
    values = _grid(grid)
    if rows == len(values):
        return [] if tail is None else [f"onset {tail!r} reported for a full grid"]
    if tail is None:
        return [f"no onset reported after {rows} of {len(values)} rows"]
    lo = values[rows - 1] if rows else 0.0
    if not lo * (1.0 - rel) <= tail <= values[rows] * (1.0 + rel):
        return [f"onset {tail!r} not in [{lo!r}, {values[rows]!r}]"]
    return []


def _no_writes(written: dict) -> list:
    return [f"refused command wrote {sorted(written)}"] if written else []


# ---------------------------------------------------------------- operations

def sweep_op(inputs: Inputs, sc: dict, r02: str, waveform: str, grid: str,
             out: str) -> Op:
    rows = feasible_rows(sc, float(r02), grid)

    def check(pass_dir: Path, stdout: str, written: dict) -> list:
        problems = check_tradeoff_rows(pass_dir / "run" / out, float(r02), grid, rows)
        tail = None
        if "(infeasible for ar_sq > " in stdout:
            tail = float(stdout.split("(infeasible for ar_sq > ", 1)[1].split(")")[0])
        return problems + _onset_problems(tail, rows, grid, 1e-5)

    return Op(["sweep", inputs.write(sc), "--r02", r02, "--waveform", waveform,
               "--grid", grid, "--out", out], check, points=rows)


def fairness_op(inputs: Inputs, sc: dict, r02s: list[str], waveform: str,
                grid: str, out: str) -> Op:
    expected = [feasible_rows(sc, float(r02), grid) for r02 in r02s]
    grid_values = _grid(grid)

    def check(pass_dir: Path, stdout: str, written: dict) -> list:
        header, rows = _read_csv(pass_dir / "run" / out)
        if header != "r02,ar_sq,r_sum,fairness":
            return [f"{out}: header {header!r}"]
        if len(rows) != sum(expected):
            return [f"{out}: {len(rows)} rows, expected {sum(expected)}"]
        problems = []
        start = 0
        for r02, count in zip(r02s, expected):
            for i, cells in enumerate(rows[start:start + count]):
                if not (_matches(cells[0], float(r02))
                        and _matches(cells[1], float(grid_values[i]))
                        and 0.0 < float(cells[3]) <= 1.0 + _half_ulp(cells[3])):
                    problems.append(f"{out}: bad row {start + i}: {cells}")
                    break
            start += count
        return problems

    return Op(["fairness", inputs.write(sc), "--r02-list", ",".join(r02s),
               "--waveform", waveform, "--grid", grid, "--out", out],
              check, points=sum(expected))


def asymmetry_op(inputs: Inputs, sc: dict, r02: str, gaps: list[str],
                 waveform: str, grid: str, out: str) -> Op:
    expected = [feasible_rows(sc, float(r02), grid, lowered_h2(sc, float(g)))
                for g in gaps]

    def check(pass_dir: Path, stdout: str, written: dict) -> list:
        run_dir = pass_dir / "run"
        curves = json.loads((run_dir / out).read_text(encoding="utf-8"))["curves"]
        if len(curves) != len(gaps):
            return [f"{out}: {len(curves)} curves, expected {len(gaps)}"]
        problems = []
        for curve, gap, rows in zip(curves, gaps, expected):
            if curve["feasible_points"] != rows:
                problems.append(f"{out} gap {gap}: {curve['feasible_points']} "
                                f"points, expected {rows}")
            problems += _onset_problems(curve["infeasible_tail_start"], rows, grid, 1e-12)
            problems += check_tradeoff_rows(run_dir / curve["csv"], float(r02), grid, rows)
        return problems

    return Op(["asymmetry", inputs.write(sc), "--r02", r02, "--gaps-db", ",".join(gaps),
               "--waveform", waveform, "--grid", grid, "--out", out],
              check, points=sum(expected))


def starpoints_op(inputs: Inputs, sc: dict, pairs: list[tuple[str, str]],
                  waveform: str, out: str) -> Op:
    def check(pass_dir: Path, stdout: str, written: dict) -> list:
        header, rows = _read_csv(pass_dir / "run" / out)
        if header != "r01,r02,ar_sq,r_sum,sigma_eps_sq_norm" or len(rows) != len(pairs):
            return [f"{out}: header {header!r} with {len(rows)} rows"]
        problems = []
        for (r01, r02), (c01, c02, ar, r_sum, norm) in zip(pairs, rows):
            qos_sum = (float(r01) + float(r02)) * (1.0 - QOS_REL_TOL)
            if not (_matches(c01, float(r01)) and _matches(c02, float(r02))
                    and 0.0 < float(ar) < 1.0
                    and float(r_sum) + _half_ulp(r_sum) >= qos_sum
                    and abs(float(norm) * float(ar) - 1.0) <= 1e-7):
                problems.append(f"{out}: bad star point {[c01, c02, ar, r_sum, norm]}")
        return problems

    args = ["starpoints", inputs.write(sc), "--waveform", waveform, "--out", out]
    for r01, r02 in pairs:
        args += ["--qos", f"{r01}:{r02}"]
    return Op(args, check, points=len(pairs))


def waveform_validate_op(waveform: str, tws: list[str], out: str) -> Op:
    def check(pass_dir: Path, stdout: str, written: dict) -> list:
        _, rows = _read_csv(pass_dir / "run" / out)
        return [] if len(rows) == len(tws) else [f"{out}: {len(rows)} rows"]

    return Op(["waveform-validate", "--waveform", waveform, "--tw-list", ",".join(tws),
               "--out", out], check)


def mc_op(inputs: Inputs, sc: dict, delay: str, trials: int, seed: int,
          out: str, alloc: str | None = None) -> Op:
    def check(pass_dir: Path, stdout: str, written: dict) -> list:
        report = json.loads((pass_dir / "run" / out).read_text(encoding="utf-8"))
        lo, hi = MC_EFFICIENCY_BAND
        problems = []
        if report["trials"] != trials:
            problems.append(f"{out}: {report['trials']} trials, expected {trials}")
        if not lo <= report["efficiency"] <= hi:
            problems.append(f"{out}: efficiency {report['efficiency']!r} "
                            f"outside [{lo}, {hi}]")
        if report["snr_post_db"] < MC_MIN_SNR_DB:
            problems.append(f"{out}: SNR {report['snr_post_db']!r} dB < {MC_MIN_SNR_DB}")
        return problems

    args = ["mc-delay", inputs.write(sc), "--delay", delay, "--trials", str(trials),
            "--seed", str(seed), "--out", out]
    if alloc is not None:
        args += ["--alloc", alloc]
    return Op(args, check, trials=trials)


def rerun_op(original: Op) -> Op:
    """Replay the original's manifest in the replay directory; outputs must match."""
    out = original.args[original.args.index("--out") + 1]
    manifest = f"{out}.manifest.json"

    def check(pass_dir: Path, stdout: str, written: dict) -> list:
        run_dir, replay_dir = pass_dir / "run", pass_dir / "replay"
        listed = json.loads((run_dir / manifest).read_text(encoding="utf-8"))["outputs"]
        problems = []
        for name in [*listed, manifest]:
            replayed = replay_dir / name
            if not replayed.is_file() or replayed.read_bytes() != (run_dir / name).read_bytes():
                problems.append(f"rerun of {out}: {name} differs")
        return problems

    return Op(["rerun", f"../run/{manifest}"], check, replay=True,
              points=original.points, trials=original.trials)


def refusal_op(args: list[str], expect_rc: int) -> Op:
    return Op(args, lambda pass_dir, stdout, written: _no_writes(written),
              expect_rc=expect_rc)


# ---------------------------------------------------------------- workloads

def closed_form_dense(rng: random.Random, inputs: Inputs) -> Workload:
    """Closed forms and CSV formatting at ROADMAP item 4's 20 000-point size.

    Onsets are fixed shares of the grid, so every seed writes the same number
    of rows (about 125 000 per pass) and run times compare across seeds.  The
    two QoS levels of each command put its onsets at 0.80 and 0.78: the four
    sweeps then take nearly equal time, so the median invocation falls among
    them and the p90 among the two-curve commands.
    """
    onsets = (0.80, 0.78)
    a, b, c = (regime_scenario(rng) for _ in range(3))
    ops = [sweep_op(inputs, a, r02_for_onset(a, onset), waveform, GRID_DENSE,
                    f"sweep_{waveform}_{onset}.csv")
           for waveform in WAVEFORMS for onset in onsets]
    ops.append(fairness_op(inputs, b, [r02_for_onset(b, onset) for onset in onsets],
                           rng.choice(WAVEFORMS), GRID_DENSE, "fairness.csv"))
    gap = rng.uniform(2.0, 20.0)
    gaps = [f"{gap + 10.0 * math.log10((1.0 - onset) / (1.0 - onsets[0])):.4f}"
            for onset in onsets]
    r02 = r02_for_onset(c, onsets[0], lowered_h2(c, float(gaps[0])))
    ops.append(asymmetry_op(inputs, c, r02, gaps, rng.choice(WAVEFORMS), GRID_DENSE,
                            "asym.json"))
    small = boosted_scenario(rng, MC_SMALL_TW, rng.uniform(*MC_SNR_DB))
    seed = rng.randrange(2 ** 31)
    probes = [mc_op(inputs, small, "1e-6", 1500, seed, f"probe_mc{i}.json") for i in range(2)]
    return Workload(ops, probes, _region_probe(rng, inputs))


def mc_fleet(rng: random.Random, inputs: Inputs) -> Workload:
    """Matched-filter Monte Carlo at TW = 1000 plus a fleet of small CLI calls.

    The Monte Carlo cases (RNG, FFT correlation, peak refinement) take about
    three quarters of a pass; default-size calls of the other five commands,
    their reruns and three refusals (interpreter start, imports, argparse,
    manifests and writes) take the rest.  The closed forms do almost no work.
    """
    ops = _fleet_ops(rng, inputs) + _mc_ops(rng, inputs)
    ops.append(rerun_op(ops[-1]))
    return Workload(ops, [], _region_probe(rng, inputs))


def _mc_ops(rng: random.Random, inputs: Inputs) -> list[Op]:
    """Three mc-delay cases at TW = 1000.

    The two delays pad the correlation FFT to 32 768 points for 9 014
    observed samples (ratio 3.6) and to 16 384 for 8 328 (ratio 2.0).  The
    third case carries communications interference at an interference-to-
    noise ratio of 0.2-0.4, so its efficiency sits near 1.3, inside the band.
    """
    ops = []
    for delay in ("6.2832e-6", "2e-6"):
        sc = boosted_scenario(rng, MC_TW, rng.uniform(*MC_SNR_DB))
        ops.append(mc_op(inputs, sc, delay, 1000, rng.randrange(2 ** 31),
                         f"mc_{delay}.json"))
    comm = round(rng.uniform(0.3, 0.5), 3)
    a1 = round(comm * rng.uniform(0.2, 0.4), 3)
    a2 = round(comm - a1, 3)
    alloc = f"{a1}:{a2}:{round(1.0 - a1 - a2, 3)}"
    # Interference over the noise of one sample: snr * comm / (16 * TW).
    snr = rng.uniform(0.2, 0.4) * 16.0 * MC_TW / comm
    sc = boosted_scenario(rng, MC_TW, 10.0 * math.log10(snr))
    ops.append(mc_op(inputs, sc, "2e-6", 600, rng.randrange(2 ** 31),
                     "mc_interference.json", alloc))
    return ops


def _fleet_ops(rng: random.Random, inputs: Inputs) -> list[Op]:
    """Default-size calls of five commands, their reruns and three refusals.

    Onsets are fixed shares of the grid (the first near the baseline's 161
    rows), so the rows written, and with them points_per_s, do not depend on
    the seed.
    """
    sc = regime_scenario(rng)
    path = inputs.write(sc)
    onsets = (0.80, 0.70, 0.60)

    sweep = sweep_op(inputs, sc, r02_for_onset(sc, onsets[0]), rng.choice(WAVEFORMS),
                     GRID_DEFAULT, "sweep.csv")
    pairs = []
    for _ in range(3):
        a1_min = rng.uniform(0.02, 0.3)
        r01 = math.log2(1.0 + a1_min * sc["h1_gain"] * sc["total_power_mw"]
                        / sc["sigma1_sq"])
        floor = a1_min + sc["sigma2_sq"] / (sc["total_power_mw"] * sc["h2_gain"])
        r02 = math.log2(1.0 + rng.uniform(0.05, 0.6) / floor)
        pairs.append((f"{r01:.6g}", f"{r02:.6g}"))
    starpoints = starpoints_op(inputs, sc, pairs, rng.choice(WAVEFORMS), "stars.csv")
    fairness = fairness_op(inputs, sc, [r02_for_onset(sc, o) for o in onsets],
                           rng.choice(WAVEFORMS), GRID_DEFAULT, "fairness.csv")
    gap = rng.uniform(1.0, 10.0)
    gaps = [f"{gap + 10.0 * math.log10((1.0 - o) / (1.0 - onsets[0])):.4f}"
            for o in onsets]
    asymmetry = asymmetry_op(inputs, sc, r02_for_onset(sc, onsets[0], lowered_h2(sc, gap)),
                             gaps, rng.choice(WAVEFORMS), GRID_DEFAULT, "asym.json")
    # At the default 16x oversampling the moment check needs TW >= 100.
    tws = rng.sample(["100", "250", "500", "1000", "2000"], 2)
    validate = waveform_validate_op(rng.choice(WAVEFORMS), tws, "moments.csv")

    ops = []
    for op in (sweep, starpoints, fairness, asymmetry, validate):
        ops += [op, rerun_op(op)]
    malformed = rng.choice(["h1_gain=oops\n", "h3_gain=1e-9\n", "eta1 0.3\n",
                            "h1_gain=1e-9\nh1_gain_db=-90\n",
                            "h1_gain=1e-10\nh2_gain=1e-9\n"])
    return ops + [
        refusal_op(["sweep", path, "--r02", r02_for_onset(sc, -0.5),
                    "--out", "infeasible.csv"], 2),
        refusal_op(["sweep", inputs.write(malformed), "--out", "malformed.csv"], 3),
        refusal_op(sweep.args, 3),   # sweep.csv exists and --force is absent
    ]


def _region_probe(rng: random.Random, inputs: Inputs) -> list[str]:
    """Arguments of the traced sample_feasible_region probe: scenario, n, seed."""
    return [inputs.write(regime_scenario(rng)), "2000", str(rng.randrange(2 ** 31))]


def build(name: str, seed: int, directory: Path) -> Workload:
    """The workload's operations, with every input generated from ``seed``."""
    builders = {"closed-form-dense": closed_form_dense, "mc-fleet": mc_fleet}
    return builders[name](random.Random(f"{name}:{seed}"), Inputs(directory))
