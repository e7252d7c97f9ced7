"""Benchmark of the radcom command line, end to end and per layer.

Usage (from the root of a source checkout; nothing needs installing):

    python3 perfbench/run.py --workload closed-form-dense --seed 1 --seconds 60 --trace 0

One single-threaded client runs the workload as a closed loop: each CLI
command starts as a child process (``python -m radcom.cli`` with
``PYTHONPATH=src``) only after the previous one has exited.  A pass is one
run through the workload's operations; passes repeat on the same generated
inputs until ``--seconds`` is used up.  Each operation's time is its mean
over the passes (the highest and lowest tenth left out), and run-level
timings are built from those.
Every output is checked; a failed check or an unexpected exit code counts
as a failed operation.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes whose children run ``perfbench/traced_cli.py``,
and prints the per-layer metrics plus the tracing overhead.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# Without these numpy's OpenBLAS pool spins threads in every child, which
# inflates CPU time and makes wall time depend on what else the machine runs.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402

import workloads  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"
SETUP_PER_PASS = 2
CHILD_TIMEOUT_S = 150.0
MAX_REPORTED_FAILURES = 20

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "cmd_p50_s": "s", "cmd_p90_s": "s",
    "points_per_s": "rows/s", "mc_trials_per_s": "trials/s", "peak_rss_mb": "MiB",
}
SPAN_CALLS = (
    "scenario.load_scenario", "optimizer.tradeoff_sweep",
    "optimizer.optimal_allocation_for_sumrate", "optimizer.star_point",
    "comms.rate_report", "comms.jain_fairness", "radar.total_estimation_variance",
    "radar.crlb_delay", "waveforms.mc_delay_estimation", "waveforms.fft",
    "waveforms.synthesize",
)
SPAN_SELF = (
    "scenario.load_scenario", "optimizer.tradeoff_sweep",
    "optimizer.optimal_allocation_for_sumrate", "optimizer.star_point",
    "comms.rate_report", "comms.jain_fairness", "radar.total_estimation_variance",
    "waveforms.mc_delay_estimation", "waveforms.fft", "waveforms.rng",
    "waveforms.synthesize", "waveforms.numeric_rms_bandwidth_sq", "cli.main",
)
PER_LAYER = {
    **{f"{name}.calls": "count" for name in SPAN_CALLS},
    **{f"{name}.self_s": "s" for name in SPAN_SELF},
    "optimizer.optimal_allocation_for_sumrate.infeasible": "count",
    "optimizer.sample_feasible_region.us_per_sample": "us",
    "optimizer.sample_feasible_region.accept_ratio": "ratio",
    "radar.crlb_delay.calls_per_point": "count",
    "waveforms.mc_delay_estimation.ms_per_trial": "ms",
    "waveforms.fft.len_over_n_obs": "ratio",
    "waveforms.fft.bytes_computed": "B",
    "waveforms.rng.normals_drawn": "count",
    "cli.bytes_written": "B",
    "cli.files_written": "count",
    "cli.import_numpy_s": "s",
    "cli.import_radcom_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Pass:
    traced: bool
    op_walls: list = field(default_factory=list)   # per operation, then per probe
    op_cpus: list = field(default_factory=list)
    points: int = 0               # closed-form points written by the operations
    bytes_written: int = 0
    files_written: int = 0
    spans: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    imports: list = field(default_factory=list)
    region: dict = field(default_factory=dict)


class Runner:
    """Runs children one at a time, checks them and keeps the tallies."""

    def __init__(self, work: Path):
        self.work = work
        self.logs = work / "logs"
        self.logs.mkdir(parents=True)
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_mb = 0.0
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        """Stop the spawner, and with it any command still running."""
        self.spawner.terminate()
        self.spawner.communicate()

    def child(self, argv: list[str], cwd: Path) -> Child:
        """Run one child to completion through the spawner."""
        out_path, err_path = self.logs / "stdout", self.logs / "stderr"
        request = {"argv": argv, "cwd": str(cwd), "stdout": str(out_path),
                   "stderr": str(err_path), "timeout": CHILD_TIMEOUT_S}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        line = self.spawner.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner exited with code {self.spawner.wait()}")
        reply = json.loads(line)
        return Child(reply["rc"], reply["wall_s"], reply["cpu_s"], reply["maxrss_kb"] / 1024.0,
                     out_path.read_text(encoding="utf-8", errors="replace"),
                     err_path.read_text(encoding="utf-8", errors="replace"))

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems[:3])}")

    def setup_times(self, count: int) -> list[float]:
        """Wall times of ``count`` no-op ``--version`` invocations."""
        times = []
        for _ in range(count):
            child = self.child(cli_argv() + ["--version"], self.work)
            ok = child.rc == 0 and child.stdout.strip()
            self.record("--version", [] if ok else [f"exit {child.rc}: {child.stderr[-300:]}"])
            times.append(child.wall_s)
        return times

    def run_pass(self, wl: workloads.Workload, index: int, traced: bool) -> Pass:
        pass_dir = self.work / f"pass{index}"
        run_dir, replay_dir = pass_dir / "run", pass_dir / "replay"
        run_dir.mkdir(parents=True)
        replay_dir.mkdir()
        result = Pass(traced)
        ops = [(op, False) for op in wl.ops]
        if not traced:
            ops += [(op, True) for op in wl.probes]
        for i, (op, probe) in enumerate(ops):
            cwd = replay_dir if op.replay else run_dir
            trace_path = pass_dir / f"trace{i}.json"
            before = snapshot(cwd)
            child = self.child(cli_argv(trace_path if traced else None) + op.args, cwd)
            written = {name: size for name, size in snapshot(cwd).items()
                       if before.get(name) != size}
            problems = self.check(op, child, pass_dir, written)
            if traced and not probe:
                if trace_path.is_file():
                    merge_trace(result, trace_path)
                else:
                    problems.append("traced command wrote no trace")
            self.record(" ".join(op.args[:1] + op.args[2:]), problems)
            result.op_walls.append(child.wall_s)
            result.op_cpus.append(child.cpu_s)
            if probe:
                continue
            result.points += op.points
            result.bytes_written += sum(size for size, _ in written.values())
            result.files_written += len(written)
            if not traced:
                self.peak_rss_mb = max(self.peak_rss_mb, child.rss_mb)
        if traced and wl.region_probe:
            trace_path = pass_dir / "region.json"
            child = self.child(cli_argv(trace_path) + ["--region-probe", *wl.region_probe],
                               self.work)
            problems = [] if child.rc == 0 else [f"exit {child.rc}: {child.stderr[-300:]}"]
            if not problems:
                result.region = json.loads(trace_path.read_text(encoding="utf-8"))
                kept = result.region["result"]
                if kept["kept"] != kept["requested"]:
                    problems.append(f"kept {kept['kept']} of {kept['requested']}")
            self.record("region probe", problems)
        shutil.rmtree(pass_dir)
        return result

    @staticmethod
    def check(op: workloads.Op, child: Child, pass_dir: Path, written: dict) -> list[str]:
        if child.rc != op.expect_rc:
            return [f"exit {child.rc}, expected {op.expect_rc}: {child.stderr[-300:]}"]
        try:
            return op.check(pass_dir, child.stdout, written)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
            return [f"unreadable output: {err!r}"]


def cli_argv(trace_path: Path | None = None) -> list[str]:
    if trace_path is None:
        return [sys.executable, "-m", "radcom.cli"]
    return [sys.executable, str(HERE / "traced_cli.py"), str(trace_path)]


def snapshot(directory: Path) -> dict:
    """(size, mtime) of every file under ``directory``, keyed by relative path."""
    out = {}
    for path in directory.rglob("*"):
        if path.is_file():
            stat = path.stat()
            out[str(path.relative_to(directory))] = (stat.st_size, stat.st_mtime_ns)
    return out


def merge_trace(result: Pass, trace_path: Path) -> None:
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    for name, record in trace["spans"].items():
        total = result.spans.setdefault(name, {"calls": 0, "total_s": 0.0,
                                               "self_s": 0.0, "parents": {}})
        for key in ("calls", "total_s", "self_s"):
            total[key] += record[key]
        for parent, calls in record["parents"].items():
            total["parents"][parent] = total["parents"].get(parent, 0) + calls
    for key, value in trace["counters"].items():
        result.counters[key] = result.counters.get(key, 0) + value
    result.imports.append((trace["import_numpy_s"], trace["import_radcom_s"]))


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def median(values) -> float:
    """Median, or 0 when a failed run left no samples."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(p: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass (totals over its children)."""
    def span(name: str) -> dict:
        return p.spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "parents": {}})

    m = {f"{name}.calls": span(name)["calls"] for name in SPAN_CALLS}
    m.update({f"{name}.self_s": span(name)["self_s"] for name in SPAN_SELF})
    c = p.counters
    m["optimizer.optimal_allocation_for_sumrate.infeasible"] = c.get("optimizer.infeasible", 0)
    region = p.region.get("spans", {}).get("optimizer.sample_feasible_region")
    counters = p.region.get("counters", {})
    requested = p.region.get("result", {}).get("requested", 0)
    m["optimizer.sample_feasible_region.us_per_sample"] = (
        ratio(region["total_s"], requested) * 1e6 if region else 0.0)
    # Each draw is three uniforms (sorted spacings over the simplex).
    m["optimizer.sample_feasible_region.accept_ratio"] = ratio(
        3 * requested, counters.get("rng.random.values", 0))
    crlb = span("radar.crlb_delay")
    closed_form_calls = crlb["calls"] - crlb["parents"].get(
        "waveforms.mc_delay_estimation", 0)
    m["radar.crlb_delay.calls_per_point"] = ratio(closed_form_calls, p.points)
    m["waveforms.mc_delay_estimation.ms_per_trial"] = 1e3 * ratio(
        span("waveforms.mc_delay_estimation")["total_s"], c.get("mc.trials", 0))
    m["waveforms.fft.len_over_n_obs"] = ratio(c.get("fft.mc_len_over_input", 0),
                                              c.get("fft.mc_padded", 0))
    m["waveforms.fft.bytes_computed"] = c.get("fft.bytes", 0)
    m["waveforms.rng.normals_drawn"] = c.get("rng.standard_normal.values", 0)
    m["cli.bytes_written"] = p.bytes_written
    m["cli.files_written"] = p.files_written
    return m


def quantile(values: list[float], q: int) -> float:
    """The q-th decile boundary (q = 5: median, q = 9: p90), interpolated
    between the samples so it never lies outside them."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_ENV,
        "child": "python -m radcom.cli with PYTHONPATH=src",
    }


def trimmed_mean(values) -> float:
    """Mean without the highest and lowest tenth of the values."""
    values = sorted(values)
    cut = len(values) // 10
    return statistics.fmean(values[cut:len(values) - cut])


def op_means(passes: list[Pass], attr: str) -> list[float]:
    """Each operation's trimmed mean over the passes (operations run in the same order).

    On a shared host the CPU's speed drifts between regimes lasting seconds to
    minutes (up to 1.8x on a 2-CPU shared VM), and all timings move together.
    A median or a minimum over passes jumps with whichever regime held most of
    the run, or whether a fast one came at all; a mean moves in proportion to
    the share of the run each regime held.
    """
    return [trimmed_mean(column) for column in zip(*(getattr(p, attr) for p in passes))]


def throughput(wl: workloads.Workload, walls: list[float], commands: tuple, amount) -> float:
    """Work per second of mean wall time of the given commands.

    Taken from the workload's own operations, or from its probes when none of
    its operations run those commands.
    """
    chosen = [(i, op) for i, op in enumerate(wl.ops) if op.command in commands]
    if not chosen:
        chosen = [(i, op) for i, op in enumerate(wl.probes, start=len(wl.ops))
                  if op.command in commands]
    return ratio(sum(amount(op) for _, op in chosen), sum(walls[i] for i, _ in chosen))


def measure(args: argparse.Namespace, work: Path) -> tuple[Runner, dict, list]:
    wl = workloads.build(args.workload, args.seed, work / "inputs")
    runner = Runner(work)
    try:
        metrics, notes = run_passes(args, wl, runner)
    finally:
        runner.close()
    return runner, metrics, notes


def run_passes(args: argparse.Namespace, wl: workloads.Workload,
               runner: Runner) -> tuple[dict, list]:
    metrics: dict[str, float] = {}
    setup: list[float] = []
    passes: list[Pass] = []
    if not args.trace:
        runner.setup_times(1)   # warm-up: compiles bytecode, fills the file cache
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if not args.trace:
            # Spread over the run, so one disturbed moment does not set the median.
            setup += runner.setup_times(SETUP_PER_PASS)
        passes.append(runner.run_pass(wl, len(passes), traced))
        elapsed = time.perf_counter() - start
        per_pass = elapsed / len(passes)
        if elapsed + per_pass > args.seconds and (not args.trace or len(passes) >= 2):
            break
    plain = [p for p in passes if not p.traced]
    main_ops = len(wl.ops)
    walls = op_means(plain, "op_walls")
    if args.trace:
        traced_passes = [p for p in passes if p.traced]
        per_pass = [layer_metrics(p) for p in traced_passes]
        for name in per_pass[0]:
            metrics[name] = median(m[name] for m in per_pass)
        imports = [i for p in traced_passes for i in p.imports]
        metrics["cli.import_numpy_s"] = median(i[0] for i in imports)
        metrics["cli.import_radcom_s"] = median(i[1] for i in imports)
        metrics["trace.overhead_s"] = (sum(op_means(traced_passes, "op_walls"))
                                       - sum(walls[:main_ops]))
        notes = [f"per-layer: medians of {len(traced_passes)} traced passes; "
                 f"overhead against {len(plain)} untraced passes"]
        return metrics, notes
    metrics["setup_s"] = median(setup)
    metrics["wall_s"] = sum(walls[:main_ops])
    metrics["cpu_s"] = sum(op_means(plain, "op_cpus")[:main_ops])
    metrics["cmd_p50_s"] = quantile(walls[:main_ops], 5)
    metrics["cmd_p90_s"] = quantile(walls[:main_ops], 9)
    metrics["points_per_s"] = throughput(wl, walls, workloads.ROW_COMMANDS, lambda op: op.points)
    metrics["mc_trials_per_s"] = throughput(wl, walls, ("mc-delay",), lambda op: op.trials)
    metrics["peak_rss_mb"] = runner.peak_rss_mb
    notes = [f"setup_s: median of {len(setup)} --version runs",
             f"wall_s, cpu_s, points_per_s, mc_trials_per_s: {main_ops} operations, "
             f"each the trimmed mean of {len(plain)} passes",
             f"cmd_p50_s, cmd_p90_s: over the {main_ops} operations' trimmed means"]
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "radcom" / "cli.py").is_file():
        print(f"error: no radcom source under {ROOT / 'src'}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2

    # On SIGTERM, unwind so the spawner and its child stop and scratch files go.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = WORK_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner, metrics, notes = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    units = PER_LAYER if args.trace else END_TO_END
    failed = len(runner.failures)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    for note in notes:
        print("samples " + note)
    for name, unit in units.items():
        print(f"  {name:52s} {metrics[name]:.6g} {unit}")
    print(f"  {'fail_frac':52s} {ratio(failed, runner.attempted):.6g} ratio "
          f"({failed} of {runner.attempted} operations)")
    for failure in runner.failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
