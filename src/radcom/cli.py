"""Command-line front end emitting CSV/JSON datasets with manifest sidecars.

Every command resolves its inputs (scenario file, parameters, seed) into a
manifest written next to the outputs; ``radcom rerun <manifest>`` replays a
manifest and reproduces the data files byte for byte.

Each command is declared once in ``COMMANDS``: its options, its output
paths and a pure ``compute``.  The command line and ``rerun`` feed one
pipeline (check the params, claim the outputs, compute, write, report), so
a manifest's params pass exactly the checks the command line applies.

Parsing, ``--help``, ``--version`` and usage errors load no numeric module:
each param check and compute imports what it uses when it runs.

Exit codes: 0 success, 2 domain infeasibility, 3 usage or config error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable
from pathlib import Path

from . import __version__
from .errors import (MIN_OVERSAMPLING, InfeasibleError, RadcomError, ValidationError,
                     checked_number)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_USAGE = 3

DEFAULT_QOS_PAIRS = ((1.5, 0.7), (0.7, 0.7), (1.5, 1.5))
INSTFREQ_REL_TOL = 1e-6


def _json_content(payload: dict) -> Iterable[bytes]:
    yield (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _load_scenario_file(path: str):
    from .scenario import load_scenario
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ValidationError(f"cannot read scenario file {path}: {err}") from err
    return load_scenario(text)


def _manifest_path(out_path: Path) -> Path:
    return Path(str(out_path) + ".manifest.json")


def _write_outputs(command: str, cfg, params: dict,
                   files: dict[Path, Iterable[bytes]]) -> None:
    """Write the data files, then the manifest beside the first (primary) one."""
    from .scenario import scenario_report_fields
    manifest = {
        "command": command,
        "tool_version": __version__,
        "scenario": scenario_report_fields(cfg) if cfg is not None else None,
        "params": params,
        "outputs": [str(p) for p in files],
    }
    files = {**files, _manifest_path(next(iter(files))): _json_content(manifest)}
    # Every file streams to a temp file beside its target first; the targets
    # are replaced only once all of them are written, so a write that fails
    # or is interrupted (a refusal while a curve is evaluated included)
    # leaves no output, no temp file and no new directory behind.
    temps, made = {}, []
    try:
        for path, content in files.items():
            made += [d for d in reversed(path.parents) if not d.exists()]
            path.parent.mkdir(parents=True, exist_ok=True)
            temps[path] = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            with open(temps[path], "wb") as handle:
                handle.writelines(content)
        for path, temp in temps.items():
            os.replace(temp, path)
    except BaseException as err:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
        for directory in reversed(made):
            with contextlib.suppress(OSError):   # kept if something else now lives there
                directory.rmdir()
        if not isinstance(err, OSError):
            raise
        raise ValidationError(f"cannot write outputs: {err}") from err


# Param checks.  Each takes an option's command-line text or the value a
# manifest records, and returns the manifest value or raises ValidationError.

def _waveform(name) -> str:
    from .radar import WaveformKind
    try:
        return WaveformKind(name).value
    except ValueError:
        choices = ", ".join(k.value for k in WaveformKind)
        raise ValidationError(
            f"unknown waveform {name!r} (choices: {choices})") from None


def _grid(value) -> dict:
    """lo:hi:count text, or a manifest's grid, as {lo, hi, count}; default_grid checks it."""
    if isinstance(value, str):
        try:
            lo_s, hi_s, count_s = value.split(":")
            value = {"lo": float(lo_s), "hi": float(hi_s), "count": int(count_s)}
        except ValueError:
            raise ValidationError(
                f"grid must look like lo:hi:count, got {value!r}") from None
    if not isinstance(value, dict) or set(value) != {"lo", "hi", "count"}:
        raise ValidationError(f"grid must hold lo, hi and count, got {value!r}")
    for key, entry in value.items():
        checked_number(f"grid {key}", entry, integer=key == "count")
    return value


def _floats(what: str) -> Callable:
    """Check for a non-empty list of numbers, comma-separated on the command line."""
    def check(value) -> list[float]:
        text = isinstance(value, str)
        items = ([item.strip() for item in value.split(",") if item.strip()]
                 if text else value)
        if not items:
            raise ValidationError(f"empty {what} list")
        try:
            return [float(item if text else checked_number(what, item)) for item in items]
        except ValueError:
            raise ValidationError(f"bad {what} list {value!r}") from None
    return check


def _qos(value) -> list[list[float]]:
    """QoS pairs: repeated r01:r02 texts (none given: the defaults) or a manifest's."""
    if value is None:
        return [list(pair) for pair in DEFAULT_QOS_PAIRS]
    if not value:
        raise ValidationError("empty QoS list")
    if any(isinstance(item, str) and not item.strip() for item in value):
        raise ValidationError("empty QoS list entry")
    return [_qos_pair(item) for item in value]


def _qos_pair(item) -> list[float]:
    try:
        r01, r02 = (item.split(":") if isinstance(item, str)
                    else [checked_number("QoS rate", rate) for rate in item])
        return [float(r01), float(r02)]
    except (ValueError, TypeError):
        raise ValidationError(f"QoS pair must look like r01:r02, got {item!r}") from None


def _alloc(value) -> list[float]:
    """a1_sq:a2_sq:ar_sq text, or a manifest's split, within the unit power budget."""
    from .scenario import PowerAllocation
    try:
        a1, a2, ar = (value.split(":") if isinstance(value, str)
                      else [checked_number("share", share) for share in value])
        alloc = PowerAllocation(float(a1), float(a2), float(ar))
    except (ValueError, TypeError):   # ValidationError is a ValueError
        raise ValidationError(
            f"allocation must look like a1_sq:a2_sq:ar_sq, got {value!r}") from None
    if max(alloc.a1_sq, alloc.a2_sq, alloc.ar_sq) > 1.0 or alloc.power_sum > 1.0 + 1e-12:
        raise ValidationError(f"allocation {value!r} exceeds the unit power budget")
    return [alloc.a1_sq, alloc.a2_sq, alloc.ar_sq]


# Computations.  Each maps a scenario and checked params to the content of
# every output path (its bytes chunks, formatted as they are written), the
# summary line and the exit code; none touches the disk.

SWEEP_HEADER = ("ar_sq,a1_sq,a2_sq,r1,r2,r_sum,sigma_eps_sq,"
                "sigma_eps_sq_norm,log10_norm,fairness")


def _spec(cfg, params: dict):
    from .radar import WaveformKind, WaveformSpec
    return WaveformSpec(kind=WaveformKind(params["waveform"]),
                        bandwidth_hz=cfg.bandwidth_hz,
                        time_bandwidth=cfg.time_bandwidth)


def _sweep_csv(result) -> Iterable[bytes]:
    import numpy as np
    from .csvtext import csv_chunks
    return csv_chunks(SWEEP_HEADER, (np.column_stack([
        c.alloc.ar_sq, c.alloc.a1_sq, c.alloc.a2_sq, c.r1, c.r2, c.r_sum,
        c.sigma_eps_sq, c.sigma_eps_sq_normalized,
        np.log10(c.sigma_eps_sq_normalized), c.fairness]) for c in result.blocks()))


def _sweep(cfg, params, paths):
    from .optimizer import tradeoff_sweep
    result = tradeoff_sweep(cfg, params["r02"], _spec(cfg, params), params["grid"])
    tail = result.infeasible_tail_start
    line = (f"sweep: {len(result.grid)} feasible points -> {paths[0]}"
            + (f" (infeasible for ar_sq > {tail:.6g})" if tail is not None else ""))
    return {paths[0]: _sweep_csv(result)}, line, EXIT_OK


def _starpoints(cfg, params, paths):
    from .csvtext import csv_chunks
    from .optimizer import star_point
    from .scenario import QosRequirement
    spec = _spec(cfg, params)
    rows = []
    for r01, r02 in params["qos"]:
        pt = star_point(cfg, QosRequirement(r01=r01, r02=r02), spec)
        rows.append([r01, r02, pt.alloc.ar_sq, pt.r_sum, pt.sigma_eps_sq_normalized])
    csv = csv_chunks("r01,r02,ar_sq,r_sum,sigma_eps_sq_norm", [rows])
    return {paths[0]: csv}, f"starpoints: {len(rows)} QoS pairs -> {paths[0]}", EXIT_OK


def _fairness(cfg, params, paths):
    import numpy as np
    from .csvtext import csv_chunks
    from .optimizer import tradeoff_sweep
    spec = _spec(cfg, params)
    results = [tradeoff_sweep(cfg, r02, spec, params["grid"]) for r02 in params["r02_list"]]
    blocks = (np.column_stack([np.full(len(c.r_sum), result.r02), c.alloc.ar_sq,
                               c.r_sum, c.fairness])
              for result in results for c in result.blocks())
    rows = sum(len(result.grid) for result in results)
    line = f"fairness: {len(results)} curves, {rows} rows -> {paths[0]}"
    return {paths[0]: csv_chunks("r02,ar_sq,r_sum,fairness", blocks)}, line, EXIT_OK


def _asymmetry_outputs(out: Path, params: dict) -> list[Path]:
    """The summary JSON, then one sweep CSV per gap beside it."""
    gaps = params["gaps_db"]
    csvs = [out.with_name(f"{out.stem}_gap{g:g}db.csv") for g in gaps]
    # A name keeps 6 digits of its gap, so two gaps, equal or not, may share one.
    first_gap = {}
    for gap, csv in zip(gaps, csvs):
        if csv in first_gap:
            raise ValidationError(
                f"gaps {first_gap[csv]!r} and {gap!r} dB would both write {csv.name}")
        first_gap[csv] = gap
    return [out, *csvs]


def _asymmetry(cfg, params, paths):
    from .optimizer import asymmetry_sweep
    gaps = params["gaps_db"]
    results = asymmetry_sweep(cfg, params["r02"], _spec(cfg, params), gaps,
                              params["grid"])
    curves = [{
        "gap_db": gap,
        "h1_gain": result.cfg.h1_gain,
        "h2_gain": result.cfg.h2_gain,
        "infeasible_tail_start": result.infeasible_tail_start,
        "feasible_points": len(result.grid),
        "csv": str(csv_path),
    } for gap, result, csv_path in zip(gaps, results, paths[1:])]
    payload = {
        "r02": params["r02"],
        "waveform": params["waveform"],
        "fixed_gain": "h1_gain stays at the scenario value; h2_gain is lowered",
        "curves": curves,
    }
    files = {paths[0]: _json_content(payload)}
    files.update((path, _sweep_csv(result)) for path, result in zip(paths[1:], results))
    return files, f"asymmetry: {len(gaps)} gaps -> {paths[0]}", EXIT_OK


def _waveform_validate(cfg, params, paths):
    import numpy as np
    from .csvtext import csv_chunks
    from .radar import (FM_LAWS, WaveformKind, WaveformSpec, analytic_energy,
                        analytic_rms_bandwidth_sq)
    from .waveforms import instfreq_moment, numeric_energy, spectral_moment, synthesize
    kind = WaveformKind(params["waveform"])
    bandwidth_hz = params["bandwidth_hz"]
    num, den = FM_LAWS[kind].moment   # the deviations compare W-free normalized moments
    rows = []
    worst = 0.0
    for tw in params["tw_list"]:
        spec = WaveformSpec(kind=kind, bandwidth_hz=bandwidth_hz, time_bandwidth=tw)
        sampled = synthesize(spec, params["oversampling"] * bandwidth_hz)
        instfreq, spectrum = instfreq_moment(sampled), spectral_moment(sampled)
        scale = (np.pi * bandwidth_hz) ** 2   # turns a normalized moment into rad^2/s^2
        instfreq_err = abs(instfreq - num / den) / (num / den)
        spectrum_err = abs(spectrum - num / den) / (num / den)
        worst = max(worst, instfreq_err)
        rows.append([tw, analytic_energy(spec), numeric_energy(sampled),
                     analytic_rms_bandwidth_sq(spec), scale * instfreq, scale * spectrum,
                     instfreq_err, spectrum_err])
    header = ("tw,energy_analytic,energy_numeric,brms_sq_analytic,"
              "brms_sq_instfreq,brms_sq_spectrum,instfreq_rel_err,spectrum_rel_err")
    files = {paths[0]: csv_chunks(header, [rows])}
    if worst > INSTFREQ_REL_TOL:
        line = (f"waveform-validate: FAILED, instantaneous-frequency moment off "
                f"by {worst:.3e} (> {INSTFREQ_REL_TOL:g}) -> {paths[0]}")
        return files, line, EXIT_INFEASIBLE
    line = (f"waveform-validate: {len(rows)} rows, max closed-form deviation "
            f"{worst:.3e} -> {paths[0]}")
    return files, line, EXIT_OK


def _mc_delay(cfg, params, paths):
    from dataclasses import asdict
    from .scenario import PowerAllocation
    from .waveforms import mc_delay_estimation
    report = mc_delay_estimation(cfg, PowerAllocation(*params["alloc"]),
                                 _spec(cfg, params), true_delay_s=params["delay_s"],
                                 trials=params["trials"], seed=params["seed"])
    line = (f"mc-delay: efficiency {report.efficiency:.3f} at "
            f"{report.snr_post_db:.1f} dB -> {paths[0]}")
    return {paths[0]: _json_content(asdict(report))}, line, EXIT_OK


def _opt(flag: str, check: Callable | None = None, **argparse_options) -> tuple:
    """An option: its manifest name, flag, param check and argparse keywords.

    Without a check of its own, an option gets the type check of its argparse
    ``type`` (int or float), which a manifest's value must pass too.
    """
    name = argparse_options.get("dest", flag[2:].replace("-", "_"))
    integer = argparse_options.get("type") is int
    check = check or (lambda value: checked_number(name, value, integer))
    return name, flag, check, argparse_options


WAVEFORM = _opt("--waveform", _waveform, default="linear", help="linear or parabolic")
GRID = _opt("--grid", _grid, default="0.01:0.99:200", help="radar-share grid lo:hi:count")


# One subcommand, declared once for the command line and for ``rerun``.  compute
# maps (cfg, params, paths) to ({path: content}, summary, exit code); outputs maps
# (out, params) to the data paths, primary first.  Not a dataclass: that loads inspect.
Command = namedtuple("Command", "help options compute outputs scenario",
                     defaults=(lambda out, params: [out], True))


COMMANDS = {
    "sweep": Command(
        "rate vs estimation-error tradeoff curve",
        (_opt("--r02", type=float, default=0.7, help="weak user QoS rate, bits/s/Hz"),
         WAVEFORM,
         GRID),
        _sweep),
    "starpoints": Command(
        "minimum estimation error under QoS pairs",
        (_opt("--qos", _qos, action="append", default=None, metavar="R01:R02",
              help="QoS pair, repeatable (default: "
                   + " ".join(f"{r01:g}:{r02:g}" for r01, r02 in DEFAULT_QOS_PAIRS) + ")"),
         WAVEFORM),
        _starpoints),
    "fairness": Command(
        "Jain fairness along the tradeoff curves",
        (_opt("--r02-list", _floats("r02"), default="0.7,1.0,1.5",
              help="comma-separated weak-user QoS rates"),
         WAVEFORM,
         GRID),
        _fairness),
    "asymmetry": Command(
        "tradeoff curves vs channel asymmetry",
        (_opt("--r02", type=float, default=0.7),
         WAVEFORM,
         _opt("--gaps-db", _floats("gap"), default="5.0,10.0,15.0",
              help="comma-separated channel gaps, dB"),
         GRID),
        _asymmetry, _asymmetry_outputs),
    "waveform-validate": Command(
        "numeric vs closed-form waveform moments",
        (WAVEFORM,
         _opt("--tw-list", _floats("TW"), default="100,1000",
              help="comma-separated time-bandwidth products"),
         _opt("--bandwidth-hz", type=float, default=2e7),
         _opt("--oversampling", type=float, default=16.0,
              help="sample rate as a multiple of the bandwidth "
                   f"(>= {MIN_OVERSAMPLING:g})")),
        _waveform_validate, scenario=False),
    "mc-delay": Command(
        "Monte Carlo delay estimation vs the bound",
        (_opt("--alloc", _alloc, default="0.0:0.0:1.0", metavar="A1:A2:AR",
              help="power split a1_sq:a2_sq:ar_sq"),
         WAVEFORM,
         _opt("--delay", dest="delay_s", type=float, required=True,
              help="true round-trip delay, s"),
         _opt("--trials", type=int, default=1000),
         _opt("--seed", type=int, default=12345)),
        _mc_delay),
}


def _run(name: str, raw: dict, load_cfg: Callable, out: str, force: bool) -> int:
    """The one pipeline: check the params, claim the outputs, compute, write, report.

    ``raw`` holds the command-line texts or a manifest's params; ``load_cfg``
    reads the scenario once the params have passed their checks.
    """
    if not Path(out).name:
        raise ValidationError(f"output path {out!r} names no file")
    command = COMMANDS[name]
    unknown = set(raw) - {opt[0] for opt in command.options}
    if unknown:
        raise ValidationError(f"unknown {name} params: {', '.join(sorted(unknown))}")
    params = {key: check(raw[key]) for key, _, check, _ in command.options}
    cfg = load_cfg() if command.scenario else None
    paths = command.outputs(Path(out), params)
    # Without --force, refuse before any work if an output exists.
    for path in [*paths, _manifest_path(paths[0])]:
        if not force and path.exists():
            raise ValidationError(f"refusing to overwrite {path} (use --force)")
    files, line, code = command.compute(cfg, params, paths)
    _write_outputs(name, cfg, params, files)
    print(line, file=sys.stdout if code == EXIT_OK else sys.stderr)
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radcom",
        description="Joint radar-communications power-split datasets "
                    "(tradeoff curves, star points, fairness, asymmetry, "
                    "waveform validation, Monte Carlo delay estimation).")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.scenario:
            p.add_argument("scenario", help="scenario file (key=value text)")
        p.add_argument("--out", required=True, help="output path")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing outputs")
        for _, flag, _, argparse_options in command.options:
            p.add_argument(flag, **argparse_options)

    p = sub.add_parser("rerun", help="replay a manifest byte-identically")
    p.add_argument("manifest", help="manifest JSON written by a previous run")
    p.add_argument("--out", default=None,
                   help="redirect the primary output (default: original path)")
    p.add_argument("--force", action="store_true")
    return parser


def _rerun(path: str, out: str | None, force: bool) -> int:
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:   # ValueError: bad JSON, UTF-8 or a huge integer
        raise ValidationError(f"cannot load manifest: {err}") from err
    if not isinstance(manifest, dict):
        raise ValidationError("manifest must be a JSON object")
    outputs = manifest.get("outputs")
    if not outputs:
        raise ValidationError("manifest lists no outputs")
    if not (isinstance(outputs, list) and all(isinstance(p, str) for p in outputs)):
        raise ValidationError(f"manifest outputs must be a list of paths, got {outputs!r}")
    command = manifest.get("command")
    if command not in COMMANDS:
        raise ValidationError(f"manifest names unknown command {command!r}")
    from .scenario import scenario_from_report
    try:
        return _run(command, manifest.get("params", {}),
                    lambda: scenario_from_report(manifest.get("scenario")),
                    out if out is not None else outputs[0], force)
    except (KeyError, TypeError) as err:
        raise ValidationError(f"manifest is missing or mistypes a field: {err}") from err


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage problems and 0 on --help.
        return EXIT_OK if err.code in (0, None) else EXIT_USAGE
    try:
        if args.command == "rerun":
            return _rerun(args.manifest, args.out, args.force)
        raw = {key: value for key, value in vars(args).items()
               if key not in ("command", "scenario", "out", "force")}
        return _run(args.command, raw, lambda: _load_scenario_file(args.scenario),
                    args.out, args.force)
    except InfeasibleError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except RadcomError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
