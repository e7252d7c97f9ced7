"""Command-line front end emitting CSV/JSON datasets with manifest sidecars.

Every command resolves its inputs (scenario file, parameters, seed) into a
manifest written next to the outputs; ``radcom rerun <manifest>`` replays a
manifest and reproduces the data files byte for byte.

Exit codes: 0 success, 2 domain infeasibility, 3 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InfeasibleError, RadcomError, ValidationError
from .optimizer import (DEFAULT_GRID_COUNT, DEFAULT_GRID_HI, DEFAULT_GRID_LO,
                        SweepResult, default_grid, star_point, tradeoff_sweep)
from .radar import (WaveformKind, WaveformSpec, analytic_energy,
                    analytic_rms_bandwidth_sq)
from .scenario import (PowerAllocation, QosRequirement, ScenarioConfig,
                       load_scenario, scenario_report_fields)
from .waveforms import (MomentMethod, mc_delay_estimation, numeric_energy,
                        numeric_rms_bandwidth_sq, synthesize)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_USAGE = 3

DEFAULT_QOS_PAIRS = ((1.5, 0.7), (0.7, 0.7), (1.5, 1.5))
DEFAULT_FAIRNESS_R02 = (0.7, 1.0, 1.5)
DEFAULT_GAPS_DB = (5.0, 10.0, 15.0)
INSTFREQ_REL_TOL = 1e-6


def _claim(out: str, force: bool, *extra: Path) -> Path:
    """Path of out; without --force, refuses first if any output exists or repeats."""
    out_path = Path(out)
    paths = [out_path, *extra, _manifest_path(out_path)]
    for i, path in enumerate(paths):
        if not force and (path.exists() or path in paths[:i]):
            raise ValidationError(f"refusing to overwrite {path} (use --force)")
    return out_path


def _csv_content(header: str, rows) -> str:
    """CSV text; every cell in fixed scientific notation, 9 significant digits."""
    line = ",".join(["%.8e"] * (header.count(",") + 1))
    return "\n".join([header, *(line % tuple(row) for row in rows)]) + "\n"


def _column_rows(*columns):
    """Rows of equal-length columns (arrays or sequences) as tuples of floats."""
    return zip(*(np.asarray(c).tolist() for c in columns))


def _json_content(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _load_scenario_file(path: str) -> ScenarioConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ValidationError(f"cannot read scenario file {path}: {err}") from err
    return load_scenario(text)


def _scenario_from_manifest(entry: dict) -> ScenarioConfig:
    names = {f.name for f in fields(ScenarioConfig)}
    return ScenarioConfig(**{k: v for k, v in entry.items() if k in names})


def _manifest_path(out_path: Path) -> Path:
    return Path(str(out_path) + ".manifest.json")


def _write_outputs(command: str, cfg: ScenarioConfig | None, params: dict,
                   files: dict[Path, str]) -> None:
    """Write the data files, then the manifest beside the first (primary) one."""
    manifest = {
        "command": command,
        "tool_version": __version__,
        "scenario": scenario_report_fields(cfg) if cfg is not None else None,
        "params": params,
        "outputs": [str(p) for p in files],
    }
    files = {**files, _manifest_path(next(iter(files))): _json_content(manifest)}
    # Every file goes to a temp file beside its target first; the targets are
    # replaced only once all of them are written, so a failed write leaves
    # no output (and no temp file) behind.
    temps = {}
    try:
        for path, content in files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            temps[path] = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            with open(temps[path], "w", encoding="utf-8", newline="") as handle:
                handle.write(content)
        for path, temp in temps.items():
            os.replace(temp, path)
    except OSError as err:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
        raise ValidationError(f"cannot write outputs: {err}") from err


def _parse_grid(text: str) -> dict:
    try:
        lo_s, hi_s, count_s = text.split(":")
        grid = {"lo": float(lo_s), "hi": float(hi_s), "count": int(count_s)}
    except ValueError:
        raise ValidationError(
            f"grid must look like lo:hi:count, got {text!r}") from None
    default_grid(grid["lo"], grid["hi"], grid["count"])  # bounds check
    return grid


def _parse_waveform(name: str) -> WaveformKind:
    try:
        return WaveformKind(name)
    except ValueError:
        choices = ", ".join(k.value for k in WaveformKind)
        raise ValidationError(
            f"unknown waveform {name!r} (choices: {choices})") from None


def _spec_for(cfg: ScenarioConfig, kind: WaveformKind) -> WaveformSpec:
    return WaveformSpec(kind=kind, bandwidth_hz=cfg.bandwidth_hz,
                        time_bandwidth=cfg.time_bandwidth)


def _parse_floats(text: str, what: str) -> list[float]:
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise ValidationError(f"empty {what} list")
    try:
        return [float(item) for item in items]
    except ValueError:
        raise ValidationError(f"bad {what} list {text!r}") from None


def _parse_qos_pair(text: str) -> tuple[float, float]:
    try:
        r01_s, r02_s = text.split(":")
        return float(r01_s), float(r02_s)
    except ValueError:
        raise ValidationError(f"QoS pair must look like r01:r02, got {text!r}") from None


def _parse_qos_list(items: list[str] | None) -> list[tuple[float, float]]:
    if items is None:
        return list(DEFAULT_QOS_PAIRS)
    if not all(item.strip() for item in items):
        raise ValidationError("empty QoS list entry")
    return [_parse_qos_pair(item) for item in items]


def _parse_alloc(text: str) -> list[float]:
    try:
        a1_s, a2_s, ar_s = text.split(":")
        alloc = PowerAllocation(float(a1_s), float(a2_s), float(ar_s))
    except (ValueError, ValidationError):
        raise ValidationError(
            f"allocation must look like a1_sq:a2_sq:ar_sq, got {text!r}") from None
    if max(alloc.a1_sq, alloc.a2_sq, alloc.ar_sq) > 1.0 or alloc.power_sum > 1.0 + 1e-12:
        raise ValidationError(f"allocation {text!r} exceeds the unit power budget")
    return [alloc.a1_sq, alloc.a2_sq, alloc.ar_sq]


SWEEP_HEADER = ("ar_sq,a1_sq,a2_sq,r1,r2,r_sum,sigma_eps_sq,"
                "sigma_eps_sq_norm,log10_norm,fairness")


def _sweep_rows(result: SweepResult):
    c = result.curve
    return _column_rows(c.alloc.ar_sq, c.alloc.a1_sq, c.alloc.a2_sq, c.r1, c.r2,
                        c.r_sum, c.sigma_eps_sq, c.sigma_eps_sq_normalized,
                        np.log10(c.sigma_eps_sq_normalized), c.fairness)


def run_sweep(cfg: ScenarioConfig, r02: float, waveform: str, grid: dict,
              out: str, force: bool) -> int:
    kind = _parse_waveform(waveform)
    out_path = _claim(out, force)
    grid_arr = default_grid(grid["lo"], grid["hi"], grid["count"])
    result = tradeoff_sweep(cfg, r02, _spec_for(cfg, kind), grid_arr)
    params = {"r02": r02, "waveform": kind.value, "grid": grid}
    _write_outputs("sweep", cfg, params,
                   {out_path: _csv_content(SWEEP_HEADER, _sweep_rows(result))})
    tail = result.infeasible_tail_start
    print(f"sweep: {len(result.curve.r_sum)} feasible points -> {out_path}"
          + (f" (infeasible for ar_sq > {tail:.6g})" if tail is not None else ""))
    return EXIT_OK


def run_starpoints(cfg: ScenarioConfig, qos: list[tuple[float, float]],
                   waveform: str, out: str, force: bool) -> int:
    if not qos:
        raise ValidationError("empty QoS list")
    kind = _parse_waveform(waveform)
    out_path = _claim(out, force)
    spec = _spec_for(cfg, kind)
    rows = []
    for r01, r02 in qos:
        pt = star_point(cfg, QosRequirement(r01=r01, r02=r02), spec)
        rows.append([r01, r02, pt.alloc.ar_sq, pt.r_sum, pt.sigma_eps_sq_normalized])
    params = {"qos": [list(pair) for pair in qos], "waveform": kind.value}
    _write_outputs("starpoints", cfg, params, {
        out_path: _csv_content("r01,r02,ar_sq,r_sum,sigma_eps_sq_norm", rows)})
    print(f"starpoints: {len(rows)} QoS pairs -> {out_path}")
    return EXIT_OK


def run_fairness(cfg: ScenarioConfig, r02_list: list[float], waveform: str,
                 grid: dict, out: str, force: bool) -> int:
    if not r02_list:
        raise ValidationError("empty r02 list")
    kind = _parse_waveform(waveform)
    out_path = _claim(out, force)
    spec = _spec_for(cfg, kind)
    grid_arr = default_grid(grid["lo"], grid["hi"], grid["count"])
    rows = []
    for r02 in r02_list:
        c = tradeoff_sweep(cfg, r02, spec, grid_arr).curve
        rows.extend(_column_rows([r02] * len(c.r_sum), c.alloc.ar_sq, c.r_sum,
                                 c.fairness))
    params = {"r02_list": r02_list, "waveform": kind.value, "grid": grid}
    _write_outputs("fairness", cfg, params,
                   {out_path: _csv_content("r02,ar_sq,r_sum,fairness", rows)})
    print(f"fairness: {len(r02_list)} curves, {len(rows)} rows -> {out_path}")
    return EXIT_OK


def run_asymmetry(cfg: ScenarioConfig, r02: float, waveform: str,
                  gaps_db: list[float], grid: dict, out: str, force: bool) -> int:
    kind = _parse_waveform(waveform)
    spec = _spec_for(cfg, kind)
    for gap in gaps_db:
        if not (math.isfinite(gap) and gap > 0.0):
            raise ValidationError(
                f"asymmetry gap must be > 0 dB (strong/weak ordering), got {gap!r}")
    out_path = Path(out)
    csv_paths = [out_path.with_name(f"{out_path.stem}_gap{g:g}db.csv") for g in gaps_db]
    _claim(out, force, *csv_paths)
    grid_arr = default_grid(grid["lo"], grid["hi"], grid["count"])
    files = {}
    summary = []
    for gap, csv_path in zip(gaps_db, csv_paths):
        lowered = replace(cfg, h2_gain=cfg.h1_gain * 10.0 ** (-gap / 10.0))
        result = tradeoff_sweep(lowered, r02, spec, grid_arr)
        files[csv_path] = _csv_content(SWEEP_HEADER, _sweep_rows(result))
        summary.append({
            "gap_db": gap,
            "h1_gain": lowered.h1_gain,
            "h2_gain": lowered.h2_gain,
            "infeasible_tail_start": result.infeasible_tail_start,
            "feasible_points": len(result.curve.r_sum),
            "csv": str(csv_path),
        })
    payload = {
        "r02": r02,
        "waveform": kind.value,
        "fixed_gain": "h1_gain stays at the scenario value; h2_gain is lowered",
        "curves": summary,
    }
    params = {"r02": r02, "waveform": kind.value, "gaps_db": gaps_db, "grid": grid}
    _write_outputs("asymmetry", cfg, params,
                   {out_path: _json_content(payload), **files})
    print(f"asymmetry: {len(gaps_db)} gaps -> {out_path}")
    return EXIT_OK


def run_waveform_validate(waveform: str, tw_list: list[float], bandwidth_hz: float,
                          oversampling: float, out: str, force: bool) -> int:
    if not tw_list:
        raise ValidationError("empty TW list")
    kind = _parse_waveform(waveform)
    out_path = _claim(out, force)
    rows = []
    worst = 0.0
    for tw in tw_list:
        spec = WaveformSpec(kind=kind, bandwidth_hz=bandwidth_hz, time_bandwidth=tw)
        sampled = synthesize(spec, oversampling * bandwidth_hz)
        e_analytic = analytic_energy(spec)
        e_numeric = numeric_energy(sampled)
        b_analytic = analytic_rms_bandwidth_sq(spec)
        b_instfreq = numeric_rms_bandwidth_sq(sampled, MomentMethod.INST_FREQ)
        b_spectrum = numeric_rms_bandwidth_sq(sampled, MomentMethod.SPECTRUM)
        instfreq_err = abs(b_instfreq - b_analytic) / b_analytic
        spectrum_err = abs(b_spectrum - b_analytic) / b_analytic
        worst = max(worst, instfreq_err)
        rows.append([tw, e_analytic, e_numeric, b_analytic, b_instfreq,
                     b_spectrum, instfreq_err, spectrum_err])
    header = ("tw,energy_analytic,energy_numeric,brms_sq_analytic,"
              "brms_sq_instfreq,brms_sq_spectrum,instfreq_rel_err,spectrum_rel_err")
    params = {"waveform": kind.value, "tw_list": tw_list,
              "bandwidth_hz": bandwidth_hz, "oversampling": oversampling}
    _write_outputs("waveform-validate", None, params,
                   {out_path: _csv_content(header, rows)})
    if worst > INSTFREQ_REL_TOL:
        print(f"waveform-validate: FAILED, instantaneous-frequency moment off "
              f"by {worst:.3e} (> {INSTFREQ_REL_TOL:g}) -> {out_path}",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    print(f"waveform-validate: {len(rows)} rows, max closed-form deviation "
          f"{worst:.3e} -> {out_path}")
    return EXIT_OK


def run_mc_delay(cfg: ScenarioConfig, alloc: list[float], waveform: str,
                 delay_s: float, trials: int, seed: int, out: str,
                 force: bool) -> int:
    kind = _parse_waveform(waveform)
    out_path = _claim(out, force)
    split = PowerAllocation(*alloc)
    report = mc_delay_estimation(cfg, split, _spec_for(cfg, kind), k=1,
                                 true_delay_s=delay_s, trials=trials, seed=seed)
    payload = {
        "trials": report.trials,
        "true_delay_s": report.true_delay_s,
        "snr_post_db": report.snr_post_db,
        "empirical_var": report.empirical_var,
        "crlb": report.crlb,
        "efficiency": report.efficiency,
        "seed": report.seed,
    }
    params = {"alloc": list(alloc),
              "waveform": kind.value, "delay_s": delay_s,
              "trials": trials, "seed": seed}
    _write_outputs("mc-delay", cfg, params, {out_path: _json_content(payload)})
    print(f"mc-delay: efficiency {report.efficiency:.3f} at "
          f"{report.snr_post_db:.1f} dB -> {out_path}")
    return EXIT_OK


RUNNERS = {"sweep": run_sweep, "starpoints": run_starpoints, "fairness": run_fairness,
           "asymmetry": run_asymmetry, "waveform-validate": run_waveform_validate,
           "mc-delay": run_mc_delay}

# Parsers turning command-line text into the parameters a manifest records.
_ARG_PARSERS = {
    "grid": _parse_grid,
    "qos": _parse_qos_list,
    "r02_list": lambda text: _parse_floats(text, "r02"),
    "gaps_db": lambda text: _parse_floats(text, "gap"),
    "tw_list": lambda text: _parse_floats(text, "TW"),
    "alloc": _parse_alloc,
}


def run_from_manifest(manifest: dict, out: str | None, force: bool) -> int:
    command = manifest.get("command")
    params = {**manifest.get("params", {})}
    if manifest.get("scenario"):
        params["cfg"] = _scenario_from_manifest(manifest["scenario"])
    outputs = manifest.get("outputs") or []
    if not outputs:
        raise ValidationError("manifest lists no outputs")
    if command not in RUNNERS:
        raise ValidationError(f"manifest names unknown command {command!r}")
    return RUNNERS[command](**params, out=out if out is not None else outputs[0],
                            force=force)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radcom",
        description="Joint radar-communications power-split datasets "
                    "(tradeoff curves, star points, fairness, asymmetry, "
                    "waveform validation, Monte Carlo delay estimation).")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scenario=True):
        if scenario:
            p.add_argument("scenario", help="scenario file (key=value text)")
        p.add_argument("--out", required=True, help="output path")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing outputs")

    p = sub.add_parser("sweep", help="rate vs estimation-error tradeoff curve")
    add_common(p)
    p.add_argument("--r02", type=float, default=0.7,
                   help="weak user QoS rate, bits/s/Hz")
    p.add_argument("--waveform", default="linear", help="linear or parabolic")
    p.add_argument("--grid",
                   default=f"{DEFAULT_GRID_LO}:{DEFAULT_GRID_HI}:{DEFAULT_GRID_COUNT}",
                   help="radar-share grid lo:hi:count")

    p = sub.add_parser("starpoints", help="minimum estimation error under QoS pairs")
    add_common(p)
    p.add_argument("--qos", action="append", default=None, metavar="R01:R02",
                   help="QoS pair, repeatable (default: 1.5:0.7 0.7:0.7 1.5:1.5)")
    p.add_argument("--waveform", default="linear")

    p = sub.add_parser("fairness", help="Jain fairness along the tradeoff curves")
    add_common(p)
    p.add_argument("--r02-list", default=",".join(str(v) for v in DEFAULT_FAIRNESS_R02),
                   help="comma-separated weak-user QoS rates")
    p.add_argument("--waveform", default="linear")
    p.add_argument("--grid",
                   default=f"{DEFAULT_GRID_LO}:{DEFAULT_GRID_HI}:{DEFAULT_GRID_COUNT}")

    p = sub.add_parser("asymmetry", help="tradeoff curves vs channel asymmetry")
    add_common(p)
    p.add_argument("--r02", type=float, default=0.7)
    p.add_argument("--waveform", default="linear")
    p.add_argument("--gaps-db", default=",".join(str(v) for v in DEFAULT_GAPS_DB),
                   help="comma-separated channel gaps, dB")
    p.add_argument("--grid",
                   default=f"{DEFAULT_GRID_LO}:{DEFAULT_GRID_HI}:{DEFAULT_GRID_COUNT}")

    p = sub.add_parser("waveform-validate",
                       help="numeric vs closed-form waveform moments")
    add_common(p, scenario=False)
    p.add_argument("--waveform", default="linear")
    p.add_argument("--tw-list", default="100,1000",
                   help="comma-separated time-bandwidth products")
    p.add_argument("--bandwidth-hz", type=float, default=2e7)
    p.add_argument("--oversampling", type=float, default=16.0,
                   help="sample rate as a multiple of the bandwidth (>= 8)")

    p = sub.add_parser("mc-delay", help="Monte Carlo delay estimation vs the bound")
    add_common(p)
    p.add_argument("--alloc", default="0.0:0.0:1.0", metavar="A1:A2:AR",
                   help="power split a1_sq:a2_sq:ar_sq")
    p.add_argument("--waveform", default="linear")
    p.add_argument("--delay", dest="delay_s", type=float, required=True,
                   help="true round-trip delay, s")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=12345)

    p = sub.add_parser("rerun", help="replay a manifest byte-identically")
    p.add_argument("manifest", help="manifest JSON written by a previous run")
    p.add_argument("--out", default=None,
                   help="redirect the primary output (default: original path)")
    p.add_argument("--force", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage problems and 0 on --help.
        return EXIT_OK if err.code in (0, None) else EXIT_USAGE
    try:
        if args.command == "rerun":
            try:
                manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as err:
                raise ValidationError(f"cannot load manifest: {err}") from err
            if not isinstance(manifest, dict):
                raise ValidationError("manifest must be a JSON object")
            try:
                return run_from_manifest(manifest, args.out, args.force)
            except (KeyError, TypeError) as err:
                raise ValidationError(
                    f"manifest is missing or mistypes a field: {err}") from err
        params = {key: _ARG_PARSERS.get(key, lambda value: value)(value)
                  for key, value in vars(args).items()
                  if key not in ("command", "scenario", "out", "force")}
        if "scenario" in args:
            params["cfg"] = _load_scenario_file(args.scenario)
        return RUNNERS[args.command](**params, out=args.out, force=args.force)
    except InfeasibleError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except RadcomError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
