"""What a fresh ``radcom`` process imports on each command-line path.

Parsing, ``--help``, ``--version`` and usage errors load neither numpy nor
any numeric module; a command that runs loads only the modules it uses.
Each case runs in a new interpreter, once as ``python -m radcom.cli`` (the
modules read from ``-X importtime``) and once through ``radcom.cli.main``,
as the installed console script calls it (the modules read from
``sys.modules``).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import radcom
from radcom.cli import COMMANDS

SRC = Path(radcom.__file__).resolve().parent.parent
FRONT_END = {"radcom", "radcom.cli", "radcom.errors"}
MARK = "--- modules ---"
VIA_MAIN = ("import sys; from radcom.cli import main; code = main(sys.argv[1:]); "
            f"print({MARK!r}); print(*sys.modules, sep='\\n'); sys.exit(code)")
MC = ["--delay", "6.2832e-6", "--trials", "100", "--seed", "5"]


def _modules(how: str, argv: list[str], cwd: Path) -> tuple[int, set[str]]:
    """Exit code and the modules a new process loaded while running ``argv``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = ([sys.executable, "-X", "importtime", "-m", "radcom.cli"] if how == "-m"
               else [sys.executable, "-c", VIA_MAIN])
    done = subprocess.run(command + argv, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)
    if how == "-m":
        names = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
                 if line.startswith("import time:")}
    else:
        names = set(done.stdout.split(MARK + "\n")[-1].split())
    return done.returncode, names


def _radcom(names: set[str]) -> set[str]:
    return {name for name in names if name == "radcom" or name.startswith("radcom.")}


FRONT_END_CASES = {
    "version": (["--version"], 0),
    "help": (["--help"], 0),
    **{f"{name}-help": ([name, "--help"], 0) for name in [*COMMANDS, "rerun"]},
    "unknown-flag": (["--no-such-flag"], 3),
    "missing-args": (["sweep"], 3),
}


@pytest.mark.parametrize("how", ["-m", "main"])
@pytest.mark.parametrize("case", list(FRONT_END_CASES))
def test_front_end_paths_load_no_numeric_module(tmp_path, how, case):
    argv, expected = FRONT_END_CASES[case]
    code, names = _modules(how, argv, tmp_path)
    assert code == expected
    assert "numpy" not in names
    assert _radcom(names) <= FRONT_END


@pytest.mark.parametrize("how", ["-m", "main"])
def test_sweep_does_not_load_waveforms(tmp_path, how):
    (tmp_path / "baseline.txt").write_text("", encoding="utf-8")
    code, names = _modules(how, ["sweep", "baseline.txt", "--out", "s.csv"], tmp_path)
    assert code == 0 and (tmp_path / "s.csv").is_file()
    assert "radcom.optimizer" in names
    assert "radcom.waveforms" not in names


@pytest.mark.parametrize("how", ["-m", "main"])
def test_mc_delay_and_its_rerun_load_no_closed_form_module(tmp_path, how):
    (tmp_path / "boosted.txt").write_text("sigma_r_sq=1e-19\n", encoding="utf-8")
    runs = [["mc-delay", "boosted.txt", *MC, "--out", "m.json"],
            ["rerun", "m.json.manifest.json", "--out", "replay/m.json"]]
    for argv in runs:
        code, names = _modules(how, argv, tmp_path)
        assert code == 0
        assert "radcom.waveforms" in names
        assert not names & {"radcom.optimizer", "radcom.comms", "radcom.csvtext"}
    assert (tmp_path / "replay" / "m.json").read_bytes() == (tmp_path / "m.json").read_bytes()
