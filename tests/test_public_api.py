"""Every public name earns its place: something outside tests uses it, and
every statement of the package runs in some command-line case."""

import ast
import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "radcom").glob("*.py"))


def _public_names():
    """(module, name) for every module-level def, class and assignment
    whose name has no leading underscore."""
    names = []
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                targets = []
            names += [(path.stem, name) for name in targets if not name.startswith("_")]
    return names


def _public_members():
    """(module, class, name) for every public method and property of a
    module-level public class."""
    return [(path.stem, node.name, member.name)
            for path in MODULES
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for member in node.body
            if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")]


def _loaded_names(path):
    """Names a module reads, as (bare names in load context, attribute names).

    Definitions (def, class, assignment targets) and imports are not reads,
    and neither is an attribute read in a ``__post_init__`` body: a field or
    property that only its own check reads does nothing.  A function that
    such a check calls by its bare name is read.
    """
    names, attributes = set(), set()
    todo = [(ast.parse(path.read_text(encoding="utf-8")), False)]
    while todo:
        node, in_check = todo.pop()
        in_check |= isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not in_check:
            attributes.add(node.attr)
        todo.extend((child, in_check) for child in ast.iter_child_nodes(node))
    return names, attributes


def _names_read_outside_tests(attributes_only=False):
    """Every name src/ and perfbench/ read; with attributes_only, only those
    read as ``obj.name``, the one way to reach a method or property."""
    # The package's __init__ holds only its docstring and __version__.
    sources = [p for p in (ROOT / "src" / "radcom").glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    reads = [_loaded_names(p) for p in sources]
    return set().union(*(attributes if attributes_only else names | attributes
                         for names, attributes in reads))


def test_every_public_name_is_used_outside_its_definition():
    names = _public_names()
    # Every module but the package's __init__ defines public names.
    assert {module for module, _ in names} == {p.stem for p in MODULES} - {"__init__"}
    used = _names_read_outside_tests()
    unused = sorted(f"{module}.{name}" for module, name in names if name not in used)
    assert not unused, f"public names with no caller in src/ or perfbench/: {unused}"


def test_every_public_dataclass_field_is_read():
    """No field of a public dataclass is written and never read.

    The scan is by name, as above, so it cannot catch a field that shares
    its name with a local variable or parameter read somewhere (``spec``,
    ``crlb``): that read counts for the field too.
    """
    used = _names_read_outside_tests()
    classes = [getattr(importlib.import_module(f"radcom.{module}"), name)
               for module, name in _public_names()]
    unread = sorted(f"{cls.__name__}.{f.name}" for cls in classes
                    if dataclasses.is_dataclass(cls)
                    for f in dataclasses.fields(cls) if f.name not in used)
    assert not unread, f"dataclass fields nothing in src/ or perfbench/ reads: {unread}"


def test_every_public_method_and_property_is_read():
    """No public method or property of a public class exists only for tests.

    Only attribute reads count, so a local variable of the same name (a
    ``curve`` in perfbench) does not.  The scan is still by name, so it cannot
    see a member that shares its name with an attribute read elsewhere:
    ``TradeoffPoint.split`` counts as read because ``str.split`` in
    ``cli.py`` shares the name.
    """
    members = _public_members()
    assert ("optimizer", "SweepResult", "blocks") in members
    used = _names_read_outside_tests(attributes_only=True)
    unread = sorted(f"{module}.{cls}.{name}" for module, cls, name in members
                    if name not in used)
    assert not unread, f"public members nothing in src/ or perfbench/ reads: {unread}"


# Runs every golden-gate case in process under a line tracer and prints the
# (file, line) of every line event in a frame of the package.  A fresh
# interpreter, so that import-time lines and cached functions run here too.
TRACE_CATALOGUE = r"""
import contextlib, io, json, os, sys, tempfile
from pathlib import Path

root, package = Path(sys.argv[1]), sys.argv[2]
hits = set()

def trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(package):
        return None
    if event == "line":
        hits.add((frame.f_code.co_filename, frame.f_lineno))
    return trace

sys.settrace(trace)
import golden_gate
from radcom.cli import main

def command(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(argv), out.getvalue(), err.getvalue()

with tempfile.TemporaryDirectory() as tmp:
    for case in golden_gate.catalogue():
        case_dir = Path(tmp) / case.name
        case_dir.mkdir()
        os.chdir(case_dir)
        golden_gate.prepare(root, case_dir)
        golden_gate.run_steps(case_dir, case.steps, command)
    os.chdir(root)
sys.settrace(None)
print(json.dumps(sorted(hits)))
"""

# module.qualname -> why no catalogue case runs some statement of it.
UNRUN = {
    "waveforms._usable_cpus": "the fallback where the OS keeps no affinity mask "
                              "(test_usable_cpus_is_the_affinity_mask_or_else_the_cpu_count)",
    "waveforms._sum_sq_by_block": "a failing trial, raised after the join "
                                  "(test_mc_keeps_no_per_trial_buffer)",
    "waveforms._sum_sq_by_block.work": "a failing trial stops every worker "
                                       "(test_mc_keeps_no_per_trial_buffer)",
    "optimizer.sample_feasible_region": "no command samples the region (ROADMAP item 12)",
    "optimizer.TradeoffPoint.split": "sample_feasible_region is its one caller",
    "cli.<module>": "sys.exit(main()) under __main__, which the gate's subprocesses run",
}


def _blocks(node):
    """The statement lists directly inside a statement."""
    inner = getattr(node, "handlers", []) + getattr(node, "cases", [])
    return ([getattr(node, name, []) for name in ("body", "orelse", "finalbody")]
            + [part.body for part in inner])


def _statements(path):
    """(qualname, first line, own lines) of each statement of a module but its
    docstrings: module-level ones are ``<module>``'s, and a compound
    statement's own lines end where its first inner statement begins."""
    found = []

    def visit(body, qualname):
        for i, node in enumerate(body):
            blocks = _blocks(node)
            if not (i == 0 and isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                end = min([block[0].lineno for block in blocks if block],
                          default=node.end_lineno + 1)
                found.append((qualname, node.lineno,
                              range(node.lineno, max(end, node.lineno + 1))))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = node.name if qualname == "<module>" else f"{qualname}.{node.name}"
            else:
                inner = qualname
            for block in blocks:
                visit(block, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")).body, "<module>")
    return found


def test_every_statement_runs_in_some_catalogue_case():
    """Every statement of src/radcom runs in some case of tools/golden_gate.py,
    but in the functions of UNRUN, each of which keeps an unrun statement.
    A new unrun statement takes a catalogue case, or goes."""
    package = ROOT / "src" / "radcom"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(str(ROOT / d) for d in ("src", "tools"))}
    child = subprocess.run(
        [sys.executable, "-c", TRACE_CATALOGUE, str(ROOT), f"{package}{os.sep}"],
        env=env, capture_output=True, text=True, check=False)
    assert child.returncode == 0, child.stderr
    hits = {(Path(name).name, line) for name, line in json.loads(child.stdout)}
    unrun = []
    for path in MODULES:
        lines = path.read_text(encoding="utf-8").splitlines()
        unrun += [(f"{path.stem}.{qualname}",
                   f"{path.name}:{first}: {lines[first - 1].strip()}")
                  for qualname, first, own in _statements(path)
                  if not any((path.name, line) in hits for line in own)]
    dead = [where for name, where in unrun if name not in UNRUN]
    assert not dead, "statements no catalogue case runs:\n" + "\n".join(dead)
    ran = set(UNRUN) - {name for name, _ in unrun}
    assert not ran, f"exempt, yet every statement runs: {sorted(ran)}"
