"""Every public name earns its place: something outside tests uses it."""

import ast
import dataclasses
import importlib
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
