"""Every public name earns its place: something outside tests uses it."""

import ast
import dataclasses
from pathlib import Path

import radcom

ROOT = Path(__file__).resolve().parent.parent


def _loaded_names(path):
    """Names a module reads: bare names in load context and attribute names.

    Definitions (def, class, assignment targets) and imports are not reads,
    and neither is a ``__post_init__`` body: a field that only its own
    check reads does nothing.
    """
    names = set()
    todo = [ast.parse(path.read_text(encoding="utf-8"))]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return names


def _names_read_outside_tests():
    # The package's __init__ only re-exports, so it does not count as a use.
    sources = [p for p in (ROOT / "src" / "radcom").glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    return set().union(*(_loaded_names(p) for p in sources))


def test_every_public_name_is_used_outside_its_definition():
    unused = sorted(set(radcom.__all__) - _names_read_outside_tests())
    assert not unused, f"public names with no caller in src/ or perfbench/: {unused}"


def test_every_public_dataclass_field_is_read():
    """No field of a public dataclass is written and never read.

    The scan is by name, as above, so it cannot catch a field that shares
    its name with a local variable or parameter read somewhere (``spec``,
    ``crlb``): that read counts for the field too.
    """
    used = _names_read_outside_tests()
    classes = [getattr(radcom, name) for name in radcom.__all__]
    unread = sorted(f"{cls.__name__}.{f.name}" for cls in classes
                    if dataclasses.is_dataclass(cls)
                    for f in dataclasses.fields(cls) if f.name not in used)
    assert not unread, f"dataclass fields nothing in src/ or perfbench/ reads: {unread}"
