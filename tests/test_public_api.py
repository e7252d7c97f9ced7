"""Every public name earns its place: something outside tests uses it."""

import ast
from pathlib import Path

import radcom

ROOT = Path(__file__).resolve().parent.parent


def _loaded_names(path):
    """Names a module reads: bare names in load context and attribute names.

    Definitions (def, class, assignment targets) and imports are not reads.
    """
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_is_used_outside_its_definition():
    # The package's __init__ only re-exports, so it does not count as a use.
    sources = [p for p in (ROOT / "src" / "radcom").glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*(_loaded_names(p) for p in sources))
    unused = sorted(set(radcom.__all__) - used)
    assert not unused, f"public names with no caller in src/ or perfbench/: {unused}"
