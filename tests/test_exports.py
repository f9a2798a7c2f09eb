"""Every name the package exports has a caller outside the tests.

A helper that only tests call is code the pipeline carries for nothing,
so this check reads the package modules (except __init__.py), the
benchmark under perfbench/ and the demos, parsed and never imported,
and requires each name that edgecache/__init__.py imports to appear in
them as a name, an attribute or an entry of perfbench's TRACED table.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "edgecache"

# Exported without a caller outside the tests, each for a reason.
EXEMPT = {
    "gradient_check": "the acceptance suite's numeric check of the CNN gradients",
    "read_pgm": "it reads back the PGM files that write_pgm and the render command write",
}


def _exports() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _used() -> set:
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    used = set()
    for path in sources:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Assign) and path.name == "tracing.py" and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
            ):
                for names in ast.literal_eval(node.value).values():
                    used.update(names)
    return used


def test_every_export_has_a_caller_outside_the_tests():
    exports = _exports()
    assert {"encode", "solve_exact", *EXEMPT} <= exports
    unused = exports - _used() - EXEMPT.keys()
    assert not unused, f"exported but called only by tests: {sorted(unused)}"
