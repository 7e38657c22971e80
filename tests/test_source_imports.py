"""Source hygiene: every module-level import in the package is used.

Checked with `ast` alone.  A name counts as used when the module reads it
anywhere (annotations included) or lists it in `__all__`.  `__future__`
imports and lines marked `# noqa: F401` are exempt; the latter keeps names
importable for callers outside the package, such as `engine.matmul`, which
the benchmark's tracer wraps.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mstrack"


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> list:
    """Names bound by module-level imports of `source` that it never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport sys\nprint(sys.argv)\n"
    assert unused_imports(source) == ["os (line 2)"]
    assert unused_imports("from .k import m  # noqa: F401\n") == []
    assert unused_imports("from .k import m\n__all__ = ['m']\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_import_goes_unused(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
