"""Static checks on the source tree: no unused imports.

An import is unused when the module never loads the bound name (a bare
``Name`` or the base of an attribute chain) and does not list it in
``__all__``.  Package ``__init__.py`` files are skipped: their imports are
the public re-exports.  Only the standard library's ``ast`` is used.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([p for p in (ROOT / "src" / "gaussdesign").glob("*.py")
                if p.name != "__init__.py"] + list((ROOT / "tests").glob("*.py")))


def unused_imports(source):
    """(line, name) of every imported name the module never uses."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        # names listed in __all__ are exports, not dead imports
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)


def test_checker_flags_an_unused_import():
    source = ("import os\nimport numpy as np\nfrom a.b import c, d\n"
              "from __future__ import annotations\nprint(np.pi, c)\n")
    assert unused_imports(source) == [(1, "os"), (3, "d")]


def test_checker_counts_attribute_bases_and_exports():
    source = "import os.path\nfrom x import y\n__all__ = ['y']\nos.path.join('a')\n"
    assert unused_imports(source) == []
