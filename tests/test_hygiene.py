"""Static checks on the source tree: no unused imports, no public name
without a caller or a stated reason, and numpy as the only runtime
dependency.

An import is unused when the module never loads the bound name (a bare
``Name`` or the base of an attribute chain) and does not list it in
``__all__``.  Package ``__init__.py`` files are skipped: their imports are
the public re-exports.  A public top-level function or class of the package
is called when the package or the benchmark loads its name, as a bare
``Name`` or an attribute of a package module (``optimizer.objective``, not
a field read ``r.objective``); tests do not count.  Only the standard library's
``ast`` and ``tomllib`` are used.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "gaussdesign").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
FILES = sorted(MODULES + list((ROOT / "tests").glob("*.py")))
CALLERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))

# Public names that nothing in the package or the benchmark calls, each kept
# on purpose.  The README lists the same names and reasons.
KEPT = {
    "apply_map": "dense f(VV^T); the tests' reference for the streamed reductions",
    "r_ij": "the single-indicator covariance that every map combines; the "
            "tests' closed-form oracle for the quadrature kernel",
    "factor_from_rows": "builds a design from any user matrix by normalizing "
                        "its rows; the tests' way to make random factors",
    "block_factor": "the block-equicorrelation designs of the acceptance suite "
                    "(matched pairs)",
    "sample": "the library's draw of B treatment vectors as one array; the CLI "
              "writes the same rows chunk by chunk",
    "validate": "checks that a user's Sigma lies on the elliptope; the tests' "
                "PSD oracle",
    "records_to_csv": "writes the record files that estimate and ci read",
    "ht_continuous": "the public HT estimate of a continuous estimand, beside "
                     "ht_arm and ht_contrast",
    "mehler_series": "the Hermite-series covariance of two transforms, the "
                     "reference for continuous_cov_maps",
    "normalized_hermite": "the normalized Hermite polynomials behind the "
                          "continuous maps, for user-side checks",
    "true_variance": "acceptance suite: the exact design variance of an arm "
                     "estimator",
    "objective": "acceptance suite: the PGD objective of a design",
    "gradient_nuclear": "acceptance suite: the nuclear-norm gradient",
    "gradient_operator": "acceptance suite: the operator-norm gradient",
    "pgd_step": "acceptance suite: one PGD step (I - eta G) V, renormalized",
    "mc_mse": "acceptance suite: Monte Carlo MSE of a design",
    "gen_continuous": "acceptance suite: the continuous-treatment scenarios, "
                      "which simulate does not register yet",
}


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


def _base_name(node):
    """The last name of an attribute's base: ``m`` of ``m.f`` and of
    ``pkg.m.f``; None for any other base."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def uncalled_names(modules, callers):
    """Public top-level def/class names of the ``modules`` sources (a dict
    of module name to source) that no ``callers`` source loads, as a bare
    ``Name`` or as an attribute of one of those modules (``optimizer.f``):
    ``r.f`` reads a field or method of some value, not the module's f."""
    defined = set()
    for source in modules.values():
        defined.update(node.name for node in ast.parse(source).body
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                            ast.ClassDef))
                       and not node.name.startswith("_"))
    loaded = set()
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and _base_name(node.value) in modules):
                loaded.add(node.attr)
    return defined - loaded


def test_every_public_name_has_a_caller_or_a_reason():
    uncalled = uncalled_names({p.stem: p.read_text() for p in MODULES},
                              [p.read_text() for p in CALLERS])
    assert not uncalled - KEPT.keys(), (
        "public names with no caller in the package or the benchmark; call, "
        f"delete or keep each in KEPT with a reason: {sorted(uncalled - KEPT.keys())}")
    assert not KEPT.keys() - uncalled, (
        f"KEPT names that now have a caller or are gone: {sorted(KEPT.keys() - uncalled)}")


def test_checker_flags_an_uncalled_public_name():
    module = ("def used():\n    pass\n\n\ndef unused():\n    pass\n\n\n"
              "def _private():\n    pass\n\n\nclass Thing:\n    def method(self):\n"
              "        pass\n\n\nclass Assigned:\n    pass\n")
    caller = "import m\nm.used()\nThing().method()\nm.Assigned = None\n"
    assert uncalled_names({"m": module}, [caller]) == {"unused", "Assigned"}


def test_checker_counts_an_attribute_of_a_package_module_only():
    # a TraceRow's ``r.objective`` field used to hide optimizer.objective
    module = "def objective():\n    pass\n"
    assert uncalled_names({"optimizer": module}, ["r.objective\n"]) == {"objective"}
    for caller in ("optimizer.objective(p, f)\n", "gaussdesign.optimizer.objective\n"):
        assert uncalled_names({"optimizer": module}, [caller]) == set()


def test_numpy_is_the_only_runtime_dependency():
    # scipy is a test oracle only (the test extra); the package runs on numpy
    tomllib = pytest.importorskip("tomllib")   # the standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0]
            for dep in project["dependencies"]] == ["numpy"]
