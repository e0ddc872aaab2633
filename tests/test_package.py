"""Tests for the package metadata and its stdlib-only dependencies."""

import ast
import importlib
import re
import sys
import types
from pathlib import Path

import pytest

import monocurve

ROOT = Path(__file__).resolve().parent.parent


def test_pyproject_matches_package():
    tomllib = pytest.importorskip("tomllib")
    pyproject = ROOT / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert project["name"] == "monocurve"
    assert project["version"] == monocurve.__version__


def test_imports_are_stdlib_only():
    """Every absolute import under ``src/monocurve`` names a standard-library module."""
    sources = sorted((ROOT / "src" / "monocurve").glob("*.py"))
    assert len(sources) >= 10
    imported = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported
    assert sorted(imported - sys.stdlib_module_names) == []


CALCULATOR = sorted([
    "build_semigroup", "build_resolution", "zeta_closed_form", "characteristic_polynomial",
    "verify_conjecture", "cross_check",
    "PlaneSemigroup", "ResolutionGraph", "GraphLevel", "Stratum",
    "ConjectureReport", "PoleEntry", "CharacteristicPolynomial", "FactorProduct",
    "BudgetExceeded", "HypothesisViolated", "IllFormed", "InternalInconsistency",
    "MonocurveError", "NotCoprime", "NotDivisible", "NotPlane", "NotPolynomial",
    "NotRepresentable",
    "CyclicQuotientType", "count_solutions_total", "count_solutions_fixed_tail",
    "enum_count_solutions",
])

MODULE_ONLY = {
    "cli": ["main"],
    "conjecture": ["candidate_poles"],
    "crosscheck": ["DENSE_MU_CAP", "campaign"],
    "oracle": ["EnumerationBudget", "enum_digits", "expand_and_verify", "grid_discrepancies"],
    "qspace": ["WeightedCurveSpec", "curve_component_count", "curve_open_euler"],
    "resolution": ["export_graph", "zeta_from_graph"],
    "semigroup": ["decompose", "min_last_generator", "plane_semigroups", "random_semigroup"],
    "zeta": [
        "cyclotomic_exponent", "milnor_number", "negative_cyclotomic_orders",
        "resolution_multiplicities",
    ],
}


def test_package_namespace_is_the_calculator():
    assert len(CALCULATOR) == 28
    assert sorted(monocurve.__all__) == CALCULATOR
    for name in CALCULATOR:
        assert getattr(monocurve, name).__name__ == name
    public = {
        name for name, obj in vars(monocurve).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert public == set(CALCULATOR)


@pytest.mark.parametrize("module", sorted(MODULE_ONLY))
def test_other_names_import_from_their_modules(module):
    # The whole __all__: the names only this module exports, and the calculator names it defines.
    mod = importlib.import_module(f"monocurve.{module}")
    defined = [name for name in CALCULATOR if getattr(monocurve, name).__module__ == mod.__name__]
    assert sorted(mod.__all__) == sorted(MODULE_ONLY[module] + defined)
    for name in MODULE_ONLY[module]:
        assert hasattr(mod, name) and not hasattr(monocurve, name)


def test_readme_library_block_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("## Library", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", library.split("\n## ", 1)[0], re.S)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "(1-t^2)^2 (1-t^13) / (1-t^6) (1-t^26)"
    assert lines[2:] == ["True", "(6, 2, 2, 1)"]
