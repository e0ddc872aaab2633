"""Tests for the package metadata and its stdlib-only dependencies."""

import ast
import sys
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
