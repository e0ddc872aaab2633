"""Tests for the package metadata."""

from pathlib import Path

import pytest

import monocurve

tomllib = pytest.importorskip("tomllib")


def test_pyproject_matches_package():
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert project["name"] == "monocurve"
    assert project["version"] == monocurve.__version__
