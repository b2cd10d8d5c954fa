"""Every exported name resolves: a deleted function must leave ``__all__`` too."""

import importlib

import pytest

import reachgeom

MODULES = ["cli", "curvature", "measures", "norms", "projection", "shapes", "theorems"]


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"reachgeom.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_exports_resolve():
    assert [name for name in reachgeom.__all__ if not hasattr(reachgeom, name)] == []
