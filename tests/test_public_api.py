"""The package's public names: each module's `__all__` and what `bisparse` re-exports."""

import ast
import importlib
from pathlib import Path

import pytest

import bisparse

MODULES = ("symcore", "projections", "measurements", "recovery", "bench")

# names the package no longer has: nothing outside the tests used them
REMOVED = ("eigen", "EigenDecomp", "restrict", "sym_enforce", "isometry_map", "read_map_header",
           "format_spec", "rank_project_on_support", "frob_inner", "ENSEMBLES")


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(f"bisparse.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [item for item in module.__all__ if not hasattr(module, item)]
    assert not missing


def test_package_reexports_only_listed_names():
    tree = ast.parse(Path(bisparse.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} == set(MODULES)
    for node in imports:
        listed = importlib.import_module(f"bisparse.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in listed] == [], node.module


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    assert not hasattr(bisparse, name)
    for module in MODULES:
        assert name not in importlib.import_module(f"bisparse.{module}").__all__
