"""The package's export lists name only what its modules define."""

import importlib

import pytest

MODULES = ["declangevin", "declangevin.cli", "declangevin.graphs",
           "declangevin.langevin", "declangevin.metrics",
           "declangevin.models", "declangevin.pushsum", "declangevin.trace"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_works(name):
    scope = {}
    exec(f"from {name} import *", scope)
    assert set(importlib.import_module(name).__all__) <= set(scope)

