"""Every name a module exports resolves, so ``from module import *`` works."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["geometry", "metrics", "mobius", "suite"])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"hypmetrics.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
