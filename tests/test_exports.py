"""Every name a module exports resolves, so ``from module import *`` works,
and the package re-exports only names its modules export."""

import ast
import importlib
from pathlib import Path

import pytest

import hypmetrics


@pytest.mark.parametrize("module", ["geometry", "metrics", "mobius", "suite"])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"hypmetrics.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_package_reexports_only_exported_names():
    tree = ast.parse(Path(hypmetrics.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    stale = [
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if alias.name not in importlib.import_module(f"hypmetrics.{node.module}").__all__
    ]
    assert stale == []
