"""Every name a module exports resolves, so ``from ... import *`` works,
and no module imports a name it never uses.

Deleting a function without dropping it from ``__all__`` fails here
instead of breaking the star import, and deleting its last caller
without its import fails here too.
"""

import ast
import importlib
from pathlib import Path

import pytest

MODULES = (
    "trendcomp",
    "trendcomp.chains",
    "trendcomp.cli",
    "trendcomp.contrasts",
    "trendcomp.ctp",
    "trendcomp.data",
    "trendcomp.model",
    "trendcomp.mvn",
    "trendcomp.simulate",
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def imported_but_unused(source: str) -> list:
    """The names ``source`` imports but neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used | exported]


def test_the_unused_import_check_finds_one():
    assert imported_but_unused("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        "os (line 1)",
        "tau (line 2)",
    ]


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_a_name_it_never_uses(name):
    path = Path(importlib.import_module(name).__file__)
    assert imported_but_unused(path.read_text()) == []
