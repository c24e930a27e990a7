"""Every name a module exports resolves, so ``from ... import *`` works,
no module imports a name it never uses, no private definition goes
unread, the chain record holds only what its quadrature reads, every
source file parses as the oldest supported Python, and CI runs the
tier-1 suite on that Python.

Deleting a function without dropping it from ``__all__`` fails here
instead of breaking the star import, and deleting its last caller
without its import or its private helpers fails here too.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest
import yaml

import trendcomp

ROOT = Path(__file__).resolve().parents[1]
# the oldest Python that pyproject.toml's requires-python admits
FLOOR = (3, 10)

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


def unread_private_names(sources: dict) -> list:
    """The private module-level definitions of ``sources`` that none of them reads.

    ``sources`` maps a label to a module's source.  A private name starts
    with ``_`` and is not a dunder; it is defined by a top-level function,
    class or assignment.  A read is a loaded name, an attribute or a name
    imported from another module, whose own use the check above covers.
    """
    defined, read = [], set()
    for label, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(label, name, node.lineno) for name in names]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [
        f"{label}: {name} (line {line})"
        for label, name, line in defined
        if name.startswith("_") and not name.endswith("__") and name not in read
    ]


def test_the_dead_definition_check_finds_them():
    sources = {
        "a": "__version__ = '1'\n_A = 1\n_B, _C = 2, 3\n"
        "def _f():\n    return _A\nclass _K:\n    pass\n",
        "b": "from a import _C\nprint(_C)\n",
    }
    assert unread_private_names(sources) == ["a: _B (line 3)", "a: _f (line 4)", "a: _K (line 6)"]


def test_no_private_definition_goes_unread():
    package = Path(trendcomp.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_every_file_parses_as_the_oldest_supported_python():
    # the grammar of the floor, which CI tests and a newer local Python does not
    assert 'requires-python = ">=%d.%d"' % FLOOR in (ROOT / "pyproject.toml").read_text()
    with pytest.raises(SyntaxError):  # an exception group needs 3.11
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)


def fields_not_read(source: str, record: str, function: str) -> list:
    """The fields of dataclass ``record`` that ``function`` never reads as ``chains.<field>``.

    Both are top-level definitions of ``source``.
    """
    top = {node.name: node for node in ast.parse(source).body if hasattr(node, "name")}
    fields = [node.target.id for node in top[record].body if isinstance(node, ast.AnnAssign)]
    read = {
        node.attr
        for node in ast.walk(top[function])
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "chains"
    }
    return [name for name in fields if name not in read]


def test_the_unread_field_check_finds_one():
    source = (
        "class Chains:\n    __eq__ = None\n    first: tuple\n    spare: tuple\n"
        "def chain_maxt(chains):\n    return chains.first\n"
        "def test_spare(chains):\n    return chains.spare\n"
    )
    assert fields_not_read(source, "Chains", "chain_maxt") == ["spare"]


def test_the_chain_record_holds_only_what_its_quadrature_reads():
    source = Path(importlib.import_module("trendcomp.chains").__file__).read_text()
    assert fields_not_read(source, "Chains", "chain_maxt") == []


def test_ci_runs_tier_one_weekly_on_the_oldest_python():
    # dependencies are unpinned, so a weekly run shows an upstream release
    # that breaks the suite; YAML 1.1 reads the key ``on`` as True
    workflow = yaml.safe_load((ROOT / ".github/workflows/tests.yml").read_text())
    assert {"push", "pull_request", "schedule", "workflow_dispatch"} <= set(workflow[True])
    assert workflow[True]["schedule"][0]["cron"]
    roadmap = (ROOT / "ROADMAP.md").read_text()
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap).group(1)
    job = workflow["jobs"]["tier1"]
    assert any(step.get("run", "").startswith(command) for step in job["steps"])
    assert "%d.%d" % FLOOR in job["strategy"]["matrix"]["python-version"]
