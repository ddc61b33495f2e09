"""The library runs on the standard library alone.

Every absolute import of ``src/latticehk`` names either ``latticehk`` or a
standard-library module, and ``pyproject.toml`` declares no runtime
dependency; what the suite needs besides (pytest, hypothesis, and jsonschema
as the oracle of the scenario validator) is the ``test`` extra.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "latticehk"


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = {name for name in _absolute_imports(tree)
               if name.split(".")[0] not in
               {"latticehk", *sys.stdlib_module_names}}
    assert not foreign


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    assert "jsonschema>=4" in project["optional-dependencies"]["test"]
