"""The public names other code relies on must keep resolving.

The benchmark under ``perfbench/`` imports the package directly, so a
deletion that breaks it fails here rather than only as failed benchmark ops.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

import w2ghz
from w2ghz import hilbert

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def resolve(module_name: str, name: str):
    """What ``from module_name import name`` binds, or None if nothing."""
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return getattr(module, name)
    try:
        return importlib.import_module(f"{module_name}.{name}")
    except ModuleNotFoundError:
        return None


def package_imports(path: Path):
    """(module, name, attributes used on name) for each ``from w2ghz... import``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    attributes: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            attributes.setdefault(node.value.id, set()).add(node.attr)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "w2ghz":
            for alias in node.names:
                bound = alias.asname or alias.name
                yield node.module, alias.name, attributes.get(bound, set())


@pytest.mark.parametrize("name", w2ghz.__all__)
def test_all_names_resolve(name):
    assert getattr(w2ghz, name) is not None


def test_tolerances_are_unscaled():
    assert hilbert.tol(1.0) == 1.0


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_benchmark_imports_resolve(path):
    for module_name, name, attributes in package_imports(path):
        value = resolve(module_name, name)
        assert value is not None, f"{path.name}: {module_name}.{name} is gone"
        if isinstance(value, types.ModuleType):
            for attr in attributes:
                assert hasattr(value, attr), f"{path.name}: {module_name}.{name}.{attr} is gone"
