"""Every name a module imports is used in it (``__init__`` re-exports by design)."""

import ast
from pathlib import Path

import pytest

import orbitconics

PACKAGE = Path(orbitconics.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import math\nimport os\nfrom a.b import c as d\nos.sep\n") == [
        "math (line 1)", "d (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


#: Names whose import would put sweep code back into the CLI, which calls the library's sweeps.
SWEEP_CODE = {"numpy", "Skips", "sample_grid", "ellipse_axes"}


def imported_names(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.split(".")[0])
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[0] for alias in node.names)
    return names


def test_the_sweep_check_sees_a_sweep_import():
    source = "def f():\n    import numpy.linalg\n    from .kernel import Skips as S\n"
    assert imported_names(source) & SWEEP_CODE == {"numpy", "Skips"}


def test_the_cli_has_no_sweep_code():
    assert imported_names((PACKAGE / "cli.py").read_text()) & SWEEP_CODE == set()
