"""The library imports nothing outside the standard library and itself."""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "forcelab"
MODULES = sorted(SRC.glob("*.py"))


def imported_roots(tree):
    """(line, top-level module) of each absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "cli.py", "collapse.py", "levy.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_relative_or_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = [(line, name) for line, name in imported_roots(tree)
               if name not in sys.stdlib_module_names]
    assert outside == []
