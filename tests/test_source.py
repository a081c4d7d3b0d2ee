"""Source hygiene: every name a package module imports is used in it."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import matchlab

MODULES = sorted(p for p in Path(matchlab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ imports to re-export


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name bound by an import, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"
