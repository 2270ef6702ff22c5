"""Every name a ``zkleak`` module imports is used in that module.

The package's ``__init__.py`` imports names to re-export them, so it is
left out.  A name counts as used when it appears as an identifier or as
the head of a dotted name, also inside a string annotation.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import zkleak

MODULES = sorted(p for p in Path(zkleak.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree: ast.Module):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a forward reference such as "Machine" or "List[Machine]"
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [(name, line) for name, line in imported_names(tree)
              if name not in used]
    assert unused == [], f"{path.name}: imported but never used: {unused}"
