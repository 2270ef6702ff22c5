"""Every parameter of a ``zkleak`` function is read in its body.

A parameter nothing reads is an argument every caller computes for
nothing.  ``self``, ``cls`` and names starting with ``_`` are left out:
the first two are bound by Python, and a leading underscore marks a
parameter a fixed call signature demands.  A read in a nested function
or lambda counts.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import zkleak

MODULES = sorted(Path(zkleak.__file__).parent.glob("*.py"))


def unread_params(tree: ast.Module):
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for param in params:
            name = param.arg
            if name in ("self", "cls") or name.startswith("_"):
                continue
            if name not in read:
                yield f"{node.name}({name}) at line {node.lineno}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unread = list(unread_params(tree))
    assert unread == [], f"{path.name}: parameters never read: {unread}"
