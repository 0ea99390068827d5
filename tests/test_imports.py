"""Every name a module of the package imports is used in that module, and
every function and class it defines is read by the package itself."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import bcmcf

MODULES = sorted(
    p for p in Path(bcmcf.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression of ``source`` reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detector_sees_unused_and_used_names():
    source = (
        "import os.path\nimport sys as system\nfrom fractions import Fraction\n"
        "from typing import Sequence\n\ndef f(x: Sequence) -> None:\n    os.path.join(x)\n"
    )
    assert unused_imports(source) == ["Fraction", "system"]


def unread_definitions(sources: list[str]) -> list[str]:
    """Top-level functions and classes of ``sources`` that no other statement reads.

    A definition counts as read where some other top-level statement, in any
    of the sources, loads its name as a ``Name`` or as the attribute of an
    ``Attribute``; a recursive call inside its own body does not count.
    """
    statements = [stmt for source in sources for stmt in ast.parse(source).body]
    reads = [
        {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(stmt)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
        }
        for stmt in statements
    ]
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted(
        stmt.name
        for i, stmt in enumerate(statements)
        if isinstance(stmt, defs) and not any(stmt.name in r for j, r in enumerate(reads) if j != i)
    )


def test_every_definition_is_read_by_the_package():
    # a helper that only tests reach belongs with the tests
    assert unread_definitions([p.read_text(encoding="utf-8") for p in MODULES]) == []


def test_detector_sees_unread_and_read_definitions():
    sources = [
        "def used():\n    return 1\n\ndef recursive(n):\n    return recursive(n - 1)\n\n"
        "class Orphan:\n    pass\n",
        "import m\n\ndef caller() -> Annotated:\n    return m.used()\n\nclass Annotated:\n    pass\n",
    ]
    assert unread_definitions(sources) == ["Orphan", "caller", "recursive"]
