"""No module in src/, tests/ or scripts/ imports a name it never uses.

No linter ships with the project, so this reads each file's syntax tree
with the standard ``ast`` module. A name bound by an import counts as used
if the module reads it anywhere, annotations included, or lists it in
``__all__``; ``import a.b`` counts as used only if the module reads
``a.b``. ``from __future__`` imports are directives, not names. perfbench/
is left out: it keeps a deliberate ``# noqa`` import.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))


def dotted(node):
    """``a.b.c`` for a Name or a chain of Attributes on one; else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def unused_imports(source):
    """The names that ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = set()
    for node in ast.walk(tree):
        name = dotted(node)
        while name:
            read.add(name)
            name = name.rpartition(".")[0]
        if isinstance(node, ast.Assign) and any(dotted(t) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_checker_sees_what_is_read_and_what_is_not():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import a.b\n"
        "import a.c\n"
        "from typing import Any, Optional as Opt\n"
        "x: Opt[int] = a.b.f(os.sep)\n"
    )
    assert unused_imports(source) == ["sys", "a.c", "Any"]


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
