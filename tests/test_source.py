"""Static checks over the package source."""

import ast
from pathlib import Path

import pytest

import sqdepth

MODULES = sorted(p for p in Path(sqdepth.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Top-level imported names that the module never reads.

    A read is an ``ast.Name``; the base of an attribute chain such as
    ``itertools.chain`` is one too.  ``__future__`` imports are skipped.
    """
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_unused_import_check_finds_stale_names():
    source = "from __future__ import annotations\nimport math, os.path\nfrom x import a, b as c\nos.sep\nc()\n"
    assert unused_imports(source) == ["line 2: math", "line 3: a"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
