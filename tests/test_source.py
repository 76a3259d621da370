"""Static checks over the package source and the test-support modules."""

import ast
from pathlib import Path

import pytest

import sqdepth

SOURCES = sorted(Path(sqdepth.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
# every test module is held to the same lint as the package
LINTED = MODULES + sorted(Path(__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", LINTED, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# Each module imports only from the layers below its own: the engines'
# mask arithmetic at the bottom, the campaign and proof modules above the
# engines, then the report and the command line.
LAYERS = (
    ("monomial", "matching", "linalg"),
    ("criteria", "ideal_io"),
    ("partition", "koszul"),
    ("lab", "lemmas"),
    ("report",),
    ("cli",),
)
LAYER = {name: level for level, names in enumerate(LAYERS) for name in names}
# (importer, name) pairs read from the package itself
PACKAGE_IMPORTS = {("report", "__version__")}


def layer_violations(name: str, source: str) -> list[str]:
    """Relative imports of module ``name`` that do not come from a lower layer."""
    if name not in LAYER:
        return [f"{name} is in no layer"]
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        if node.module is None:
            targets = [a.name for a in node.names if (name, a.name) not in PACKAGE_IMPORTS]
        else:
            targets = [node.module.split(".")[0]]
        for target in targets:
            if LAYER.get(target, LAYER[name]) >= LAYER[name]:
                out.append(f"line {node.lineno}: {name} imports {target}")
    return out


def test_layer_check_finds_upward_imports():
    source = "from . import __version__\nfrom .monomial import x\ndef f():\n  from .lab import y\n"
    assert layer_violations("report", source) == []
    assert layer_violations("lemmas", source) == [
        "line 1: lemmas imports __version__", "line 4: lemmas imports lab",
    ]
    assert layer_violations("newmodule", source) == ["newmodule is in no layer"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_follow_layers(path):
    assert layer_violations(path.stem, path.read_text(encoding="utf-8")) == []


def unused_parameters(source: str) -> list[str]:
    """Parameters of a function or lambda that its body never reads.

    A read is an ``ast.Name`` in load context anywhere in the body, nested
    functions included; ``self`` and ``cls`` are skipped.
    """
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "lambda")
        out += [
            f"line {node.lineno}: {name}({p.arg})"
            for p in params
            if p is not None and p.arg not in ("self", "cls") and p.arg not in read
        ]
    return out


def test_unused_parameter_check_finds_unread_names():
    source = "def f(self, a, b, *c, d, **e):\n    b = a\n    return lambda x, y: x\n"
    assert unused_parameters(source) == [
        "line 1: f(b)", "line 1: f(c)", "line 1: f(d)", "line 1: f(e)", "line 3: lambda(y)",
    ]


@pytest.mark.parametrize("path", LINTED, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def assert_statements(source: str) -> list[str]:
    """``assert`` statements, which ``python -O`` strips: the package states
    its invariants as raised exceptions instead."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_assert_check_finds_assert_statements():
    source = "assert x\ndef f(y):\n    if y:\n        assert y, 'y'\n    raise AssertionError(y)\n"
    assert assert_statements(source) == ["line 1", "line 4"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_statements(path.read_text(encoding="utf-8")) == []
