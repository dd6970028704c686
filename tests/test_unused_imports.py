"""No module in ``src/`` or ``tests/`` imports a name it never uses.

A stdlib stand-in for the lint rule ``ruff check --select F401 src
tests``, so the rule also runs where ruff is not installed.  A name
counts as used when the module reads it anywhere (scopes are not told
apart), lists it in ``__all__``, names it in a string annotation, or
re-exports it as ``import x as x``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _names(tree: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _used(tree: ast.Module) -> set[str]:
    used = _names(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            ann = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ann = node.returns
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                used |= {c.value for c in ast.walk(node.value)
                         if isinstance(c, ast.Constant)}
            continue
        else:
            continue
        for c in ast.walk(ann) if ann is not None else ():
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used |= _names(ast.parse(c.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[str]:
    """``"line N: name"`` for every name ``source`` imports and never uses."""
    tree = ast.parse(source)
    used = _used(tree)
    return [f"line {node.lineno}: {alias.asname or alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (alias.asname or alias.name.split(".")[0]) not in used
            and alias.asname != alias.name]


def test_no_module_imports_a_name_it_never_uses():
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text())
             for d in ("src", "tests") for p in sorted((ROOT / d).rglob("*.py"))}
    assert {path: names for path, names in found.items() if names} == {}


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys)\n") == ["line 1: os"]
    assert unused_imports(
        "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n"
        "    from x import Y\ndef f(a: 'list[Y]'): pass\n") == []
    assert unused_imports("from x import y, z as z\n__all__ = ['y']\n") == []
