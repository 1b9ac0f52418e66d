"""Every name a ``gpbudget`` module binds with ``from ... import`` is used in
that module: read from its syntax tree, nothing is imported."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gpbudget"


def unused_from_imports(source: str) -> list[str]:
    """Names bound by ``from ... import`` (``__future__`` aside) that no
    expression reads and ``__all__`` does not export."""
    tree = ast.parse(source)
    bound = {alias.asname or alias.name
             for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module != "__future__"
             for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(bound - used)


def test_finds_an_unused_name():
    source = "from os import path, sep\nfrom . import x\nprint(sep, x.y)\n"
    assert unused_from_imports(source) == ["path"]
    assert unused_from_imports("from os import path\n__all__ = ['path']\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_from_import_is_used(path):
    assert unused_from_imports(path.read_text()) == []
