"""hlmod carries no unused imports and no unreferenced private functions.

Every name a module of ``src/hlmod`` imports (other than the package's
``__init__.py``, which imports to re-export) must be used in that module,
and every module-level ``_private`` function must be referenced somewhere
in the package.  A refactor that leaves a helper or an import behind fails
here.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hlmod"
FILES = sorted(SRC.glob("*.py"))
MODULES = [p for p in FILES if p.name != "__init__.py"]


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _used_names(tree: ast.AST) -> set[str]:
    """Names read as variables and attribute names, anywhere in the tree."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = _used_names(tree)
    assert [name for name in _imported_names(tree) if name not in used] == []


def test_every_private_function_is_referenced():
    trees = [_tree(p) for p in FILES]
    used = set().union(*(_used_names(t) for t in trees))
    private = [
        f"{path.name}:{node.name}"
        for path, tree in zip(FILES, trees)
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert private == []
