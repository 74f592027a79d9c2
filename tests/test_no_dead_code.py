"""hlmod carries no unused imports and no unreferenced private functions.

Every name a module of ``src/hlmod`` imports (other than the package's
``__init__.py``, which imports to re-export) must be used in that module,
every module-level ``_private`` function and every ``_private`` method
must be referenced somewhere in the package, and every function defined
inside another must be referenced in the enclosing function outside its
own body.  A refactor that leaves a helper or an import behind fails here.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hlmod"
FILES = sorted(SRC.glob("*.py"))
MODULES = [p for p in FILES if p.name != "__init__.py"]


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _used_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read as variables and attribute names, anywhere in the tree
    outside the subtree ``skip``."""
    used = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return used


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


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
        and _is_private(node.name)
        and node.name not in used
    ]
    assert private == []


def test_every_private_method_is_referenced():
    trees = [_tree(p) for p in FILES]
    used = set().union(*(_used_names(t) for t in trees))
    private = [
        f"{path.name}:{cls.name}.{node.name}"
        for path, tree in zip(FILES, trees)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and _is_private(node.name)
        and node.name not in used
    ]
    assert private == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_nested_function_is_referenced(path):
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs = [node for node in ast.walk(_tree(path)) if isinstance(node, functions)]
    unused = [
        f"{outer.name}.{inner.name}"
        for outer in defs
        for inner in ast.walk(outer)
        if inner is not outer
        and isinstance(inner, functions)
        and inner.name not in _used_names(outer, skip=inner)
    ]
    assert unused == []
