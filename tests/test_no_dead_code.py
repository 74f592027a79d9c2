"""hlmod carries no unused modules, imports or unreferenced private functions.

Every name a module of ``src/hlmod`` imports (other than the package's
``__init__.py``, which imports to re-export) must be used in that module,
every module-level ``_private`` function and every ``_private`` method
must be referenced somewhere in the package, and every function defined
inside another must be referenced in the enclosing function outside its
own body.  A refactor that leaves a helper or an import behind fails here.
A public module-level function, and a public method, must be reached from
outside the tests: used in another function of the package, read by a
benchmark script, or named in the README; the few functions that only the
tests reach are listed by name.  Every module must be reached from the
package's ``__init__.py`` or from its CLI through the package's own imports,
so a module that only the tests import fails here.  No object is written
after construction: what a frozen dataclass keeps beyond its fields is a
``cached_property`` of them, never an ``object.__setattr__``.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hlmod"
FILES = sorted(SRC.glob("*.py"))
MODULES = [p for p in FILES if p.name != "__init__.py"]

# public functions that only the tests reach, kept public on purpose
TEST_ONLY_PUBLIC = ["primitive_subspace", "repeated_descent"]


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _names(tree: ast.AST, skip: ast.AST | None = None):
    """Names read as variables and attribute names, anywhere in the tree
    outside the subtree ``skip``, once per use."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        stack.extend(ast.iter_child_nodes(node))


def _used_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    return set(_names(tree, skip))


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


def _package_imports(path: Path) -> set[str]:
    """The names of the package's modules that ``path`` imports, relatively
    or as ``hlmod.<name>``."""
    names = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "hlmod." + (node.module or "") if node.level else node.module or ""
            names.add(base)
            names.update(f"{base.rstrip('.')}.{alias.name}" for alias in node.names)  # from . import torus
    return {name.split(".")[1] for name in names if name.startswith("hlmod.")}


def test_every_module_is_reached_from_the_package_or_the_cli():
    paths = {p.stem: p for p in FILES}
    reached, todo = set(), ["__init__", "cli"]
    while todo:
        stem = todo.pop()
        if stem not in reached:
            reached.add(stem)
            todo.extend(_package_imports(paths[stem]) & paths.keys())
    assert sorted(paths.keys() - reached) == []


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


def _bench_names() -> set[str]:
    """Names the benchmark scripts use, import, or spell in a string: the
    trace table names its targets as "module" and "Class.method" strings."""
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = _tree(path)
        names |= _used_names(tree) | set(_imported_names(tree))
        strings = (node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str))
        names.update(part for value in strings for part in value.split("."))
    return names


def _test_only(defs) -> list[str]:
    """The labels, sorted, of the public definitions among the (label, node)
    pairs ``defs`` lists that nothing but their own body uses in the
    package, the benchmark or the README."""
    trees = [_tree(p) for p in MODULES]
    uses = Counter(name for tree in trees for name in _names(tree))
    reached = _bench_names() | set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    return sorted(
        label
        for label, node in defs(trees)
        if not node.name.startswith("_")
        and node.name not in reached
        and uses[node.name] == sum(name == node.name for name in _names(node))  # only in its own body
    )


def test_every_public_function_is_reached_outside_the_tests():
    def functions(trees):
        return [(node.name, node) for tree in trees for node in tree.body if isinstance(node, ast.FunctionDef)]

    assert _test_only(functions) == TEST_ONLY_PUBLIC


def test_every_public_method_is_reached_outside_the_tests():
    def methods(trees):
        return [
            (f"{cls.name}.{node.name}", node)
            for tree in trees
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef)
        ]

    assert _test_only(methods) == []


def test_no_object_is_written_after_construction():
    found = [
        f"{path.name}:{node.lineno}"
        for path in FILES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"
    ]
    assert found == []
