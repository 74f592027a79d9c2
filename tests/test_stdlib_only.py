"""hlmod depends on nothing outside the Python standard library, and runs
on the oldest Python it declares.

Every import in ``src/hlmod`` must be relative to the package, of the
package itself, or of a standard-library module.  Every file must parse
with the grammar of Python 3.10, the ``requires-python`` floor of
``pyproject.toml``, even when a newer interpreter runs the tests.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hlmod"
FLOOR = (3, 10)


def _imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_or_package(path):
    outside = [
        name
        for name in _imported_modules(path)
        if name.split(".")[0] != "hlmod" and name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def test_floor_is_the_declared_one():
    assert f'requires-python = ">={FLOOR[0]}.{FLOOR[1]}"' in (ROOT / "pyproject.toml").read_text()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_parses_at_the_python_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)
