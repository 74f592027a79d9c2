"""hlmod depends on nothing outside the Python standard library.

Every import in ``src/hlmod`` must be relative to the package, of the
package itself, or of a standard-library module.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hlmod"


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
