"""The benchmark's trace targets and entry points must exist in the library.

``perfbench/tracing.py`` wraps each ``(module, attribute)`` of its
``TRACED`` table by name, and ``perfbench/speed.py`` uses the same table in
every untraced benchmark item, so a renamed or deleted target fails every
benchmark item.  The benchmark scripts also import names from ``hlmod`` and
read attributes off its modules, some of them outside ``TRACED``; a renamed
one breaks the benchmark's set-ups or items.  These tests fail first.  The
kernel targets must also stay on the path of a suite check, where the
benchmark's speed probes run.
"""

import ast
import functools
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from hlmod import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
FIXTURES = PERFBENCH.parent / "fixtures"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


@pytest.mark.parametrize("name,module_name,attr", _tracing().TRACED)
def test_trace_target_resolves(name, module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        # methods are patched on their class, so they must be defined there
        assert callable(getattr(module, cls_name).__dict__[meth]), name
    else:
        assert callable(getattr(module, attr)), name


def _import_module_call(node) -> str | None:
    """The module name of ``importlib.import_module("hlmod...")``."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "import_module"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and str(node.args[0].value).split(".")[0] == "hlmod"
    ):
        return node.args[0].value
    return None


def _bench_references():
    """(script, module, attribute) for every name a benchmark script imports
    from ``hlmod`` and every attribute it reads off an ``hlmod`` module; the
    attribute is None where the script imports the module itself."""
    refs = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = {}  # local name -> hlmod module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "hlmod":
                        modules[alias.asname or alias.name] = alias.name
                        refs.add((path.name, alias.name, None))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hlmod":
                for alias in node.names:
                    submodule = f"{node.module}.{alias.name}"
                    if node.module == "hlmod" and importlib.util.find_spec(submodule) is not None:
                        modules[alias.asname or alias.name] = submodule
                        refs.add((path.name, submodule, None))
                    else:
                        refs.add((path.name, node.module, alias.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    refs.add((path.name, modules[node.value.id], node.attr))
                elif (name := _import_module_call(node.value)) is not None:
                    refs.add((path.name, name, node.attr))
    return sorted(refs, key=lambda ref: (ref[0], ref[1], ref[2] or ""))


@pytest.mark.parametrize("script,module_name,attr", _bench_references())
def test_bench_entry_point_resolves(script, module_name, attr):
    module = importlib.import_module(module_name)
    assert attr is None or hasattr(module, attr), f"{script}: {module_name}.{attr}"


def test_suite_check_enters_the_kernel_targets(capsys):
    # speed.py probes the machine's speed at traced call boundaries; a kernel
    # that no longer goes through its traced name would coarsen that scaling
    # without failing any other test
    tracing = _tracing()
    entered = Counter()

    def wrap(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    argv = ["polytope", "check", str(FIXTURES / "cube4.json"), "--all", "--seed", "7", "--tuples", "1", "--json"]
    with tracing.patched(wrap):
        assert cli.main(argv) == 0
    unused = {"exact.poly_det", "exact.apply_diff_op"}  # no check calls these
    wanted = [name for name, _, _ in tracing.TRACED if name.startswith("exact.") and name not in unused]
    wanted += ["hodge_lefschetz.combine", "hodge_lefschetz.product_block"]
    wanted += ["descent.descent", "descent.koszul_complex", "descent.purity_check"]
    assert [name for name in wanted if not entered[name]] == []
