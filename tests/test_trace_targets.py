"""The benchmark's trace targets must exist in the library.

``perfbench/tracing.py`` wraps each ``(module, attribute)`` of its
``TRACED`` table by name, and ``perfbench/speed.py`` uses the same table in
every untraced benchmark item, so a renamed or deleted target fails every
benchmark item.  This test fails first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


@pytest.mark.parametrize("name,module_name,attr", _traced())
def test_trace_target_resolves(name, module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        # methods are patched on their class, so they must be defined there
        assert callable(getattr(module, cls_name).__dict__[meth]), name
    else:
        assert callable(getattr(module, attr)), name
