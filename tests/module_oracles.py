"""The module file as a dict of lists, the oracle of ``module_text``, and
the per-entry matrix reader, the oracle of ``matrix_from_json``.

``module_text`` writes the text of this object dumped with sorted keys and
an indent of 1; the writer builds the text from each matrix's numerators
instead, so the dict builder is kept here to check it against.  The reader
finds a matrix's nonzero entries by list operations and parses each
distinct string once; the oracle visits and parses every entry in row
order.  Also the loader of ``perfbench/workloads.py``, whose seeded inputs
the tests read.
"""

from __future__ import annotations

import importlib.util
import sys
from math import lcm
from pathlib import Path

from hlmod.exact import Matrix, format_scalar, fractions_over, parse_scalar
from hlmod.hodge_lefschetz import HLModule
from hlmod.serialization import ModuleJSONError, _list

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def matrix_to_json(m: Matrix) -> list[list[str]]:
    """The rows of ``m`` as scalar strings, written from its numerators: a
    zero is ``"0"``, and only a nonzero entry is built and formatted."""
    rows, d = m.numerators()
    return [[format_scalar(x) if v else "0" for v, x in zip(row, fractions_over(row, d))] for row in rows]


def oracle_matrix(rows, expected_cols: int | None = None) -> Matrix:
    """The matrix of rows of scalar strings, every entry other than ``"0"``
    parsed in row order, into numerators over the lcm of their denominators."""
    rows = [_list(row, "a matrix row") for row in _list(rows, "a matrix")]
    try:
        # (column, numerator, denominator) of each entry that is not "0"
        entries = [[(j, *parse_scalar(e).as_integer_ratio()) for j, e in enumerate(row) if e != "0"] for row in rows]
    except (ValueError, TypeError, AttributeError) as exc:  # AttributeError: an entry not a string
        raise ModuleJSONError(f"bad matrix entry: {exc}") from exc
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ModuleJSONError("ragged matrix")
    d = lcm(*{q for row in entries for _, _, q in row})
    cols = len(rows[0]) if rows else (expected_cols or 0)
    numerators = [[0] * cols for _ in rows]
    for out, row in zip(numerators, entries):
        for j, p, q in row:
            out[j] = p * (d // q)
    return Matrix.over(numerators, d, cols)


def oracle_dict(module: HLModule) -> dict:
    """The module as JSON; each generator carries its matrix K_j of the cone
    pencil under ``cone`` when the module has one."""
    cones = module.cone.matrices if module.cone else [None] * len(module.family)
    return {
        "weight": module.weight,
        "basis": [
            {"id": i, "ell": v.grade, "p": v.p, "q": v.q}
            for i, v in enumerate(module.space.vectors)
        ],
        "conjugation": matrix_to_json(module.space.conjugation),
        "form": matrix_to_json(module.form),
        "generators": [
            {"name": name, "matrix": matrix_to_json(mat)}
            | ({} if cone is None else {"cone": matrix_to_json(cone)})
            for name, mat, cone in zip(module.family.names, module.family.matrices, cones)
        ],
        "reference": [format_scalar(c) for c in module.reference],
    }


def bench_workloads():
    """``perfbench/workloads.py`` as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # where its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads
