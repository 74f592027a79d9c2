"""JSON wire formats for modules, polytopes, torus data, and tuples.

Scalars use the string encoding from :mod:`hlmod.exact`; matrices are lists
of rows of scalar strings.  A matrix is read from its nonzero entries, each
distinct string parsed once, into a :class:`~hlmod.exact.Matrix` that keeps
the sparse view it was read as, and written from that view, only nonzero
entries formatted, so neither way builds a dense row.
:func:`module_text` defines the module file, which :func:`write_module`
writes a row at a time without ``json``'s pure-Python indenting encoder.
Importing a module validates its structure before accepting it, so
externally produced module files (for instance combinatorial intersection
cohomology computed elsewhere) can be checked by the same machinery that
handles the built-in constructions.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote  # what json.dumps writes a string with
from math import lcm
from typing import Callable, Iterator

from .exact import Matrix, format_scalar, fractions_over, parse_scalar
from .hodge_lefschetz import (
    BasisVector,
    GradedSpace,
    HLModule,
    OperatorFamily,
)
from .polytopes import SimplePolytope, build_polytope
from .report import CheckReport
from .torus import TorusSpec


class ModuleJSONError(ValueError):
    """Malformed module JSON (missing keys, ragged matrices, bad labels)."""


class ModuleCheckError(ValueError):
    """Structurally well-formed module JSON that fails the axiom checks."""

    def __init__(self, report: CheckReport):
        super().__init__("imported module fails validation: " + report.summary_line())
        self.report = report


def _list(value, what: str) -> list:
    """``value``, where the format has a JSON list; anything else, a string
    of one-character entries included, is malformed."""
    if not isinstance(value, list):
        raise ModuleJSONError(f"{what} must be a JSON list, got {type(value).__name__}")
    return value


def _int(value, what: str) -> int:
    """``value``, where the format has a JSON integer; ``int()`` would
    truncate a number with a fraction and read a bool or a string."""
    if type(value) is not int:
        raise ModuleJSONError(f"{what} must be a JSON integer, got {type(value).__name__}")
    return value


def _sparse_entries(rows: list[list], cols: int) -> tuple[list[dict], int]:
    """The entries other than ``"0"`` of rows of ``cols`` strings, found by
    ``list.count`` and ``list.index``, as one ``{col: numerator}`` dict per
    row over the lcm d of their denominators, and d."""
    ratios: dict[str, tuple] = {}  # each distinct string: (numerator, denominator)
    found = []  # per row, (column, string) of each entry that is not "0"
    for row in rows:
        at = []
        if row.count("0") != cols:
            distinct = set(row)
            distinct.discard("0")
            for s in distinct:
                if s not in ratios:
                    ratios[s] = parse_scalar(s).as_integer_ratio()
                j = -1
                for _ in range(row.count(s)):
                    j = row.index(s, j + 1)
                    at.append((j, s))
            at.sort()
        found.append(at)
    d = lcm(*(q for _, q in ratios.values()))
    scaled = {s: p * (d // q) for s, (p, q) in ratios.items() if p}  # a spelled zero ("0/5") drops out
    return [{j: scaled[s] for j, s in at if s in scaled} if at else {} for at in found], d


def matrix_from_json(rows, expected_cols: int | None = None) -> Matrix:
    """The matrix of rows of scalar strings, read by :func:`_sparse_entries`;
    on a malformed entry or row, the error of the first in row order."""
    rows = [_list(row, "a matrix row") for row in _list(rows, "a matrix")]
    cols = len(rows[0]) if rows else (expected_cols or 0)
    if all(len(row) == cols for row in rows):
        try:
            return Matrix.from_sparse(*_sparse_entries(rows, cols), cols)
        except (ValueError, TypeError, AttributeError):
            pass  # a malformed entry: the scan below names the first in row order
    try:
        for e in (e for row in rows for e in row if e != "0"):
            parse_scalar(e)
    except (ValueError, TypeError, AttributeError) as exc:  # AttributeError: an entry not a string
        raise ModuleJSONError(f"bad matrix entry: {exc}") from exc
    raise ModuleJSONError("ragged matrix")


def _rational_from_json(s) -> Fraction:
    try:
        value = parse_scalar(str(s))
    except ValueError as exc:
        raise ModuleJSONError(f"bad rational {s!r}: {exc}") from exc
    if not isinstance(value, Fraction):
        raise ModuleJSONError(f"expected a rational, got {s!r}")
    return value


# -- modules -----------------------------------------------------------------


def _array(items: list[str], line: str) -> str:
    return "[" + line + ("," + line).join(items) + line[:-1] + "]" if items else "[]"


def _rows(m: Matrix, line: str) -> Iterator[str]:
    """The rows of ``m``, an entry a ``line``: see :func:`module_text`."""
    rows, d = m.sparse_numerators()
    zero = _array(['"0"'] * m.cols, line)
    for row in rows:
        if not row:
            yield zero
            continue
        items = ['"0"'] * m.cols
        for j, x in zip(row, fractions_over(list(row.values()), d)):
            items[j] = _quote(format_scalar(x))
        yield _array(items, line)


def _write_json(value, depth: int, write: Callable[[str], object]) -> None:
    """The list, dict or matrix ``value`` at ``depth`` as the indent=1 dump lays
    it out; a string item is JSON text already, and a matrix holds its rows."""
    keyed, matrix = isinstance(value, dict), isinstance(value, Matrix)
    if not (value.rows if matrix else value):
        return write("{}" if keyed else "[]")
    line = "\n" + " " * (depth + 1)
    sep = ("{" if keyed else "[") + line
    for item in sorted(value.items()) if keyed else _rows(value, line + " ") if matrix else value:
        if keyed:
            key, item = item
            sep += _quote(key) + ": "
        if isinstance(item, str):
            write(sep + item)
        else:
            write(sep)
            _write_json(item, depth + 1, write)
        sep = "," + line
    write(line[:-1] + ("}" if keyed else "]"))


def write_module(module: HLModule, write: Callable[[str], object]) -> None:
    """Pass :func:`module_text` to ``write``, a matrix row at most at a time."""
    cones = module.cone.matrices if module.cone else [None] * len(module.family)
    basis = [{"id": str(i), "ell": str(v.grade), "p": str(v.p), "q": str(v.q)} for i, v in enumerate(module.space.vectors)]
    generators = [
        {"name": _quote(name), "matrix": mat} | ({} if cone is None else {"cone": cone})
        for name, mat, cone in zip(module.family.names, module.family.matrices, cones)
    ]
    reference = [_quote(format_scalar(c)) for c in module.reference]
    obj = {"basis": basis, "conjugation": module.space.conjugation, "form": module.form,
           "generators": generators, "reference": reference, "weight": str(module.weight)}
    _write_json(obj, 0, write)


def module_text(module: HLModule) -> str:
    """The module file: exactly ``json.dumps(obj, sort_keys=True, indent=1)``
    for the module's JSON object, each generator with its matrix K_j of the
    cone pencil under ``cone`` when the module has one.  :func:`_write_json`
    keeps the dump's layout (sorted keys, an item a line one space deeper,
    bare ``[]`` and ``{}`` when empty) and its escaping.  A matrix's all-zero
    rows share one string; any other row formats its nonzero numerators only."""
    parts: list[str] = []
    write_module(module, parts.append)
    return "".join(parts)


def module_to_json(module: HLModule) -> dict:
    """The module's JSON object, read back from :func:`module_text`."""
    return json.loads(module_text(module))


def module_from_json(data: dict) -> HLModule:
    """Parse and validate a module from its JSON form.

    Raises :class:`ModuleJSONError` for malformed data and
    :class:`ModuleCheckError` (carrying the report) when the parsed module
    fails a structural axiom.  The cone pencil is read from the generators'
    ``cone`` entries, which all generators carry or none; without them the
    module's cone is the ray of its reference.
    """
    try:
        weight = _int(data["weight"], "weight")
        basis_rows = _list(data["basis"], "basis")
        labels = [[_int(b[key], f"basis {key}") for key in ("id", "ell", "p", "q")] for b in basis_rows]
        vectors = tuple(BasisVector(*label[1:]) for label in labels)
        n = len(vectors)
        conjugation = matrix_from_json(data["conjugation"], n)
        form = matrix_from_json(data["form"], n)
        generators = _list(data["generators"], "generators")
        names = tuple(str(g["name"]) for g in generators)
        mats = tuple(matrix_from_json(g["matrix"], n) for g in generators)
        reference = tuple(_rational_from_json(c) for c in _list(data["reference"], "reference"))
        cones = [matrix_from_json(g["cone"]) for g in generators if "cone" in g]
    except (KeyError, TypeError, ValueError) as exc:
        raise ModuleJSONError(f"malformed module JSON: {exc}") from exc
    if cones and (
        len(cones) != len(names)
        or not cones[0].rows
        or any((c.rows, c.cols) != (cones[0].rows, cones[0].rows) for c in cones)
        or not all(c.is_hermitian() for c in cones)
    ):
        raise ModuleJSONError(
            "the generators' cone entries must be nonempty Hermitian matrices of one size, one per generator"
        )
    if [label[0] for label in labels] != list(range(n)):
        raise ModuleJSONError("basis ids must be 0..n-1 in order")
    if conjugation.rows != n or form.rows != n or any(m.rows != n or m.cols != n for m in mats):
        raise ModuleJSONError("matrix dimensions do not match the basis size")
    if len(reference) != len(names):
        raise ModuleJSONError("reference length does not match the generators")
    module = HLModule(
        space=GradedSpace(weight, vectors, conjugation),
        form=form,
        family=OperatorFamily(names, mats),
        reference=reference,
        cone=OperatorFamily(names, tuple(cones)) if cones else None,
    )
    report = module.structure
    if report.verdict == "input-error":
        raise ModuleJSONError(report.data.get("error", "invalid module"))
    if not report.passed:
        raise ModuleCheckError(report)
    return module


# -- polytopes ----------------------------------------------------------------


def polytope_from_json(data: dict) -> SimplePolytope:
    try:
        name = str(data.get("name", ""))
        dim = _int(data["dim"], "dim")
        normals = [[_rational_from_json(c) for c in _list(row, "a normal")] for row in _list(data["normals"], "normals")]
        support = [_rational_from_json(c) for c in _list(data["support"], "support")]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ModuleJSONError(f"malformed polytope JSON: {exc}") from exc
    if any(len(row) != dim for row in normals):
        raise ModuleJSONError("normal vectors do not match the stated dimension")
    return build_polytope(normals, support, name)


# -- torus ---------------------------------------------------------------------


def torus_spec_from_json(data: dict) -> TorusSpec:
    try:
        dim = _int(data["dim"], "dim")
        hermitians = tuple(matrix_from_json(h, dim) for h in _list(data["hermitians"], "hermitians"))
        reference = tuple(_rational_from_json(c) for c in _list(data["reference"], "reference"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ModuleJSONError(f"malformed torus JSON: {exc}") from exc
    return TorusSpec(dim, hermitians, reference)


# -- operator tuples -----------------------------------------------------------


def tuple_from_json(data) -> list[dict[str, Fraction]]:
    """Tuples as arrays of coefficient maps over generator names.

    Accepts both ``[{"T": {"d1": "1"}}, ...]`` and bare ``[{"d1": "1"}, ...]``.
    """
    out = []
    if not isinstance(data, list):
        raise ModuleJSONError("tuple JSON must be a list")
    for entry in data:
        if not isinstance(entry, dict):
            raise ModuleJSONError("tuple entries must be objects")
        body = entry.get("T", entry)
        if not isinstance(body, dict):
            raise ModuleJSONError("tuple entry 'T' must be an object")
        out.append({str(k): _rational_from_json(v) for k, v in body.items()})
    return out
