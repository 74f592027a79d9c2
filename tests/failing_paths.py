"""Failure-path calls of the Lefschetz and mixed checkers, as canonical lines.

Every line is one call on the square, cube3 or torus2 module: the canonical
report of ``lefschetz_report``, ``polarization_check`` (also on the module
with its form negated) and the four mixed checkers on boundary tuples with
``require_cone=False``, plus the bases ``lefschetz_decomposition``,
``primitive_subspace`` and ``hermitian_primitive_form`` return (or the
precondition error they raise).  Most of the inputs lie outside the
polarizing cone, so the lines pin failure verdicts and witnesses, not only
passes.  ``tests/golden/failing-reports.jsonl`` holds the output;
regenerate it only for an intended change, with

    PYTHONPATH=src python tests/failing_paths.py > tests/golden/failing-reports.jsonl
"""

from __future__ import annotations

import json
from fractions import Fraction

from corpus import load_polytope, load_torus_spec
from hlmod import torus
from hlmod.exact import format_scalar
from hlmod.hodge_lefschetz import (
    HLModule,
    PreconditionError,
    _embed,
    _kernel_form,
    _rank_report,
    lefschetz_decomposition,
    polarization_check,
    primitive_subspace,
)
from hlmod.mixed import (
    kernel_weight_bound,
    mixed_decomposition_check,
    mixed_hlt_check,
    mixed_hrr_check,
)
from hlmod.polytopes import build_pkt_module
from hlmod.report import CheckReport


def lefschetz_report(module: HLModule, coeffs) -> CheckReport:
    """Per-grade rank report for the Lefschetz property of one operator, as
    the check suites print it for the reference."""
    try:
        return _rank_report(module, module.operator(coeffs))
    except PreconditionError as exc:
        return CheckReport("lefschetz-property", "hard-lefschetz").mark_input_error(str(exc))


def hermitian_primitive_form(module: HLModule, t, level: int, p: int, q: int):
    """The form i^(p-q) Q(u, T^l conj v) on the (p, q) primitive part of V_l,
    and the basis it is written in."""
    h, kern, _ = _kernel_form(module, [t] * (level + 1), p, q)
    return h, [_embed(v, module.space.bidegree_indices().get((p, q), []), module.dim) for v in kern]


def failing_modules() -> dict[str, HLModule]:
    return {
        "square": build_pkt_module(load_polytope("square")),
        "cube3": build_pkt_module(load_polytope("cube3")),
        "torus2": torus.build_torus_module(load_torus_spec("torus2")),
    }


def negated(module: HLModule) -> HLModule:
    """The module with its form negated: the axioms hold, positivity fails."""
    return HLModule(module.space, module.form.scale(Fraction(-1)), module.family, module.reference)


def _unit(i: int, n: int) -> tuple:
    return tuple(Fraction(int(j == i)) for j in range(n))


def classes(module: HLModule) -> list[tuple]:
    """The reference, its negative, every generator alone, and two sums."""
    n = len(module.reference)
    ref = tuple(module.reference)
    units = [_unit(i, n) for i in range(n)]
    out = [ref, tuple(-c for c in ref)] + units
    out.append(tuple(a + b for a, b in zip(units[0], units[1])))
    out.append(tuple(a + b for a, b in zip(ref, units[0])))
    return out


def tuples(module: HLModule, length: int) -> list[list[tuple]]:
    """Constant tuples of each class, plus reference tuples with one
    boundary entry, and the tuple running through the generators."""
    n = len(module.reference)
    ref = tuple(module.reference)
    out = [[c] * length for c in classes(module)]
    for i in range(n):
        out.append([ref] * (length - 1) + [_unit(i, n)])
    out.append([_unit(i % n, n) for i in range(length)])
    return out


def _coeffs(c) -> list[str]:
    return [format_scalar(x) for x in c]


def _basis(vectors) -> list[list[str]]:
    return [_coeffs(v) for v in vectors]


def _line(**fields) -> str:
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))


def failing_report_lines() -> list[str]:
    lines = []
    for name, module in failing_modules().items():
        k = module.weight
        neg = negated(module)
        for c in classes(module):
            rep = lefschetz_report(module, c)
            lines.append(_line(module=name, call="lefschetz_report", coeffs=_coeffs(c), report=rep.to_dict()))
            rep = polarization_check(module, c)
            lines.append(_line(module=name, call="polarization_check", coeffs=_coeffs(c), report=rep.to_dict()))
        rep = polarization_check(neg, neg.reference)
        lines.append(_line(module=f"{name}-negated", call="polarization_check", coeffs=_coeffs(neg.reference), report=rep.to_dict()))
        for c in classes(module):
            for grade in range(0, k + 1):
                try:
                    primitive, image = lefschetz_decomposition(module, c, grade)
                    result = {"primitive": _basis(primitive), "image": _basis(image)}
                except PreconditionError as exc:
                    result = {"error": str(exc)}
                lines.append(_line(module=name, call="lefschetz_decomposition", coeffs=_coeffs(c), grade=grade, result=result))
                try:
                    result = {"basis": _basis(primitive_subspace(module, c, grade))}
                except PreconditionError as exc:
                    result = {"error": str(exc)}
                lines.append(_line(module=name, call="primitive_subspace", coeffs=_coeffs(c), grade=grade, result=result))
        for target in (module, neg):
            t = target.operator(target.reference)
            for level in range(0, k + 1):
                for p in range(0, k + 1):
                    q = level + k - p
                    if not 0 <= q <= k:
                        continue
                    h, vectors = hermitian_primitive_form(target, t, level, p, q)
                    lines.append(_line(
                        module=name if target is module else f"{name}-negated",
                        call="hermitian_primitive_form",
                        level=level, p=p, q=q,
                        form=[_coeffs(row) for row in h.data],
                        basis=_basis(vectors),
                    ))
        for target in (module, neg):
            label = name if target is module else f"{name}-negated"
            for length in range(1, k + 1):
                for entries in tuples(target, length):
                    for check in (kernel_weight_bound, mixed_hlt_check):
                        rep = check(target, entries, require_cone=False)
                        lines.append(_line(module=label, call=check.__name__, entries=[_coeffs(c) for c in entries], report=rep.to_dict()))
            for length in range(1, k):
                for entries in tuples(target, length):
                    for check in (mixed_decomposition_check, mixed_hrr_check):
                        rep = check(target, entries, require_cone=False)
                        lines.append(_line(module=label, call=check.__name__, entries=[_coeffs(c) for c in entries], report=rep.to_dict()))
    return lines


if __name__ == "__main__":
    for line in failing_report_lines():
        print(line)
