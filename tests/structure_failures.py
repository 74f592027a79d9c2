"""Structural validation of corrupted modules, as canonical lines.

Every line is the canonical ``validate_structure`` report of one seeded
corruption of the square, cube3 or torus2 module:

* 1, 2 or 3 entries of the conjugation C, of the form Q or of one
  generator set to a new value (a Gaussian rational half the time on
  torus2).  The positions are drawn anywhere (``any``), among the nonzero
  entries (``nonzero``), or where the axioms of bidegree allow an entry
  (``in-block`` for a generator, ``in-swap`` for C, ``symmetric`` for Q,
  which writes Q[i][j] and Q[j][i] with the parity (-1)^k);
* one or two basis labels edited: a grade moved alone (``grade``), p and q
  exchanged (``swap-pq``), p and q both raised with the grade (``shift``),
  p raised and q lowered (``tilt``), or the labels of two vectors exchanged
  (``exchange``).

Most corruptions break an axiom, so the lines pin the failing subchecks and
their witnesses, not only passes.  ``tests/golden/structure-failures.jsonl``
holds the output; regenerate it only for an intended change, with

    PYTHONPATH=src python tests/structure_failures.py > tests/golden/structure-failures.jsonl
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from fractions import Fraction

from corpus import load_polytope, load_torus_spec
from hlmod import torus
from hlmod.exact import GaussianRational, Matrix, format_scalar
from hlmod.hodge_lefschetz import (
    GradedSpace,
    HLModule,
    OperatorFamily,
    validate_structure,
)
from hlmod.polytopes import build_pkt_module
from matrix_edits import with_entries

ENTRY_MODES = {
    "conjugation": ("any", "nonzero", "in-swap"),
    "form": ("any", "nonzero", "symmetric"),
    "generator": ("any", "nonzero", "in-block"),
}
LABEL_MODES = ("grade", "swap-pq", "shift", "tilt", "exchange")


def structure_modules() -> dict[str, HLModule]:
    return {
        "square": build_pkt_module(load_polytope("square")),
        "cube3": build_pkt_module(load_polytope("cube3")),
        "torus2": torus.build_torus_module(load_torus_spec("torus2")),
    }


def _value(rng: random.Random, gaussian: bool):
    re = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    if gaussian and rng.random() < 0.5:
        return GaussianRational(re, Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2)))
    return re


def _positions(module: HLModule, mat: Matrix, kind: str, mode: str) -> list[tuple[int, int]]:
    """The positions a corruption of ``mode`` may write to."""
    n = module.dim
    vecs = module.space.vectors
    if mode == "any":
        return [(i, j) for i in range(n) for j in range(n)]
    if mode == "nonzero":
        return [(i, j) for i in range(n) for j in range(n) if mat.data[i][j]]
    if kind == "conjugation":
        return [(i, j) for i in range(n) for j in range(n) if (vecs[i].p, vecs[i].q) == (vecs[j].q, vecs[j].p)]
    if kind == "form":
        return [(i, j) for i in range(n) for j in range(n) if vecs[i].grade + vecs[j].grade == 0]
    return [
        (i, j)
        for i in range(n)
        for j in range(n)
        if (vecs[i].grade, vecs[i].p, vecs[i].q) == (vecs[j].grade - 2, vecs[j].p - 1, vecs[j].q - 1)
    ]


def _corrupt(module: HLModule, mat: Matrix, kind: str, mode: str, count: int, rng: random.Random, gaussian: bool):
    """A copy of ``mat`` with ``count`` cells rewritten, and those cells."""
    edits = {}
    cells = []
    positions = _positions(module, mat, kind, mode)
    for i, j in rng.sample(positions, min(count, len(positions))):
        value = _value(rng, gaussian)
        edits[i, j] = value
        cells.append([i, j, format_scalar(value)])
        if mode == "symmetric":
            edits[j, i] = (-1) ** module.weight * value
    return with_entries(mat, edits), cells


def _with(module: HLModule, kind: str, index: int, mat: Matrix) -> HLModule:
    if kind == "conjugation":
        return replace(module, space=GradedSpace(module.weight, module.space.vectors, mat))
    if kind == "form":
        return replace(module, form=mat)
    mats = list(module.family.matrices)
    mats[index] = mat
    return replace(module, family=OperatorFamily(module.family.names, tuple(mats)))


def _relabel(module: HLModule, mode: str, rng: random.Random) -> HLModule:
    vecs = list(module.space.vectors)
    a, b = rng.sample(range(len(vecs)), 2)
    v = vecs[a]
    if mode == "grade":
        vecs[a] = replace(v, grade=v.grade + rng.choice((-2, 2)))
    elif mode == "swap-pq":
        vecs[a] = replace(v, p=v.q, q=v.p)
    elif mode == "shift":
        vecs[a] = replace(v, grade=v.grade + 2, p=v.p + 1, q=v.q + 1)
    elif mode == "tilt":
        vecs[a] = replace(v, p=v.p + 1, q=v.q - 1)
    else:
        vecs[a], vecs[b] = vecs[b], v
    space = GradedSpace(module.weight, tuple(vecs), module.space.conjugation)
    return replace(module, space=space)


def _line(**fields) -> str:
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))


def structure_failure_lines() -> list[str]:
    lines = []
    for name, module in structure_modules().items():
        rng = random.Random(name)
        gaussian = name.startswith("torus")
        targets = [("conjugation", "C", 0, module.space.conjugation), ("form", "Q", 0, module.form)]
        targets += [("generator", g, idx, mat) for idx, (g, mat) in enumerate(zip(module.family.names, module.family.matrices))]
        for kind, label, index, mat in targets:
            for mode in ENTRY_MODES[kind]:
                for count in (1, 2, 3):
                    bad, cells = _corrupt(module, mat, kind, mode, count, rng, gaussian)
                    rep = validate_structure(_with(module, kind, index, bad))
                    lines.append(_line(module=name, target=label, mode=mode, cells=cells, report=rep.to_dict()))
        for mode in LABEL_MODES:
            for _ in range(2):
                edited = _relabel(module, mode, rng)
                labels = [[i, v.grade, v.p, v.q] for i, v in enumerate(edited.space.vectors)]
                rep = validate_structure(edited)
                lines.append(_line(module=name, target="labels", mode=mode, labels=labels, report=rep.to_dict()))
    return lines


if __name__ == "__main__":
    for line in structure_failure_lines():
        print(line)
