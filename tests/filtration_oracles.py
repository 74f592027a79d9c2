"""Test-only oracles for filtrations: the grading filtration of a module,
equality of filtrations, the defining properties of a weight filtration,
and the rank, intersection and sum of spans of vectors.

They check :func:`hlmod.hodge_lefschetz.weight_filtration` and the Koszul
purity of :mod:`hlmod.descent` from outside and are not used by the
library itself.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from hlmod.exact import Matrix, echelon_basis, kernel_basis
from hlmod.hodge_lefschetz import Filtration, HLModule


def _unit(i: int, dim: int) -> tuple:
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(dim))


def grading_filtration(module: HLModule) -> Filtration:
    """W_l spanned by all basis vectors of grade at most l."""
    k = module.weight
    pieces = []
    gi = module.space.grade_indices()
    for l in range(-k - 1, k + 1):
        vectors = []
        for grade, idx in gi.items():
            if grade <= l:
                for i in idx:
                    vectors.append(_unit(i, module.dim))
        pieces.append(tuple(echelon_basis(vectors)))
    return Filtration(-k - 1, tuple(pieces))


def filtrations_equal(a: Filtration, b: Filtration) -> bool:
    low = min(a.lowest, b.lowest)
    high = max(a.highest, b.highest)
    for l in range(low, high + 1):
        if list(echelon_basis(a.piece(l))) != list(echelon_basis(b.piece(l))):
            return False
    return True


def filtration_satisfies_weight_property(operator: Matrix, filtration: Filtration, bound: int) -> bool:
    """Defining-property oracle: monotone, N W_l in W_{l-2}, graded isos."""
    dim = operator.rows
    for l in range(filtration.lowest, filtration.highest + 1):
        prev = filtration.piece(l - 1)
        here = filtration.piece(l)
        if rank_together(here, prev, dim) != len(here):
            return False
        moved = [tuple(operator.apply(list(v))) for v in here]
        target = filtration.piece(l - 2)
        for w in moved:
            if any(w) and rank_together(target, [w], dim) != len(target):
                return False
    for l in range(1, bound + 1):
        d_top = len(filtration.piece(l)) - len(filtration.piece(l - 1))
        d_bot = len(filtration.piece(-l)) - len(filtration.piece(-l - 1))
        if d_top != d_bot:
            return False
        power = operator.power(l)
        pushed = [tuple(power.apply(list(v))) for v in filtration.piece(l)]
        below = list(filtration.piece(-l - 1))
        combined = echelon_basis(below + pushed)
        if len(combined) - len(filtration.piece(-l - 1)) != d_top:
            return False
    return True


def rank_together(basis: Sequence[Sequence], extra: Sequence[Sequence], dim: int) -> int:
    vectors = [list(v) for v in basis]
    if not vectors and not extra:
        return 0
    return Matrix(list(vectors) + [list(e) for e in extra], len(vectors) + len(list(extra)), dim).rank()


def rank_of_vectors(vectors: Iterable[Sequence]) -> int:
    vectors = [list(v) for v in vectors]
    if not vectors:
        return 0
    return Matrix(vectors).rank()


def intersect_spaces(a: Sequence[Sequence], b: Sequence[Sequence], dim: int) -> list[tuple]:
    """Basis of span(a) ∩ span(b) inside an ambient space of dimension dim."""
    if not a or not b:
        return []
    m = Matrix.from_columns(list(a) + [[-e for e in v] for v in b], dim)
    combos, _ = kernel_basis(m)
    span_a = Matrix.from_columns(a, dim)
    return echelon_basis(span_a.apply(c[: len(a)]) for c in combos)


def sum_spaces(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[tuple]:
    return echelon_basis(list(a) + list(b))
