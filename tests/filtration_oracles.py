"""Test-only oracles for spans of vectors: their rank, and the intersection
of two spans.

They check elimination in :mod:`hlmod.exact` and the Koszul filtration and
purity of :mod:`hlmod.descent` from outside and are not used by the library
itself.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from field_oracles import field_rref
from hlmod.exact import Matrix, echelon_basis, kernel_basis


def rank_of_vectors(vectors: Iterable[Sequence]) -> int:
    """The rank of the vectors by the field oracle's row operations, apart
    from the elimination it checks."""
    vectors = [list(v) for v in vectors]
    if not vectors:
        return 0
    return len(field_rref(Matrix(vectors))[1])


def intersect_spaces(a: Sequence[Sequence], b: Sequence[Sequence], dim: int) -> list[tuple]:
    """Basis of span(a) ∩ span(b) inside an ambient space of dimension dim."""
    if not a or not b:
        return []
    m = Matrix.from_columns(list(a) + [[-e for e in v] for v in b], dim)
    combos, _ = kernel_basis(m)
    span_a = Matrix.from_columns(a, dim)
    return echelon_basis(span_a.apply(c[: len(a)]) for c in combos)
