"""Independent oracles for the cone K and the type cone's strictness test.

``strict_vertices`` is the per-vertex test ``volume_oracle`` ran before the
slack forms replaced it: every reference vertex, read at the support x as
v_S(x) = A_S^{-1} x_S with A_S inverted here from the normals, must lie
strictly inside every facet it is not on.
``draws_around`` gives seeded rational points within +-1 of a reference,
coordinate by coordinate, far enough out to leave the cone K.
``inverse_facet_cones`` is the route ``polytopes._facet_cones`` took before
its pruned walk: every k-subset of facets in turn, a Bareiss determinant,
then an RREF of [N_S | I] whose numerators are rescaled to the determinant.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import prod

from hlmod.exact import Matrix, integer_det
from hlmod.polytopes import SimplePolytope, VertexCone


def strict_vertices(p: SimplePolytope, x) -> bool:
    x = [Fraction(c) for c in x]
    for inc in p.incidences:
        facets = tuple(sorted(inc))
        v = Matrix([p.normals[j] for j in facets]).inverse().apply([x[j] for j in facets])
        for j, n in enumerate(p.normals):
            if j not in inc and sum(a * b for a, b in zip(n, v)) >= x[j]:
                return False
    return True


def draws_around(reference, rng, count: int) -> list[tuple[Fraction, ...]]:
    return [tuple(Fraction(c) + Fraction(rng.randint(-8, 8), 8) for c in reference) for _ in range(count)]


def inverse_facet_cones(ints, scales) -> dict[tuple[int, ...], VertexCone]:
    """(M_S, E_S, |det A_S|) for every nonsingular k-subset S of the normals
    n_j = N_j / c_j (``ints``, ``scales``), in lexicographic order:
    M_S = N_S^{-1} |det N_S| diag(c_S) and E_S = |det N_S|."""
    k = len(ints[0])
    cones = {}
    for subset in combinations(range(len(ints)), k):
        rows = [list(ints[j]) for j in subset]
        det = abs(integer_det(rows))
        if det:
            inverse, e = Matrix(rows).inverse().numerators()
            m = tuple(tuple(x * det // e * scales[j] for x, j in zip(row, subset)) for row in inverse)
            cones[subset] = (m, det, Fraction(det, prod(scales[j] for j in subset)))
    return cones
