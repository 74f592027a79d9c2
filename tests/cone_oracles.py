"""Independent oracles for the cone K and the type cone's strictness test.

``strict_vertices`` is the per-vertex test ``volume_oracle`` ran before the
slack forms replaced it: every reference vertex, read at the support x as
v_S(x) = A_S^{-1} x_S with A_S inverted here from the normals, must lie
strictly inside every facet it is not on.
``draws_around`` gives seeded rational points within +-1 of a reference,
coordinate by coordinate, far enough out to leave the cone K.
"""

from __future__ import annotations

from fractions import Fraction

from hlmod.exact import Matrix
from hlmod.polytopes import SimplePolytope


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
