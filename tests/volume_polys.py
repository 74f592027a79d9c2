"""The volume polynomials of the polytope corpus, as canonical lines.

Every line holds one polytope's name and the terms of its volume
polynomial, sorted by exponent tuple, with coefficients in canonical
scalar form: the polytope corpus of ``fixtures/``, the 5-cube and the
product Δ₂ × Δ₂ × I of two triangles and a segment.  The polynomial is the
input of every polytope module and mixed volume, so a change to how it is
built shows up here as a diff.  ``tests/golden/volume-polynomials.jsonl``
holds the output; regenerate it only for an intended change, with

    PYTHONPATH=src python tests/volume_polys.py > tests/golden/volume-polynomials.jsonl
"""

from __future__ import annotations

import json
from itertools import product

from corpus import standard_corpus
from hlmod.exact import format_scalar
from hlmod.polytopes import SimplePolytope, build_polytope, volume_polynomial


def cube(n: int) -> SimplePolytope:
    normals = [[s * int(j == i) for j in range(n)] for i in range(n) for s in (1, -1)]
    return build_polytope(normals, [1] * (2 * n), f"cube{n}")


def triangle_triangle_interval() -> SimplePolytope:
    """Δ₂ × Δ₂ × I: a simple 5-polytope with 8 facets."""
    normals = [
        [-1, 0, 0, 0, 0], [0, -1, 0, 0, 0], [1, 1, 0, 0, 0],
        [0, 0, -1, 0, 0], [0, 0, 0, -1, 0], [0, 0, 1, 1, 0],
        [0, 0, 0, 0, 1], [0, 0, 0, 0, -1],
    ]
    return build_polytope(normals, [0, 0, 1, 0, 0, 1, 1, 0], "d2d2i")


def octahedron_data() -> tuple[list[list[int]], list[int]]:
    """Normals and supports of the octahedron, deliberately non-simple:
    every vertex meets 4 facets."""
    normals = [list(signs) for signs in product((1, -1), repeat=3)]
    return normals, [1] * 8


def polytopes() -> list[SimplePolytope]:
    return standard_corpus() + [cube(5), triangle_triangle_interval()]


def volume_polynomial_lines() -> list[str]:
    lines = []
    for p in polytopes():
        terms = volume_polynomial(p).poly.terms
        line = {
            "name": p.name,
            "terms": [[list(e), format_scalar(terms[e])] for e in sorted(terms)],
        }
        lines.append(json.dumps(line, sort_keys=True, separators=(",", ":")))
    return lines


if __name__ == "__main__":
    for line in volume_polynomial_lines():
        print(line)
