"""The pulling triangulations of the polytope corpus, as canonical lines.

Every line holds one polytope's name, its triangulation (the simplices as
vertex index tuples, in the order ``build_polytope`` returns them) and the
orientation sign of each simplex: the polytope corpus of
``fixtures/`` and seeded support perturbations of the 5-cube and of
Δ₂ × Δ₂ × I.  The triangulation is the input of the Fraction volume oracle
of ``volume_oracles``, so a change to how faces are found or pulled shows
up here as a diff.
``tests/golden/triangulations.jsonl`` holds the output; regenerate it only
for an intended change, with

    PYTHONPATH=src python tests/triangulations.py > tests/golden/triangulations.jsonl
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from corpus import standard_corpus
from hlmod.polytopes import PolytopeError, SimplePolytope, build_polytope
from volume_oracles import pulling_triangulation
from volume_polys import cube, triangle_triangle_interval


def perturbed(p: SimplePolytope, seed: str) -> SimplePolytope:
    """The first seeded support perturbation of ``p`` that stays simple."""
    rng = random.Random(seed)
    for _ in range(100):
        support = [s + Fraction(rng.randint(-3, 3), 16) for s in p.support]
        try:
            return build_polytope(p.normals, support, f"{p.name}-perturbed")
        except PolytopeError:
            continue
    raise RuntimeError("no simple perturbation found")


def polytopes() -> list[SimplePolytope]:
    return standard_corpus() + [
        perturbed(p, f"triangulation:{p.name}") for p in (cube(5), triangle_triangle_interval())
    ]


def triangulation_lines() -> list[str]:
    lines = []
    for p in polytopes():
        simplices, signs = pulling_triangulation(p)
        line = {"name": p.name, "orientations": list(signs), "triangulation": [list(s) for s in simplices]}
        lines.append(json.dumps(line, sort_keys=True, separators=(",", ":")))
    return lines


if __name__ == "__main__":
    for line in triangulation_lines():
        print(line)
