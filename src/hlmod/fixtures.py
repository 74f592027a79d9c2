"""Named polytope fixtures shared by the test-suite and the CLI examples.

The corpus covers odd and even dimensions, simplicial and non-simplicial
combinatorics, and rationally perturbed supports (re-validated for
simplicity on construction).
"""

from __future__ import annotations

from fractions import Fraction

from .polytopes import SimplePolytope, build_polytope


def segment() -> SimplePolytope:
    return build_polytope([[1], [-1]], [1, 0], "segment")


def triangle() -> SimplePolytope:
    return build_polytope([[-1, 0], [0, -1], [1, 1]], [0, 0, 1], "triangle")


def square() -> SimplePolytope:
    return build_polytope(
        [[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0], "square"
    )


def simplex3() -> SimplePolytope:
    return build_polytope(
        [[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 1, 1]],
        [0, 0, 0, 1],
        "simplex3",
    )


def cube3() -> SimplePolytope:
    normals = []
    for i in range(3):
        for s in (1, -1):
            normals.append([s if j == i else 0 for j in range(3)])
    return build_polytope(normals, [1] * 6, "cube3")


def cube4() -> SimplePolytope:
    normals = []
    for i in range(4):
        for s in (1, -1):
            normals.append([s if j == i else 0 for j in range(4)])
    return build_polytope(normals, [1] * 8, "cube4")


def prism() -> SimplePolytope:
    return build_polytope(
        [[-1, 0, 0], [0, -1, 0], [1, 1, 0], [0, 0, -1], [0, 0, 1]],
        [0, 0, 1, 0, 1],
        "prism",
    )


def perturbed_square() -> SimplePolytope:
    return build_polytope(
        [[1, 0], [-1, 0], [0, 1], [0, -1]],
        [1, Fraction(1, 7), Fraction(9, 8), Fraction(1, 9)],
        "square-perturbed",
    )


def perturbed_cube3() -> SimplePolytope:
    normals = cube3().normals
    return build_polytope(
        normals,
        [1, Fraction(9, 8), Fraction(15, 16), 1, Fraction(17, 16), Fraction(7, 8)],
        "cube3-perturbed",
    )


def perturbed_prism() -> SimplePolytope:
    return build_polytope(
        [[-1, 0, 0], [0, -1, 0], [1, 1, 0], [0, 0, -1], [0, 0, 1]],
        [Fraction(1, 16), 0, 1, Fraction(1, 8), Fraction(9, 8)],
        "prism-perturbed",
    )


def standard_corpus() -> list[SimplePolytope]:
    return [
        segment(),
        triangle(),
        square(),
        simplex3(),
        cube3(),
        cube4(),
        prism(),
        perturbed_square(),
        perturbed_cube3(),
        perturbed_prism(),
    ]
