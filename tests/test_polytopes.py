"""Polytope construction, volume polynomials, the operator algebra, and
mixed volumes.

Volume polynomials, which the vertex sum builds, are compared against the
face-recursion oracle (an independent route: no vertex sum involved), the
oracle's directly read vertices and integer face recursion against vertex
enumeration with Fraction simplex determinants, including supports past a
wall, the integer oracle, values and mixed volumes against the Fraction
routes of ``volume_oracles`` on seeded supports, walls of the type cone
included, the oracle against the known volumes of the cubes,
h-vectors against the face-count transform computed from frozen face
numbers, and the pairing sign twist against the skewness it is meant to
restore.
"""

import random
from fractions import Fraction
from math import comb, factorial
from operator import mul

import pytest

from hlmod import fixtures as fx
from hlmod import polytopes
from hlmod.exact import Matrix, MultiPoly
from hlmod.hodge_lefschetz import ConstructionError, sample_cone_element
from hlmod.polytopes import (
    PolytopeError,
    af_check,
    build_pkt_module,
    build_polytope,
    h_vector,
    mixed_volume,
    volume_oracle,
    volume_polynomial,
)
from volume_oracles import (
    fraction_evaluate,
    fraction_mixed_volume,
    fraction_volume_oracle,
    poly_diff,
    pulling_triangulation,
)
from triangulations import perturbed
from volume_polys import cube, triangle_triangle_interval

F = Fraction

# face numbers (f_0 .. f_{k-1}) frozen from the standard combinatorics
FACE_COUNTS = {
    "segment": (2,),
    "triangle": (3, 3),
    "square": (4, 4),
    "simplex3": (4, 6, 4),
    "cube3": (8, 12, 6),
    "cube4": (16, 32, 24, 8),
    "prism": (6, 9, 5),
    "square-perturbed": (4, 4),
    "cube3-perturbed": (8, 12, 6),
    "prism-perturbed": (6, 9, 5),
}

EXPECTED_H = {
    "segment": (1, 1),
    "triangle": (1, 1, 1),
    "square": (1, 2, 1),
    "simplex3": (1, 1, 1, 1),
    "cube3": (1, 3, 3, 1),
    "cube4": (1, 4, 6, 4, 1),
    "prism": (1, 2, 2, 1),
}


# ---------------------------------------------------------------------------
# construction and rejection
# ---------------------------------------------------------------------------


def test_square_vertices_exact():
    sq = fx.square()
    assert set(sq.vertices) == {
        (F(0), F(0)),
        (F(1), F(0)),
        (F(0), F(1)),
        (F(1), F(1)),
    }


def test_triangle_vertices():
    tr = fx.triangle()
    assert set(tr.vertices) == {(F(0), F(0)), (F(1), F(0)), (F(0), F(1))}


def test_octahedron_rejected_as_non_simple():
    normals, support = fx.octahedron_data()
    with pytest.raises(PolytopeError) as err:
        build_polytope(normals, support, "octahedron")
    assert err.value.code == "non-simple"


def test_unbounded_rejected():
    with pytest.raises(PolytopeError) as err:
        build_polytope([[1, 0], [0, 1], [1, 1]], [1, 1, 1])
    assert err.value.code == "unbounded"


def test_infeasible_rejected():
    with pytest.raises(PolytopeError) as err:
        build_polytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [-1, 0, 1, 0])
    assert err.value.code == "infeasible"


def test_redundant_facet_rejected():
    with pytest.raises(PolytopeError) as err:
        build_polytope(
            [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]], [1, 0, 1, 0, 10]
        )
    assert err.value.code == "redundant-facet"


# ---------------------------------------------------------------------------
# volume polynomials and the oracle
# ---------------------------------------------------------------------------


def test_square_volume_polynomial_exact(sq_nu):
    expected = MultiPoly(
        4, {(1, 0, 1, 0): 1, (1, 0, 0, 1): 1, (0, 1, 1, 0): 1, (0, 1, 0, 1): 1}
    )
    assert sq_nu.poly == expected


def test_triangle_volume_polynomial_exact(corpus):
    nu = corpus["triangle"][1]
    expected = MultiPoly(
        3,
        {
            (2, 0, 0): F(1, 2),
            (0, 2, 0): F(1, 2),
            (0, 0, 2): F(1, 2),
            (1, 1, 0): 1,
            (1, 0, 1): 1,
            (0, 1, 1): 1,
        },
    )
    assert nu.poly == expected


def test_segment_volume_polynomial(corpus):
    assert corpus["segment"][1].poly == MultiPoly(2, {(1, 0): 1, (0, 1): 1})


def test_cube_volume_polynomials_are_width_products(corpus):
    # boxes factor into per-axis widths: prod_i (x_{2i+1} + x_{2i+2})
    for name, k in (("cube3", 3), ("cube4", 4)):
        nu = corpus[name][1]
        r = 2 * k
        product = MultiPoly.constant(r, 1)
        for axis in range(k):
            width = MultiPoly.variable(r, 2 * axis) + MultiPoly.variable(r, 2 * axis + 1)
            product = product * width
        assert nu.poly == product, name


def test_oracle_worked_values(corpus):
    sq = corpus["square"][0]
    assert volume_oracle(sq, [1, 0, 1, 0]) == 1
    assert volume_oracle(sq, [1, 1, 1, 1]) == 4
    tr = corpus["triangle"][0]
    assert volume_oracle(tr, [0, 0, 1]) == F(1, 2)


@pytest.mark.parametrize("k", range(3, 9))
def test_oracle_cube_volumes(k):
    assert volume_oracle(cube(k), [1] * (2 * k)) == 2**k


def test_cube7_module_builds_with_every_validation(monkeypatch):
    # nu is checked against the oracle at the reference and at VALIDATIONS
    # sampled supports before the module is built on it
    exact, values = polytopes.volume_oracle, []

    def recorded(p, support):
        values.append(exact(p, support))
        return values[-1]

    monkeypatch.setattr(polytopes, "volume_oracle", recorded)
    p = cube(7)
    module = build_pkt_module(p, volume_polynomial(p))
    assert len(values) == polytopes.VALIDATIONS + 1
    assert values[0] == 2**7
    assert h_vector(module) == tuple(comb(7, l) for l in range(8))


def test_oracle_rejects_changed_combinatorics(corpus):
    sq = corpus["square"][0]
    with pytest.raises(PolytopeError) as err:
        volume_oracle(sq, [1, -2, 1, 0])
    assert err.value.code == "combinatorics-changed"


def test_polynomial_matches_oracle_at_random_supports(corpus):
    rng = random.Random(515)
    for name, (p, nu, _) in corpus.items():
        done = 0
        scale = F(1, 8)
        while done < 20:
            x = [s + F(rng.randint(-8, 8), 64) * scale for s in p.support]
            try:
                expected = volume_oracle(p, x)
            except PolytopeError:
                scale /= 2
                continue
            assert nu.evaluate(x) == expected, name
            done += 1


@pytest.mark.parametrize("where", ["reference", "sampled"])
def test_volume_polynomial_rejects_oracle_disagreement(monkeypatch, where):
    # an oracle off by one at the reference, or only at the sampled
    # supports, must abort the construction
    exact = polytopes.volume_oracle
    square = fx.square()

    def skewed(p, support):
        value = exact(p, support)
        at_reference = tuple(F(c) for c in support) == p.support
        return value + 1 if at_reference == (where == "reference") else value

    monkeypatch.setattr(polytopes, "volume_oracle", skewed)
    with pytest.raises(ConstructionError, match="volume mismatch"):
        volume_polynomial(square)


# ---------------------------------------------------------------------------
# the oracle's direct vertices against vertex enumeration
# ---------------------------------------------------------------------------


def _cut_square():
    # the square with its corner (1, 1) cut off: pushing the cut past 2 makes
    # the fifth facet redundant, a wall at which no width vanishes
    return build_polytope(
        [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]], [1, 0, 1, 0, F(3, 2)], "cut-square"
    )


ROUTE_POLYTOPES = {
    "square": fx.square,
    "prism": fx.prism,
    "cube3": fx.cube3,
    "cube4": fx.cube4,
    "d2d2i": triangle_triangle_interval,
    "cut-square": _cut_square,
}


def _enumeration_volume(p, x):
    """The volume over the vertices found by enumerating facet subsets, with
    Fraction determinants; None where the incidences differ from p's."""
    found = polytopes._enumerate_vertices(*polytopes._integer_normals(p.normals), x, p.cones)
    if set(found.values()) != set(p.incidences) or len(found) != len(p.incidences):
        return None
    vertex_at = {inc: v for v, inc in found.items()}
    points = [vertex_at[inc] for inc in p.incidences]
    total = F(0)
    for sigma, sign in zip(*pulling_triangulation(p)):
        rows = [[c - b for c, b in zip(points[i], points[sigma[0]])] for i in sigma[1:]]
        total += sign * Matrix(rows).det()
    return total / factorial(p.dim)


@pytest.mark.parametrize("name", sorted(ROUTE_POLYTOPES))
def test_oracle_matches_enumeration_route(name):
    # half the draws stay within 1/4 of the reference, half move each support
    # up to 2 and cross walls: widths vanish or turn negative, the cut facet
    # touches a vertex or goes redundant
    p = ROUTE_POLYTOPES[name]()
    rng = random.Random(2024)
    changed = []
    for draw in range(40):
        scale = F(1, 8) if draw % 2 else 1
        x = [s + F(rng.randint(-16, 16), 8) * scale for s in p.support]
        expected = _enumeration_volume(p, x)
        changed.append(expected is None)
        if expected is None:
            with pytest.raises(PolytopeError) as err:
                volume_oracle(p, x)
            assert err.value.code == "combinatorics-changed"
        else:
            assert volume_oracle(p, x) == expected
    assert any(changed) and not all(changed)


# ---------------------------------------------------------------------------
# the integer routes against the Fraction routes they replaced
# ---------------------------------------------------------------------------


def _kite():
    # the cones at (4/3, 4/3) and (2, 0) are not unimodular: the inverses of
    # the normal matrices have the common denominator 6
    return build_polytope([[-1, 0], [0, -1], [2, 1], [1, 2]], [0, 0, 4, 4], "kite")


def _scaled_kite():
    # the kite with each facet inequality scaled: normals with the
    # denominators 2, 3, 2, 2
    normals = [[F(-1, 2), 0], [0, F(-1, 3)], [1, F(1, 2)], [F(1, 2), 1]]
    return build_polytope(normals, [0, 0, 2, 2], "scaled-kite")


@pytest.fixture(scope="module")
def route_corpus(corpus):
    """name -> (polytope, volume polynomial): the standard corpus, the cut
    square and the kite, whose volume polynomials have negative terms, the
    kite with fractional normals, a perturbed 5-cube and a perturbed
    Δ₂ × Δ₂ × I."""
    out = {name: (p, nu) for name, (p, nu, _) in corpus.items()}
    for p in (_cut_square(), _kite(), _scaled_kite()):
        out[p.name] = (p, volume_polynomial(p))
    for p in (cube(5), triangle_triangle_interval()):
        q = perturbed(p, f"route:{p.name}")
        out[q.name] = (q, volume_polynomial(q))
    return out


def _wall_point(p, x):
    """Where the segment from the reference to x first meets a wall of the
    closed type cone, exactly; None when it stays inside."""
    d = [a - b for a, b in zip(x, p.support)]
    steps = [
        -sum(map(mul, f, p.support)) / sum(map(mul, f, d))
        for f in p.slack_forms
        if sum(map(mul, f, d)) < 0
    ]
    return [s + min(steps) * e for s, e in zip(p.support, d)] if steps else None


def _route_supports(p, seed):
    """Seeded supports: half within 1/8 of the reference, half up to 2 away
    and across walls, and the wall point toward each draw."""
    rng = random.Random(seed)
    draws = []
    for draw in range(16):
        scale = F(1, 8) if draw % 2 else 1
        draws.append([s + F(rng.randint(-16, 16), 8) * scale for s in p.support])
    walls = [w for w in (_wall_point(p, x) for x in draws) if w is not None]
    return draws, walls


def _outcome(route, *args):
    """A route's value, or the type, code and message of its ValueError."""
    try:
        return route(*args)
    except ValueError as err:
        return (type(err).__name__, getattr(err, "code", None), str(err))


def test_integer_oracle_matches_fraction_oracle(route_corpus):
    # the face recursion against the triangulation on Fractions and against
    # vertex enumeration, which finds the changed supports on its own
    kite = route_corpus["kite"][0]
    assert sorted(kite.cones[tuple(sorted(inc))][1] for inc in kite.incidences) == [1, 2, 2, 3]
    kept = changed = 0
    for name, (p, _) in route_corpus.items():
        draws, walls = _route_supports(p, f"oracle-route:{name}")
        assert walls, name
        for x in draws + walls:
            expected = _outcome(fraction_volume_oracle, p, x)
            assert _outcome(volume_oracle, p, x) == expected, (name, x)
            assert _enumeration_volume(p, x) == (expected if isinstance(expected, F) else None), (name, x)
            kept += isinstance(expected, F)
            changed += not isinstance(expected, F)
        for x in walls:
            assert _outcome(volume_oracle, p, x)[1] == "combinatorics-changed", name
        assert _outcome(volume_oracle, p, list(p.support)[1:]) == _outcome(
            fraction_volume_oracle, p, list(p.support)[1:]
        )
    assert kept and changed


def test_integer_evaluation_matches_fraction_evaluation(route_corpus):
    for name, (p, nu) in route_corpus.items():
        assert {e: F(n, nu.denom) for e, n in nu.numerators.items()} == nu.poly.terms, name
        draws, walls = _route_supports(p, f"evaluate-route:{name}")
        for x in [list(p.support)] + draws + walls:
            assert nu.evaluate(x) == fraction_evaluate(nu.poly, x), (name, x)
        longer = list(p.support) + [0]
        assert _outcome(nu.evaluate, longer) == _outcome(fraction_evaluate, nu.poly, longer)
        assert _outcome(nu.evaluate, longer)[2] == "value count mismatch"


def test_integer_polarization_matches_fraction_polarization(route_corpus):
    for name, (p, nu) in route_corpus.items():
        draws, walls = _route_supports(p, f"polarize-route:{name}")
        pool = [list(p.support)] + draws + walls
        rng = random.Random(f"polarize-tuples:{name}")
        for _ in range(6):
            supports = [rng.choice(pool) for _ in range(p.dim)]
            assert mixed_volume(nu, supports) == fraction_mixed_volume(nu, supports), (name, supports)
        for supports in ([list(p.support)] * (p.dim + 1), [list(p.support)[1:]] * p.dim, [["x"]] * p.dim):
            error = _outcome(mixed_volume, nu, supports)
            assert isinstance(error, tuple) and error == _outcome(fraction_mixed_volume, nu, supports)


def test_euler_identity(corpus):
    for name, (p, nu, _) in corpus.items():
        total = MultiPoly.zero(p.facet_count)
        for i in range(p.facet_count):
            total = total + MultiPoly.variable(p.facet_count, i) * poly_diff(nu.poly, i)
        assert total == nu.poly * p.dim, name


# ---------------------------------------------------------------------------
# the graded algebra
# ---------------------------------------------------------------------------


def test_h_vectors_match_expectations(corpus):
    for name, expected in EXPECTED_H.items():
        module = corpus[name][2]
        assert h_vector(module) == expected, name


def test_h_vector_of_triangle_cubed():
    # Δ₂ × Δ₂ × Δ₂: dimension 6 with 9 facets; h-polynomial (1 + t + t²)³
    normals = []
    for block in range(3):
        for row in ([-1, 0], [0, -1], [1, 1]):
            normal = [0] * 6
            normal[2 * block : 2 * block + 2] = row
            normals.append(normal)
    p = build_polytope(normals, [0, 0, 1] * 3, "triangle-cubed")
    assert h_vector(build_pkt_module(p)) == (1, 3, 6, 7, 6, 3, 1)


def test_h_vector_against_face_count_transform(corpus):
    for name, (p, _, module) in corpus.items():
        faces = FACE_COUNTS[name]
        k = p.dim
        all_faces = list(faces) + [1]

        def h_poly(t):
            return sum(f_i * (t - 1) ** i for i, f_i in enumerate(all_faces))

        h = h_vector(module)
        for t in range(k + 2):
            assert sum(h[j] * t**j for j in range(k + 1)) == h_poly(t), name


def test_h_vector_rejects_off_diagonal_modules():
    from hlmod.torus import build_torus_module, t1_spec
    from hlmod.hodge_lefschetz import ConstructionError

    with pytest.raises(ConstructionError):
        h_vector(build_torus_module(t1_spec()))


def test_dims_symmetric_and_sum_to_vertex_count(corpus):
    for name, (p, _, module) in corpus.items():
        h = h_vector(module)
        assert h == tuple(reversed(h)), name
        assert sum(h) == len(p.vertices), name


def test_pairing_nondegenerate_and_twist_restores_skewness(corpus):
    from hlmod.exact import Matrix
    from hlmod.hodge_lefschetz import intersection_sign

    for name, (p, nu, module) in corpus.items():
        q = module.form.matrix
        assert q.det() != 0, name
        for g in module.family.matrices:
            assert (g.transpose() * q + q * g).is_zero(), name
        # undo the twist row by row to recover the raw pairing D1 D2 . nu:
        # against it, the partials are symmetric rather than skew
        raw = Matrix(
            [
                [
                    intersection_sign(2 * ((p.dim - v.grade) // 2)) * e
                    for e in row
                ]
                for v, row in zip(module.space.vectors, q.data)
            ]
        )
        assert raw.transpose() == raw, name
        for g in module.family.matrices:
            assert (g.transpose() * raw - raw * g).is_zero(), name
            if p.dim >= 2 and not g.is_zero():
                assert not (g.transpose() * raw + raw * g).is_zero(), name


def test_module_reference_equals_support(corpus):
    for name, (p, _, module) in corpus.items():
        assert module.reference == p.support, name


# ---------------------------------------------------------------------------
# mixed volumes
# ---------------------------------------------------------------------------


def test_mixed_volume_diagonal_equals_volume(corpus):
    for name, (p, nu, _) in corpus.items():
        mv = mixed_volume(nu, [list(p.support)] * p.dim)
        assert mv == nu.evaluate(p.support), name


def test_mixed_volume_worked_example(sq_nu):
    assert mixed_volume(sq_nu, [[1, 1, 1, 1], [2, 2, 1, 1]]) == 6
    # cross-check by additivity: nu(c1+c2) - nu(c1) - nu(c2) = 2 MV
    assert sq_nu.evaluate([3, 3, 2, 2]) - sq_nu.evaluate([1, 1, 1, 1]) - sq_nu.evaluate(
        [2, 2, 1, 1]
    ) == 2 * 6


def test_mixed_volume_of_boxes(sq_nu):
    rng = random.Random(77)
    for _ in range(10):
        w1, h1, w2, h2 = (F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(4))
        c1 = [w1, 0, h1, 0]
        c2 = [w2, 0, h2, 0]
        assert mixed_volume(sq_nu, [c1, c2]) == (w1 * h2 + w2 * h1) / 2


def test_mixed_volume_symmetry_and_multilinearity(corpus):
    p, nu, module = corpus["cube3"]
    rng = random.Random(123)
    supports = [
        [F(rng.randint(1, 8), 4) for _ in range(p.facet_count)] for _ in range(4)
    ]
    a, b, c, d = supports
    assert mixed_volume(nu, [a, b, c]) == mixed_volume(nu, [c, a, b])
    lam = F(2, 3)
    mixed_sum = mixed_volume(nu, [[x + lam * y for x, y in zip(a, d)], b, c])
    assert mixed_sum == mixed_volume(nu, [a, b, c]) + lam * mixed_volume(nu, [d, b, c])


def test_af_worked_example(sq_nu):
    rep = af_check(sq_nu, [1, 1, 1, 1], [2, 2, 1, 1])
    assert rep.passed
    assert rep.data == {"m12": "6", "m11": "4", "m22": "8"}


def test_af_equality_on_diagonal(sq_nu):
    rep = af_check(sq_nu, [1, 1, 1, 1], [1, 1, 1, 1])
    assert rep.passed
    assert rep.data["m12"] == rep.data["m11"] == rep.data["m22"]


def test_af_check_rejects_supports_outside_the_closed_type_cone(corpus):
    # on cube3, c1 has y-width -3/2 and c2 x-width -11/4: no boxes, so the
    # concavity FAIL nu gave here (m11 = -53/32) refuted nothing
    p, nu, _ = corpus["cube3"]
    c1 = [F(21, 8), F(-7, 4), F(3, 8), F(-15, 8), F(1, 8), F(7, 4)]
    c2 = [F(-7, 4), F(-1), F(15, 8), F(-3, 8), F(0), F(27, 8)]
    rep = af_check(nu, c1, c2, [list(p.support)])
    assert rep.verdict == "input-error"
    assert rep.data == {"error": "support 0 lies outside the closed type cone"}
    assert af_check(nu, list(p.support), list(p.support), [c2]).data["error"].startswith("support 2 ")
    # the walls belong to the closed cone: a flat box is still a convex body
    flat = [F(1), F(1), F(1), F(1), F(0), F(0)]
    assert af_check(nu, flat, list(p.support), [list(p.support)]).passed


def test_af_random_cone_pairs(corpus):
    rng = random.Random(2025)
    for name in ("square", "cube3"):
        p, nu, module = corpus[name]
        rest = [list(p.support)] * (p.dim - 2)
        for _ in range(25):
            c1 = list(sample_cone_element(module, rng))
            c2 = list(sample_cone_element(module, rng))
            assert af_check(nu, c1, c2, rest).passed, name
