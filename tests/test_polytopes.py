"""Polytope construction, volume polynomials, the operator algebra, and
mixed volumes.

Volume polynomials, which the face recursion builds, are compared against
the vertex-sum oracle (an independent route: no face table involved) and
against the vertex sum expanded monomial by monomial, on the corpus, seeded
perturbations and dense cases, and module files built on them against
digests pinned before the face recursion built nu; the oracle's directly
read vertices and integer vertex sum against vertex enumeration with
Fraction simplex determinants, including supports past a wall, the integer
oracle, values and mixed volumes against the Fraction
routes of ``volume_oracles`` on seeded supports, walls of the type cone
included, the integer vertex cones of the pruned walk against Fraction
inverses and the subset-by-subset route (on random normal sets too), the
module's quotient basis, derivatives and pairing on nu's moments against a
moment scan and derivatives of the Fraction polynomial, on the benchmark's
build-scale polytopes too, the oracle against the known volumes of the cubes,
h-vectors against the face-count transform computed from frozen face
numbers, and the pairing sign twist against the skewness it is meant to
restore.
"""

import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import comb, factorial, gcd, prod
from operator import mul
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlmod import exact
from hlmod import polytopes
from hlmod.exact import Matrix, MultiPoly, format_rational, integer_rows
from hlmod.hodge_lefschetz import ConstructionError, intersection_sign, sample_cone_element
from hlmod.serialization import module_text, polytope_from_json
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
from cone_oracles import inverse_facet_cones
from corpus import load_polytope
from module_oracles import bench_workloads
from volume_oracles import (
    derivative_pairing,
    derivative_reduce_degree,
    expanded_volume_polynomial,
    fraction_evaluate,
    fraction_mixed_volume,
    fraction_volume_oracle,
    moment_derivative,
    moment_reduce_degree,
    poly_diff,
    pulling_triangulation,
    variable,
)
from triangulations import perturbed
from volume_polys import cube, octahedron_data, triangle_triangle_interval

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
    sq = load_polytope("square")
    assert set(sq.vertices) == {
        (F(0), F(0)),
        (F(1), F(0)),
        (F(0), F(1)),
        (F(1), F(1)),
    }


def test_triangle_vertices():
    tr = load_polytope("triangle")
    assert set(tr.vertices) == {(F(0), F(0)), (F(1), F(0)), (F(0), F(1))}


def test_octahedron_rejected_as_non_simple():
    normals, support = octahedron_data()
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
            width = variable(r, 2 * axis) + variable(r, 2 * axis + 1)
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
    square = load_polytope("square")

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
    **{name: partial(load_polytope, name) for name in ("square", "prism", "cube3", "cube4")},
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


@pytest.fixture(scope="module")
def build_corpus(route_corpus, tmp_path_factory):
    """The route corpus and the polytopes of the benchmark's build-scale
    workload, a perturbed cube4, cube5 and Δ₂ × Δ₂ × I, read from the
    files ``perfbench/workloads.py`` writes for seed 11."""
    out = dict(route_corpus)
    for setup in bench_workloads().make("build-scale", 11, tmp_path_factory.mktemp("build-scale")).setups:
        if setup.kind == "polytope":
            p = polytope_from_json(json.loads(Path(setup.path).read_text(encoding="utf-8")))
            out[f"bench-{p.name}"] = (p, volume_polynomial(p))
    assert len(out) == len(route_corpus) + 3
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
    # the vertex sum against the triangulation on Fractions and against
    # vertex enumeration, which finds the changed supports on its own
    kite = route_corpus["kite"][0]
    assert sorted(kite.cones[tuple(sorted(inc))][2] for inc in kite.incidences) == [1, 2, 2, 3]
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
            total = total + variable(p.facet_count, i) * poly_diff(nu.poly, i)
        assert total == nu.poly * p.dim, name


def test_integer_cones_match_fraction_inverses(build_corpus):
    # every nonsingular k-subset S has A_S^{-1} = M_S / E_S and the stored
    # |det A_S|; the scaled kite has normals N_j / c_j with c_j != 1; the
    # pruned walk finds the cones of the subset-by-subset inverse route, in
    # its order
    for name, (p, _) in build_corpus.items():
        scales = [integer_rows([row])[1] for row in p.normals]
        nonsingular = 0
        for subset in combinations(range(p.facet_count), p.dim):
            a = Matrix([p.normals[j] for j in subset])
            if not a.det():
                assert subset not in p.cones, (name, subset)
                continue
            nonsingular += 1
            m, e, det = p.cones[subset]
            assert e > 0 and all(isinstance(x, int) for row in m for x in row), (name, subset)
            assert Matrix([[F(x, e) for x in row] for row in m]) == a.inverse(), (name, subset)
            assert det == abs(a.det()) == F(e, prod(scales[j] for j in subset)), (name, subset)
        assert len(p.cones) == nonsingular, name
        assert list(p.cones.items()) == list(inverse_facet_cones(*polytopes._integer_normals(p.normals)).items()), name
    assert any(integer_rows([row])[1] != 1 for row in build_corpus["scaled-kite"][0].normals)


def _walk(ints, scales):
    """The cones of the pruned walk, and each echelon row it keeps with
    its depth."""
    rows, real = [], polytopes._echelon_row

    def recorded(echelon, normal):
        out = real(echelon, normal)
        if out is not None:
            rows.append((len(echelon) + 1, out[1]))
        return out

    with mock.patch.object(polytopes, "_echelon_row", recorded):
        return polytopes._facet_cones(ints, scales), rows


@st.composite
def _normal_sets(draw):
    """k <= 4 and up to 8 integer normals, new or zero or a repeated or
    negated earlier one, with scales c_j > 0."""
    k, r = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    ints = []
    for _ in range(r):
        kind = draw(st.sampled_from(["new", "zero", "repeat", "negate"] if ints else ["new", "zero"]))
        if kind == "new":
            ints.append(tuple(draw(st.lists(st.integers(-9, 9), min_size=k, max_size=k))))
        elif kind == "zero":
            ints.append((0,) * k)
        else:
            row = draw(st.sampled_from(ints))
            ints.append(row if kind == "repeat" else tuple(-x for x in row))
    return ints, draw(st.lists(st.integers(1, 6), min_size=r, max_size=r))


@settings(max_examples=300, deadline=None)
@given(_normal_sets())
def test_pruned_walk_finds_the_nonsingular_subsets(normals):
    # exactly the nonsingular k-subsets, with the (M_S, E_S, |det A_S|) of
    # the inverse route; each echelon row is primitive and, being a vector
    # of t x t minors of the normals over its content, within Hadamard's
    # bound at depth t
    ints, scales = normals
    cones, rows = _walk(ints, scales)
    assert list(cones.items()) == list(inverse_facet_cones(ints, scales).items())
    bound = max(sum(x * x for x in row) for row in ints)
    for depth, row in rows:
        assert gcd(*row) == 1
        assert all(x * x <= bound**depth for x in row)


def test_pruned_walk_rows_keep_their_size_on_cube8():
    # the cube8 normals are +-e_i: every kept row is a +-e_i at every depth
    ints = [tuple(s * (j == i) for j in range(8)) for i in range(8) for s in (1, -1)]
    cones, rows = _walk(ints, [1] * 16)
    assert len(cones) == 2**8
    assert {depth for depth, _ in rows} == set(range(1, 9))
    assert all(max(map(abs, row)) == 1 and sum(map(abs, row)) == 1 for _, row in rows)


def test_moment_route_matches_derivative_route(build_corpus, monkeypatch):
    # each degree's candidates and their derivatives, read off the degree
    # below, against a scan of nu's moments e! n_e; the quotient basis and
    # the reductions against that route exactly, and against d^alpha nu on
    # the Fraction polynomial, the reductions being numerators over d
    # compared as Fractions; the pairing against the Fraction polynomial
    calls, real = [], polytopes._reduce_degree

    def recorded(candidates, derivs):
        calls.append((list(candidates), list(derivs), real(candidates, derivs)))
        return calls[-1][2]

    monkeypatch.setattr(polytopes, "_reduce_degree", recorded)
    for name, (p, nu) in build_corpus.items():
        calls.clear()
        form = build_pkt_module(p, nu).form.data
        assert len(calls) == p.dim + 1, name
        moments = {e: n * prod(map(factorial, e)) for e, n in nu.numerators.items()}
        chosen, candidates = [], [(0,) * p.facet_count]
        for l, (called, derivs, (basis, reduction, d)) in enumerate(calls):
            assert called == candidates, (name, l)
            assert derivs == [moment_derivative(alpha, moments) for alpha in candidates], (name, l)
            assert (basis, reduction, d) == moment_reduce_degree(candidates, moments), (name, l)
            assert isinstance(d, int) and d > 0, (name, l)
            assert all(isinstance(c, int) for coords in reduction.values() for c in coords.values()), (name, l)
            fractions = {alpha: {m: F(c, d) for m, c in coords.items()} for alpha, coords in reduction.items()}
            assert (basis, fractions) == derivative_reduce_degree(candidates, nu.poly), (name, l)
            chosen.append(basis)
            products = {b[:i] + (b[i] + 1,) + b[i + 1 :] for b in basis for i in range(p.facet_count)}
            candidates = sorted(products, reverse=True)
        flat = [(l, alpha) for l, basis in enumerate(chosen) for alpha in basis]
        for i, (l, alpha) in enumerate(flat):
            for j, (_, beta) in enumerate(flat):
                expected = intersection_sign(2 * l) * derivative_pairing(nu.poly, alpha, beta)
                assert form[i][j] == expected, (name, alpha, beta)


def _degree_inputs(p, nu, monkeypatch):
    """The (candidates, derivatives) of each degree that ``build_pkt_module``
    hands to ``_reduce_degree`` on ``p``."""
    calls, real = [], polytopes._reduce_degree
    with monkeypatch.context() as patch:
        patch.setattr(polytopes, "_reduce_degree", lambda c, d: calls.append((list(c), list(d))) or real(c, d))
        build_pkt_module(p, nu)
    return calls


def test_greedy_echelon_matches_the_dense_rref(monkeypatch):
    # the sparse greedy echelon of each degree gives the pivots of one dense
    # RREF of the derivatives, its numerators and its denominator d, the
    # least common one, on cube6, cube7 and 10 seeded perturbations each of
    # the benchmark's cube4, cube5 and Δ₂ × Δ₂ × I
    workloads, rng = bench_workloads(), random.Random(11)
    polys = [cube(6), cube(7)] + [
        build_polytope(normals, workloads.perturbed_support(normals, support, rng))
        for (normals, support), _ in workloads.BUILD_INPUTS.values()
        for _ in range(10)
    ]
    for p in polys:
        nu = volume_polynomial(p)
        moments = {e: n * prod(map(factorial, e)) for e, n in nu.numerators.items()}
        for l, (candidates, derivs) in enumerate(_degree_inputs(p, nu, monkeypatch)):
            assert polytopes._reduce_degree(candidates, derivs) == moment_reduce_degree(candidates, moments), (p.support, l)


def test_reduce_degree_runs_no_dense_elimination(monkeypatch):
    # cube6's quotient is reduced on its sparse integer derivatives alone:
    # no dense Matrix is built, and no RREF or elimination runs
    p = cube(6)
    nu = volume_polynomial(p)
    moments = {e: n * prod(map(factorial, e)) for e, n in nu.numerators.items()}
    inputs = _degree_inputs(p, nu, monkeypatch)
    dense = [moment_reduce_degree(candidates, moments) for candidates, _ in inputs]

    def refuse(*args, **kwargs):
        raise AssertionError("a dense elimination ran")

    monkeypatch.setattr(Matrix, "rref", refuse)
    monkeypatch.setattr(Matrix, "over", classmethod(refuse))
    assert [polytopes._reduce_degree(candidates, derivs) for candidates, derivs in inputs] == dense


def _simplex(k):
    normals = [[-int(j == i) for j in range(k)] for i in range(k)] + [[1] * k]
    return build_polytope(normals, [0] * k + [1], f"simplex{k}")


def _cut_cube5():
    # the 5-cube with its vertex (1, ..., 1) cut off
    c = cube(5)
    return build_polytope([*c.normals, [1] * 5], [*c.support, F(9, 2)], "cut-cube5")


def _seed11_perturbations():
    """cube4, cube5 and Δ₂ × Δ₂ × I, their supports perturbed by the
    benchmark's ``perturbed_support`` from one ``random.Random(11)``."""
    workloads, rng = bench_workloads(), random.Random(11)
    return [
        build_polytope(normals, workloads.perturbed_support(normals, support, rng), f"{name}-r11")
        for name, ((normals, support), _) in workloads.BUILD_INPUTS.items()
    ]


def test_face_recursion_matches_the_expanded_vertex_sum(build_corpus):
    # the polynomial of the face recursion is the vertex sum's, expanded
    # monomial by monomial; simplex6 (every monomial of degree 6 in 7
    # facets) and the cut 5-cube are dense
    extra = _seed11_perturbations() + [_simplex(6), _cut_cube5()]
    cases = list(build_corpus.values()) + [(p, volume_polynomial(p)) for p in extra]
    for p, nu in cases:
        assert nu == expanded_volume_polynomial(p), p.name
        assert all(nu.numerators.values()), p.name
    assert [len(nu.numerators) for _, nu in cases[-2:]] == [924, 282]


def test_the_volume_routes_read_apart(route_corpus):
    # the oracle reads no face table; the polynomial reads no vertex sum, so
    # a vertex sum with one weight off by one aborts the construction
    for name, (p, _) in route_corpus.items():
        blind = replace(p, faces=None)
        draws, walls = _route_supports(p, f"apart:{name}")
        for x in [list(p.support)] + draws + walls:
            assert _outcome(volume_oracle, blind, x) == _outcome(volume_oracle, p, x), (name, x)
        (facets, z, w), *rest = p.vertex_sum.terms
        skewed = replace(p, vertex_sum=p.vertex_sum._replace(terms=((facets, z, w + 1), *rest)))
        with pytest.raises(ConstructionError, match="volume mismatch"):
            volume_polynomial(skewed)


# SHA-256 of the module files of cube5, cube6 and the benchmark's seed-11
# build-scale polytopes, as written before nu came from the face recursion
MODULE_TEXT_SHA256 = {
    "cube5": "d2d375b039314f7e2822298b9abf2b29451bd25eaf52f25919d49e319f84112b",
    "cube6": "b934afacb2abc1fcd3ef253bb0412e190be0bc395718867bafcdf3dd3c0bed5c",
    "cube4-pert": "6d178945121f5393e584cb16912a2e5ae9dbbaccca92611ace33c0719f4ebb28",
    "cube5-pert": "a43b73b736c15edf6add2aec72513363b0334e0c26d0843951609641d4152dfc",
    "d2d2i-pert": "475270a396a9513922487c89fe18fd939c71c3bb872bf1a1394556aa7e5d85cc",
}


def test_module_files_keep_their_bytes(build_corpus):
    polys = {p.name: p for p in (cube(5), cube(6))}
    polys |= {p.name: p for key, (p, _) in build_corpus.items() if key.startswith("bench-")}
    for name, digest in MODULE_TEXT_SHA256.items():
        text = module_text(build_pkt_module(polys[name]))
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest, name


def test_build_path_builds_no_fraction_polynomial(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the build path built a Fraction polynomial")

    monkeypatch.setattr(exact, "apply_diff_op", refuse)
    monkeypatch.setattr(MultiPoly, "__init__", refuse)
    for p in (load_polytope("cube4"), triangle_triangle_interval()):
        assert h_vector(build_pkt_module(p, volume_polynomial(p))), p.name


def _fraction_draws(p):
    """The supports nu is validated at besides the reference, drawn on
    Fractions as x = s + r / 64 * scale, the scale halved after a support
    the oracle rejects; each with q = 64 / scale."""
    rng = random.Random(polytopes.VALIDATION_SEED)
    scale, draws, done = F(1, 8), [], 0
    while done < polytopes.VALIDATIONS:
        x = tuple(s + F(rng.randint(-8, 8), 64) * scale for s in p.support)
        draws.append((x, 64 / scale))
        try:
            volume_oracle(p, x)
        except PolytopeError:
            scale /= 2
            continue
        done += 1
    return draws


def test_validation_supports_are_the_fraction_draws_scaled(route_corpus, monkeypatch):
    # each validation support is the integer vector X = D x over D = e q,
    # for the Fraction draw x, the reference s = S / e and q = 64 / scale;
    # the thin rectangle, of width 1/1000, rejects draws and halves the scale
    thin = build_polytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, F(1, 1000), 0], "thin")
    corpus_ = {name: p for name, (p, _) in route_corpus.items()} | {"thin": thin}
    exact_oracle, recorded = polytopes.volume_oracle, []
    monkeypatch.setattr(polytopes, "volume_oracle", lambda p, x: recorded.append(tuple(x)) or exact_oracle(p, x))
    rejected = 0
    for name, p in corpus_.items():
        recorded.clear()
        volume_polynomial(p)
        (_,), e = integer_rows([p.support])
        draws = _fraction_draws(p)
        rejected += len(draws) - polytopes.VALIDATIONS
        assert recorded[0] == p.support and len(recorded) == len(draws) + 1, name
        for big, (x, q) in zip(recorded[1:], draws):
            assert all(type(c) is int for c in big), name
            assert tuple(F(c, e * q) for c in big) == x, name
    assert rejected > 0
    assert any(integer_rows([p.support])[1] != 1 for p in corpus_.values())


def test_cube4_build_converts_the_slack_forms_once(monkeypatch):
    # the oracle's 21 calls and the module read the slack forms as the
    # integer rows derived with the polytope
    calls = []
    real = polytopes.integer_rows

    def recorded(rows):
        rows = [list(row) for row in rows]
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(polytopes, "integer_rows", recorded)
    p = load_polytope("cube4")
    build_pkt_module(p, volume_polynomial(p))
    forms = [list(f) for f in p.slack_forms]
    assert sum(rows == forms for rows in calls) == 1


def test_cube4_build_makes_no_matrix_of_fractions(monkeypatch):
    # the generators and the form are carriers of numerators: no Matrix is
    # built from Fraction rows
    built = []
    real = Matrix.__init__

    def recorded(self, data, rows=None, cols=None):
        real(self, data, rows, cols)
        if any(isinstance(x, Fraction) for row in self.data for x in row):
            built.append((self.rows, self.cols))

    monkeypatch.setattr(Matrix, "__init__", recorded)
    p = load_polytope("cube4")
    module = build_pkt_module(p, volume_polynomial(p))
    assert built == []
    assert all(not isinstance(x, Fraction) for g in module.family.matrices for row in g.numerators()[0] for x in row)


def test_module_carriers_are_in_lowest_terms(corpus):
    # the form and every generator are kept over the least denominator of
    # their entries; cube4's and cube5's forms are integral
    modules = {name: module for name, (_, _, module) in corpus.items()}
    modules["cube5"] = build_pkt_module(cube(5))
    for name, module in modules.items():
        for m in (module.form, *module.family.matrices):
            rows, d = m.numerators()
            assert gcd(d, *(x for row in rows for x in row)) == 1, name
    assert modules["cube4"].form.numerators()[1] == modules["cube5"].form.numerators()[1] == 1


def test_volume_polynomials_compare_as_polynomials():
    nu = volume_polynomial(load_polytope("cube3"))
    assert nu == volume_polynomial(load_polytope("cube3"))
    # nu depends on the normals only, so moving the supports keeps it
    assert nu == volume_polynomial(load_polytope("cube3-perturbed"))
    tripled = replace(nu, numerators={e: 3 * n for e, n in nu.numerators.items()}, denom=3 * nu.denom)
    assert nu == tripled and hash(nu) == hash(tripled)
    assert nu != replace(nu, denom=2 * nu.denom)
    doubled = [[2 * c for c in row] if i == 0 else row for i, row in enumerate(load_polytope("cube3").normals)]
    assert nu != volume_polynomial(build_polytope(doubled, [2] + [1] * 5))


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
    from corpus import load_torus_spec
    from hlmod.torus import build_torus_module
    from hlmod.hodge_lefschetz import ConstructionError

    with pytest.raises(ConstructionError):
        h_vector(build_torus_module(load_torus_spec("torus1")))


def test_dims_symmetric_and_sum_to_vertex_count(corpus):
    for name, (p, _, module) in corpus.items():
        h = h_vector(module)
        assert h == tuple(reversed(h)), name
        assert sum(h) == len(p.vertices), name


def test_pairing_nondegenerate_and_twist_restores_skewness(corpus):
    from hlmod.exact import Matrix
    from hlmod.hodge_lefschetz import intersection_sign

    for name, (p, nu, module) in corpus.items():
        q = module.form
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


def test_af_check_reads_the_three_mixed_volumes(corpus):
    # nu is derived along the rest once, then along c1 and c2: the values
    # are the mixed volumes of the whole tuples
    rng = random.Random(2026)
    for name in ("cube3", "cube4", "prism-perturbed"):
        p, nu, module = corpus[name]
        for _ in range(3):
            c1, c2, *rest = (list(sample_cone_element(module, rng)) for _ in range(p.dim))
            expected = {
                key: format_rational(mixed_volume(nu, [a, b, *rest]))
                for key, a, b in (("m12", c1, c2), ("m11", c1, c1), ("m22", c2, c2))
            }
            assert af_check(nu, c1, c2, rest).data == expected, name


def test_af_random_cone_pairs(corpus):
    rng = random.Random(2025)
    for name in ("square", "cube3"):
        p, nu, module = corpus[name]
        rest = [list(p.support)] * (p.dim - 2)
        for _ in range(25):
            c1 = list(sample_cone_element(module, rng))
            c2 = list(sample_cone_element(module, rng))
            assert af_check(nu, c1, c2, rest).passed, name
