"""Triangulation, expansion and Fraction routes for the volume oracle, the
volume polynomial, its values, its polarization and the module built on it.

The library computes all of these on integers: the polynomial by Lasserre's
face recursion run on sparse polynomials, the oracle by Lawrence's vertex
sum at an integer-scaled support, the polynomial's values and mixed volumes
on its integer numerators, and the quotient basis and pairing of the module
on its moments e! n_e.  These are routes it used before, kept as oracles
that the integer routes must match exactly: the pulling triangulation, whose
signed simplex determinants give the volume, the vertex sum expanded
monomial by monomial into the polynomial (``expanded_volume_polynomial``),
coefficient-by-coefficient evaluation and polarization on
``fractions.Fraction``, and the derivatives d^alpha nu taken on the Fraction
polynomial and eliminated on Fractions.  The module build reads each
d^alpha nu off the derivative of the degree below; ``moment_derivative`` and
``moment_reduce_degree`` are the route it took before, a scan of all of
nu's moments for each candidate alpha.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, lcm, prod
from operator import add, ge, getitem, itemgetter, sub
from typing import Sequence

from field_oracles import field_rref
from hlmod.exact import Matrix, MultiPoly, apply_diff_op, integer_det, integer_rows
from hlmod.polytopes import PolytopeError, SimplePolytope, VolumePolynomial, _generic_functionals


def _dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b) if x), Fraction(0))


@cache
def pulling_triangulation(p: SimplePolytope) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The simplices, as vertex index tuples, and their orientation signs of
    the pulling triangulation of ``p``: recursively cone the least vertex of
    each face over the pulled triangulations of the facets avoiding it.

    A face of a simple polytope of dimension k, given by its vertices, has
    dimension k minus the number of facets that contain all of them."""
    k, incidences = p.dim, p.incidences
    facet_vertices = [frozenset(i for i, inc in enumerate(incidences) if j in inc) for j in range(p.facet_count)]
    memo: dict[frozenset[int], list[tuple[int, ...]]] = {}

    def face_dim(vset: frozenset[int]) -> int:
        return k - len(frozenset.intersection(*(incidences[i] for i in vset)))

    def facets_of(vset: frozenset[int], d: int) -> list[frozenset[int]]:
        seen: dict[frozenset[int], None] = {}
        for fv in facet_vertices:
            w = vset & fv
            if w and w != vset and w not in seen and face_dim(w) == d - 1:
                seen[w] = None
        return list(seen)

    def pull(vset: frozenset[int], d: int) -> list[tuple[int, ...]]:
        if vset in memo:
            return memo[vset]
        if d == 0:
            out = [tuple(sorted(vset))]
        elif d == 1:
            pair = tuple(sorted(vset))
            assert len(pair) == 2, "edge with vertex count != 2"
            out = [pair]
        else:
            v0 = min(vset)
            out = [(v0,) + sigma for g in facets_of(vset, d) if v0 not in g for sigma in pull(g, d - 1)]
        memo[vset] = out
        return out

    simplices = pull(frozenset(range(len(p.vertices))), k)
    points, _ = integer_rows(p.vertices)
    signs = []
    for sigma in simplices:
        det = simplex_det(points, sigma)
        assert det, "degenerate simplex in triangulation"
        signs.append(1 if det > 0 else -1)
    return tuple(simplices), tuple(signs)


def simplex_det(points: Sequence[Sequence[int]], sigma: Sequence[int]) -> int:
    """det(v_i - v_0) over the integer vertices v_0, v_1, ... of the simplex sigma."""
    base = points[sigma[0]]
    return integer_det([list(map(sub, points[i], base)) for i in sigma[1:]])


def fraction_volume_oracle(p: SimplePolytope, support) -> Fraction:
    """The volume over the pulling triangulation, with Fraction vertices
    A_S^{-1} x_S placed at ``support`` (A_S inverted here, from the normals)
    and oriented as at the reference, and a Fraction slack-form test."""
    x = tuple(Fraction(c) for c in support)
    if len(x) != p.facet_count:
        raise PolytopeError("combinatorics-changed", "support length mismatch")
    if any(_dot(form, x) <= 0 for form in p.slack_forms):
        raise PolytopeError("combinatorics-changed", "vertex-facet incidences differ")
    vertices = []
    for inc in p.incidences:
        facets = tuple(sorted(inc))
        vertices.append(Matrix([p.normals[j] for j in facets]).inverse().apply([x[j] for j in facets]))
    points, d = integer_rows(vertices)
    dets = (s * simplex_det(points, sigma) for sigma, s in zip(*pulling_triangulation(p)))
    return Fraction(sum(dets), d**p.dim * factorial(p.dim))


def monomials_of_degree(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree ``degree`` in descending lex order."""
    if nvars == 1:
        return [(degree,)]
    return [(e,) + rest for e in range(degree, -1, -1) for rest in monomials_of_degree(nvars - 1, degree - e)]


def expanded_volume_polynomial(p: SimplePolytope) -> VolumePolynomial:
    """The vertex sum (Lawrence 1991) expanded into the volume polynomial.

    With c generic and y_v = A_v^{-T} c at each vertex v, the volume is
    sum_v <c, v(h)>^k / (k! |det A_v| prod_j y_{v,j}), and <c, v(h)> is the
    linear form sum_j y_{v,j} h_{S_v[j]} in the supports of the facets S_v
    at v.  Its multinomial expansion gives
    nu = sum_v sum_{|a|=k} prod_j y_{v,j}^(a_j - 1) / (a! |det A_v|) h_{S_v}^a.
    The expansion runs on integers: sum_j (a_j - 1) = 0, so y_v may be scaled
    to the integer vector z_v = E_v y_v, and each term is the integer (k!/a!)
    prod_j z_{v,j}^(a_j) over k! |det A_v| prod_j z_{v,j}; the numerators are
    summed over one common denominator.  On cube8 that is 256 x 6,435
    updates that collapse to 256 terms.
    """
    k, r = p.dim, p.facet_count
    # exponents a, with a 0 padded on at index k, and k!/a!
    padded = [a + (0,) for a in monomials_of_degree(k, k)]
    multinomials = [factorial(k) // prod(map(factorial, a)) for a in padded]
    facets = [sorted(inc) for inc in p.incidences]
    zs = _generic_functionals([p.cones[tuple(f)][0] for f in facets], k)
    weights = [1 / (factorial(k) * prod(z) * p.cones[tuple(f)][2]) for f, z in zip(facets, zs)]
    denom = lcm(*(w.denominator for w in weights))
    numerators: dict[tuple[int, ...], int] = {}
    for f, z, w in zip(facets, zs, weights):
        factor = w.numerator * (denom // w.denominator)
        powers = [[zj**e for e in range(k + 1)] for zj in z]
        # facet i takes a[f.index(i)], or the padding if it misses v
        scatter = itemgetter(*(f.index(i) if i in f else k for i in range(r)))
        for a, multinomial in zip(padded, multinomials):
            value = factor * multinomial * prod(map(getitem, powers, a))  # k powers: no pad
            key = scatter(a)
            numerators[key] = numerators.get(key, 0) + value
    numerators = {key: n for key, n in numerators.items() if n}
    return VolumePolynomial(k, r, p.slack_forms, numerators, denom, p.slack_rows)


def fraction_evaluate(f: MultiPoly, values) -> Fraction:
    """f at ``values``, term by term on Fractions."""
    if len(values) != f.nvars:
        raise ValueError("value count mismatch")
    total = Fraction(0)
    for e, c in f.terms.items():
        term = c
        for x, p in zip(values, e):
            if p:
                term = term * (Fraction(x) ** p)
        total += term
    return total


def poly_diff(f: MultiPoly, i: int) -> MultiPoly:
    """The partial derivative of f in variable i."""
    out: dict[tuple, Fraction] = {}
    for e, c in f.terms.items():
        if e[i]:
            key = e[:i] + (e[i] - 1,) + e[i + 1 :]
            out[key] = out.get(key, Fraction(0)) + c * e[i]
    return MultiPoly(f.nvars, out)


def fraction_mixed_volume(nu: VolumePolynomial, supports) -> Fraction:
    """The polarization of ``nu.poly``: each support c applied as the
    operator sum_i c_i d_i on Fraction coefficients, the constant over k!."""
    if len(supports) != nu.dim:
        raise ValueError(f"need exactly {nu.dim} support vectors")
    f = nu.poly
    for c in supports:
        c = [Fraction(e) for e in c]
        if len(c) != nu.facets:
            raise ValueError("support vector length mismatch")
        out = MultiPoly.zero(f.nvars)
        for i, ci in enumerate(c):
            if ci:
                out = out + poly_diff(f, i) * ci
        f = out
    return constant_term(f) / factorial(nu.dim)



def variable(nvars: int, i: int) -> MultiPoly:
    """The polynomial x_i in ``nvars`` variables."""
    return MultiPoly(nvars, {tuple(int(j == i) for j in range(nvars)): Fraction(1)})


def constant_term(f: MultiPoly) -> Fraction:
    return f.terms.get((0,) * f.nvars, Fraction(0))


def derivative_reduce_degree(candidates, poly: MultiPoly):
    """The greedy basis of span{d^alpha nu : alpha in candidates} and every
    candidate's coordinates over it, as ``polytopes._reduce_degree`` returns
    them: each d^alpha nu by ``apply_diff_op`` on the Fraction polynomial,
    then a Fraction RREF of the derivatives as columns."""
    derivs = [apply_diff_op(alpha, poly).terms for alpha in candidates]
    support = sorted({e for f in derivs for e in f})
    rr, pivots = field_rref(Matrix.from_columns([[f.get(e, Fraction(0)) for e in support] for f in derivs], len(support)))
    reduction = {
        alpha: {m: rr.data[m][j] for m in range(len(pivots)) if rr.data[m][j]}
        for j, alpha in enumerate(candidates)
    }
    return [candidates[j] for j in pivots], reduction


def derivative_pairing(poly: MultiPoly, alpha, beta) -> Fraction:
    """The raw pairing d^alpha d^beta . nu: the constant term of d^(alpha + beta) nu."""
    return constant_term(apply_diff_op(tuple(map(add, alpha, beta)), poly))


def moment_derivative(alpha, moments) -> dict[tuple[int, ...], int]:
    """d^alpha nu as gamma -> m(alpha + gamma), from a scan of all the
    moments m(e) = e! n_e of nu."""
    return {tuple(map(sub, e, alpha)): m for e, m in moments.items() if all(map(ge, e, alpha))}


def moment_reduce_degree(candidates, moments):
    """``polytopes._reduce_degree`` on the derivatives ``moment_derivative``
    scans, by a Fraction RREF of the derivatives as columns: the numerators
    of the coordinates over their least common denominator d, and d."""
    derivs = [moment_derivative(alpha, moments) for alpha in candidates]
    support = sorted({e for f in derivs for e in f})
    rr, pivots = field_rref(Matrix.over([[f.get(e, 0) for f in derivs] for e in support], 1, len(derivs)))
    d = lcm(*(x.denominator for row in rr.data for x in row))
    reduction = {
        alpha: {m: int(rr.data[m][j] * d) for m in range(len(pivots)) if rr.data[m][j]}
        for j, alpha in enumerate(candidates)
    }
    return [candidates[j] for j in pivots], reduction, d
