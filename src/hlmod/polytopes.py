"""Simple polytopes, volume polynomials, and their operator algebras.

A simple polytope is described by outward facet normals and support numbers.
From that description this module derives exact vertices, what the two volume
routes read, the volume polynomial nu in the support coordinates, and the
graded algebra of constant-coefficient differential operators modulo the
annihilator of nu.  The algebra is packaged as a Hodge-Lefschetz module whose
reference operator is the support-weighted sum of the partial derivatives,
and mixed volumes come from polarizing nu.

The two routes are independent, both on integers: Lasserre's face recursion
(1983), run on sparse polynomials over the faces of the reference, defines
the polynomial, and the vertex sum with a generic linear functional (Lawrence
1991), evaluated at sampled supports, is the oracle it is checked against.
The oracle takes each vertex as A_S^{-1} x_S and certifies that it lies
strictly inside every other facet: then each is a simple vertex whose edges
end at certified vertices, and a polytope's graph is connected, so none is
missed.  With the normals read as N_j / c_j and each vertex cone found once,
by a walk that skips the supersets of a dependent prefix, as A_S^{-1} =
M_S / E_S with M_S integral, the slack of every facet at every vertex is an
integer form in the supports.  nu is kept as integer numerators over one
denominator, and the module reads its moments e! n_e, the constant terms of
d^e nu, which fix both Ann(nu) and the pairing D1 D2 . nu, each
d^(beta + e_i) nu read off d^beta nu, a sparse integer vector.  One greedy
fraction-free echelon of these per degree gives the quotient, whose
matrices are born as sparse rows.  Each route divides once, at the end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, product
from math import factorial, gcd, lcm, prod
from operator import add, getitem, mul
from typing import Mapping, NamedTuple, Sequence

from .exact import Matrix, MultiPoly, format_rational, greedy_echelon, integer_rows
from .hodge_lefschetz import (
    BasisVector,
    ConstructionError,
    GradedSpace,
    HLModule,
    OperatorFamily,
    _certify_module,
    intersection_sign,
)
from .report import CheckReport


class PolytopeError(ValueError):
    """Invalid polytope input; ``code`` is one of unbounded, non-simple,
    infeasible, redundant-facet, combinatorics-changed."""

    def __init__(self, code: str, message: str = ""):
        super().__init__(message or code)
        self.code = code


# a vertex cone: A_S^{-1} as integer numerators M_S over E_S > 0, and |det A_S|
VertexCone = tuple[tuple[tuple[int, ...], ...], int, Fraction]


class FaceTable(NamedTuple):
    """Lasserre's face recursion over a simple polytope (see _face_table)."""

    leaves: tuple[int, ...]  # L / |det N_T| at each vertex T, in vertex order
    denom: int  # L E^k
    forms: tuple[tuple[tuple[int, int], ...], ...]  # the distinct slack forms the faces read, sparse
    # after the vertices, children first: each face F_S as the pairs (index in
    # forms, index of F_{S+j}) of the facets j of F_S off one of its vertices
    faces: tuple[tuple[tuple[int, int], ...], ...]


class VertexSum(NamedTuple):
    """Lawrence's vertex sum over a simple polytope (see _vertex_sum)."""

    terms: tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]  # (S_v, z_v, W_v) at each vertex v
    denom: int  # W


@dataclass(frozen=True)
class SimplePolytope:
    name: str
    dim: int
    normals: tuple[tuple[Fraction, ...], ...]
    support: tuple[Fraction, ...]
    vertices: tuple[tuple[Fraction, ...], ...]
    incidences: tuple[frozenset[int], ...]
    # each nonsingular k-subset S of facets, in lexicographic order ->
    # (M_S, E_S, |det A_S|), with A_S^{-1} = M_S / E_S on integers, from the
    # pruned walk of _facet_cones; derived from the normals, so not compared
    cones: Mapping[tuple[int, ...], VertexCone] = field(compare=False, repr=False)
    # the slack forms h_j - n_j . A_S^{-1} h_S of the facets j off each vertex
    # S, up to positive scaling (see build_polytope); the type cone is where
    # all are positive; derived from the normals, so not compared
    slack_forms: tuple[tuple[Fraction, ...], ...] = field(compare=False, repr=False)
    # the slack forms times one common denominator (integer_rows), which the
    # sign tests read; derived once, with the forms
    slack_rows: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    # what volume_polynomial's face recursion and the volume oracle's vertex
    # sum read; derived from the normals and the incidences, so not compared
    faces: FaceTable = field(compare=False, repr=False)
    vertex_sum: VertexSum = field(compare=False, repr=False)

    @property
    def facet_count(self) -> int:
        return len(self.normals)


@dataclass(frozen=True)
class VolumePolynomial:
    """nu = sum_e numerators[e] h^e / denom, homogeneous of degree ``dim``;
    two compare equal when their polynomials do."""

    dim: int
    facets: int
    # the polytope's slack forms: nu is a volume only where all are >= 0
    slack_forms: tuple[tuple[Fraction, ...], ...]
    numerators: Mapping[tuple[int, ...], int] = field(compare=False, repr=False)
    denom: int = field(compare=False, repr=False)
    # the polytope's slack_rows, which the sign tests read
    slack_rows: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

    def __eq__(self, other):
        if not isinstance(other, VolumePolynomial):
            return NotImplemented
        return (self.dim, self.slack_forms, self.poly) == (other.dim, other.slack_forms, other.poly)

    @property
    def poly(self):
        """nu with reduced Fraction coefficients, built on demand: the library reads the numerators."""
        return MultiPoly(self.facets, {e: Fraction(n, self.denom) for e, n in self.numerators.items()})

    def evaluate(self, support: Sequence) -> Fraction:
        """nu at ``support``: with X = D x an integer vector, the integer
        sum_e n_e X^e over denom D^k, since every term has degree k."""
        x, d = _integer_support(support)
        if len(x) != self.facets:
            raise ValueError("value count mismatch")
        powers = [[c**e for e in range(self.dim + 1)] for c in x]
        value = sum(n * prod(map(getitem, powers, e)) for e, n in self.numerators.items())
        return Fraction(value, self.denom * d**self.dim)


def _integer_support(support: Sequence) -> tuple[list[int], int]:
    """A support x as the integer vector X = D x and D > 0; ints pass as they are."""
    x = list(support)
    if all(type(c) is int for c in x):
        return x, 1
    (x,), d = integer_rows([[Fraction(c) for c in x]])
    return x, d


# ---------------------------------------------------------------------------
# Vertex enumeration and construction
# ---------------------------------------------------------------------------


def _facet_cones(ints: Sequence[Sequence[int]], scales: Sequence[int]) -> dict[tuple[int, ...], VertexCone]:
    """The cone (M_S, E_S, |det A_S|) of the normal matrix A_S of every
    k-subset S of facets with A_S nonsingular, in lexicographic order; a
    singular subset meets in no vertex.  A depth-first walk keeps each
    prefix's normals as primitive echelon rows; a normal that reduces to
    zero against them lies in their span, so every subset holding the
    prefix and it is singular, and its whole subtree is skipped.  At a leaf,
    with n_j = N_j / c_j (``ints``, ``scales``), A_S^{-1} = N_S^{-1}
    diag(c_S) is M_S = E_S N_S^{-1} diag(c_S) over E_S = |det N_S|, both from
    :func:`_adjugate`, and |det A_S| = E_S / prod_S c_j."""
    k, r = len(ints[0]), len(ints)
    cones: dict[tuple[int, ...], VertexCone] = {}

    def walk(subset: tuple[int, ...], echelon: list[tuple[int, list[int]]]) -> None:
        if len(subset) == k:
            det, adj = _adjugate([ints[j] for j in subset])
            m = tuple(tuple(x * scales[j] for x, j in zip(row, subset)) for row in adj)
            cones[subset] = (m, det, Fraction(det, prod(scales[j] for j in subset)))
            return
        for j in range(subset[-1] + 1 if subset else 0, r - k + len(subset) + 1):
            row = _echelon_row(echelon, ints[j])
            if row is not None:
                walk(subset + (j,), echelon + [row])

    walk((), [])
    return cones


def _echelon_row(echelon: Sequence[tuple[int, Sequence[int]]], normal: Sequence[int]) -> tuple[int, list[int]] | None:
    """(pivot, row) for ``normal`` reduced against the (pivot, row) pairs of
    ``echelon``, each row zero at the pivots before it, and divided by its
    content, which bounds its entries by minors of the normals; None when zero."""
    v = list(normal)
    for pivot, row in echelon:
        if v[pivot]:
            a, b = row[pivot], v[pivot]
            v = [a * x - b * y for x, y in zip(v, row)]
    g = gcd(*v)
    return (next(i for i, x in enumerate(v) if x), [x // g for x in v]) if g else None


def _adjugate(rows: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """(|d|, |d| N^{-1}) for d = det N of a nonsingular integer matrix N: each
    fraction-free Gauss-Jordan step on [N | I] divides exactly by the last
    pivot, so it ends as [+-d I | R], and row operations keep R N = +-d I."""
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev = 1
    for c in range(n):
        p = next(i for i in range(c, n) if m[i][c])
        m[c], m[p] = m[p], m[c]
        top = m[c]
        for i, row in enumerate(m):
            if i != c and (row[c] or top[c] != prev):  # else the update leaves the row as it is
                m[i] = [(top[c] * x - row[c] * y) // prev for x, y in zip(row, top)]
        prev = top[c]
    return (prev, [row[n:] for row in m]) if prev > 0 else (-prev, [[-x for x in row[n:]] for row in m])


def _integer_normals(normals: Sequence[Sequence[Fraction]]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Each normal n_j as N_j / c_j: the integer vectors N_j and the scales c_j > 0."""
    ratios = [integer_rows([row]) for row in normals]
    return tuple(tuple(n) for (n,), _ in ratios), tuple(c for _, c in ratios)


def _enumerate_vertices(
    ints: Sequence[Sequence[int]],
    scales: Sequence[int],
    support: Sequence[Fraction],
    cones: Mapping[tuple[int, ...], VertexCone],
) -> dict[tuple[Fraction, ...], frozenset[int]]:
    """All vertices of the H-polyhedron, keyed by exact coordinates.

    Every nonsingular k-subset S of facets (``cones``, from
    :func:`_facet_cones`) meets in one point; the feasible points are the
    vertices, each with the set of facets it lies on.  With n_j = N_j / c_j
    (``ints``, ``scales``) and h = H / e, the point is v = M_S H_S / (E_S e),
    and n_j . v <= h_j reads N_j . M_S H_S <= c_j H_j E_S, all on integers.
    """
    (hs,), e = integer_rows([support])
    bounds = [c * h for c, h in zip(scales, hs)]
    found: dict[tuple[Fraction, ...], frozenset[int]] = {}
    for subset, (m, det, _) in cones.items():
        h = [hs[j] for j in subset]
        point = [sum(map(mul, row, h)) for row in m]
        key = tuple(Fraction(x, det * e) for x in point)
        if key in found:
            continue
        tight = set()
        for j, (normal, bound) in enumerate(zip(ints, bounds)):
            value, limit = sum(map(mul, normal, point)), bound * det
            if value > limit:
                break
            if value == limit:
                tight.add(j)
        else:
            found[key] = frozenset(tight)
    return found


def build_polytope(normals, support, name: str = "") -> SimplePolytope:
    """Solve for vertices, validate simplicity and boundedness, and list the
    faces and vertex terms the two volume routes read."""
    normals = tuple(tuple(Fraction(c) for c in row) for row in normals)
    support = tuple(Fraction(c) for c in support)
    r = len(normals)
    if r == 0:
        raise PolytopeError("infeasible", "no facets given")
    k = len(normals[0])
    if any(len(row) != k for row in normals):
        raise PolytopeError("infeasible", "normals of mixed dimension")
    if len(support) != r:
        raise PolytopeError("infeasible", "support length mismatch")
    if r < k + 1:
        raise PolytopeError("infeasible", "need at least dim+1 facets")

    ints, scales = _integer_normals(normals)
    cones = _facet_cones(ints, scales)
    found = _enumerate_vertices(ints, scales, support, cones)
    if not found:
        raise PolytopeError("infeasible", "no vertex satisfies all inequalities")

    vertices = tuple(sorted(found))
    incidences = tuple(found[v] for v in vertices)

    for v, inc in zip(vertices, incidences):
        if len(inc) != k:
            raise PolytopeError("non-simple", f"vertex {tuple(map(str, v))} lies on {len(inc)} facets")

    missing = sorted(set(range(r)).difference(*incidences))
    if missing:
        raise PolytopeError("redundant-facet", f"facets {missing} support no vertex")

    # an edge direction unbounded below by every other facet is a ray; the
    # edge leaving facet S[pos] of the vertex cone S is d = -A_S^{-1} e_pos,
    # and n_j . d is the coefficient of h_{S[pos]} in the slack form
    # h_j - n_j . A_S^{-1} h_S of a facet j off S, which is positive at h
    # exactly when v_S(h) lies strictly inside facet j.  With A_S^{-1} = M / E,
    # the slopes are the integers -N_j . M e_pos over c_j E: each facet j off S -> its slopes.
    forms: dict[tuple, dict[int, Fraction]] = {}  # keyed by the primitive integer form
    slopes: list[dict[int, list[int]]] = []  # per vertex, for _face_table
    for inc in incidences:
        facets = tuple(sorted(inc))
        m, e, _ = cones[facets]
        slopes.append(table := {j: [-sum(map(mul, ints[j], c)) for c in zip(*m)] for j in range(r) if j not in inc})
        if any(all(s <= 0 for s in edge) for edge in zip(*table.values())):
            raise PolytopeError("unbounded", "polyhedron has an extreme ray")
        for j, row in table.items():
            form = {i: s for i, s in zip(facets, row) if s}
            form[j] = scale = e * scales[j]
            g = gcd(*form.values())
            key = tuple(sorted((i, c // g) for i, c in form.items()))
            if key not in forms:
                forms[key] = {i: Fraction(c, scale) for i, c in form.items()}

    slack_forms = tuple(tuple(f.get(i, Fraction(0)) for i in range(r)) for f in forms.values())
    return SimplePolytope(
        name=name,
        dim=k,
        normals=normals,
        support=support,
        vertices=vertices,
        incidences=incidences,
        cones=cones,
        slack_forms=slack_forms,
        slack_rows=tuple(map(tuple, integer_rows(slack_forms)[0])),
        faces=_face_table(scales, incidences, cones, slopes),
        vertex_sum=_vertex_sum(k, incidences, cones),
    )


def _face_table(scales, incidences, cones, slopes) -> FaceTable:
    """The faces of a simple polytope that the face recursion of
    :func:`volume_polynomial` reaches from the polytope itself, children first.

    The faces are the facet sets S inside some vertex's incidences.  F_S
    holds the vertices on every facet of S, and its facets are the F_{S+j}
    for the facets j off S through one of them.  Each face keeps, for the
    facets off its least vertex v only, their slack forms at v: the slack
    of a facet through v is zero at v.  With n_j = N_j / c_j, ``slopes[v]``
    holds the slopes -N_j . M_v e_pos of each facet j off v, A_v^{-1} being
    M_v / E_v (see build_polytope); over the lcm E of the E_v, the slack
    h_j - n_j . v(h) is E c_j h_j + (E / E_v) slopes . h_v over E c_j."""
    k, r, n = len(incidences[0]), len(scales), len(incidences)
    facets = [tuple(sorted(inc)) for inc in incidences]
    dets = [cones[f][1] for f in facets]  # E_v = |det N_v|
    e = lcm(*dets)
    on = [sum(1 << v for v, inc in enumerate(incidences) if j in inc) for j in range(r)]
    index = {inc: v for v, inc in enumerate(incidences)}
    forms: dict[tuple[tuple[int, int], ...], int] = {}  # each distinct slack form -> its index
    faces: list[tuple[tuple[int, int], ...]] = []

    def visit(s: frozenset[int], verts: int) -> int:
        if s not in index:
            v = (verts & -verts).bit_length() - 1
            terms = []
            for j, row in slopes[v].items():
                if verts & on[j]:
                    pairs = [(i, slope * (e // dets[v])) for i, slope in zip(facets[v], row) if slope]
                    form = tuple(sorted(pairs + [(j, e * scales[j])]))
                    terms.append((forms.setdefault(form, len(forms)), visit(s | {j}, verts & on[j])))
            faces.append(tuple(terms))
            index[s] = n + len(faces) - 1
        return index[s]

    visit(frozenset(), (1 << n) - 1)
    return FaceTable(tuple(e // det for det in dets), e ** (k + 1), tuple(forms), tuple(faces))


# ---------------------------------------------------------------------------
# Volume polynomial and the vertex-sum oracle
# ---------------------------------------------------------------------------

# supports at which volume_polynomial checks the polynomial against the
# oracle, besides the reference, and the seed that draws them
VALIDATIONS = 20
VALIDATION_SEED = 1729


def _generic_functionals(ms: Sequence[Sequence[Sequence[int]]], k: int) -> list[list[int]]:
    """z_v = M_v^T c = E_v A_v^{-T} c for the numerators M_v of each vertex
    cone, with c = (1, t, t^2, ...) for the first t >= 2 that makes every
    entry of every z_v nonzero, as the vertex sum divides by each; an entry
    is a nonzero polynomial in t of degree below k, so only finitely many t fail."""
    for t in count(2):
        c = [t**e for e in range(k)]
        zs = [[sum(map(mul, column, c)) for column in zip(*m)] for m in ms]
        if all(all(z) for z in zs):
            return zs


def _vertex_sum(k: int, incidences, cones) -> VertexSum:
    """The terms (S_v, z_v, W_v) and W of Lawrence's vertex sum: z_v from :func:`_generic_functionals`,
    and the weights 1 / (k! |det A_v| prod_j z_{v,j}) as integers W_v over their lcm W."""
    facets = [tuple(sorted(inc)) for inc in incidences]
    zs = _generic_functionals([cones[f][0] for f in facets], k)
    weights = [1 / (factorial(k) * prod(z) * cones[f][2]) for f, z in zip(facets, zs)]
    w = lcm(*(x.denominator for x in weights))
    return VertexSum(tuple((f, tuple(z), x.numerator * (w // x.denominator)) for f, z, x in zip(facets, zs, weights)), w)


def volume_polynomial(p: SimplePolytope) -> VolumePolynomial:
    """nu by Lasserre's face recursion (1983), run on polynomials.

    For the face F_S on the facets S put u_S = (dim F_S)! vol F_S /
    sqrt(det A_S A_S^T): u_T = 1 / |det A_T| at a vertex T, u_S = sum_j
    (h_j - n_j . v) u_{S+j} over the facets F_{S+j} of F_S from any vertex
    v of it, and nu = u_{} / k!.  With the faces and the vertices v(h) =
    A_v^{-1} h_v of the reference (``p.faces``), each slack is a linear form
    in h and each u_S a multiple of F_S's volume polynomial, so no term
    grows only to cancel.  On integers each slack is a form over E c_j (see
    _face_table), the leaf weights L / (|det A_T| prod_T c_j) take up the
    c_j, one per facet of T on each way down, and nu is u_{} over L E^k k!;
    an exponent e is packed as sum_i e_i (k + 1)^i, each e_i being at most k.
    The result is validated against the vertex-sum oracle at the
    reference support and at VALIDATIONS random supports in the
    combinatorial neighborhood; a mismatch aborts.  Each random support
    x = s + r / q, for the reference s = S / e, an integer vector r and
    q = 512 2^j, is drawn as the integer vector X = S q + r e = D x over
    D = e q.  Both sides are homogeneous of degree k, so nu(X) = vol(X)
    is D^k nu(x) = D^k vol(x); and the sign of every slack form is the
    same at X as at x, so the oracle accepts X exactly when it accepts x.
    """
    k, r = p.dim, p.facet_count
    units = [(k + 1) ** i for i in range(r)]
    forms = [[(units[i], c) for i, c in form] for form in p.faces.forms]
    u = [{0: leaf} for leaf in p.faces.leaves]
    for terms in p.faces.faces:
        face: dict[int, int] = {}
        for i, f in terms:
            for e, n in u[f].items():
                for unit, c in forms[i]:
                    face[e + unit] = face.get(e + unit, 0) + c * n
        u.append(face)
    numerators = {tuple(e // unit % (k + 1) for unit in units): n for e, n in u[-1].items() if n}
    nu = VolumePolynomial(k, r, p.slack_forms, numerators, p.faces.denom * factorial(k), p.slack_rows)

    reference_value, value = volume_oracle(p, p.support), nu.evaluate(p.support)
    if value != reference_value:
        raise ConstructionError(f"volume mismatch at reference support: polynomial {value} vs oracle {reference_value}")
    (reference,), e = integer_rows([p.support])
    rng = random.Random(VALIDATION_SEED)
    q = 512
    done = tries = 0
    while done < VALIDATIONS:
        tries += 1
        if tries > 40 * VALIDATIONS:
            raise ConstructionError("could not sample enough supports near the reference")
        x = tuple(s * q + rng.randint(-8, 8) * e for s in reference)  # X = D x, D = e q
        try:
            oracle = volume_oracle(p, x)
        except PolytopeError:
            q *= 2
            continue
        value = nu.evaluate(x)
        if value != oracle:
            d = e * q
            raise ConstructionError(
                f"volume mismatch at {tuple(format_rational(Fraction(c, d)) for c in x)}: polynomial "
                f"{format_rational(value / d**k)} vs oracle {format_rational(oracle / d**k)}"
            )
        done += 1
    return nu


def volume_oracle(p: SimplePolytope, support) -> Fraction:
    """Exact volume at a support vector by the vertex sum (Lawrence 1991).

    Independent of the face recursion.  With c generic and y_v = A_v^{-T} c,
    the volume is sum_v <c, v(x)>^k / (k! |det A_v| prod_j y_{v,j}) over the
    vertices v(x) = A_v^{-1} x_{S_v} of the reference, and <c, v(x)> is
    y_v . x_{S_v}.  Every slack form of ``p`` must be positive at x, so that
    each v(x) lies strictly inside every other facet, or the oracle raises
    combinatorics-changed.  On integers, y_v scales to z_v = E_v y_v, and at
    x = X / D the sum is sum_v W_v (z_v . X_{S_v})^k over W D^k (see _vertex_sum).
    """
    x, d = _integer_support(support)
    if len(x) != p.facet_count:
        raise PolytopeError("combinatorics-changed", "support length mismatch")
    # strict: each v_S is a simple vertex whose edges end at certified v_S'; its graph is connected
    if any(sum(map(mul, form, x)) <= 0 for form in p.slack_rows):
        raise PolytopeError("combinatorics-changed", "vertex-facet incidences differ")
    total = sum(w * sum(zj * x[j] for j, zj in zip(s, z)) ** p.dim for s, z, w in p.vertex_sum.terms)
    return Fraction(total, p.vertex_sum.denom * d**p.dim)


# ---------------------------------------------------------------------------
# The differential-operator algebra as a Hodge-Lefschetz module
# ---------------------------------------------------------------------------


def _reduce_degree(
    candidates: Sequence[tuple[int, ...]], derivs: Sequence[Mapping[tuple[int, ...], int]]
) -> tuple[list[tuple[int, ...]], dict[tuple[int, ...], dict[int, int]], int]:
    """Greedy basis of span{d^alpha nu : alpha in candidates}, in order.

    Returns the chosen exponents, for every candidate its coordinates over
    the chosen ones as numerators (index -> numerator), and their least
    common denominator d.  With m(e) = e! n_e for nu = sum_e n_e h^e /
    denom, ``derivs`` holds each d^alpha nu = sum_gamma m(alpha + gamma)
    h^gamma / (gamma! denom) as gamma -> m(alpha + gamma): its component
    gamma scaled by gamma! denom, which keeps the linear relations among
    the candidates.  One greedy echelon (:func:`~hlmod.exact.greedy_echelon`)
    reduces these sparse integer vectors; no dense matrix is built.
    """
    kept, coords = greedy_echelon(derivs)
    d = lcm(*(s for _, s in coords))
    reduction = {alpha: {m: c * (d // s) for m, c in cs.items()} for alpha, (cs, s) in zip(candidates, coords)}
    return [candidates[j] for j in kept], reduction, d


def build_pkt_module(p: SimplePolytope, nu: VolumePolynomial | None = None) -> HLModule:
    """Quotient the operator polynomials by the annihilator of the volume
    polynomial and package the result as a Hodge-Lefschetz module.

    Degree l classes sit at module grade k - 2l with bidegree (k-l, k-l);
    the stored form is the raw pairing D1 D2 . nu twisted by the sign
    (-1)^(d(d-1)/2) in the cohomological degree d = 2l of the first slot,
    which makes every partial derivative skew.  The reference operator is
    the support-weighted derivative sum, and the cone of the module is the
    open type cone (:func:`type_cone`).  Construction aborts unless the
    result passes the structural, Lefschetz, and polarization checks.

    The quotient basis of degree l is the greedy choice, in descending lex
    order of the exponents, among the products d_i beta of the basis
    monomials beta of degree l - 1.  The greedy choice over all monomials
    is the set of standard monomials of Ann(nu) for a monomial order, an
    order ideal, so restricting to these candidates picks the same basis;
    they are also exactly the products the generator matrices reduce.  Each
    term m(beta + e_i + gamma) of d^(beta + e_i) nu is that of d^beta nu at
    gamma + e_i, so its dict is d^beta nu's shifted by -e_i, from gamma_i > 0.
    The generators and the form are assembled as rows of their nonzero
    entries only and keep them as their sparse view (:func:`_lowest_terms`).
    """
    if nu is None:
        nu = volume_polynomial(p)
    k, r = p.dim, p.facet_count
    moments = {e: n * prod(map(factorial, e)) for e, n in nu.numerators.items()}

    chosen_by_degree: list[list[tuple[int, ...]]] = []
    reduction_by_degree: list[tuple[dict[tuple[int, ...], dict[int, int]], int]] = []
    derivs = {(0,) * r: moments}  # each candidate alpha -> d^alpha nu as gamma -> m(alpha + gamma)
    for l in range(k + 1):
        candidates = sorted(derivs, reverse=True)
        chosen, reduction, d = _reduce_degree(candidates, [derivs[alpha] for alpha in candidates])
        chosen_by_degree.append(chosen)
        reduction_by_degree.append((reduction, d))
        below, derivs = derivs, {}
        for beta, i in product(chosen if l < k else (), range(r)):
            alpha = beta[:i] + (beta[i] + 1,) + beta[i + 1 :]
            if alpha not in derivs:
                derivs[alpha] = {g[:i] + (g[i] - 1,) + g[i + 1 :]: m for g, m in below[beta].items() if g[i]}

    dims = [len(c) for c in chosen_by_degree]
    if dims != dims[::-1]:
        raise ConstructionError(f"graded dimension duality fails: {dims}")
    total = sum(dims)
    if total != len(p.vertices):
        raise ConstructionError(f"total dimension {total} differs from vertex count {len(p.vertices)}")

    offsets = [sum(dims[:l]) for l in range(k + 1)]
    vectors = [BasisVector(k - 2 * l, k - l, k - l) for l in range(k + 1) for _ in range(dims[l])]

    # each generator's numerators over the lcm of the degree denominators
    denom = lcm(*(d for _, d in reduction_by_degree[1:]))
    generators = []
    for i in range(r):
        g: list[dict[int, int]] = [{} for _ in range(total)]
        for l in range(k):
            reduction, d = reduction_by_degree[l + 1]
            scale = denom // d
            for m, beta in enumerate(chosen_by_degree[l]):
                alpha = beta[:i] + (beta[i] + 1,) + beta[i + 1 :]
                for m2, c in reduction[alpha].items():
                    g[offsets[l + 1] + m2][offsets[l] + m] = c * scale
        generators.append(_lowest_terms(g, denom, total))

    # numerators over nu.denom: d^(alpha + beta) nu is the constant m(alpha + beta) / denom
    form: list[dict[int, int]] = [{} for _ in range(total)]
    for l in range(k + 1):
        l2, sign = k - l, intersection_sign(2 * l)
        for m, alpha in enumerate(chosen_by_degree[l]):
            for m2, beta in enumerate(chosen_by_degree[l2]):
                if x := moments.get(tuple(map(add, alpha, beta))):
                    form[offsets[l] + m][offsets[l2] + m2] = sign * x

    names = tuple(f"d{i + 1}" for i in range(r))
    module = HLModule(
        space=GradedSpace(k, tuple(vectors), Matrix.from_sparse([{i: 1} for i in range(total)], 1, total)),
        form=_lowest_terms(form, nu.denom, total),
        family=OperatorFamily(names, tuple(generators)),
        reference=tuple(p.support),
        cone=OperatorFamily(names, type_cone(p)),
    )

    _certify_module(module, ConstructionError)
    return module


def _lowest_terms(rows: list[dict[int, int]], d: int, cols: int) -> Matrix:
    """The sparse integer rows over d, both divided by their gcd, as the sparse view of a Matrix."""
    g = gcd(d, *(c for row in rows for c in row.values()))
    return Matrix.from_sparse(rows if g == 1 else [{j: c // g for j, c in row.items()} for row in rows], d // g, cols)


def type_cone(p: SimplePolytope) -> tuple[Matrix, ...]:
    """The open type cone of ``p`` as a diagonal pencil over its facets.

    K_j holds the coefficients of h_j in the slack forms, so sum_j c_j K_j
    is positive definite exactly when every slack form is positive at c:
    the supports with the combinatorics of ``p`` (McMullen 1993; Timorin
    1999), on which the volume polynomial is the volume.
    """
    return tuple(
        Matrix.diagonal([form[j] for form in p.slack_forms]) for j in range(p.facet_count)
    )


def in_closed_type_cone(p: SimplePolytope | VolumePolynomial, support: Sequence) -> bool:
    """Whether every slack form of a polytope, or of its volume polynomial,
    is >= 0 at ``support``: the closure of the type cone, where nu is a
    volume and its polarization a mixed volume."""
    x, _ = _integer_support(support)
    return all(sum(map(mul, form, x)) >= 0 for form in p.slack_rows)


def h_vector(module: HLModule) -> tuple[int, ...]:
    """Graded dimensions by operator degree, with symmetry and unimodality.

    Only meaningful for the diagonally bigraded modules produced by
    :func:`build_pkt_module`; anything else is rejected.
    """
    if any(v.p != v.q for v in module.space.vectors):
        raise ConstructionError("h-vector requires a diagonally bigraded module")
    k = module.weight
    dims = module.space.grade_dims()
    h = tuple(dims.get(k - 2 * l, 0) for l in range(k + 1))
    for l in range(k + 1):
        if h[l] != h[k - l]:
            raise ConstructionError(f"h-vector not symmetric: {h}")
    for l in range(1, (k // 2) + 1):
        if h[l] < h[l - 1]:
            raise ConstructionError(f"h-vector not unimodal: {h}")
    return h


# ---------------------------------------------------------------------------
# Mixed volumes
# ---------------------------------------------------------------------------


def mixed_volume(nu: VolumePolynomial, supports: Sequence[Sequence]) -> Fraction:
    """Polarization of the volume polynomial at k support vectors.

    Each support c = C / D is applied as the operator sum_i C_i d_i to the
    integer numerators of nu; after k of them the constant is divided once,
    by denom times every D times k!.
    """
    if len(supports) != nu.dim:
        raise ValueError(f"need exactly {nu.dim} support vectors")
    f, scale = nu.numerators, nu.denom * factorial(nu.dim)
    for c in supports:
        f, scale = _derive(nu, f, scale, c)
    return _constant(nu, f, scale)


def _derive(nu: VolumePolynomial, f: Mapping[tuple[int, ...], int], scale: int, c: Sequence) -> tuple[dict, int]:
    """The numerators f over ``scale`` derived along c = C / D: sum_i C_i d_i f over D scale."""
    c, d = _integer_support(c)
    if len(c) != nu.facets:
        raise ValueError("support vector length mismatch")
    out: dict[tuple[int, ...], int] = {}
    for e, n in f.items():
        for i, ci in enumerate(c):
            if ci and e[i]:
                key = e[:i] + (e[i] - 1,) + e[i + 1 :]
                out[key] = out.get(key, 0) + n * e[i] * ci
    return out, scale * d


def _constant(nu: VolumePolynomial, f: Mapping[tuple[int, ...], int], scale: int) -> Fraction:
    """The constant term of the numerators f over ``scale``."""
    return Fraction(f.get((0,) * nu.facets, 0), scale)


def af_check(nu: VolumePolynomial, c1, c2, rest: Sequence = ()) -> CheckReport:
    """Concavity of the mixed volume in two slots, exactly.

    Every support must lie in the closed type cone, where the polarization
    of nu is a mixed volume of convex bodies; elsewhere the report is an
    input error, since a failure there refutes nothing.  Derivatives
    commute, so nu is derived along ``rest`` once, then along c1 and c2.
    """
    rep = CheckReport("alexandrov-fenchel", "alexandrov-fenchel")
    rest = list(rest)
    if 2 + len(rest) != nu.dim:
        return rep.mark_input_error("support count mismatch")
    outside = next((i for i, c in enumerate([c1, c2] + rest) if not in_closed_type_cone(nu, c)), None)
    if outside is not None:
        return rep.mark_input_error(f"support {outside} lies outside the closed type cone")
    f, scale = nu.numerators, nu.denom * factorial(nu.dim)
    for c in rest:
        f, scale = _derive(nu, f, scale, c)
    f1, f2 = _derive(nu, f, scale, c1), _derive(nu, f, scale, c2)
    m12 = _constant(nu, *_derive(nu, *f1, c2))
    m11 = _constant(nu, *_derive(nu, *f1, c1))
    m22 = _constant(nu, *_derive(nu, *f2, c2))
    ok = m12 * m12 >= m11 * m22
    rep.data.update({"m12": format_rational(m12), "m11": format_rational(m11), "m22": format_rational(m22)})
    rep.add("squared-cross-term-dominates", ok, None if ok else dict(rep.data))
    return rep
