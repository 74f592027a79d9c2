"""Simple polytopes, volume polynomials, and their operator algebras.

A simple polytope is described by outward facet normals and support numbers.
From that description this module derives exact vertices, the faces the
volume oracle recurses over, the symbolic volume polynomial in the support
coordinates, and the graded algebra of constant-coefficient differential
operators modulo the annihilator of the volume polynomial.  The algebra is
packaged as a Hodge-Lefschetz module whose reference operator is the
support-weighted sum of the partial derivatives, and mixed volumes come
from polarizing the volume polynomial.

Two independent volume routes guard the construction, both on integers:
the vertex sum with a generic linear functional (Lawrence 1991), expanded
symbolically, defines the polynomial, and Lasserre's face recursion (1983),
evaluated at sampled supports, is the oracle it is checked against.  The
oracle reads each vertex directly as A_S^{-1} x_S and certifies that it lies
strictly inside every other facet: then each is a simple vertex whose edges
end at certified vertices, and a polytope's graph is connected, so none is
missed.  It scales a support to an integer vector X = D x; with
M_S = E A_S^{-1} integral and the normals read as N_j / c_j, the slack of
every facet at every vertex is an integer form in X.  The polynomial keeps
its integer numerators, and its values and mixed volumes are computed on
them and the integer-scaled supports; each route divides once, at the end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, count
from math import factorial, gcd, lcm, prod
from operator import getitem, itemgetter, mul
from typing import Mapping, NamedTuple, Sequence

from .exact import Matrix, MultiPoly, apply_diff_op, integer_det, integer_rows
from .hodge_lefschetz import (
    BasisVector,
    ConstructionError,
    GradedSpace,
    HLModule,
    OperatorFamily,
    PolarizationForm,
    _certify_module,
    intersection_sign,
)
from .report import CheckReport, timed


class PolytopeError(ValueError):
    """Invalid polytope input; ``code`` is one of unbounded, non-simple,
    infeasible, redundant-facet, combinatorics-changed."""

    def __init__(self, code: str, message: str = ""):
        super().__init__(message or code)
        self.code = code


class FaceTable(NamedTuple):
    """Lasserre's face recursion over a simple polytope (see _face_table)."""

    leaves: tuple[int, ...]  # L / |det N_T| at each vertex T, in vertex order
    denom: int  # L E^k
    # after the vertices, children first: each face F_S as the pairs (slack
    # form, index of F_{S+j}) of the facets j of F_S off one of its vertices
    faces: tuple[tuple[tuple[tuple[int, ...], int], ...], ...]


@dataclass(frozen=True)
class SimplePolytope:
    name: str
    dim: int
    normals: tuple[tuple[Fraction, ...], ...]
    support: tuple[Fraction, ...]
    vertices: tuple[tuple[Fraction, ...], ...]
    incidences: tuple[frozenset[int], ...]
    # inverse and |det| of the normal matrix of each nonsingular k-subset of
    # facets (see _facet_cones); derived from the normals, so not compared
    cones: Mapping[tuple[int, ...], tuple[Matrix, Fraction]] = field(
        compare=False, repr=False
    )
    # the slack forms h_j - n_j . A_S^{-1} h_S of the facets j off each vertex
    # S, up to positive scaling (see build_polytope); the type cone is where
    # all are positive; derived from the normals, so not compared
    slack_forms: tuple[tuple[Fraction, ...], ...] = field(compare=False, repr=False)
    # what the volume oracle's face recursion reads (see _face_table);
    # derived from the normals and the incidences, so not compared
    faces: FaceTable = field(compare=False, repr=False)

    @property
    def facet_count(self) -> int:
        return len(self.normals)


@dataclass(frozen=True)
class VolumePolynomial:
    """nu = sum_e numerators[e] h^e / denom, homogeneous of degree ``dim``;
    ``poly`` holds the same polynomial with reduced Fraction coefficients."""

    poly: MultiPoly
    dim: int
    facets: int
    # the polytope's slack forms: nu is a volume only where all are >= 0
    slack_forms: tuple[tuple[Fraction, ...], ...]
    numerators: Mapping[tuple[int, ...], int] = field(compare=False, repr=False)
    denom: int = field(compare=False, repr=False)

    def evaluate(self, support: Sequence) -> Fraction:
        """nu at ``support``: with X = D x an integer vector, the integer
        sum_e n_e X^e over denom D^k, since every term has degree k."""
        x = [Fraction(c) for c in support]
        if len(x) != self.facets:
            raise ValueError("value count mismatch")
        (x,), d = integer_rows([x])
        powers = [[c**e for e in range(self.dim + 1)] for c in x]
        value = sum(n * prod(map(getitem, powers, e)) for e, n in self.numerators.items())
        return Fraction(value, self.denom * d**self.dim)


# ---------------------------------------------------------------------------
# Vertex enumeration and construction
# ---------------------------------------------------------------------------


def _facet_cones(
    normals: Sequence[Sequence[Fraction]], ints: Sequence[Sequence[int]], scales: Sequence[int]
) -> dict[tuple[int, ...], tuple[Matrix, Fraction]]:
    """Inverse and |det| of the normal matrix A_S of every k-subset S of
    facets with A_S nonsingular; a singular subset meets in no vertex.
    With n_j = N_j / c_j (``ints``, ``scales``), det A_S is the Bareiss
    det N_S over prod_S c_j."""
    k = len(normals[0])
    cones: dict[tuple[int, ...], tuple[Matrix, Fraction]] = {}
    for subset in combinations(range(len(normals)), k):
        det = integer_det([ints[j] for j in subset])
        if det:
            inverse = Matrix([list(normals[j]) for j in subset]).inverse()
            cones[subset] = (inverse, Fraction(abs(det), prod(scales[j] for j in subset)))
    return cones


def _integer_normals(normals: Sequence[Sequence[Fraction]]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Each normal n_j as N_j / c_j: the integer vectors N_j and the scales c_j > 0."""
    ratios = [integer_rows([row]) for row in normals]
    return tuple(tuple(n) for (n,), _ in ratios), tuple(c for _, c in ratios)


def _enumerate_vertices(
    ints: Sequence[Sequence[int]],
    scales: Sequence[int],
    support: Sequence[Fraction],
    cones: Mapping[tuple[int, ...], tuple[Matrix, Fraction]],
) -> dict[tuple[Fraction, ...], frozenset[int]]:
    """All vertices of the H-polyhedron, keyed by exact coordinates.

    Every nonsingular k-subset of facets (``cones``, from
    :func:`_facet_cones`) meets in one point; the feasible points are the
    vertices, each with the set of facets it lies on.  With n_j = N_j / c_j
    (``ints``, ``scales``), h = H / e and a point v = V / D, n_j . v <= h_j
    reads e N_j . V <= c_j H_j D, all on integers.
    """
    (hs,), e = integer_rows([support])
    bounds = [c * h for c, h in zip(scales, hs)]
    found: dict[tuple[Fraction, ...], frozenset[int]] = {}
    for subset, (ainv, _) in cones.items():
        key = tuple(ainv.apply([support[j] for j in subset]))
        if key in found:
            continue
        (point,), d = integer_rows([key])
        feasible = True
        tight = set()
        for j, (normal, bound) in enumerate(zip(ints, bounds)):
            value, limit = e * sum(map(mul, normal, point)), bound * d
            if value > limit:
                feasible = False
                break
            if value == limit:
                tight.add(j)
        if feasible:
            found[key] = frozenset(tight)
    return found


def build_polytope(normals, support, name: str = "") -> SimplePolytope:
    """Solve for vertices, validate simplicity and boundedness, and list the
    faces the volume oracle recurses over."""
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
    cones = _facet_cones(normals, ints, scales)
    found = _enumerate_vertices(ints, scales, support, cones)
    if not found:
        raise PolytopeError("infeasible", "no vertex satisfies all inequalities")

    vertices = tuple(sorted(found))
    incidences = tuple(found[v] for v in vertices)

    for v, inc in zip(vertices, incidences):
        if len(inc) != k:
            raise PolytopeError(
                "non-simple", f"vertex {tuple(map(str, v))} lies on {len(inc)} facets"
            )

    used = set()
    for inc in incidences:
        used |= inc
    if used != set(range(r)):
        missing = sorted(set(range(r)) - used)
        raise PolytopeError("redundant-facet", f"facets {missing} support no vertex")

    # an edge direction unbounded below by every other facet is a ray; the
    # edge leaving facet S[pos] of the vertex cone S is d = -A_S^{-1} e_pos,
    # and n_j . d is the coefficient of h_{S[pos]} in the slack form
    # h_j - n_j . A_S^{-1} h_S of a facet j off S, which is positive at h
    # exactly when v_S(h) lies strictly inside facet j.  With
    # A_S^{-1} = M / E, the slopes are the integers -N_j . M e_pos over c_j E.
    forms: dict[tuple, dict[int, Fraction]] = {}  # keyed by the primitive integer form
    for inc in incidences:
        facets = tuple(sorted(inc))
        m, e = integer_rows(cones[facets][0].data)
        others = [j for j in range(r) if j not in inc]
        slopes = [[-sum(map(mul, ints[j], column)) for j in others] for column in zip(*m)]
        if any(all(s <= 0 for s in edge) for edge in slopes):
            raise PolytopeError("unbounded", "polyhedron has an extreme ray")
        for a, j in enumerate(others):
            form = {i: edge[a] for i, edge in zip(facets, slopes) if edge[a]}
            form[j] = scale = e * scales[j]
            g = gcd(*form.values())
            key = tuple(sorted((i, c // g) for i, c in form.items()))
            if key not in forms:
                forms[key] = {i: Fraction(c, scale) for i, c in form.items()}

    return SimplePolytope(
        name=name,
        dim=k,
        normals=normals,
        support=support,
        vertices=vertices,
        incidences=incidences,
        cones=cones,
        slack_forms=tuple(tuple(f.get(i, Fraction(0)) for i in range(r)) for f in forms.values()),
        faces=_face_table(ints, scales, incidences, cones),
    )


def _face_table(ints, scales, incidences, cones) -> FaceTable:
    """The faces of a simple polytope that the volume oracle's recursion
    reaches from the polytope itself, children first.

    The faces are the facet sets S inside some vertex's incidences.  F_S
    holds the vertices on every facet of S, and its facets are the F_{S+j}
    for the facets j off S through one of them.  Each face keeps, for the
    facets off its least vertex v only, their slack forms at v: the slack
    of a facet through v is zero at v.  With n_j = N_j / c_j (``ints``,
    ``scales``) and A_v^{-1} = M_v / E, the slack h_j - n_j . v(x) at
    x = X / D is the integer E c_j X_j - N_j . M_v X_v over E D c_j."""
    k, r, n = len(ints[0]), len(ints), len(incidences)
    facets = [tuple(sorted(inc)) for inc in incidences]
    rows, e = integer_rows(row for f in facets for row in cones[f][0].data)
    columns = [list(zip(*rows[i : i + k])) for i in range(0, len(rows), k)]  # of each M_v
    on = [sum(1 << v for v, inc in enumerate(incidences) if j in inc) for j in range(r)]
    index = {inc: v for v, inc in enumerate(incidences)}
    faces: list[tuple[tuple[tuple[int, ...], int], ...]] = []

    def visit(s: frozenset[int], verts: int) -> int:
        if s not in index:
            v = (verts & -verts).bit_length() - 1
            terms = []
            for j in range(r):
                if verts & on[j] and j not in incidences[v]:
                    form = [0] * r
                    for i, c in zip(facets[v], columns[v]):
                        form[i] = -sum(map(mul, ints[j], c))
                    form[j] = e * scales[j]
                    terms.append((tuple(form), visit(s | {j}, verts & on[j])))
            faces.append(tuple(terms))
            index[s] = n + len(faces) - 1
        return index[s]

    visit(frozenset(), (1 << n) - 1)
    # |det N_T| = |det A_T| prod_T c_j
    dets = [int(cones[f][1] * prod(scales[j] for j in f)) for f in facets]
    top = lcm(*dets)
    return FaceTable(tuple(top // det for det in dets), top * e**k, tuple(faces))


# ---------------------------------------------------------------------------
# Volume polynomial and the face-recursion oracle
# ---------------------------------------------------------------------------

# supports at which volume_polynomial checks the polynomial against the
# oracle, besides the reference, and the seed that draws them
VALIDATIONS = 20
VALIDATION_SEED = 1729


def _generic_functionals(p: SimplePolytope) -> list[list[Fraction]]:
    """y_v = A_v^{-T} c for each vertex v, where c = (1, t, t^2, ...) with
    the first t >= 2 that makes every entry of every y_v nonzero.

    Each entry is a nonzero polynomial in t of degree below k, so only
    finitely many t fail.
    """
    ainv_ts = [p.cones[tuple(sorted(inc))][0].transpose() for inc in p.incidences]
    for t in count(2):
        c = [Fraction(t) ** e for e in range(p.dim)]
        ys = [ainv_t.apply(c) for ainv_t in ainv_ts]
        if all(all(ys_v) for ys_v in ys):
            return ys


def volume_polynomial(p: SimplePolytope) -> VolumePolynomial:
    """Expand the vertex sum (Lawrence 1991) into the volume polynomial.

    With c generic and y_v = A_v^{-T} c at each vertex v, the volume is
    sum_v <c, v(h)>^k / (k! |det A_v| prod_j y_{v,j}), and <c, v(h)> is the
    linear form sum_j y_{v,j} h_{S_v[j]} in the supports of the facets S_v
    at v.  Its multinomial expansion gives
    nu = sum_v sum_{|a|=k} prod_j y_{v,j}^(a_j - 1) / (a! |det A_v|) h_{S_v}^a.
    The expansion runs on integers: sum_j (a_j - 1) = 0, so y_v may be scaled
    to an integer vector z_v, and each term is the integer (k!/a!) prod_j
    z_{v,j}^(a_j) over k! |det A_v| prod_j z_{v,j}; the numerators are
    summed over one common denominator.
    The result is validated against the face-recursion oracle at the
    reference support and at VALIDATIONS random supports in the
    combinatorial neighborhood; a mismatch aborts.
    """
    k, r = p.dim, p.facet_count
    # exponents a, with a 0 padded on at index k, and k!/a!
    padded = [a + (0,) for a in _monomials_of_degree(k, k)]
    multinomials = [factorial(k) // prod(map(factorial, a)) for a in padded]
    facets = [sorted(inc) for inc in p.incidences]
    zs = [integer_rows([y])[0][0] for y in _generic_functionals(p)]
    weights = [1 / (factorial(k) * prod(z) * p.cones[tuple(f)][1]) for f, z in zip(facets, zs)]
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
    poly = MultiPoly(r, {key: Fraction(n, denom) for key, n in numerators.items()})
    nu = VolumePolynomial(poly, k, r, p.slack_forms, numerators, denom)

    reference_value = volume_oracle(p, p.support)
    if nu.evaluate(p.support) != reference_value:
        raise ConstructionError(
            f"volume mismatch at reference support: polynomial {nu.evaluate(p.support)} "
            f"vs oracle {reference_value}"
        )
    rng = random.Random(VALIDATION_SEED)
    scale = Fraction(1, 8)
    done = tries = 0
    while done < VALIDATIONS:
        tries += 1
        if tries > 40 * VALIDATIONS:
            raise ConstructionError("could not sample enough supports near the reference")
        x = tuple(s + Fraction(rng.randint(-8, 8), 64) * scale for s in p.support)
        try:
            oracle = volume_oracle(p, x)
        except PolytopeError:
            scale = scale / 2
            continue
        if nu.evaluate(x) != oracle:
            raise ConstructionError(
                f"volume mismatch at {tuple(map(str, x))}: polynomial "
                f"{nu.evaluate(x)} vs oracle {oracle}"
            )
        done += 1
    return nu


def volume_oracle(p: SimplePolytope, support) -> Fraction:
    """Exact volume at a support vector by Lasserre's face recursion.

    Independent of the vertex sum.  Put u_S = (dim F_S)! vol F_S /
    sqrt(det A_S A_S^T) for the face F_S on the facets S.  At a vertex T,
    u_T = 1 / |det A_T|; from any vertex v of F_S, u_S = sum_j (h_j -
    n_j . v) u_{S+j} over the facets F_{S+j} of F_S (Lasserre 1983); and
    vol = u_{} / k!.  The faces, and the vertex v(x) = A_v^{-1} x_v read off
    each, are those of the reference (``p.faces``); every slack form of
    ``p`` must be positive at x, so that each v(x) lies strictly inside
    every other facet, or the oracle raises combinatorics-changed.  All of
    it runs on integers: at x = X / D each slack is an integer form in X
    over E D c_j (see _face_table).  Every facet of a vertex T is added
    once on each way down to T, so the leaf weights L / (|det A_T| prod_T
    c_j) take up the c_j, and u_{} is the integer sum over L (E D)^k.
    """
    x = [Fraction(c) for c in support]
    if len(x) != p.facet_count:
        raise PolytopeError("combinatorics-changed", "support length mismatch")
    (x,), d = integer_rows([x])
    forms, _ = integer_rows(p.slack_forms)
    # strict: each v_S is a simple vertex whose edges end at certified v_S'; its graph is connected
    if any(sum(map(mul, form, x)) <= 0 for form in forms):
        raise PolytopeError("combinatorics-changed", "vertex-facet incidences differ")
    u = list(p.faces.leaves)
    for terms in p.faces.faces:
        u.append(sum(sum(map(mul, form, x)) * u[f] for form, f in terms))
    return Fraction(u[-1], p.faces.denom * d**p.dim * factorial(p.dim))


# ---------------------------------------------------------------------------
# The differential-operator algebra as a Hodge-Lefschetz module
# ---------------------------------------------------------------------------


def _monomials_of_degree(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree ``degree`` in descending lex order."""
    if nvars == 1:
        return [(degree,)]
    return [
        (e,) + rest
        for e in range(degree, -1, -1)
        for rest in _monomials_of_degree(nvars - 1, degree - e)
    ]


def _reduce_degree(
    candidates: Sequence[tuple[int, ...]], nu: MultiPoly
) -> tuple[list[tuple[int, ...]], dict[tuple[int, ...], dict[int, Fraction]]]:
    """Greedy basis of span{d^alpha nu : alpha in candidates}, in order.

    Returns the chosen exponents and, for every candidate, its coordinates
    over the chosen ones (index -> coefficient): the pivot columns of one
    RREF of the derivatives, and the entries of its columns.
    """
    derivs = [apply_diff_op(alpha, nu).terms for alpha in candidates]
    support = sorted({e for f in derivs for e in f})
    rr, pivots = Matrix.from_columns(
        [[f.get(e, 0) for e in support] for f in derivs], len(support)
    ).rref()
    reduction = {
        alpha: {m: rr.data[m][j] for m in range(len(pivots)) if rr.data[m][j]}
        for j, alpha in enumerate(candidates)
    }
    return [candidates[j] for j in pivots], reduction


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

    The quotient basis of degree l is the greedy choice, in the order of
    :func:`_monomials_of_degree`, among the products d_i beta of the basis
    monomials beta of degree l - 1.  The greedy choice over all monomials
    is the set of standard monomials of Ann(nu) for a monomial order, an
    order ideal, so restricting to these candidates picks the same basis;
    they are also exactly the products the generator matrices reduce.
    """
    if nu is None:
        nu = volume_polynomial(p)
    k, r = p.dim, p.facet_count

    chosen_by_degree: list[list[tuple[int, ...]]] = []
    reduction_by_degree: list[dict[tuple[int, ...], dict[int, Fraction]]] = []
    candidates = [(0,) * r]
    for l in range(k + 1):
        chosen, reduction = _reduce_degree(candidates, nu.poly)
        chosen_by_degree.append(chosen)
        reduction_by_degree.append(reduction)
        candidates = sorted(
            {beta[:i] + (beta[i] + 1,) + beta[i + 1 :] for beta in chosen for i in range(r)},
            reverse=True,
        )

    dims = [len(c) for c in chosen_by_degree]
    for l in range(k + 1):
        if dims[l] != dims[k - l]:
            raise ConstructionError(f"graded dimension duality fails: {dims}")
    if sum(dims) != len(p.vertices):
        raise ConstructionError(
            f"total dimension {sum(dims)} differs from vertex count {len(p.vertices)}"
        )

    offsets = []
    total = 0
    for l in range(k + 1):
        offsets.append(total)
        total += dims[l]

    vectors = []
    for l in range(k + 1):
        for m in range(dims[l]):
            vectors.append(BasisVector(offsets[l] + m, k - 2 * l, k - l, k - l))

    generators = []
    for i in range(r):
        g = Matrix.zeros(total, total)
        for l in range(k):
            reduction = reduction_by_degree[l + 1]
            for m, beta in enumerate(chosen_by_degree[l]):
                alpha = beta[:i] + (beta[i] + 1,) + beta[i + 1 :]
                for m2, c in reduction[alpha].items():
                    g.data[offsets[l + 1] + m2][offsets[l] + m] = c
        generators.append(g)

    form = Matrix.zeros(total, total)
    for l in range(k + 1):
        l2 = k - l
        sign = intersection_sign(2 * l)
        for m, alpha in enumerate(chosen_by_degree[l]):
            for m2, beta in enumerate(chosen_by_degree[l2]):
                exps = tuple(a + b for a, b in zip(alpha, beta))
                # d^exps nu has constant term exps! times nu's coefficient of h^exps
                value = nu.poly.terms.get(exps, 0) * prod(map(factorial, exps))
                if value:
                    form.data[offsets[l] + m][offsets[l2] + m2] = sign * value

    names = tuple(f"d{i + 1}" for i in range(r))
    module = HLModule(
        space=GradedSpace(k, tuple(vectors), Matrix.identity(total)),
        form=PolarizationForm(form, (-1) ** k),
        family=OperatorFamily(names, tuple(generators)),
        reference=tuple(p.support),
        cone=OperatorFamily(names, type_cone(p)),
    )

    _certify_module(module, ConstructionError)
    return module


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
    x = [Fraction(c) for c in support]
    return all(sum(map(mul, form, x)) >= 0 for form in p.slack_forms)


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
    f = nu.numerators
    scale = nu.denom * factorial(nu.dim)
    for c in supports:
        c = [Fraction(e) for e in c]
        if len(c) != nu.facets:
            raise ValueError("support vector length mismatch")
        (c,), d = integer_rows([c])
        scale *= d
        out: dict[tuple[int, ...], int] = {}
        for e, n in f.items():
            for i, ci in enumerate(c):
                if ci and e[i]:
                    key = e[:i] + (e[i] - 1,) + e[i + 1 :]
                    out[key] = out.get(key, 0) + n * e[i] * ci
        f = out
    return Fraction(f.get((0,) * nu.facets, 0), scale)


@timed
def af_check(nu: VolumePolynomial, c1, c2, rest: Sequence = ()) -> CheckReport:
    """Concavity of the mixed volume in two slots, exactly.

    Every support must lie in the closed type cone, where the polarization
    of nu is a mixed volume of convex bodies; elsewhere the report is an
    input error, since a failure there refutes nothing.
    """
    rep = CheckReport("alexandrov-fenchel", "alexandrov-fenchel")
    rest = list(rest)
    if 2 + len(rest) != nu.dim:
        return rep.mark_input_error("support count mismatch")
    outside = next((i for i, c in enumerate([c1, c2] + rest) if not in_closed_type_cone(nu, c)), None)
    if outside is not None:
        return rep.mark_input_error(f"support {outside} lies outside the closed type cone")
    m12 = mixed_volume(nu, [c1, c2] + rest)
    m11 = mixed_volume(nu, [c1, c1] + rest)
    m22 = mixed_volume(nu, [c2, c2] + rest)
    ok = m12 * m12 >= m11 * m22
    rep.data.update({"m12": str(m12), "m11": str(m11), "m22": str(m22)})
    rep.add("squared-cross-term-dominates", ok, None if ok else dict(rep.data))
    return rep
