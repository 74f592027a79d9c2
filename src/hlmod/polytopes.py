"""Simple polytopes, volume polynomials, and their operator algebras.

A simple polytope is described by outward facet normals and support numbers.
From that description this module derives exact vertices, a pulling
triangulation, the symbolic volume polynomial in the support coordinates,
and the graded algebra of constant-coefficient differential operators modulo
the annihilator of the volume polynomial.  The algebra is packaged as a
Hodge-Lefschetz module whose reference operator is the support-weighted sum
of the partial derivatives, and mixed volumes come from polarizing the
volume polynomial.

Two independent volume routes guard the construction, both on integers:
the vertex sum with a generic linear functional (Lawrence 1991), expanded
symbolically, defines the polynomial, and the pulling triangulation,
evaluated at sampled supports, is the oracle it is checked against.  The
oracle reads each vertex directly as A_S^{-1} x_S and certifies that it lies
strictly inside every other facet: then each is a simple vertex whose edges
end at certified vertices, and a polytope's graph is connected, so none is
missed.  It scales a support to an integer vector X = D x and reads the
vertices as M_S X_S, with M_S = E A_S^{-1} integral, so its simplex
determinants are fraction-free (Bareiss).  The polynomial keeps its integer
numerators, and its values and mixed volumes are computed on them and the
integer-scaled supports; each route divides once, at the end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, count
from math import factorial, lcm, prod
from operator import getitem, itemgetter, mul, sub
from typing import Mapping, Sequence

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


@dataclass(frozen=True)
class SimplePolytope:
    name: str
    dim: int
    normals: tuple[tuple[Fraction, ...], ...]
    support: tuple[Fraction, ...]
    vertices: tuple[tuple[Fraction, ...], ...]
    incidences: tuple[frozenset[int], ...]
    triangulation: tuple[tuple[int, ...], ...]
    orientations: tuple[int, ...]
    # inverse and |det| of the normal matrix of each nonsingular k-subset of
    # facets (see _facet_cones); derived from the normals, so not compared
    cones: Mapping[tuple[int, ...], tuple[Matrix, Fraction]] = field(
        compare=False, repr=False
    )
    # the slack forms h_j - n_j . A_S^{-1} h_S of the facets j off each vertex
    # S, up to positive scaling (see build_polytope); the type cone is where
    # all are positive; derived from the normals, so not compared
    slack_forms: tuple[tuple[Fraction, ...], ...] = field(compare=False, repr=False)
    # (E, M): the integer numerators M_S = E A_S^{-1} of each vertex cone S,
    # in vertex order, scattered onto the facets (k x r, zero off S), over one
    # common denominator E; derived from the normals, so not compared
    vertex_inverses: tuple[int, tuple[tuple[tuple[int, ...], ...], ...]] = field(compare=False, repr=False)

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


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b) if x), Fraction(0))


def _facet_cones(
    normals: Sequence[Sequence[Fraction]],
) -> dict[tuple[int, ...], tuple[Matrix, Fraction]]:
    """Inverse and |det| of the normal matrix A_S of every k-subset S of
    facets with A_S nonsingular; a singular subset meets in no vertex."""
    k = len(normals[0])
    cones: dict[tuple[int, ...], tuple[Matrix, Fraction]] = {}
    for subset in combinations(range(len(normals)), k):
        a = Matrix([list(normals[j]) for j in subset])
        det = a.det()
        if det:
            cones[subset] = (a.inverse(), abs(det))
    return cones


def _enumerate_vertices(
    normals: Sequence[Sequence[Fraction]],
    support: Sequence[Fraction],
    cones: Mapping[tuple[int, ...], tuple[Matrix, Fraction]],
) -> dict[tuple[Fraction, ...], frozenset[int]]:
    """All vertices of the H-polyhedron, keyed by exact coordinates.

    Every nonsingular k-subset of facets (``cones``, from
    :func:`_facet_cones`) meets in one point; the feasible points are the
    vertices, each with the set of facets it lies on.
    """
    r = len(normals)
    found: dict[tuple[Fraction, ...], frozenset[int]] = {}
    for subset, (ainv, _) in cones.items():
        key = tuple(ainv.apply([support[j] for j in subset]))
        if key in found:
            continue
        feasible = True
        tight = set()
        for j in range(r):
            value = _dot(normals[j], key)
            if value > support[j]:
                feasible = False
                break
            if value == support[j]:
                tight.add(j)
        if feasible:
            found[key] = frozenset(tight)
    return found


def build_polytope(normals, support, name: str = "") -> SimplePolytope:
    """Solve for vertices, validate simplicity and boundedness, triangulate."""
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

    cones = _facet_cones(normals)
    found = _enumerate_vertices(normals, support, cones)
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
    # exactly when v_S(h) lies strictly inside facet j
    forms: dict[tuple, dict[int, Fraction]] = {}  # up to positive scaling
    scattered = []  # the rows of each A_S^{-1}, scattered onto the facets
    for inc in incidences:
        facets = tuple(sorted(inc))
        ainv = cones[facets][0]
        for row in ainv.data:
            scattered.append([Fraction(0)] * r)
            for j, c in zip(facets, row):
                scattered[-1][j] = c
        others = [j for j in range(r) if j not in inc]
        edges = [[-e for e in ainv.column(pos)] for pos in range(k)]
        slopes = [[_dot(normals[j], d) for j in others] for d in edges]
        if any(all(s <= 0 for s in edge) for edge in slopes):
            raise PolytopeError("unbounded", "polyhedron has an extreme ray")
        for a, j in enumerate(others):
            form = {i: edge[a] for i, edge in zip(facets, slopes) if edge[a]}
            form[j] = Fraction(1)
            scale = abs(form[min(form)])
            forms.setdefault(tuple(sorted((i, c / scale) for i, c in form.items())), form)

    rows, e = integer_rows(scattered)

    simplices, signs = _pulling_triangulation(vertices, incidences, normals, k)
    return SimplePolytope(
        name=name,
        dim=k,
        normals=normals,
        support=support,
        vertices=vertices,
        incidences=incidences,
        triangulation=simplices,
        orientations=signs,
        cones=cones,
        slack_forms=tuple(tuple(f.get(i, Fraction(0)) for i in range(r)) for f in forms.values()),
        vertex_inverses=(e, tuple(tuple(map(tuple, rows[i : i + k])) for i in range(0, len(rows), k))),
    )


def _pulling_triangulation(vertices, incidences, normals, k):
    """Pulling triangulation: recursively cone the least vertex of each face
    over the pulled triangulations of the facets avoiding it.

    A face of a simple polytope of dimension k, given by its vertices, has
    dimension k minus the number of facets that contain all of them."""
    facet_vertices: dict[int, frozenset[int]] = {}
    for j in range(len(normals)):
        facet_vertices[j] = frozenset(i for i, inc in enumerate(incidences) if j in inc)

    memo: dict[frozenset[int], list[tuple[int, ...]]] = {}

    def face_dim(vset: frozenset[int]) -> int:
        return k - len(frozenset.intersection(*(incidences[i] for i in vset)))

    def facets_of(vset: frozenset[int], d: int) -> list[frozenset[int]]:
        seen: dict[frozenset[int], None] = {}
        for j in sorted(facet_vertices):
            w = vset & facet_vertices[j]
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
            if len(pair) != 2:
                raise ConstructionError("edge with vertex count != 2")
            out = [pair]
        else:
            v0 = min(vset)
            out = []
            for g in facets_of(vset, d):
                if v0 in g:
                    continue
                for sigma in pull(g, d - 1):
                    out.append((v0,) + sigma)
        memo[vset] = out
        return out

    all_ids = frozenset(range(len(vertices)))
    if face_dim(all_ids) != k:
        raise PolytopeError("infeasible", "polytope is not full-dimensional")
    simplices = pull(all_ids, k)

    points, _ = integer_rows(vertices)
    signs = []
    for sigma in simplices:
        det = _simplex_det(points, sigma)
        if not det:
            raise ConstructionError("degenerate simplex in triangulation")
        signs.append(1 if det > 0 else -1)
    return tuple(simplices), tuple(signs)


def _simplex_det(points: Sequence[Sequence[int]], sigma: Sequence[int]) -> int:
    """det(v_i - v_0) over the integer vertices v_0, v_1, ... of the simplex sigma."""
    base = points[sigma[0]]
    return integer_det([list(map(sub, points[i], base)) for i in sigma[1:]])


# ---------------------------------------------------------------------------
# Volume polynomial and the triangulation oracle
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
    The result is validated against the triangulation oracle at the
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
    """Exact volume at a support vector from the triangulation.

    Independent of the vertex sum: the simplices of the reference pulling
    triangulation, placed at the vertices for ``support`` and oriented as
    at the reference, give sum_sigma sign_sigma det(v_i - v_0) / k!.  Each
    vertex is read as v_S(x) = A_S^{-1} x_S for the facets S of a reference
    vertex and must lie strictly inside every other facet, that is, every
    slack form of ``p`` must be positive at x, or the oracle raises
    combinatorics-changed.  All of it runs on integers: with x = X / D and
    A_S^{-1} = M_S / E (``p.vertex_inverses``), the slack forms, scaled to
    integers, are tested on X, the vertices are the integer points M_S X_S
    over E D, and the Bareiss determinants are summed over (E D)^k k!.
    """
    x = [Fraction(c) for c in support]
    if len(x) != p.facet_count:
        raise PolytopeError("combinatorics-changed", "support length mismatch")
    (x,), d = integer_rows([x])
    forms, _ = integer_rows(p.slack_forms)
    # strict: each v_S is a simple vertex whose edges end at certified v_S'; its graph is connected
    if any(sum(map(mul, form, x)) <= 0 for form in forms):
        raise PolytopeError("combinatorics-changed", "vertex-facet incidences differ")
    e, inverses = p.vertex_inverses
    points = [[sum(map(mul, row, x)) for row in m] for m in inverses]
    dets = (s * _simplex_det(points, sigma) for sigma, s in zip(p.triangulation, p.orientations))
    return Fraction(sum(dets), (e * d) ** p.dim * factorial(p.dim))


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
    return all(_dot(form, x) >= 0 for form in p.slack_forms)


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
