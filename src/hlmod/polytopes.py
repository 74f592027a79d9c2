"""Simple polytopes, volume polynomials, and their operator algebras.

A simple polytope is described by outward facet normals and support numbers.
From that description this module derives exact vertices, a pulling
triangulation, the symbolic volume polynomial in the support coordinates,
and the graded algebra of constant-coefficient differential operators modulo
the annihilator of the volume polynomial.  The algebra is packaged as a
Hodge-Lefschetz module whose reference operator is the support-weighted sum
of the partial derivatives, and mixed volumes come from polarizing the
volume polynomial.

Two independent volume routes guard the construction: the triangulation
expansion that defines the polynomial, and a vertex-summation formula with a
generic linear functional used as an oracle at sampled supports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .exact import POLY_DET_MAX, Matrix, MultiPoly, apply_diff_op, linear_solve, poly_det
from .hodge_lefschetz import (
    BasisVector,
    ConstructionError,
    GradedSpace,
    HLModule,
    OperatorFamily,
    PolarizationForm,
    intersection_sign,
    lefschetz_property,
    polarization_check,
    validate_structure,
)
from .report import CheckReport, timed


class PolytopeError(ValueError):
    """Invalid polytope input; ``code`` is one of unbounded, non-simple,
    infeasible, redundant-facet, combinatorics-changed, too-large."""

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

    @property
    def facet_count(self) -> int:
        return len(self.normals)


@dataclass(frozen=True)
class VolumePolynomial:
    poly: MultiPoly
    dim: int
    facets: int

    def evaluate(self, support: Sequence) -> Fraction:
        return self.poly.evaluate([Fraction(c) for c in support])


# ---------------------------------------------------------------------------
# Vertex enumeration and construction
# ---------------------------------------------------------------------------


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _enumerate_vertices(
    normals: Sequence[Sequence[Fraction]], support: Sequence[Fraction]
) -> dict[tuple[Fraction, ...], frozenset[int]]:
    """All vertices of the H-polyhedron, keyed by exact coordinates."""
    r = len(normals)
    k = len(normals[0])
    found: dict[tuple[Fraction, ...], frozenset[int]] = {}
    for subset in combinations(range(r), k):
        a = Matrix([list(normals[j]) for j in subset])
        if not a.det():
            continue
        v = linear_solve(a, [support[j] for j in subset])
        if v is None:
            continue
        key = tuple(v)
        if key in found:
            continue
        feasible = True
        tight = set()
        for j in range(r):
            value = _dot(normals[j], v)
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

    found = _enumerate_vertices(normals, support)
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

    # an edge direction unbounded below by every other facet is a ray
    for v, inc in zip(vertices, incidences):
        inc_sorted = sorted(inc)
        for leave in inc_sorted:
            rows = [list(normals[j]) for j in inc_sorted if j != leave]
            rows.append(list(normals[leave]))
            rhs = [Fraction(0)] * (k - 1) + [Fraction(-1)]
            d = linear_solve(Matrix(rows), rhs)
            if d is None:
                continue
            if all(_dot(normals[j], d) <= 0 for j in range(r) if j not in inc):
                raise PolytopeError("unbounded", "polyhedron has an extreme ray")

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
    )


def _affine_rank(points: Sequence[Sequence[Fraction]]) -> int:
    if len(points) <= 1:
        return 0
    base = points[0]
    rows = [[c - b for c, b in zip(p, base)] for p in points[1:]]
    return Matrix(rows).rank()


def _pulling_triangulation(vertices, incidences, normals, k):
    """Pulling triangulation: recursively cone the least vertex of each face
    over the pulled triangulations of the facets avoiding it."""
    facet_vertices: dict[int, frozenset[int]] = {}
    for j in range(len(normals)):
        facet_vertices[j] = frozenset(i for i, inc in enumerate(incidences) if j in inc)

    memo: dict[frozenset[int], list[tuple[int, ...]]] = {}

    def face_dim(vset: frozenset[int]) -> int:
        return _affine_rank([vertices[i] for i in sorted(vset)])

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

    signs = []
    for sigma in simplices:
        base = vertices[sigma[0]]
        rows = [[c - b for c, b in zip(vertices[i], base)] for i in sigma[1:]]
        det = Matrix(rows).det()
        if not det:
            raise ConstructionError("degenerate simplex in triangulation")
        signs.append(1 if det > 0 else -1)
    return tuple(simplices), tuple(signs)


# ---------------------------------------------------------------------------
# Volume polynomial and the vertex-sum oracle
# ---------------------------------------------------------------------------


def _symbolic_vertices(p: SimplePolytope) -> list[list[MultiPoly]]:
    """Each vertex coordinate as a degree 1 polynomial in the supports."""
    r = p.facet_count
    out = []
    for inc in p.incidences:
        idx = sorted(inc)
        a = Matrix([list(p.normals[j]) for j in idx])
        ainv = a.inverse()
        coords = []
        for t in range(p.dim):
            terms = {}
            for col, j in enumerate(idx):
                c = ainv.data[t][col]
                if c:
                    e = [0] * r
                    e[j] = 1
                    terms[tuple(e)] = c
            coords.append(MultiPoly(r, terms))
        out.append(coords)
    return out


def volume_polynomial(p: SimplePolytope, validations: int = 20, seed: int = 1729) -> VolumePolynomial:
    """Expand the triangulation symbolically into the volume polynomial.

    Orientation signs are frozen at the reference support and reused for the
    symbolic determinants; the result is validated against the vertex-sum
    oracle at the reference support and at ``validations`` random supports in
    the combinatorial neighborhood.  A mismatch aborts, since it means the
    triangulation bookkeeping is wrong.
    """
    k, r = p.dim, p.facet_count
    if k > POLY_DET_MAX:
        raise PolytopeError(
            "too-large",
            f"dimension {k} exceeds {POLY_DET_MAX}, the largest the volume polynomial supports",
        )
    sym = _symbolic_vertices(p)
    total = MultiPoly.zero(r)
    for sigma, sign in zip(p.triangulation, p.orientations):
        base = sym[sigma[0]]
        rows = []
        for i in sigma[1:]:
            rows.append([sym[i][t] - base[t] for t in range(k)])
        det = poly_det(rows)
        total = total + det if sign > 0 else total - det
    fact = 1
    for i in range(2, k + 1):
        fact *= i
    nu = total / fact
    if not nu.is_homogeneous(k):
        raise ConstructionError("volume polynomial is not homogeneous of the right degree")

    reference_value = volume_oracle(p, p.support)
    if nu.evaluate(list(p.support)) != reference_value:
        raise ConstructionError(
            f"volume mismatch at reference support: polynomial {nu.evaluate(list(p.support))} "
            f"vs oracle {reference_value}"
        )
    rng = random.Random(seed)
    scale = Fraction(1, 8)
    done = 0
    tries = 0
    while done < validations:
        tries += 1
        if tries > 40 * validations:
            raise ConstructionError("could not sample enough supports near the reference")
        x = tuple(
            s + Fraction(rng.randint(-8, 8), 64) * scale for s in p.support
        )
        try:
            oracle = volume_oracle(p, x)
        except PolytopeError:
            scale = scale / 2
            continue
        if nu.evaluate(list(x)) != oracle:
            raise ConstructionError(
                f"volume mismatch at {tuple(map(str, x))}: polynomial "
                f"{nu.evaluate(list(x))} vs oracle {oracle}"
            )
        done += 1
    return VolumePolynomial(nu, k, r)


def volume_oracle(p: SimplePolytope, support) -> Fraction:
    """Exact volume at a support vector via the vertex-summation formula.

    Independent of the triangulation: sums <c,v>^k over vertices, weighted by
    the inverse facet geometry at each vertex, for a generic rational linear
    functional c (re-drawn on degeneracy).  Valid only while the vertex-facet
    incidences match the reference support.
    """
    x = tuple(Fraction(c) for c in support)
    if len(x) != p.facet_count:
        raise PolytopeError("combinatorics-changed", "support length mismatch")
    found = _enumerate_vertices(p.normals, x)
    if set(found.values()) != set(p.incidences) or len(found) != len(p.incidences):
        raise PolytopeError("combinatorics-changed", "vertex-facet incidences differ")

    k = p.dim
    fact = 1
    for i in range(2, k + 1):
        fact *= i

    per_vertex = []
    for inc in p.incidences:
        idx = sorted(inc)
        a = Matrix([list(p.normals[j]) for j in idx])
        v = linear_solve(a, [x[j] for j in idx])
        det = a.det()
        per_vertex.append((v, a.transpose(), abs(det)))

    for t in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        c = [Fraction(t) ** e for e in range(k)]
        total = Fraction(0)
        ok = True
        for v, a_t, absdet in per_vertex:
            y = linear_solve(a_t, c)
            prod = Fraction(1)
            for yj in y:
                if not yj:
                    ok = False
                    break
                prod *= yj
            if not ok:
                break
            total += (_dot(c, v) ** k) / (fact * absdet * prod)
        if ok:
            return total
    raise ConstructionError("no generic functional found for the vertex sum")


# ---------------------------------------------------------------------------
# The differential-operator algebra as a Hodge-Lefschetz module
# ---------------------------------------------------------------------------


def _monomials_of_degree(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree ``degree`` in graded-lex order."""
    if degree == 0:
        return [tuple([0] * nvars)]
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int, pos: int):
        if pos == nvars - 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, pos + 1)

    rec([], degree, 0)
    return out


def _poly_vector(f: MultiPoly, index: dict[tuple[int, ...], int]) -> list[Fraction]:
    vec = [Fraction(0)] * len(index)
    for e, c in f.terms.items():
        vec[index[e]] = c
    return vec


def build_pkt_module(p: SimplePolytope, nu: VolumePolynomial | None = None) -> HLModule:
    """Quotient the operator polynomials by the annihilator of the volume
    polynomial and package the result as a Hodge-Lefschetz module.

    Degree l classes sit at module grade k - 2l with bidegree (k-l, k-l);
    the stored form is the raw pairing D1 D2 . nu twisted by the sign
    (-1)^(d(d-1)/2) in the cohomological degree d = 2l of the first slot,
    which makes every partial derivative skew.  The reference operator is
    the support-weighted derivative sum.  Construction aborts unless the
    result passes the structural, Lefschetz, and polarization checks.
    """
    if nu is None:
        nu = volume_polynomial(p)
    k, r = p.dim, p.facet_count

    chosen_by_degree: list[list[tuple[int, ...]]] = []
    reduction_by_degree: list[dict[tuple[int, ...], list[tuple[int, Fraction]]]] = []

    for l in range(k + 1):
        mons = _monomials_of_degree(r, l)
        target = _monomials_of_degree(r, k - l)
        index = {e: i for i, e in enumerate(target)}
        chosen: list[tuple[int, ...]] = []
        reduction: dict[tuple[int, ...], list[tuple[int, Fraction]]] = {}
        ech: list[tuple[int, list[Fraction], list[Fraction]]] = []
        for alpha in mons:
            vec = _poly_vector(apply_diff_op(alpha, nu.poly), index)
            expr = [Fraction(0)] * len(chosen)
            for pivot, evec, eexpr in ech:
                c = vec[pivot]
                if c:
                    vec = [a - c * b for a, b in zip(vec, evec)]
                    for m, em in enumerate(eexpr):
                        expr[m] += c * em
            pivot = next((i for i, c in enumerate(vec) if c), None)
            if pivot is None:
                reduction[alpha] = [(m, c) for m, c in enumerate(expr) if c]
            else:
                # phi(alpha) = residue + sum expr; normalized residue joins
                # the echelon with its expression over the quotient basis
                m_new = len(chosen)
                chosen.append(alpha)
                reduction[alpha] = [(m_new, Fraction(1))]
                pv = vec[pivot]
                evec = [c / pv for c in vec]
                eexpr = [-c / pv for c in expr] + [Fraction(1) / pv]
                for prev_i in range(len(ech)):
                    ech[prev_i] = (ech[prev_i][0], ech[prev_i][1], ech[prev_i][2] + [Fraction(0)])
                ech.append((pivot, evec, eexpr))
                expr = None
        chosen_by_degree.append(chosen)
        reduction_by_degree.append(reduction)

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
                for m2, c in reduction[alpha]:
                    g.data[offsets[l + 1] + m2][offsets[l] + m] = c
        generators.append(g)

    form = Matrix.zeros(total, total)
    for l in range(k + 1):
        l2 = k - l
        sign = intersection_sign(2 * l)
        for m, alpha in enumerate(chosen_by_degree[l]):
            for m2, beta in enumerate(chosen_by_degree[l2]):
                exps = tuple(a + b for a, b in zip(alpha, beta))
                value = apply_diff_op(exps, nu.poly).constant_term()
                if value:
                    form.data[offsets[l] + m][offsets[l2] + m2] = sign * value

    module = HLModule(
        space=GradedSpace(k, tuple(vectors), Matrix.identity(total)),
        form=PolarizationForm(form, (-1) ** k),
        family=OperatorFamily(
            tuple(f"d{i + 1}" for i in range(r)), tuple(generators)
        ),
        reference=tuple(p.support),
    )

    structure = validate_structure(module)
    if not structure.passed:
        raise ConstructionError(
            "module fails structural checks: "
            + "; ".join(s.name for s in structure.failures())
        )
    if not lefschetz_property(module, module.reference):
        raise ConstructionError("reference operator fails the Lefschetz property")
    pol = polarization_check(module, module.reference)
    if not pol.passed:
        raise ConstructionError(
            "reference operator fails polarization: "
            + "; ".join(s.name for s in pol.failures())
        )
    return module


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


def _apply_support_operator(f: MultiPoly, support: Sequence[Fraction]) -> MultiPoly:
    out = MultiPoly.zero(f.nvars)
    for i, c in enumerate(support):
        if c:
            out = out + f.diff(i) * c
    return out


def mixed_volume(nu: VolumePolynomial, supports: Sequence[Sequence]) -> Fraction:
    """Polarization of the volume polynomial at k support vectors."""
    if len(supports) != nu.dim:
        raise ValueError(f"need exactly {nu.dim} support vectors")
    f = nu.poly
    for c in supports:
        c = [Fraction(e) for e in c]
        if len(c) != nu.facets:
            raise ValueError("support vector length mismatch")
        f = _apply_support_operator(f, c)
    fact = 1
    for i in range(2, nu.dim + 1):
        fact *= i
    return f.constant_term() / fact


@timed
def af_check(nu: VolumePolynomial, c1, c2, rest: Sequence = ()) -> CheckReport:
    """Concavity of the mixed volume in two slots, exactly."""
    rep = CheckReport("alexandrov-fenchel", "alexandrov-fenchel")
    rest = list(rest)
    if 2 + len(rest) != nu.dim:
        return rep.mark_input_error("support count mismatch")
    m12 = mixed_volume(nu, [c1, c2] + rest)
    m11 = mixed_volume(nu, [c1, c1] + rest)
    m22 = mixed_volume(nu, [c2, c2] + rest)
    ok = m12 * m12 >= m11 * m22
    rep.add(
        "squared-cross-term-dominates",
        ok,
        None
        if ok
        else {"m12": str(m12), "m11": str(m11), "m22": str(m22)},
    )
    rep.data.update({"m12": str(m12), "m11": str(m11), "m22": str(m22)})
    return rep
