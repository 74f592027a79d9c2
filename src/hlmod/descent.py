"""Descent to operator images, quotient presentations, and Koszul purity.

Descent passes from a module of weight k to the image T.V of weight k - 1,
with the form transported by Q~(Tu, Tv) := Q(u, Tv), for T in the closure
of the module's cone K, which the image keeps; repeating it lands on
T_1...T_t.V at weight k - t.  The quotient presentation V/ker takes its
class representatives from the section of the image descent, so it is the
image module once its class coordinates are checked to equal the image
module's matrices, and the canonical isomorphism is the identity.  Every
operator lowers the grade by 2, so the Koszul complex of a tuple of cone
elements is graded by the grades of its coordinates, its weight filtration
W_l of term p is the coordinates of grade <= l - p, and the purity check
reads the weight g + p of each class of H^p_g off its grade to certify that
the cohomology sits in weights <= 0.  Every tuple entry, and the quotient's
one operator even at power 0, is certified to lie in K by the one gate
:func:`hlmod.mixed.validate_tuple`; single descent needs the closure of K.

No product T_1...T_t is multiplied as a dense matrix: its columns and
kernel come from the block chain of :mod:`hlmod.hodge_lefschetz`
(``_chain_columns``, ``_ambient_kernel``), and descent keeps them, the
structure images and their coordinates (one RREF) as ``Matrix`` carriers.
The RREF solves only for the images of the generators' span basis that
``validate_structure`` checks; every other generator descends to its own
rational combination of theirs.
Purity reads exact ranks: dim H^p_g = sum_{|J|=p} rank(T_J : V_{g+2p} ->
V_g) - rank(d^p)_g - rank(d^{p-1})_{g+2}, with rank(d^p)_g that of the
signed blocks [+-T_J']_{J < J'} on (+)_J V_{g+2p}, once its two premises
are certified: the tuple lowers the grade by 2 and commutes on every grade
block (read off ``module.structure`` for the module's own operators), and
delta.delta = 0 on the sign incidence.  The explicit complex, its summand
bases RREF and its differentials read off them at their pivots, is built
when first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations, product
from typing import Sequence

from .exact import Matrix, echelon_basis, greedy_echelon, hstack, independent_indices, kernel_basis
from .hodge_lefschetz import (
    BasisVector,
    ConstructionError,
    GradedSpace,
    HLModule,
    OperatorFamily,
    PreconditionError,
    _ambient_kernel,
    _certify_module,
    _chain_columns,
    _span_vectors,
    _vector_witness,
    closed_cone_membership,
    product_block,
)
from .mixed import _checked_tuple, validate_tuple
from .report import CheckReport


class FormIllDefinedError(PreconditionError):
    """The descended form is not well defined on the image subspace."""


class DescentError(ConstructionError):
    """The descended module failed a check the theory guarantees."""


@dataclass(frozen=True)
class DescentResult:
    """Image-presentation descent: the new module plus transport matrices.

    ``embedding`` has the new basis vectors as columns (in parent ambient
    coordinates), ``section`` holds chosen preimages column by column, and
    ``projection`` sends a parent vector to the coordinates of its image.
    """

    module: HLModule
    embedding: Matrix
    section: Matrix
    projection: Matrix


@dataclass(frozen=True)
class QuotientDescent:
    module: HLModule
    image: DescentResult
    isomorphism: Matrix


def descent(module: HLModule, coeffs) -> DescentResult:
    """Descend along one operator T in the closure of the module's cone K.

    The premise is certified exactly, not sampled: T must lie in the
    closure of K (:func:`closed_cone_membership`), so that T + lambda N0
    lies in K for every lambda > 0.  On the square, T = (-1/3, 0, 1, 0) is
    rejected, its width h1 + h2 = -1/3 being negative.  The descended
    module keeps the cone of ``module``.
    """
    c = module.coefficients(coeffs)
    if not closed_cone_membership(module, c):
        raise PreconditionError("T is not in the closure of the cone K; descent premise violated")
    return _descend(module, [module.operator(c)])[0]


def repeated_descent(module: HLModule, entries) -> DescentResult:
    """Descend along a tuple of at most weight-many cone elements in one step."""
    coeffs = _checked_tuple(module, entries, True, 0, module.weight)
    return _descend(module, [module.operator(c) for c in coeffs])[0]


def _generator_span(module: HLModule) -> tuple[list[int], list[tuple[Fraction, ...]]]:
    """The generators' span basis that ``validate_structure`` checks, and each
    generator's rational coordinates over it, read off those of its
    numerators (:func:`~hlmod.hodge_lefschetz._span_vectors`) and scaled by
    the denominators."""
    views = [g.sparse_numerators() for g in module.family.matrices]
    kept, coords = greedy_echelon(_span_vectors([rows for rows, _ in views]))
    scales = [views[b][1] for b in kept]
    return kept, [
        tuple(Fraction(cs.get(pos, 0) * scales[pos], s * d) for pos in range(len(kept)))
        for (cs, s), (_, d) in zip(coords, views)
    ]


def _structure_coordinates(
    module: HLModule, basis: Matrix, vectors: Matrix, escaped: str, kept: Sequence[int], *extra: Matrix
) -> list[Matrix]:
    """The coordinates over the columns of ``basis`` of the columns of C conj(vectors),
    of g vectors for each generator g of the span basis ``kept`` (every other one is
    a combination of these) and of each ``extra``, from one RREF of [basis | targets];
    ``DescentError(escaped)`` unless its pivots are the columns of ``basis``."""
    gens = module.family.matrices
    targets = [module.space.conjugation * vectors.conjugate(), *(gens[b] * vectors for b in kept), *extra]
    r = basis.cols
    rr, pivots = hstack(basis, *targets).rref()
    if pivots != list(range(r)):
        raise DescentError(escaped)
    starts = list(accumulate((t.cols for t in targets), initial=r))
    return [rr.submatrix(range(r), range(a, b)) for a, b in zip(starts, starts[1:])]


def _descend(module: HLModule, mats: Sequence[Matrix]) -> tuple[DescentResult, Matrix]:
    """The image descent along T_1 ... T_t, and the kernel basis of the
    product, as rows, that it checks the transported form on."""
    t, n = len(mats), module.dim
    new_weight = module.weight - t
    # the columns T e_i a greedy scan keeps, per bidegree block too (their images have
    # disjoint supports), are the pivots of one RREF; blocks go by descending p + q, then p
    image = _chain_columns(module, mats).transpose()
    pivots = set(image.rref()[1])
    bi = module.space.bidegree_indices()
    blocks = sorted(product(range(new_weight + 1), repeat=2), key=lambda ab: (-sum(ab), -ab[0]))
    placed = [(i, a, b) for a, b in blocks for i in bi.get((a + t, b + t), []) if i in pivots]
    preimages = [i for i, _, _ in placed]
    new_vectors = tuple(BasisVector(a + b - new_weight, a, b) for _, a, b in placed)
    embedding = image.submatrix(range(n), preimages)
    section = Matrix.over([[int(i == r) for r in preimages] for i in range(n)], 1, len(preimages))
    kernel = Matrix([u for u, _ in _ambient_kernel(module, mats)], None, n)
    bad = next((i for i, row in enumerate((kernel * module.form * embedding).numerators()[0]) if any(row)), None)
    if bad is not None:
        raise FormIllDefinedError(f"form-ill-defined: Q(kernel, image) != 0 with witness {_vector_witness(kernel.data[bad])}")

    # coordinates of the conjugates, the span basis images and the projected
    # parent basis, from one elimination of the embedding, each generator the
    # combination of those images; the transported form is Q(preimage_i, w_j)
    kept, gen_coords = _generator_span(module)
    conjugation, *basis_mats, projection = _structure_coordinates(
        module, embedding, embedding, "vector escaped the descended subspace", kept, image
    )
    span = OperatorFamily(tuple(module.family.names[b] for b in kept), tuple(basis_mats))
    new_module = HLModule(
        space=GradedSpace(max(new_weight, 0), new_vectors, conjugation),
        form=module.form.submatrix(preimages, range(n)) * embedding,
        family=OperatorFamily(module.family.names, tuple(span.combine(c, len(preimages)) for c in gen_coords)),
        reference=module.reference,
        cone=module.cone,
    )
    _certify_module(new_module, DescentError)
    return DescentResult(new_module, embedding, section, projection), kernel


def quotient_descent(module: HLModule, coeffs, power: int) -> QuotientDescent:
    """Present V/ker(T^power); it is the image presentation, with the
    identity as canonical isomorphism.

    T^power is taken on the block chain by the image descent, whose section
    supplies the class representatives rep_i with T^power rep_i the i-th
    image basis vector.  The class coordinates of their conjugates and
    generator images are solved over representatives plus kernel,
    independently of the image, and must equal the image module's
    conjugation and generators; the form Q(rep_i, T^power rep_j) is the
    image's form by construction.  So the quotient module is the image
    module, which the descent has already certified.
    """
    (c,) = validate_tuple(module, [coeffs])
    if power < 0 or power > module.weight:
        raise PreconditionError("power must lie between 0 and the weight")
    mats = [module.operator(c)] * power
    image, kernel = _descend(module, mats)
    m_dim = image.module.dim

    # with s = power, v lies in ker T^s + span(E) exactly when T^s v lies in
    # span(T^s E), so the greedy complement of the kernel among a block's
    # unit vectors is the set of pivot columns of T^s on that block: the
    # preimages the image descent chose; the class coordinates of their
    # conjugates and generator images come from one elimination
    reps, (kept, _) = image.section, _generator_span(module)
    basis = hstack(reps, kernel.transpose())
    coords = _structure_coordinates(module, basis, reps, "vector outside representatives + kernel", kept)
    expected = (image.module.space.conjugation, *(image.module.family.matrices[b] for b in kept))
    if any(x.submatrix(range(m_dim), range(m_dim)) != matrix for x, matrix in zip(coords, expected)):
        raise DescentError("class coordinates disagree with the image module")
    return QuotientDescent(image.module, image, Matrix.identity(m_dim))


# ---------------------------------------------------------------------------
# Koszul complex, graded by the grading of the module
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KoszulSummand:
    indices: tuple[int, ...]
    basis: tuple[tuple, ...]  # ambient vectors spanning T_J . V


@dataclass(frozen=True)
class KoszulComplex:
    """The Koszul complex of a tuple: the module and the tuple's matrices.
    Its summands, dense differentials and the grade of each coordinate of
    each term are built from these when first read."""

    module: HLModule
    operators: tuple[Matrix, ...]

    operator_count = property(lambda self: len(self.operators))
    _explicit = cached_property(lambda self: _explicit_complex(self.module, self.operators))
    terms = cached_property(lambda self: self._explicit[0])
    differentials = cached_property(lambda self: self._explicit[1])
    grades = cached_property(lambda self: self._explicit[2])

    def term_dim(self, p: int) -> int:
        return len(self.grades[p])

    def filtration_basis(self, p: int, level: int) -> tuple[tuple, ...]:
        """W_level of term p: the unit vectors of the coordinates of grade
        <= level - p, the image of W_{level+p}(V) in each summand."""
        units = range(self.term_dim(p))
        return tuple(tuple(Fraction(int(i == j)) for j in units) for i, g in enumerate(self.grades[p]) if g <= level - p)

    @property
    def filtration(self) -> dict[tuple[int, int], tuple[tuple, ...]]:
        """Every W_level of every term p, for level from -k - p to k - p."""
        k = self.module.weight
        levels = ((p, level) for p in range(self.operator_count + 1) for level in range(-k - p, k - p + 1))
        return {(p, level): self.filtration_basis(p, level) for p, level in levels}


def _coordinates(basis: Matrix, pivots: Sequence[int], vectors: Matrix) -> Matrix | None:
    """The coordinates of the columns of ``vectors`` over the columns of
    ``basis``, an RREF basis with these pivots: their entries at the
    pivots; None when a column is not in the span."""
    coords = vectors.submatrix(pivots, range(vectors.cols))
    return coords if basis * coords == vectors else None


def koszul_complex(module: HLModule, entries, require_cone: bool = True) -> KoszulComplex:
    """The graded complex of image subspaces of a tuple with signed
    differentials, its explicit parts built when first read.

    Terms are indexed by strictly increasing index tuples; the component of
    the differential into a target tuple J from the source omitting the s-th
    entry of J is (-1)^(s-1) times that operator.
    """
    return KoszulComplex(module, tuple(module.operator(c) for c in _checked_tuple(module, entries, require_cone, 1, None)))


def _explicit_complex(module: HLModule, mats: Sequence[Matrix]) -> tuple:
    """The terms, differentials and coordinate grades of the Koszul complex.

    Each summand basis vector is an RREF of the columns T_J e_i, each of one
    grade, so it lies in one grade; the weight filtration of term p is W_l =
    the coordinates of grade <= l - p.  Homogeneity, d sending grade g only
    to grade g - 2 (so d respects W) and d.d = 0 are verified exactly here.
    """
    m, n = len(mats), module.dim
    vector_grades = [v.grade for v in module.space.vectors]
    # the terms, the coordinate grades, the summand bases and their offsets in their terms
    terms, grades, bases, offsets = [], [], {}, {}
    for p in range(m + 1):
        term_grades: list[int] = []
        for subset in combinations(range(m), p):
            bases[subset] = echelon_basis(_chain_columns(module, [mats[j] for j in subset]))
            offsets[subset] = len(term_grades)
            for b in bases[subset]:
                found = {vector_grades[i] for i, e in enumerate(b) if e}
                if len(found) != 1:
                    raise ConstructionError("Koszul basis vector is not homogeneous")
                term_grades += found
        terms.append(tuple(KoszulSummand(s, tuple(bases[s])) for s in combinations(range(m), p)))
        grades.append(tuple(term_grades))

    as_matrix = {s: Matrix.from_columns(b, n) for s, b in bases.items()}
    pivots = {s: [next(i for i, e in enumerate(v) if e) for v in b] for s, b in bases.items()}
    span = {s: range(offsets[s], offsets[s] + len(b)) for s, b in bases.items()}
    diffs: list[Matrix] = []
    for p in range(m):
        blocks = []
        for t_idx in combinations(range(m), p + 1):
            for s_pos, j_s in enumerate(t_idx):
                source = t_idx[:s_pos] + t_idx[s_pos + 1 :]
                coords = _coordinates(as_matrix[t_idx], pivots[t_idx], mats[j_s] * as_matrix[source])
                if coords is None:
                    raise ConstructionError("differential escapes the target summand")
                blocks.append((span[t_idx], span[source], coords.scale(_sign(source, j_s))))
        d = Matrix.from_blocks(len(grades[p + 1]), len(grades[p]), blocks)
        if any(grades[p + 1][r] != grades[p][c] - 2 for r, row in enumerate(d.numerators()[0]) for c, v in enumerate(row) if v):
            raise ConstructionError("differential does not lower the grade by 2")
        diffs.append(d)

    for p in range(m - 1):
        if not (diffs[p + 1] * diffs[p]).is_zero():
            raise ConstructionError("d.d != 0: Koszul sign bookkeeping is broken")
    return tuple(terms), tuple(diffs), tuple(grades)


def _sign(subset: Sequence[int], j: int) -> int:
    """(-1)^(s-1), for s the position of j in ``subset`` with j added."""
    return -1 if sum(i < j for i in subset) % 2 else 1


def _rank_dims(module: HLModule, mats: Sequence[Matrix]) -> dict[tuple[int, int], int]:
    """The nonzero dims of H^p_g of the Koszul complex of ``mats``, which must
    lower the grade by 2, from exact ranks of their grade blocks (:func:`purity_check`).
    A tuple of operators the module combined (:meth:`HLModule.operator`) reads
    both premises off ``module.structure`` when it passed, which checks bidegree
    (-1, -1) on every generator and commutation on a span basis, so on every
    combination; any other tuple is scanned for both."""
    gi = module.space.grade_indices()
    grade = [v.grade for v in module.space.vectors]
    m, top = len(mats), min(len(mats), module.weight)  # T_J V = 0 for |J| > k
    subsets = [list(combinations(range(m), p)) for p in range(top + 1)]

    combined = {id(t) for t in module._operators.values()}
    if not (all(id(t) in combined for t in mats) and module.structure.passed):
        off = any(x and grade[r] != grade[c] - 2 for t in mats for r, row in enumerate(t.numerators()[0]) for c, x in enumerate(row))
        if off or any(product_block(module, [a, b], h) != product_block(module, [b, a], h) for a, b in combinations(mats, 2) for h in gi):
            raise ConstructionError("the tuple does not commute on every grade block, or does not lower the grade by 2")
    # the sign of j depends only on the parity of the entries of J below it,
    # so five indices hold every case of delta.delta = 0
    few = range(min(m, 5))
    if any(_sign(J, a) * _sign(J + (a,), b) + _sign(J, b) * _sign(J + (b,), a)
           for p in few for J in combinations(few, p) for a, b in combinations([i for i in few if i not in J], 2)):
        raise ConstructionError("delta.delta != 0: Koszul sign bookkeeping is broken")

    block = {(J, h): product_block(module, [mats[j] for j in J], h)  # T_J on V_h
             for p in range(1, top + 1) for J, h in product(subsets[p], gi) if h - 2 * p in gi}
    rank = {((), h): len(ix) for h, ix in gi.items()} | {key: b.rank() for key, b in block.items()}
    d = {}  # (p, g) -> rank of d^p on grade g: the stacked [+-T_J'] on (+)_J V_{g+2p}
    for p in range(top):
        row = {J: i for i, J in enumerate(subsets[p + 1])}
        for g in gi:
            h, a, b = g + 2 * p, len(gi.get(g - 2, [])), len(gi.get(g + 2 * p, []))
            pieces = [(range(row[K] * a, row[K] * a + a), range(c * b, c * b + b), block[K, h].scale(_sign(J, j)))
                      for c, J in enumerate(subsets[p]) for j in range(m) if j not in J
                      for K in [tuple(sorted(J + (j,)))] if (K, h) in block]
            d[p, g] = Matrix.from_blocks(len(row) * a, len(subsets[p]) * b, pieces).rank() if pieces else 0
    dims = {(p, g): sum(rank.get((J, g + 2 * p), 0) for J in subsets[p]) - d.get((p, g), 0) - d.get((p - 1, g + 2), 0)
            for p in range(top + 1) for g in gi}
    return {key: dim for key, dim in dims.items() if dim}


def _explicit_dims(kc: KoszulComplex) -> tuple[dict[tuple[int, int], int], dict[int, dict]]:
    """The nonzero dims of H^p_g from the per-grade kernels of the explicit
    complex, the rank of d^{p-1} into grade g read off the grade g + 2
    kernel of term p - 1, and the witness of each p with a class in weight
    > 0: the first kernel vector of the highest such grade outside the image."""
    m = kc.operator_count
    dims, witnesses, rank_in = {}, {}, {}  # rank_in: the rank of d^{p-1} into each grade of term p
    for p in range(m + 1):
        grades = kc.grades[p]
        d = kc.differentials[p] if p < m else Matrix.zeros(0, len(grades))
        rank_out, bad = {}, None
        for g in sorted(set(grades)):
            idx = [i for i, x in enumerate(grades) if x == g]
            kern, rank_out[g - 2] = kernel_basis(d.submatrix(range(d.rows), idx))
            dims[p, g] = len(kern) - rank_in.get(g, 0)
            if dims[p, g] and g + p > 0:
                bad = (g, idx, kern)
        if bad:
            g, idx, kern = bad
            z = echelon_basis(kern)
            d_prev = kc.differentials[p - 1] if p else Matrix.zeros(len(grades), 0)
            image = d_prev.submatrix(idx, range(d_prev.cols)).columns()
            first = next(i for i in independent_indices(image + z) if i >= len(image))
            entries = dict(zip(idx, z[first - len(image)]))
            cls = [entries.get(i, Fraction(0)) for i in range(len(grades))]
            witnesses[p] = {"p": p, "level": g + p, "class": _vector_witness(cls)}
        rank_in = rank_out
    return {key: dim for key, dim in dims.items() if dim}, witnesses


def purity_check(kc: KoszulComplex) -> CheckReport:
    """Cohomology of the filtered complex must sit in weights <= 0.

    H^p_g, in weight g + p, has dimension dim(term p)_g - rank(d^p)_g -
    rank(d^{p-1})_{g+2}, all exact ranks: term p is the image of pi_p =
    (+)_{|J|=p} T_J and d^p pi_p = pi_{p+1} delta^p, for delta the signed
    inclusion (x in slot J to (-1)^(s-1) x in slot J + {j}), so
    dim(term p)_g = sum_J rank(T_J : V_{g+2p} -> V_g) and rank(d^p)_g is the
    rank of [+-T_J']_{J < J'} : (+)_J V_{g+2p} -> (+)_J' V_{g-2}.  Its two
    premises are certified first: the tuple lowers the grade by 2 and
    commutes on every grade block, which a tuple of the module's own
    operators reads off ``module.structure`` when it passed (:func:`_rank_dims`),
    and delta.delta = 0 on the sign incidence.  A class in weight > 0 fails,
    with a witness from the explicit complex, whose dims must equal the rank
    table.
    """
    rep = CheckReport("koszul-purity", "koszul-purity")
    ranked = _rank_dims(kc.module, kc.operators)
    dims, witnesses = _explicit_dims(kc) if any(g + p > 0 for p, g in ranked) else (ranked, {})
    if ranked != dims:
        raise ConstructionError("the explicit Koszul complex disagrees with its rank table")
    for p in range(kc.operator_count + 1):
        rep.add(f"weight-bound[p={p}]", p not in witnesses, witnesses.get(p))
        rep.data[f"h-dim[p={p}]"] = sum(dim for (q, _), dim in dims.items() if q == p)
    rep.data["graded-dims"] = {f"p={p},l={g + p}": dim for (p, g), dim in sorted(dims.items())}
    return rep
