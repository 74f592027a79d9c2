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
reads the weight of each cohomology class off its grade to certify that
the cohomology sits in weights <= 0.  Every tuple entry, and the quotient's
one operator even at power 0, is certified to lie in K by the one gate
:func:`hlmod.mixed.validate_tuple`; single descent needs the closure of K.

No product T_1...T_t is multiplied as a dense matrix: its columns and
kernel come from the block chain of :mod:`hlmod.hodge_lefschetz`
(``_chain_columns``, ``_ambient_kernel``).  The Koszul differentials are
read off the summand bases, which are RREF, at their pivots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .exact import Matrix, echelon_basis, independent_indices, kernel_basis, solve_columns
from .hodge_lefschetz import (
    BasisVector,
    ConstructionError,
    GradedSpace,
    HLModule,
    OperatorFamily,
    PolarizationForm,
    PreconditionError,
    _ambient_kernel,
    _certify_module,
    _chain_columns,
    _vector_witness,
    closed_cone_membership,
)
from .mixed import _checked_tuple, validate_tuple
from .report import CheckReport, timed


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


def _structure_images(module: HLModule, vectors: Sequence[Sequence]) -> list[list]:
    """conj(v) for every v, then g(v) for every generator g and every v."""
    images = [module.conjugate_vector(v) for v in vectors]
    for g in module.family.matrices:
        images += [g.apply(v) for v in vectors]
    return images


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


def _descend(module: HLModule, mats: Sequence[Matrix]) -> tuple[DescentResult, list[tuple]]:
    """The image descent along T_1 ... T_t, and the kernel basis of the
    product that it checks the transported form on."""
    t = len(mats)
    k = module.weight
    new_weight = k - t
    n = module.dim

    chain = _chain_columns(module, mats)
    image_cols = echelon_basis(chain)
    kernel = [u for u, _ in _ambient_kernel(module, mats)]
    pairing = Matrix(kernel, len(kernel), n) * module.form.matrix * Matrix.from_columns(image_cols, n)
    bad = next((u for u, row in zip(kernel, pairing.numerators()[0]) if any(row)), None)
    if bad is not None:
        raise FormIllDefinedError(f"form-ill-defined: Q(kernel, image) != 0 with witness {_vector_witness(bad)}")

    bi = module.space.bidegree_indices()
    new_vectors: list[BasisVector] = []
    columns: list[tuple] = []
    preimages: list[int] = []
    ident = 0
    for total in range(2 * new_weight, -1, -1):
        for a in range(min(total, new_weight), -1, -1):
            b = total - a
            if b < 0 or b > new_weight:
                continue
            src = bi.get((a + t, b + t), [])
            block_cols = [chain.data[i] for i in src]
            for pos in independent_indices(block_cols):
                columns.append(block_cols[pos])
                preimages.append(src[pos])
                new_vectors.append(BasisVector(ident, a + b - new_weight, a, b))
                ident += 1

    m_dim = ident
    embedding = Matrix.from_columns(columns, n)
    section = Matrix.from_columns([[int(i == r) for i in range(n)] for r in preimages], n)

    # coordinates of the conjugates, the generator images and the projected
    # parent basis, from one elimination of the embedding
    targets = _structure_images(module, columns) + list(chain.data)
    coords = solve_columns(embedding, targets)
    if any(c is None for c in coords):
        raise DescentError("vector escaped the descended subspace")

    def coord_matrix(start: int, count: int, rows: int) -> Matrix:
        return Matrix.from_columns(coords[start : start + count], rows)

    # transported form Q(preimage_i, w_j)
    form = module.form.matrix.submatrix(preimages, range(n)) * embedding

    conjugation = coord_matrix(0, m_dim, m_dim)
    gens = len(module.family.matrices)
    gen_mats = [coord_matrix((g + 1) * m_dim, m_dim, m_dim) for g in range(gens)]

    new_module = HLModule(
        space=GradedSpace(max(new_weight, 0), tuple(new_vectors), conjugation),
        form=PolarizationForm(form, (-1) ** new_weight),
        family=OperatorFamily(module.family.names, tuple(gen_mats)),
        reference=module.reference,
        cone=module.cone,
    )

    _certify_module(new_module, DescentError)

    projection = coord_matrix((gens + 1) * m_dim, n, m_dim)
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
    # preimages the image descent chose
    reps = image.section.columns()
    solve_matrix = Matrix.from_columns(reps + kernel, module.dim)

    # class coordinates of the conjugates and generator images of the
    # representatives, from one elimination
    coords = solve_columns(solve_matrix, _structure_images(module, reps))
    if any(c is None for c in coords):
        raise DescentError("vector outside representatives + kernel")
    expected = (image.module.space.conjugation,) + image.module.family.matrices
    for pos, matrix in enumerate(expected):
        block = coords[pos * m_dim : (pos + 1) * m_dim]
        if Matrix.from_columns([c[:m_dim] for c in block], m_dim) != matrix:
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
    module: HLModule
    operator_count: int
    terms: tuple[tuple[KoszulSummand, ...], ...]
    differentials: tuple[Matrix, ...]
    grades: tuple[tuple[int, ...], ...]  # the grade of each coordinate of each term

    def term_dim(self, p: int) -> int:
        return len(self.grades[p])

    def filtration_basis(self, p: int, level: int) -> tuple[tuple, ...]:
        """W_level of term p: the unit vectors of the coordinates of grade
        <= level - p, the image of W_{level+p}(V) in each summand."""
        rows = Matrix.identity(self.term_dim(p)).data
        return tuple(tuple(rows[i]) for i, g in enumerate(self.grades[p]) if g <= level - p)

    @property
    def filtration(self) -> dict[tuple[int, int], tuple[tuple, ...]]:
        """Every W_level of every term p, for level from -k - p to k - p."""
        k = self.module.weight
        return {
            (p, level): self.filtration_basis(p, level)
            for p in range(self.operator_count + 1)
            for level in range(-k - p, k - p + 1)
        }


def _coordinates(basis: Matrix, pivots: Sequence[int], vectors: Matrix) -> Matrix | None:
    """The coordinates of the columns of ``vectors`` over the columns of
    ``basis``, an RREF basis with these pivots: their entries at the
    pivots; None when a column is not in the span."""
    coords = vectors.submatrix(pivots, range(vectors.cols))
    return coords if basis * coords == vectors else None


def koszul_complex(module: HLModule, entries, require_cone: bool = True) -> KoszulComplex:
    """Build the graded complex of image subspaces with signed differentials.

    Terms are indexed by strictly increasing index tuples; the component of
    the differential into a target tuple J from the source omitting the s-th
    entry of J is (-1)^(s-1) times that operator.  Each summand basis vector
    is an RREF of the columns T_J e_i, each of one grade, so it lies in one
    grade; the weight filtration of term p is W_l = the coordinates of grade
    <= l - p.  Homogeneity, d sending grade g only to grade g - 2 (so d
    respects W) and d.d = 0 are verified exactly here.
    """
    mats = [module.operator(c) for c in _checked_tuple(module, entries, require_cone, 1, None)]
    m = len(mats)
    n = module.dim
    vector_grades = [v.grade for v in module.space.vectors]

    # summand bases, their offsets in their terms, and the coordinate grades
    terms: list[tuple[KoszulSummand, ...]] = []
    grades: list[tuple[int, ...]] = []
    bases: dict[tuple[int, ...], list[tuple]] = {}
    offsets: dict[tuple[int, ...], int] = {}
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
                blocks.append((span[t_idx], span[source], coords.scale((-1) ** s_pos)))
        d = Matrix.from_blocks(len(grades[p + 1]), len(grades[p]), blocks)
        if any(grades[p + 1][r] != grades[p][c] - 2 for r, row in enumerate(d.numerators()[0]) for c, v in enumerate(row) if v):
            raise ConstructionError("differential does not lower the grade by 2")
        diffs.append(d)

    for p in range(m - 1):
        if not (diffs[p + 1] * diffs[p]).is_zero():
            raise ConstructionError("d.d != 0: Koszul sign bookkeeping is broken")
    return KoszulComplex(module, m, tuple(terms), tuple(diffs), tuple(grades))


@timed
def purity_check(kc: KoszulComplex) -> CheckReport:
    """Cohomology of the filtered complex must sit in weights <= 0.

    Every differential sends grade g to grade g - 2 (verified by
    :func:`koszul_complex`), so H^p = ker d^p / im d^{p-1} splits by grade:
    its grade-g piece has dimension nullity(d^p on grade g) - rank(d^{p-1}
    into grade g) and sits in weight g + p.  The rank of d^{p-1} into grade
    g is read off the grade g + 2 kernel of term p - 1, so each grade block
    is eliminated once.  Any class in weight > 0 is a failure; its witness
    is the first kernel vector of the highest such grade outside the image.
    """
    rep = CheckReport("koszul-purity", "koszul-purity")
    m = kc.operator_count
    graded: dict[str, int] = {}
    rank_in: dict[int, int] = {}  # rank of d^{p-1} into each grade of term p
    for p in range(m + 1):
        grades = kc.grades[p]
        d = kc.differentials[p] if p < m else Matrix.zeros(0, len(grades))
        rank_out: dict[int, int] = {}
        h_dim, bad = 0, None
        for g in sorted(set(grades)):
            idx = [i for i, x in enumerate(grades) if x == g]
            kern, rank_out[g - 2] = kernel_basis(d.submatrix(range(d.rows), idx))
            dim = len(kern) - rank_in.get(g, 0)
            if dim:
                graded[f"p={p},l={g + p}"] = dim
                h_dim += dim
                if g + p > 0:
                    bad = (g, idx, kern)
        witness = None
        if bad:
            g, idx, kern = bad
            z = echelon_basis(kern)
            d_prev = kc.differentials[p - 1] if p else Matrix.zeros(len(grades), 0)
            image = d_prev.submatrix(idx, range(d_prev.cols)).columns()
            first = next(i for i in independent_indices(image + z) if i >= len(image))
            cls = [Fraction(0)] * len(grades)
            for i, e in zip(idx, z[first - len(image)]):
                cls[i] = e
            witness = {"p": p, "level": g + p, "class": _vector_witness(cls)}
        rep.add(f"weight-bound[p={p}]", bad is None, witness)
        rep.data[f"h-dim[p={p}]"] = h_dim
        rank_in = rank_out
    rep.data["graded-dims"] = graded
    return rep
