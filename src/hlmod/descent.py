"""Descent to operator images, quotient presentations, and Koszul purity.

Descent passes from a module of weight k to the image T.V of weight k - 1,
with the form transported by Q~(Tu, Tv) := Q(u, Tv); repeating it lands on
T_1...T_t.V at weight k - t, and the quotient presentation V/ker replaces
the image through the canonical isomorphism.  The Koszul complex of a tuple
of cone elements carries the weight filtration inherited from the grading,
and the purity check certifies that its cohomology sits in weights <= 0.

No product T_1...T_t is formed as a dense matrix: its columns and kernel
come from the block chain of :mod:`hlmod.hodge_lefschetz`
(``_chain_columns``, ``_ambient_kernel``), and the quotient presentation
takes its class representatives from the section of the image descent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .exact import (
    Matrix,
    echelon_basis,
    independent_indices,
    intersect_spaces,
    kernel_basis,
    rank_of_vectors,
    solve_columns,
)
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
    cone_membership,
    lefschetz_property,
    validate_structure,
)
from .mixed import ConeMembershipError, validate_tuple
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


def _lambda_samples() -> list[Fraction]:
    return [Fraction(1, 2 ** j) for j in range(9)]


def descent(module: HLModule, coeffs, interior: bool = False) -> DescentResult:
    """Descend along one operator satisfying the closed-cone premise.

    The premise (T plus any positive multiple of the reference satisfies the
    Lefschetz property) is certified on a finite geometric sample of
    multipliers; by rank semicontinuity a failure inside the sampled range
    would surface at one of the sampled points or in the downstream
    well-definedness and validation checks.  Pass ``interior=True`` to also
    require the Lefschetz property for T itself.
    """
    c = module.coefficients(coeffs)
    ref = module.reference
    for lam in _lambda_samples():
        shifted = tuple(a + lam * b for a, b in zip(c, ref))
        if not lefschetz_property(module, shifted):
            raise PreconditionError(
                f"T + {lam} N0 fails the Lefschetz property; descent premise violated"
            )
    if interior and not lefschetz_property(module, c):
        raise PreconditionError("interior flag set but T fails the Lefschetz property")
    return _descend(module, [module.operator(c)])


def repeated_descent(module: HLModule, entries) -> DescentResult:
    """Descend along a tuple of cone elements in one step."""
    tuple_ = validate_tuple(module, entries, require_cone=True)
    if len(tuple_) > module.weight:
        raise PreconditionError("cannot descend below weight zero")
    mats = [module.operator(c) for c in tuple_.coefficients]
    return _descend(module, mats)


def _descend(module: HLModule, mats: Sequence[Matrix]) -> DescentResult:
    t = len(mats)
    k = module.weight
    new_weight = k - t
    n = module.dim

    chain = _chain_columns(module, mats)
    image_cols = echelon_basis(chain)
    for u, _ in _ambient_kernel(module, mats):
        if any(module.form_value(u, w) for w in image_cols):
            raise FormIllDefinedError(
                f"form-ill-defined: Q(kernel, image) != 0 with witness {_vector_witness(u)}"
            )

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
            block_cols = [chain[i] for i in src]
            for pos in independent_indices(block_cols):
                columns.append(block_cols[pos])
                preimages.append(src[pos])
                new_vectors.append(BasisVector(ident, a + b - new_weight, a, b))
                ident += 1

    m_dim = ident
    embedding = Matrix.from_columns(columns, n)
    section = Matrix.zeros(n, m_dim)
    for j, i in enumerate(preimages):
        section.data[i][j] = Fraction(1)

    # coordinates of the conjugates, the generator images and the projected
    # parent basis, from one elimination of the embedding
    targets = _structure_images(module, columns) + chain
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
    )

    _certify_module(new_module, DescentError)

    projection = coord_matrix((gens + 1) * m_dim, n, m_dim)
    return DescentResult(new_module, embedding, section, projection)


def quotient_descent(module: HLModule, coeffs, power: int) -> QuotientDescent:
    """Present V/ker(T^power) and identify it with the image presentation.

    T^power is taken on the block chain by the image descent, whose section
    supplies the class representatives; their class coordinates are solved
    over representatives plus kernel, independently of the image, and the
    canonical map is checked to be an isomorphism of modules.
    """
    c = module.coefficients(coeffs)
    if not cone_membership(module, c):
        raise ConeMembershipError("operator is not in the polarizing cone")
    if power < 0 or power > module.weight:
        raise PreconditionError("power must lie between 0 and the weight")
    mats = [module.operator(c)] * power
    image = _descend(module, mats)
    m_dim = image.module.dim

    # with s = power, v lies in ker T^s + span(E) exactly when T^s v lies in
    # span(T^s E), so the greedy complement of the kernel among a block's
    # unit vectors is the set of pivot columns of T^s on that block: the
    # preimages the image descent chose
    reps = image.section.columns()
    kernel = [v for v, _ in _ambient_kernel(module, mats)]
    solve_matrix = Matrix.from_columns(reps + kernel, module.dim)

    # class coordinates of the conjugates and generator images of the
    # representatives, from one elimination
    coords = solve_columns(solve_matrix, _structure_images(module, reps))
    if any(c is None for c in coords):
        raise DescentError("vector outside representatives + kernel")

    def class_matrix(start: int) -> Matrix:
        return Matrix.from_columns([c[:m_dim] for c in coords[start : start + m_dim]], m_dim)

    # transported form Q(rep_i, T^power rep_j)
    form = image.section.transpose() * module.form.matrix * image.embedding

    new_weight = module.weight - power
    quotient_module = HLModule(
        space=GradedSpace(max(new_weight, 0), image.module.space.vectors, class_matrix(0)),
        form=PolarizationForm(form, (-1) ** new_weight),
        family=OperatorFamily(
            module.family.names,
            tuple(class_matrix((g + 1) * m_dim) for g in range(len(module.family.matrices))),
        ),
        reference=module.reference,
    )

    structure = validate_structure(quotient_module)
    if not structure.passed:
        raise DescentError(
            "quotient module fails structure: "
            + "; ".join(s.name for s in structure.failures())
        )

    iso_cols = solve_columns(image.embedding, image.embedding.columns())
    if any(c is None for c in iso_cols):
        raise DescentError("canonical map does not land in the image module")
    iso = Matrix.from_columns(iso_cols, m_dim)

    if not iso.det():
        raise DescentError("canonical map between presentations is not invertible")
    for i_new, v_new in enumerate(quotient_module.space.vectors):
        for i_img in range(m_dim):
            if iso.data[i_img][i_new]:
                w = image.module.space.vectors[i_img]
                if (w.grade, w.p, w.q) != (v_new.grade, v_new.p, v_new.q):
                    raise DescentError("canonical map does not respect the bigrading")
    # transported form and operators must agree exactly
    if iso.transpose() * image.module.form.matrix * iso != quotient_module.form.matrix:
        raise DescentError("canonical map does not transport the form")
    for g_q, g_i in zip(quotient_module.family.matrices, image.module.family.matrices):
        if iso * g_q != g_i * iso:
            raise DescentError("canonical map does not intertwine the operators")
    return QuotientDescent(quotient_module, image, iso)


# ---------------------------------------------------------------------------
# Koszul complex with the inherited weight filtration
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
    filtration: dict[tuple[int, int], tuple[tuple, ...]]

    def term_dim(self, p: int) -> int:
        return sum(len(s.basis) for s in self.terms[p])

    def filtration_basis(self, p: int, level: int) -> tuple[tuple, ...]:
        k = self.module.weight
        if level >= k - p:
            level = k - p
        if level < -k - p:
            return ()
        return self.filtration.get((p, level), ())


def koszul_complex(module: HLModule, entries, require_cone: bool = True) -> KoszulComplex:
    """Build the filtered complex of image subspaces with signed differentials.

    Terms are indexed by strictly increasing index tuples; the component of
    the differential into a target tuple J from the source omitting the s-th
    entry of J is (-1)^(s-1) times that operator.  Both d.d = 0 and
    compatibility of d with the filtration are verified exactly here.
    """
    tuple_ = validate_tuple(module, entries, require_cone)
    m = len(tuple_)
    if m < 1:
        raise PreconditionError("need at least one operator")
    mats = [module.operator(c) for c in tuple_.coefficients]
    n = module.dim
    k = module.weight

    # T_J e_i for every summand J and basis vector e_i
    chains: dict[tuple[int, ...], list[tuple]] = {}
    terms: list[tuple[KoszulSummand, ...]] = []
    bases: dict[tuple[int, ...], list[tuple]] = {}
    for p in range(m + 1):
        summands = []
        for subset in combinations(range(m), p):
            chains[subset] = _chain_columns(module, [mats[j] for j in subset])
            basis = echelon_basis(chains[subset])
            bases[subset] = basis
            summands.append(KoszulSummand(subset, tuple(basis)))
        terms.append(tuple(summands))

    offsets: list[dict[tuple[int, ...], int]] = []
    dims: list[int] = []
    for p in range(m + 1):
        off: dict[tuple[int, ...], int] = {}
        pos = 0
        for s in terms[p]:
            off[s.indices] = pos
            pos += len(s.basis)
        offsets.append(off)
        dims.append(pos)

    def summand_matrix(s: KoszulSummand) -> Matrix:
        return Matrix.from_columns(s.basis, n)

    diffs: list[Matrix] = []
    for p in range(m):
        d = Matrix.zeros(dims[p + 1], dims[p])
        for target in terms[p + 1]:
            t_idx = target.indices
            dst_off = offsets[p + 1][t_idx]
            # every source vector mapped into this summand, solved at once
            columns: list[int] = []
            images: list[list] = []
            for s_pos, j_s in enumerate(t_idx):
                source = t_idx[:s_pos] + t_idx[s_pos + 1 :]
                src_off = offsets[p][source]
                for b_i, b in enumerate(bases[source]):
                    vec = mats[j_s].apply(list(b))
                    columns.append(src_off + b_i)
                    images.append(vec if s_pos % 2 == 0 else [-e for e in vec])
            for col, coords in zip(columns, solve_columns(summand_matrix(target), images)):
                if coords is None:
                    raise ConstructionError("differential escapes the target summand")
                for r_i, cval in enumerate(coords):
                    if cval:
                        d.data[dst_off + r_i][col] = d.data[dst_off + r_i][col] + cval
        diffs.append(d)

    for p in range(m - 1):
        if not (diffs[p + 1] * diffs[p]).is_zero():
            raise ConstructionError("d.d != 0: Koszul sign bookkeeping is broken")

    # weight filtration: summand J at level l is the image of W_{l+p}(V),
    # spanned by the images T_J e_i of the basis vectors of grade <= l + p
    grades = [v.grade for v in module.space.vectors]
    filtration: dict[tuple[int, int], tuple[tuple, ...]] = {}
    for p in range(m + 1):
        # (grade, summand coordinates in the whole term) of each nonzero T_J e_i
        images: list[tuple[int, tuple]] = []
        for s in terms[p]:
            chain = chains[s.indices]
            off = offsets[p][s.indices]
            idx = [i for i in range(n) if any(chain[i])]
            solved = solve_columns(summand_matrix(s), [chain[i] for i in idx])
            for i, coords in zip(idx, solved):
                if coords is None:
                    raise ConstructionError("filtration piece escapes its summand")
                full = [Fraction(0)] * dims[p]
                full[off : off + len(coords)] = coords
                images.append((grades[i], tuple(full)))
        for level in range(-k - p, k - p + 1):
            pieces = [v for grade, v in images if grade <= level + p]
            filtration[(p, level)] = tuple(echelon_basis(pieces))

    kc = KoszulComplex(module, m, tuple(terms), tuple(diffs), filtration)

    for p in range(m):
        for level in range(-k - p, k - p + 1):
            moved = [diffs[p].apply(list(v)) for v in kc.filtration_basis(p, level)]
            moved = [v for v in moved if any(v)]
            if not moved:
                continue
            w_next = list(kc.filtration_basis(p + 1, level))
            if rank_of_vectors(w_next + moved) != len(w_next):
                raise ConstructionError("differential does not respect the filtration")
    return kc


@timed
def purity_check(kc: KoszulComplex) -> CheckReport:
    """Cohomology of the filtered complex must sit in weights <= 0.

    Computes H^p = ker d^p / im d^{p-1} with the subquotient filtration
    ((ker ∩ W_l) + im) / im and reports the graded dimensions; any class
    surviving in weight l > 0 is a failure with a witness vector.  Since
    im ⊆ ker (d.d = 0 is verified by :func:`koszul_complex`), the filtration
    dimension is dim H - rank(ker + W_l) + rank(im + W_l), two ranks per level.
    """
    rep = CheckReport("koszul-purity", "koszul-purity")
    m = kc.operator_count
    k = kc.module.weight
    graded: dict[str, int] = {}
    for p in range(m + 1):
        dim_p = kc.term_dim(p)
        if p < m:
            kern, _ = kernel_basis(kc.differentials[p])
            z = echelon_basis(kern)
        else:
            z = [tuple(row) for row in Matrix.identity(dim_p).data]
        if p > 0:
            d_prev = kc.differentials[p - 1]
            b = echelon_basis([d_prev.column(j) for j in range(d_prev.cols)])
        else:
            b = []
        h_dim = len(z) - len(b)

        w_dims: dict[int, int] = {}
        for level in range(-k - p, k - p + 1):
            w = list(kc.filtration_basis(p, level))
            w_dims[level] = (
                h_dim - rank_of_vectors(z + w) + rank_of_vectors(b + w) if w else 0
            )
        prev = 0
        for level in range(-k - p, k - p + 1):
            gr = w_dims[level] - prev
            prev = w_dims[level]
            if gr:
                graded[f"p={p},l={level}"] = gr

        top_ok = w_dims.get(0, 0) == h_dim if h_dim else True
        witness = None
        if not top_ok:
            w0 = kc.filtration_basis(p, 0)
            inter0 = intersect_spaces(z, w0, dim_p) if w0 else []
            low = echelon_basis(list(inter0) + list(b))
            # the first class of the kernel outside (ker ∩ W_0) + im
            outside = [i - len(low) for i in independent_indices(low + z) if i >= len(low)]
            if outside:
                bad_level = next(
                    lev for lev in range(-k - p, k - p + 1) if w_dims[lev] == w_dims[k - p]
                )
                witness = {"p": p, "level": bad_level, "class": _vector_witness(z[outside[0]])}
        rep.add(f"weight-bound[p={p}]", top_ok, witness)
        rep.data[f"h-dim[p={p}]"] = h_dim
    rep.data["graded-dims"] = graded
    return rep
