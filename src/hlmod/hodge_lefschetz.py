"""Polarized Hodge-Lefschetz modules and the unmixed Lefschetz machinery.

A module packages a graded, bigraded space with a conjugation, a pairing of
parity (-1)^k, a commuting family of degree (-1,-1) operators, and a
distinguished reference element of that family.  The checks in this file
cover the structural axioms, the Lefschetz property, primitive subspaces and
the Lefschetz decomposition, sl2-completion, polarization positivity, cone
membership, and the weight filtration of a nilpotent endomorphism.

Conventions: basis vectors carry (grade l, bidegree (p, q)) labels with
p + q = l + k; conjugation is the antilinear map v -> C * conj(v); the
pairing is the bilinear (not sesquilinear) matrix Q, and Hermitian forms are
built explicitly as i^(p-q) * Q(u, T^l * conj(v)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .exact import (
    Matrix,
    conj,
    echelon_basis,
    extend_to_complement,
    format_scalar,
    i_power,
    kernel_basis,
    leading_principal_minors,
    linear_solve,
    as_fraction,
)
from .report import INPUT_ERROR, CheckReport, timed


def intersection_sign(degree: int) -> int:
    """The sign twist (-1)^(d(d-1)/2) applied to raw pairings of degree d.

    Applied with d the cohomological degree of the first argument (weight
    minus grade), it makes every degree -2 generator skew for the stored
    form and turns the raw pairings positive on primitive pieces; the
    calibration tests on the square and the torus fixtures pin it down.
    """
    return -1 if (degree * (degree - 1) // 2) % 2 else 1


class InvalidModuleError(ValueError):
    """Malformed module data (dimension mismatches, bad labels)."""


class PreconditionError(ValueError):
    """A documented operation precondition does not hold."""


class ConstructionError(RuntimeError):
    """A construction the theory guarantees has failed; carries a witness."""


class NotNilpotentError(ValueError):
    """The operator fed to the weight filtration is not nilpotent."""


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasisVector:
    ident: int
    grade: int
    p: int
    q: int


@dataclass(frozen=True)
class GradedSpace:
    weight: int
    vectors: tuple[BasisVector, ...]
    conjugation: Matrix

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def grade_indices(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, v in enumerate(self.vectors):
            out.setdefault(v.grade, []).append(i)
        return {l: out[l] for l in sorted(out)}

    def bidegree_indices(self) -> dict[tuple[int, int], list[int]]:
        out: dict[tuple[int, int], list[int]] = {}
        for i, v in enumerate(self.vectors):
            out.setdefault((v.p, v.q), []).append(i)
        return {pq: out[pq] for pq in sorted(out)}

    def grade_dims(self) -> dict[int, int]:
        return {l: len(ix) for l, ix in self.grade_indices().items()}


@dataclass(frozen=True)
class PolarizationForm:
    matrix: Matrix
    parity: int


@dataclass(frozen=True)
class OperatorFamily:
    names: tuple[str, ...]
    matrices: tuple[Matrix, ...]
    # per generator, its nonzero entries as (row, col, value); generators of
    # degree (-1,-1) are mostly zero, so combine touches only these
    entries: tuple[tuple[tuple[int, int, object], ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        entries = tuple(
            tuple((i, j, e) for i, row in enumerate(mat.data) for j, e in enumerate(row) if e)
            for mat in self.matrices
        )
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.names)

    def combine(self, coefficients: Sequence[Fraction], dim: int) -> Matrix:
        total = Matrix.zeros(dim, dim)
        data = total.data
        for c, mat, nonzero in zip(coefficients, self.matrices, self.entries):
            if c:
                if (mat.rows, mat.cols) != (dim, dim):
                    raise ValueError("shape mismatch")
                for i, j, e in nonzero:
                    data[i][j] = data[i][j] + c * e
        return total


@dataclass(frozen=True)
class Sl2Triple:
    y: Matrix
    n: Matrix
    n_plus: Matrix


@dataclass(frozen=True)
class Filtration:
    """Increasing filtration W_l given by subspace bases, lowest piece first."""

    lowest: int
    pieces: tuple[tuple[tuple, ...], ...]

    @property
    def highest(self) -> int:
        return self.lowest + len(self.pieces) - 1

    def piece(self, level: int) -> tuple[tuple, ...]:
        if level < self.lowest:
            return ()
        if level > self.highest:
            return self.pieces[-1] if self.pieces else ()
        return self.pieces[level - self.lowest]

    def dims(self) -> dict[int, int]:
        return {self.lowest + i: len(b) for i, b in enumerate(self.pieces)}


@dataclass(frozen=True)
class HLModule:
    space: GradedSpace
    form: PolarizationForm
    family: OperatorFamily
    reference: tuple[Fraction, ...]

    @property
    def weight(self) -> int:
        return self.space.weight

    @property
    def dim(self) -> int:
        return self.space.dim

    def coefficients(self, coeffs) -> tuple[Fraction, ...]:
        """Normalize a coefficient vector over the named generators."""
        if isinstance(coeffs, Mapping):
            by_name = {}
            for name, value in coeffs.items():
                if name not in self.family.names:
                    raise PreconditionError(f"unknown generator {name!r}")
                by_name[name] = Fraction(value)
            return tuple(by_name.get(n, Fraction(0)) for n in self.family.names)
        seq = tuple(Fraction(c) for c in coeffs)
        if len(seq) != len(self.family.names):
            raise PreconditionError("coefficient vector length mismatch")
        return seq

    def operator(self, coeffs) -> Matrix:
        return self.family.combine(self.coefficients(coeffs), self.dim)

    def reference_operator(self) -> Matrix:
        return self.family.combine(self.reference, self.dim)

    def grading_operator(self) -> Matrix:
        return Matrix.diagonal([Fraction(v.grade) for v in self.space.vectors])

    def conjugate_vector(self, v: Sequence) -> list:
        return self.space.conjugation.apply([conj(e) for e in v])

    def form_value(self, u: Sequence, v: Sequence):
        qv = self.form.matrix.apply(v)
        total = Fraction(0)
        for a, b in zip(u, qv):
            if a and b:
                total = total + a * b
        return total


def trivial_module() -> HLModule:
    """The smallest legal module: weight 0, one-dimensional, empty family."""
    space = GradedSpace(0, (BasisVector(0, 0, 0, 0),), Matrix.identity(1))
    form = PolarizationForm(Matrix([[Fraction(1)]]), 1)
    return HLModule(space, form, OperatorFamily((), ()), ())


# ---------------------------------------------------------------------------
# Block helpers
# ---------------------------------------------------------------------------


def _embed(coords: Sequence, idx: Sequence[int], dim: int) -> tuple:
    out = [Fraction(0)] * dim
    for c, i in zip(coords, idx):
        out[i] = c
    return tuple(out)


def graded_block(module: HLModule, mat: Matrix, src_grade: int) -> Matrix:
    """Block of a degree -2 operator from V_src to V_{src-2} coordinates."""
    gi = module.space.grade_indices()
    rows = gi.get(src_grade - 2, [])
    cols = gi.get(src_grade, [])
    return mat.submatrix(rows, cols)


def product_block(module: HLModule, mats: Sequence[Matrix], start_grade: int) -> Matrix:
    """Matrix of T_1 ... T_t from V_start to V_{start-2t} coordinates.

    The rightmost factor acts first; since the family commutes the order is
    immaterial, but the convention matches operator-product notation.
    """
    gi = module.space.grade_indices()
    grade = start_grade
    current = Matrix.identity(len(gi.get(grade, [])))
    for mat in reversed(list(mats)):
        block = graded_block(module, mat, grade)
        current = block * current
        grade -= 2
    return current


def _bidegree_product(module: HLModule, mats: Sequence[Matrix], p: int, q: int) -> Matrix:
    """Product of the (p,q) -> (p-1,q-1) blocks, rightmost factor first."""
    bi = module.space.bidegree_indices()
    cp, cq = p, q
    current = Matrix.identity(len(bi.get((p, q), [])))
    for mat in reversed(list(mats)):
        src = bi.get((cp, cq), [])
        dst = bi.get((cp - 1, cq - 1), [])
        current = mat.submatrix(dst, src) * current
        cp, cq = cp - 1, cq - 1
    return current


def _twisted_images(module: HLModule, mats: Sequence[Matrix], vectors: Sequence[Sequence]) -> list[list]:
    """T_1 ... T_t conj(v) for each v, rightmost factor first.

    These are the right-hand arguments of every twisted form Q(u, T conj v);
    computing them once per v serves every u.
    """
    images = []
    for v in vectors:
        w = module.conjugate_vector(v)
        for mat in reversed(list(mats)):
            w = mat.apply(w)
        images.append(w)
    return images


def _form_matrix(module: HLModule, phase, vectors: Sequence[Sequence], images: Sequence[Sequence]) -> Matrix:
    """The matrix phase * Q(u, w) over u in vectors and w in images."""
    entries = [[phase * module.form_value(u, w) for w in images] for u in vectors]
    return Matrix(entries, len(vectors), len(images))


def _vector_witness(v: Sequence) -> list[str]:
    return [format_scalar(e) for e in v]


# ---------------------------------------------------------------------------
# Structural validation
# ---------------------------------------------------------------------------


@timed
def validate_structure(module: HLModule) -> CheckReport:
    """Check every structural axiom of the module data.

    Dimension mismatches are reported with verdict ``input-error`` so they
    are never confused with a failed mathematical check.
    """
    rep = CheckReport("validate-structure", "module-definition")
    n = module.dim
    k = module.weight

    conj_m = module.space.conjugation
    q = module.form.matrix
    if k < 0:
        return rep.mark_input_error("negative weight")
    if conj_m.rows != n or conj_m.cols != n:
        return rep.mark_input_error("conjugation matrix dimension mismatch")
    if q.rows != n or q.cols != n:
        return rep.mark_input_error("form matrix dimension mismatch")
    for name, mat in zip(module.family.names, module.family.matrices):
        if mat.rows != n or mat.cols != n:
            return rep.mark_input_error(f"generator {name!r} dimension mismatch")
    if len(module.reference) != len(module.family):
        return rep.mark_input_error("reference coefficient length mismatch")
    if module.form.parity != (-1) ** k:
        return rep.mark_input_error("stored parity inconsistent with weight")

    # bigrading consistency: p + q = l + k with labels inside [0, k]
    bad = None
    for v in module.space.vectors:
        if v.p + v.q != v.grade + k or not (0 <= v.p <= k) or not (0 <= v.q <= k) or abs(v.grade) > k:
            bad = v
            break
    rep.add(
        "bigrading-consistency",
        bad is None,
        None if bad is None else {"id": bad.ident, "grade": bad.grade, "p": bad.p, "q": bad.q},
    )

    bi = module.space.bidegree_indices()
    sym_bad = None
    for (p_, q_), idx in bi.items():
        if len(bi.get((q_, p_), [])) != len(idx):
            sym_bad = (p_, q_)
            break
    rep.add(
        "bidegree-dimension-symmetry",
        sym_bad is None,
        None if sym_bad is None else {"p": sym_bad[0], "q": sym_bad[1]},
    )

    # conjugation: involution and (p,q) <-> (q,p) swap
    invol = conj_m * conj_m.conjugate() == Matrix.identity(n)
    rep.add("conjugation-involution", invol)

    swap_bad = None
    for j, v in enumerate(module.space.vectors):
        target = set(bi.get((v.q, v.p), []))
        for i in range(n):
            if conj_m.data[i][j] and i not in target:
                swap_bad = {"column": j, "row": i}
                break
        if swap_bad:
            break
    rep.add("conjugation-bidegree-swap", swap_bad is None, swap_bad)

    det_q = q.det()
    rep.add("form-nondegenerate", bool(det_q), None if det_q else {"det": "0"})

    orth_bad = None
    for i, vi in enumerate(module.space.vectors):
        for j, vj in enumerate(module.space.vectors):
            if q.data[i][j] and vi.grade + vj.grade != 0:
                orth_bad = {"i": i, "j": j, "value": format_scalar(q.data[i][j])}
                break
        if orth_bad:
            break
    rep.add("form-graded-orthogonality", orth_bad is None, orth_bad)

    parity = module.form.parity
    parity_bad = None
    for i in range(n):
        for j in range(n):
            if q.data[j][i] != parity * q.data[i][j]:
                parity_bad = {
                    "i": i,
                    "j": j,
                    "q_ij": format_scalar(q.data[i][j]),
                    "q_ji": format_scalar(q.data[j][i]),
                    "parity": parity,
                }
                break
        if parity_bad:
            break
    rep.add("form-parity", parity_bad is None, parity_bad)

    real_ok = conj_m.transpose() * q * conj_m == q.conjugate()
    rep.add("form-real", real_ok)

    # operator family axioms
    commute_bad = None
    mats = module.family.matrices
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            if mats[a] * mats[b] != mats[b] * mats[a]:
                commute_bad = {"first": module.family.names[a], "second": module.family.names[b]}
                break
        if commute_bad:
            break
    rep.add("operators-commute", commute_bad is None, commute_bad)

    for name, mat in zip(module.family.names, module.family.matrices):
        degree_bad = None
        for j, vj in enumerate(module.space.vectors):
            for i in range(n):
                if mat.data[i][j]:
                    vi = module.space.vectors[i]
                    if (vi.grade, vi.p, vi.q) != (vj.grade - 2, vj.p - 1, vj.q - 1):
                        degree_bad = {"generator": name, "column": j, "row": i}
                        break
            if degree_bad:
                break
        rep.add(f"operator-bidegree[{name}]", degree_bad is None, degree_bad)

        skew = mat.transpose() * q + q * mat
        rep.add(
            f"operator-skew[{name}]",
            skew.is_zero(),
            None
            if skew.is_zero()
            else {"generator": name},
        )

        real = mat * conj_m == conj_m * mat.conjugate()
        rep.add(f"operator-real[{name}]", real, None if real else {"generator": name})

    rep.data["dims-by-grade"] = {str(l): d for l, d in module.space.grade_dims().items()}
    rep.data["dims-by-bidegree"] = {f"{p},{q_}": len(ix) for (p, q_), ix in bi.items()}
    return rep


# ---------------------------------------------------------------------------
# Lefschetz property, primitives, decomposition
# ---------------------------------------------------------------------------


def lefschetz_property(module: HLModule, coeffs) -> bool:
    """True iff T^l : V_l -> V_{-l} has full rank for every l >= 1."""
    return _is_lefschetz(module, module.operator(coeffs))


def _is_lefschetz(module: HLModule, t: Matrix) -> bool:
    dims = module.space.grade_dims()
    for l in range(1, module.weight + 1):
        d_top = dims.get(l, 0)
        d_bot = dims.get(-l, 0)
        if d_top != d_bot:
            raise InvalidModuleError(f"dim-mismatch: dim V_{l} = {d_top} != {d_bot} = dim V_{-l}")
        if d_top == 0:
            continue
        power = product_block(module, [t] * l, l)
        if power.rank() != d_top:
            return False
    return True


@timed
def lefschetz_report(module: HLModule, coeffs) -> CheckReport:
    """Per-grade rank report for the Lefschetz property of one operator."""
    rep = CheckReport("lefschetz-property", "hard-lefschetz")
    try:
        t = module.operator(coeffs)
    except PreconditionError as exc:
        return rep.mark_input_error(str(exc))
    dims = module.space.grade_dims()
    for l in range(1, module.weight + 1):
        d_top, d_bot = dims.get(l, 0), dims.get(-l, 0)
        if d_top != d_bot:
            return rep.mark_input_error(f"dim-mismatch at grade {l}")
        if d_top == 0:
            continue
        rank = product_block(module, [t] * l, l).rank()
        rep.add(
            f"power-rank[l={l}]",
            rank == d_top,
            None if rank == d_top else {"grade": l, "rank": rank, "dim": d_top},
        )
    return rep


def primitive_subspace(module: HLModule, coeffs, level: int) -> list[tuple]:
    """Basis of ker(T^{l+1}) within V_l, in ambient coordinates."""
    if level < 0:
        raise PreconditionError("primitive grade must be nonnegative")
    if not lefschetz_property(module, coeffs):
        raise PreconditionError("operator does not satisfy the Lefschetz property")
    return _primitive_unchecked(module, module.operator(coeffs), level)


def _primitive_unchecked(module: HLModule, t: Matrix, level: int) -> list[tuple]:
    gi = module.space.grade_indices()
    idx = gi.get(level, [])
    if not idx or level > module.weight:
        return []
    power = product_block(module, [t] * (level + 1), level)
    kern, _ = kernel_basis(power)
    return [_embed(v, idx, module.dim) for v in kern]


def lefschetz_decomposition(module: HLModule, coeffs, grade: int) -> tuple[list[tuple], list[tuple]]:
    """Primitive and image summands of V_grade; their union is a basis.

    Raises :class:`ConstructionError` with an intersection witness if the two
    families fail to be independent, which signals an invalid module.
    """
    if grade < 0:
        raise PreconditionError("decomposition grade must be nonnegative")
    if not lefschetz_property(module, coeffs):
        raise PreconditionError("operator does not satisfy the Lefschetz property")
    t = module.operator(coeffs)
    gi = module.space.grade_indices()
    idx = gi.get(grade, [])
    primitive = _primitive_unchecked(module, t, grade)

    upper = gi.get(grade + 2, [])
    image: list[tuple] = []
    if upper and idx:
        block = graded_block(module, t, grade + 2)
        cols = [block.column(j) for j in range(block.cols)]
        reduced = echelon_basis(cols)
        image = [_embed(v, idx, module.dim) for v in reduced]

    combined = primitive + image
    m = Matrix(combined) if combined else Matrix.zeros(0, module.dim)
    if m.rank() != len(combined) or len(combined) != len(idx):
        witness = None
        if combined:
            kern, _ = kernel_basis(Matrix.from_columns(combined, module.dim))
            if kern:
                c = kern[0]
                vec = [Fraction(0)] * module.dim
                for t_, cv in enumerate(c):
                    if cv:
                        for a in range(module.dim):
                            vec[a] = vec[a] + cv * combined[t_][a]
                witness = _vector_witness(vec)
        raise ConstructionError(
            f"Lefschetz decomposition failed at grade {grade}: "
            f"dims ({len(primitive)}, {len(image)}) vs {len(idx)}; witness={witness}"
        )
    return primitive, image


# ---------------------------------------------------------------------------
# sl2 completion
# ---------------------------------------------------------------------------


def sl2_complete(module: HLModule, coeffs) -> Sl2Triple:
    """The unique degree +2 completion of (Y, T) to an sl2-triple.

    Solves [N+, T] = Y blockwise as one exact linear system and verifies all
    three commutation relations on the result.
    """
    if not lefschetz_property(module, coeffs):
        raise PreconditionError("operator does not satisfy the Lefschetz property")
    t = module.operator(coeffs)
    y = module.grading_operator()
    gi = module.space.grade_indices()
    dims = {l: len(ix) for l, ix in gi.items()}

    blocks: dict[int, tuple[int, int, int]] = {}
    offset = 0
    for l in sorted(dims):
        rows, cols = dims.get(l + 2, 0), dims[l]
        if rows and cols:
            blocks[l] = (offset, rows, cols)
            offset += rows * cols
    n_unknowns = offset

    t_block = {l: graded_block(module, t, l) for l in dims}

    rows_out: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for l in sorted(dims):
        d = dims[l]
        for i in range(d):
            for j in range(d):
                row = [Fraction(0)] * n_unknowns
                if (l - 2) in blocks:
                    off, _, bcols = blocks[l - 2]
                    tl = t_block[l]  # V_l -> V_{l-2}
                    for c in range(bcols):
                        coeff = tl.data[c][j]
                        if coeff:
                            row[off + i * bcols + c] += coeff
                if l in blocks:
                    off, brows, bcols = blocks[l]
                    tl2 = t_block[l + 2]  # V_{l+2} -> V_l
                    for c in range(brows):
                        coeff = tl2.data[i][c]
                        if coeff:
                            row[off + c * bcols + j] -= coeff
                rows_out.append(row)
                rhs.append(Fraction(l) if i == j else Fraction(0))

    system = Matrix(rows_out, len(rows_out), n_unknowns)
    solution = linear_solve(system, rhs)
    if solution is None:
        raise ConstructionError("no-solution: sl2 completion system is inconsistent")

    n_plus = Matrix.zeros(module.dim, module.dim)
    for l, (off, brows, bcols) in blocks.items():
        src = gi[l]
        dst = gi[l + 2]
        for a in range(brows):
            for b in range(bcols):
                n_plus.data[dst[a]][src[b]] = solution[off + a * bcols + b]

    comm1 = n_plus * t - t * n_plus
    comm2 = y * n_plus - n_plus * y
    comm3 = y * t - t * y
    if comm1 != y or comm2 != n_plus.scale(Fraction(2)) or comm3 != t.scale(Fraction(-2)):
        raise ConstructionError("sl2 commutation relations failed after solving")
    return Sl2Triple(y=y, n=t, n_plus=n_plus)


# ---------------------------------------------------------------------------
# Polarization and the cone
# ---------------------------------------------------------------------------


def hermitian_primitive_form(module: HLModule, t: Matrix, level: int, p: int, q: int) -> tuple[Matrix, list[tuple]]:
    """The form i^(p-q) Q(u, T^l conj v) on the (p, q) primitive part of V_l."""
    h, vectors, _ = _primitive_form(module, t, level, p, q)
    return h, vectors


def _primitive_form(module: HLModule, t: Matrix, level: int, p: int, q: int) -> tuple[Matrix, list[tuple], list[list]]:
    """The form of :func:`hermitian_primitive_form`, its basis and T^l conj v."""
    idx = module.space.bidegree_indices().get((p, q), [])
    kern, _ = kernel_basis(_bidegree_product(module, [t] * (level + 1), p, q))
    vectors = [_embed(v, idx, module.dim) for v in kern]
    images = _twisted_images(module, [t] * level, vectors)
    return _form_matrix(module, i_power(p - q), vectors, images), vectors, images


@timed
def polarization_check(module: HLModule, coeffs) -> CheckReport:
    """Positivity of the twisted Hermitian forms on every primitive piece.

    For each l >= 0 and each (p, q) with p + q = l + k the form
    i^(p-q) Q(u, T^l conj v) restricted to the (p, q) part of the primitive
    subspace must be Hermitian positive definite, and distinct (p, q) pieces
    must be orthogonal under Q(., T^l conj .).
    """
    rep = CheckReport("polarization", "hodge-riemann-unmixed")
    t = module.operator(coeffs)
    try:
        if not _is_lefschetz(module, t):
            rep.add("lefschetz-precondition", False)
            rep.verdict = INPUT_ERROR
            return rep
    except InvalidModuleError as exc:
        return rep.mark_input_error(str(exc))
    return _polarization(module, t, rep)


def _polarization(module: HLModule, t: Matrix, rep: CheckReport) -> CheckReport:
    """Add the subchecks of :func:`polarization_check` for a Lefschetz t."""
    k = module.weight
    gi = module.space.grade_indices()

    for level in range(0, k + 1):
        if not gi.get(level):
            continue
        pieces: dict[tuple[int, int], tuple[list[tuple], list[list]]] = {}
        for p in range(0, k + 1):
            q = level + k - p
            if not (0 <= q <= k):
                continue
            h, vectors, images = _primitive_form(module, t, level, p, q)
            if not vectors:
                continue
            pieces[(p, q)] = (vectors, images)
            if not h.is_hermitian():
                rep.add(
                    f"hermitian[l={level},p={p},q={q}]",
                    False,
                    {"level": level, "p": p, "q": q},
                )
                continue
            minors = leading_principal_minors(h)
            bad = None
            for m_index, minor in enumerate(minors):
                if as_fraction(minor) <= 0:
                    bad = (m_index + 1, minor)
                    break
            rep.add(
                f"positive-definite[l={level},p={p},q={q}]",
                bad is None,
                None
                if bad is None
                else {
                    "level": level,
                    "p": p,
                    "q": q,
                    "minor-index": bad[0],
                    "minor": format_scalar(bad[1]),
                },
            )

        keys = sorted(pieces)
        for a in range(len(keys)):
            for b in range(len(keys)):
                if a == b:
                    continue
                (p1, q1), (p2, q2) = keys[a], keys[b]
                bad_pair = None
                for u in pieces[(p1, q1)][0]:
                    for w in pieces[(p2, q2)][1]:
                        if module.form_value(u, w):
                            bad_pair = {"level": level, "from": [p1, q1], "to": [p2, q2]}
                            break
                    if bad_pair:
                        break
                rep.add(
                    f"orthogonality[l={level},({p1},{q1})x({p2},{q2})]",
                    bad_pair is None,
                    bad_pair,
                )
    return rep


def cone_membership(module: HLModule, coeffs) -> bool:
    """Membership in the polarizing cone: Lefschetz plus polarization.

    The operator is built and its Lefschetz property tested once; a grade
    dimension mismatch raises :class:`InvalidModuleError`.
    """
    t = module.operator(coeffs)
    if not _is_lefschetz(module, t):
        return False
    return _polarization(module, t, CheckReport("polarization", "hodge-riemann-unmixed")).passed


def sample_cone_element(module: HLModule, rng, spread: Fraction = Fraction(1, 4), attempts: int = 60) -> tuple:
    """A random validated cone element near the reference.

    Draws rational perturbations of the reference coefficients and
    re-certifies membership, shrinking the perturbation on repeated failure;
    the reference itself is the fallback.
    """
    base = module.reference
    if not base:
        return ()
    scale = spread
    for attempt in range(attempts):
        cand = tuple(
            b + Fraction(rng.randint(-16, 16), 64) * scale for b in base
        )
        if cone_membership(module, cand):
            return cand
        if attempt % 10 == 9:
            scale = scale / 2
    return tuple(base)


def sample_cone_tuple(module: HLModule, rng, length: int, spread: Fraction = Fraction(1, 4)) -> tuple:
    return tuple(sample_cone_element(module, rng, spread) for _ in range(length))


# ---------------------------------------------------------------------------
# Weight filtrations
# ---------------------------------------------------------------------------


def weight_filtration(operator: Matrix, bound: int) -> Filtration:
    """The monodromy weight filtration of a nilpotent operator, centered at 0.

    Uses the classical inductive construction: W_s is everything, W_{s-1} is
    ker N^s, W_{-s} is im N^s, and the middle layers come from the induced
    operator on ker N^s / im N^s with bound s - 1.  The result is the unique
    increasing filtration with N W_l contained in W_{l-2} and N^l inducing
    isomorphisms on graded pieces.
    """
    if not operator.is_square():
        raise NotNilpotentError("operator must be square")
    if bound < 0:
        raise NotNilpotentError("bound must be nonnegative")
    if not operator.power(bound + 1).is_zero():
        raise NotNilpotentError("not-nilpotent")
    levels = _weight_filtration_levels(operator, bound)
    pieces = [()]  # W_{-bound-1} = 0
    for l in range(-bound, bound + 1):
        pieces.append(tuple(levels.get(l, [])))
    return Filtration(-bound - 1, tuple(pieces))


def _weight_filtration_levels(m: Matrix, s: int) -> dict[int, list[tuple]]:
    dim = m.rows
    full = [tuple(row) for row in Matrix.identity(dim).data]
    if dim == 0:
        return {l: [] for l in range(-s, s + 1)}
    if s == 0:
        return {0: full}
    ms = m.power(s)
    kern, _ = kernel_basis(ms)
    kern = echelon_basis(kern)
    image = echelon_basis([ms.column(j) for j in range(dim)])
    complement = extend_to_complement(image, kern)

    basis = list(image) + list(complement)
    basis_matrix = Matrix.from_columns(basis, dim) if basis else Matrix.zeros(dim, 0)
    induced_cols = []
    for v in complement:
        w = m.apply(list(v))
        coords = linear_solve(basis_matrix, w)
        if coords is None:
            raise ConstructionError("weight filtration: image escaped the kernel")
        induced_cols.append(coords[len(image):])
    induced = (
        Matrix.from_columns(induced_cols, len(complement))
        if induced_cols
        else Matrix.zeros(len(complement), 0)
    )

    sub = _weight_filtration_levels(induced, s - 1)
    out: dict[int, list[tuple]] = {s: full, -s: list(image)}
    for l in range(-(s - 1), s):
        lifted = list(image)
        for qv in sub.get(l, []):
            vec = [Fraction(0)] * dim
            for t_, cval in enumerate(qv):
                if cval:
                    for a in range(dim):
                        vec[a] = vec[a] + cval * complement[t_][a]
            lifted.append(tuple(vec))
        out[l] = echelon_basis(lifted)
    return {l: echelon_basis(v) for l, v in out.items()}


def hodge_filtration_piece(module: HLModule, p: int) -> list[tuple]:
    """Basis of F^p, the span of all bigraded pieces with first index >= p.

    Derived from the basis labels on demand; the decreasing filtration is
    never stored.
    """
    vectors = []
    for i, v in enumerate(module.space.vectors):
        if v.p >= p:
            vectors.append(_embed([Fraction(1)], [i], module.dim))
    return vectors


def grading_filtration(module: HLModule) -> Filtration:
    """W_l spanned by all basis vectors of grade at most l."""
    k = module.weight
    pieces = []
    gi = module.space.grade_indices()
    for l in range(-k - 1, k + 1):
        vectors = []
        for grade, idx in gi.items():
            if grade <= l:
                for i in idx:
                    vectors.append(_embed([Fraction(1)], [i], module.dim))
        pieces.append(tuple(echelon_basis(vectors)))
    return Filtration(-k - 1, tuple(pieces))


def filtrations_equal(a: Filtration, b: Filtration) -> bool:
    low = min(a.lowest, b.lowest)
    high = max(a.highest, b.highest)
    for l in range(low, high + 1):
        if list(echelon_basis(a.piece(l))) != list(echelon_basis(b.piece(l))):
            return False
    return True


def filtration_satisfies_weight_property(operator: Matrix, filtration: Filtration, bound: int) -> bool:
    """Defining-property oracle: monotone, N W_l in W_{l-2}, graded isos."""
    dim = operator.rows
    for l in range(filtration.lowest, filtration.highest + 1):
        prev = filtration.piece(l - 1)
        here = filtration.piece(l)
        if rank_together(here, prev, dim) != len(here):
            return False
        moved = [tuple(operator.apply(list(v))) for v in here]
        target = filtration.piece(l - 2)
        for w in moved:
            if any(w) and rank_together(target, [w], dim) != len(target):
                return False
    for l in range(1, bound + 1):
        d_top = len(filtration.piece(l)) - len(filtration.piece(l - 1))
        d_bot = len(filtration.piece(-l)) - len(filtration.piece(-l - 1))
        if d_top != d_bot:
            return False
        power = operator.power(l)
        pushed = [tuple(power.apply(list(v))) for v in filtration.piece(l)]
        below = list(filtration.piece(-l - 1))
        combined = echelon_basis(below + pushed)
        if len(combined) - len(filtration.piece(-l - 1)) != d_top:
            return False
    return True


def rank_together(basis: Sequence[Sequence], extra: Sequence[Sequence], dim: int) -> int:
    vectors = [list(v) for v in basis]
    if not vectors and not extra:
        return 0
    return Matrix(list(vectors) + [list(e) for e in extra], len(vectors) + len(list(extra)), dim).rank()
