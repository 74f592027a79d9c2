"""Polarized Hodge-Lefschetz modules and the Lefschetz machinery.

A module packages a graded, bigraded space with a conjugation, a pairing of
parity (-1)^k, a commuting family of degree (-1,-1) operators, and a
distinguished reference element of that family.  The checks in this file
cover the structural axioms, the Lefschetz property, primitive subspaces and
the Lefschetz decomposition, sl2-completion, polarization positivity, and
membership in the module's cone K and its closure.  The weight filtration
W(N) of an N in K is the grading filtration (N has degree -2 and is
Lefschetz), so the Lefschetz check certifies it and no code builds it.

Every operator has bidegree (-1, -1), so the checks work on blocks: one
chain, ``product_block``, multiplies the blocks V_l -> V_{l-2} or
V^{p,q} -> V^{p-1,q-1} of a tuple of operators, sliced through the index
maps :class:`GradedSpace` builds once.  On it sit one core each for the
decomposition and the twisted forms (``_decomposition``, ``_kernel_form``),
which the unmixed checks call with the constant tuple ``[T] * (l + 1)`` and
the mixed checkers in :mod:`hlmod.mixed` with the sampled tuple.  sl2
completion reads N+ off the strings v, T v, ..., T^l v of the primitives v.
Descent reads whole products off the chain as well: ``_chain_columns``
gives T_1 ... T_t e_i for every basis vector and ``_ambient_kernel`` the
kernel basis of the product on the whole space, one block at a time.
The structural axioms are checked on nonzero entries: ``validate_structure``
reads C, Q and the generators as per-row ``{col: numerator}`` dicts over one
positive integer denominator each, numerators in Z[i] (the family keeps its
generators in that form, which ``combine`` sums), multiplies and compares
them sparsely at a common scale, and scans only nonzero positions for
witnesses, whose values it reads from the matrices.

Conventions: basis vectors carry (grade l, bidegree (p, q)) labels with
p + q = l + k; conjugation is the antilinear map v -> C * conj(v); the
pairing is the bilinear (not sesquilinear) matrix Q, and Hermitian forms are
built explicitly as i^(p-q) * Q(u, T^l * conj(v)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import neg
from typing import Mapping, Sequence

from .exact import (
    Matrix,
    conj,
    echelon_basis,
    format_scalar,
    fractions_over,
    i_power,
    integer_rows,
    kernel_basis,
    first_nonpositive_minor,
    hermitian_pd,
    hermitian_psd,
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
    # basis positions by grade and by bidegree, keys sorted; every block of
    # an operator is sliced through these maps, so they are built once
    _grades: dict[int, list[int]] = field(init=False, repr=False, compare=False)
    _bidegrees: dict[tuple[int, int], list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        grades: dict[int, list[int]] = {}
        bidegrees: dict[tuple[int, int], list[int]] = {}
        for i, v in enumerate(self.vectors):
            grades.setdefault(v.grade, []).append(i)
            bidegrees.setdefault((v.p, v.q), []).append(i)
        object.__setattr__(self, "_grades", {l: grades[l] for l in sorted(grades)})
        object.__setattr__(self, "_bidegrees", {pq: bidegrees[pq] for pq in sorted(bidegrees)})

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def grade_indices(self) -> dict[int, list[int]]:
        return self._grades

    def bidegree_indices(self) -> dict[tuple[int, int], list[int]]:
        return self._bidegrees

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
    # per generator, its nonzero entries as per-row {col: numerator} dicts
    # over one positive integer denominator, and that denominator;
    # generators of degree (-1,-1) are mostly zero, so combine and
    # validate_structure touch only these
    numerators: tuple[tuple[list[dict], int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "numerators", tuple(map(_sparse_numerators, self.matrices)))

    def __len__(self) -> int:
        return len(self.names)

    def combine(self, coefficients: Sequence[Fraction], dim: int) -> Matrix:
        """sum_j c_j G_j for rational c_j: the generators' numerators summed
        over one common denominator, one scalar built per nonzero entry."""
        for c, mat in zip(coefficients, self.matrices):
            if c and (mat.rows, mat.cols) != (dim, dim):
                raise ValueError("shape mismatch")
        terms = [(c, rows, d) for c, (rows, d) in zip(coefficients, self.numerators) if c]
        denom = lcm(*(c.denominator * d for c, _, d in terms))
        sums = [[0] * dim for _ in range(dim)]
        for c, rows, d in terms:
            s = c.numerator * (denom // (c.denominator * d))
            for out, row in zip(sums, rows):
                for j, e in row.items():
                    out[j] += s * e
        return Matrix([fractions_over(row, denom) for row in sums], dim, dim)


@dataclass(frozen=True)
class Sl2Triple:
    y: Matrix
    n: Matrix
    n_plus: Matrix


@dataclass(frozen=True)
class HLModule:
    """A polarized Hodge-Lefschetz module and the cone its tuples come from.

    ``cone`` stores the convex cone K of the mixed theorems as a Hermitian
    pencil, one matrix K_j per generator under the generator's name, so
    that ``combine`` assembles sum_j c_j K_j: K = {c : sum_j c_j K_j > 0}.
    A module without one has the open ray {lambda N0 : lambda > 0} of its
    reference N0 as K, certified by the reference's own polarization.
    ``structure`` and ``polarization`` are the ``validate_structure`` and
    reference ``polarization_check`` reports the module was built or loaded
    with; the constructor and ``dataclasses.replace`` leave them None, so
    they never outlive the data they describe.
    """

    space: GradedSpace
    form: PolarizationForm
    family: OperatorFamily
    reference: tuple[Fraction, ...]
    cone: OperatorFamily | None = None
    structure: CheckReport | None = field(default=None, init=False, repr=False, compare=False)
    polarization: CheckReport | None = field(default=None, init=False, repr=False, compare=False)

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


def product_block(module: HLModule, mats: Sequence[Matrix], start) -> Matrix:
    """Matrix of T_1 ... T_t from the piece ``start`` down t steps.

    ``start`` is a grade l, for the chain V_l -> V_{l-2} -> ..., or a
    bidegree (p, q), for V^{p,q} -> V^{p-1,q-1} -> ...; every factor is
    sliced through the index maps of the space.  The rightmost factor acts
    first; since the family commutes the order is immaterial, but the
    convention matches operator-product notation.
    """
    by_bidegree = isinstance(start, tuple)
    pieces = module.space.bidegree_indices() if by_bidegree else module.space.grade_indices()
    src = pieces.get(start, [])
    current = None  # the identity of the start piece, until the first factor
    for mat in reversed(mats):
        start = (start[0] - 1, start[1] - 1) if by_bidegree else start - 2
        dst = pieces.get(start, [])
        block = mat.submatrix(dst, src)
        current = block if current is None else block * current
        src = dst
    return Matrix.identity(len(src)) if current is None else current


def _chain_columns(module: HLModule, mats: Sequence[Matrix]) -> list[tuple]:
    """T_1 ... T_t e_i for every basis vector e_i, in ambient coordinates.

    One :func:`product_block` per source bidegree; for t = 0 these are the
    unit vectors.
    """
    bi = module.space.bidegree_indices()
    t = len(mats)
    columns: list[tuple] = [()] * module.dim
    for (p, q), src in bi.items():
        dst = bi.get((p - t, q - t), [])
        block = product_block(module, mats, (p, q))
        for j, i in enumerate(src):
            columns[i] = _embed(block.column(j), dst, module.dim)
    return columns


def _pairing(module: HLModule, vectors: Sequence[Sequence], src: tuple[int, int], dst: tuple[int, int], twisted: Matrix) -> Matrix:
    """The matrix Q(u, w) over u in ``vectors``, ambient vectors in V^src,
    and w the columns of ``twisted``, given in V^dst coordinates."""
    bi = module.space.bidegree_indices()
    rows = bi.get(src, [])
    coords = Matrix([[v[i] for i in rows] for v in vectors], len(vectors), len(rows))
    return coords * (module.form.matrix.submatrix(rows, bi.get(dst, [])) * twisted)


def _vector_witness(v: Sequence) -> list[str]:
    return [format_scalar(e) for e in v]


# ---------------------------------------------------------------------------
# Structural validation
# ---------------------------------------------------------------------------


def _sparse(m: Matrix) -> list[dict]:
    """The nonzero entries of ``m`` as one ``{col: value}`` dict per row."""
    return [{j: e for j, e in enumerate(row) if e} for row in m.data]


def _sparse_numerators(m: Matrix) -> tuple[list[dict], int]:
    """:func:`_sparse` rows times one common denominator d > 0, and d."""
    rows = _sparse(m)
    ints, d = integer_rows([row.values() for row in rows])
    return [dict(zip(row, values)) for row, values in zip(rows, ints)], d


def _sparse_map(rows: list[dict], f) -> list[dict]:
    return [{j: f(e) for j, e in row.items()} for row in rows]


def _sparse_transpose(rows: list[dict]) -> list[dict]:
    out: list[dict] = [{} for _ in rows]
    for i, row in enumerate(rows):
        for j, e in row.items():
            out[j][i] = e
    return out


def _sparse_mul(a: list[dict], b: list[dict]) -> list[dict]:
    """The product of two square sparse matrices, zeros dropped, so equal
    products compare equal as lists of dicts."""
    out = []
    for row in a:
        acc: dict = {}
        for t, x in row.items():
            for j, y in b[t].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: v for j, v in acc.items() if v})
    return out


def _support(rows: list[dict]) -> list[tuple[int, int]]:
    """Nonzero positions (i, j), row-major; on a transpose, (col, row) column-major."""
    return [(i, j) for i, row in enumerate(rows) for j in sorted(row)]


@timed
def validate_structure(module: HLModule) -> CheckReport:
    """Check every structural axiom of the module data.

    Products of C, Q and the generators are taken and compared on nonzero
    entries; the witness scans visit only nonzero positions, in row- or
    column-major order, so each reports the first offending position.
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
    vecs = module.space.vectors
    bad = next(
        (
            {"id": v.ident, "grade": v.grade, "p": v.p, "q": v.q}
            for v in vecs
            if v.p + v.q != v.grade + k or not (0 <= v.p <= k) or not (0 <= v.q <= k) or abs(v.grade) > k
        ),
        None,
    )
    rep.add("bigrading-consistency", bad is None, bad)

    bi = module.space.bidegree_indices()
    sym_bad = next(({"p": p_, "q": q_} for (p_, q_), idx in bi.items() if len(bi.get((q_, p_), [])) != len(idx)), None)
    rep.add("bidegree-dimension-symmetry", sym_bad is None, sym_bad)

    # products and comparisons run on numerators: C = c_rows / dc, Q = q_rows / dq
    c_rows, dc = _sparse_numerators(conj_m)
    q_rows, _ = _sparse_numerators(q)

    # conjugation: involution and (p,q) <-> (q,p) swap
    invol = _sparse_mul(c_rows, _sparse_map(c_rows, conj)) == [{i: dc * dc} for i in range(n)]
    rep.add("conjugation-involution", invol)

    swap_bad = next(
        (
            {"column": j, "row": i}
            for j, i in _support(_sparse_transpose(c_rows))
            if (vecs[i].p, vecs[i].q) != (vecs[j].q, vecs[j].p)
        ),
        None,
    )
    rep.add("conjugation-bidegree-swap", swap_bad is None, swap_bad)

    det_q = q.det()
    rep.add("form-nondegenerate", bool(det_q), None if det_q else {"det": "0"})

    orth_bad = next(
        (
            {"i": i, "j": j, "value": format_scalar(q.data[i][j])}
            for i, j in _support(q_rows)
            if vecs[i].grade + vecs[j].grade != 0
        ),
        None,
    )
    rep.add("form-graded-orthogonality", orth_bad is None, orth_bad)

    # Q_ji = parity * Q_ij can fail only where Q or its transpose is nonzero
    parity = module.form.parity
    support = set(_support(q_rows))
    parity_bad = next(
        (
            {"i": i, "j": j, "q_ij": format_scalar(q.data[i][j]), "q_ji": format_scalar(q.data[j][i]), "parity": parity}
            for i, j in sorted(support | {(j, i) for i, j in support})
            if q_rows[j].get(i, 0) != parity * q_rows[i].get(j, 0)
        ),
        None,
    )
    rep.add("form-parity", parity_bad is None, parity_bad)

    cqc = _sparse_mul(_sparse_mul(_sparse_transpose(c_rows), q_rows), c_rows)
    real_ok = cqc == _sparse_map(q_rows, lambda e: conj(e) * dc * dc)
    rep.add("form-real", real_ok)

    # operator family axioms; both sides of each equation carry the same scale
    names, gens = module.family.names, [rows for rows, _ in module.family.numerators]
    commute_bad = next(
        (
            {"first": names[a], "second": names[b]}
            for a in range(len(gens))
            for b in range(a + 1, len(gens))
            if _sparse_mul(gens[a], gens[b]) != _sparse_mul(gens[b], gens[a])
        ),
        None,
    )
    rep.add("operators-commute", commute_bad is None, commute_bad)

    for name, rows in zip(names, gens):
        cols = _sparse_transpose(rows)
        degree_bad = next(
            (
                {"generator": name, "column": j, "row": i}
                for j, i in _support(cols)
                if (vecs[i].grade, vecs[i].p, vecs[i].q) != (vecs[j].grade - 2, vecs[j].p - 1, vecs[j].q - 1)
            ),
            None,
        )
        rep.add(f"operator-bidegree[{name}]", degree_bad is None, degree_bad)

        skew = _sparse_mul(cols, q_rows) == _sparse_mul(q_rows, _sparse_map(rows, neg))
        rep.add(f"operator-skew[{name}]", skew, None if skew else {"generator": name})

        real = _sparse_mul(rows, c_rows) == _sparse_mul(c_rows, _sparse_map(rows, conj))
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


def _power_ranks(module: HLModule, t: Matrix):
    """(l, dim V_l, rank of T^l on V_l) for each nonempty grade l >= 1, lazily.

    A grade whose dimension differs from dim V_{-l} raises
    :class:`InvalidModuleError` when the iteration reaches it.
    """
    dims = module.space.grade_dims()
    for l in range(1, module.weight + 1):
        d_top, d_bot = dims.get(l, 0), dims.get(-l, 0)
        if d_top != d_bot:
            raise InvalidModuleError(f"dim-mismatch: dim V_{l} = {d_top} != {d_bot} = dim V_{-l}")
        if d_top:
            yield l, d_top, product_block(module, [t] * l, l).rank()


def _is_lefschetz(module: HLModule, t: Matrix) -> bool:
    return all(rank == dim for _, dim, rank in _power_ranks(module, t))


def _lefschetz_operator(module: HLModule, coeffs) -> Matrix:
    """The operator of ``coeffs``, certified to have the Lefschetz property."""
    t = module.operator(coeffs)
    if not _is_lefschetz(module, t):
        raise PreconditionError("operator does not satisfy the Lefschetz property")
    return t


@timed
def lefschetz_report(module: HLModule, coeffs) -> CheckReport:
    """Per-grade rank report for the Lefschetz property of one operator."""
    rep = CheckReport("lefschetz-property", "hard-lefschetz")
    try:
        t = module.operator(coeffs)
        for l, dim, rank in _power_ranks(module, t):
            rep.add(
                f"power-rank[l={l}]",
                rank == dim,
                None if rank == dim else {"grade": l, "rank": rank, "dim": dim},
            )
    except (PreconditionError, InvalidModuleError) as exc:
        return rep.mark_input_error(str(exc))
    return rep


def _kernel(module: HLModule, mats: Sequence[Matrix], grade: int) -> list[tuple]:
    """Basis of ker(T_1 ... T_t) in V_grade, in ambient coordinates."""
    idx = module.space.grade_indices().get(grade, [])
    kern, _ = kernel_basis(product_block(module, mats, grade))
    return [_embed(v, idx, module.dim) for v in kern]


def _ambient_kernel(module: HLModule, mats: Sequence[Matrix]) -> list[tuple[tuple, int]]:
    """Basis of ker(T_1 ... T_t) on the whole space, with the grade of each vector.

    The grade kernels, sorted by last nonzero coordinate: a kernel_basis
    vector ends at its free column, and the product maps each grade into its
    own target grade, so this is the kernel basis of the full product.
    """
    kern = []
    for grade in module.space.grade_indices():
        kern += [(v, grade) for v in _kernel(module, mats, grade)]
    kern.sort(key=lambda vg: max(i for i, e in enumerate(vg[0]) if e))
    return kern


def _decomposition(module: HLModule, mats: Sequence[Matrix], grade: int):
    """Split V_grade into ker(T_1 ... T_t) and T_t V_{grade+2}, t = len(mats).

    Returns the kernel and image bases (ambient coordinates), whether they
    form a basis of V_grade, and an intersection witness or None: the kernel
    part of a dependency between them, a nonzero vector in both spans.  The
    Lefschetz decomposition is the constant tuple ``[T] * (grade + 1)``.
    """
    gi = module.space.grade_indices()
    idx = gi.get(grade, [])
    kernel = _kernel(module, mats, grade)
    image: list[tuple] = []
    if gi.get(grade + 2) and idx:
        block = product_block(module, mats[-1:], grade + 2)
        image = [_embed(v, idx, module.dim) for v in echelon_basis(block.columns())]
    combined = Matrix.from_columns(kernel + image, module.dim)
    combos, _ = kernel_basis(combined)
    witness = None
    if combos:
        part = combos[0][: len(kernel)]
        witness = _vector_witness(Matrix.from_columns(kernel, module.dim).apply(part))
    return kernel, image, not combos and combined.cols == len(idx), witness


def primitive_subspace(module: HLModule, coeffs, level: int) -> list[tuple]:
    """Basis of ker(T^{l+1}) within V_l, in ambient coordinates."""
    if level < 0:
        raise PreconditionError("primitive grade must be nonnegative")
    t = _lefschetz_operator(module, coeffs)
    return _kernel(module, [t] * (level + 1), level)


def lefschetz_decomposition(module: HLModule, coeffs, grade: int) -> tuple[list[tuple], list[tuple]]:
    """Primitive and image summands of V_grade; their union is a basis.

    Raises :class:`ConstructionError` with an intersection witness if the two
    families fail to be independent, which signals an invalid module.
    """
    if grade < 0:
        raise PreconditionError("decomposition grade must be nonnegative")
    t = _lefschetz_operator(module, coeffs)
    primitive, image, direct, witness = _decomposition(module, [t] * (grade + 1), grade)
    if not direct:
        raise ConstructionError(
            f"Lefschetz decomposition failed at grade {grade}: "
            f"dims ({len(primitive)}, {len(image)}) vs {module.space.grade_dims().get(grade, 0)}; "
            f"witness={witness}"
        )
    return primitive, image


# ---------------------------------------------------------------------------
# sl2 completion
# ---------------------------------------------------------------------------


def sl2_complete(module: HLModule, coeffs) -> Sl2Triple:
    """The unique degree +2 completion of (Y, T) to an sl2-triple.

    Each primitive v of grade l spans the string v, T v, ..., T^l v, on
    which N+ T^j v = j (l - j + 1) T^(j-1) v; the strings of the primitive
    bases form a basis B of the module by the Lefschetz decomposition, so
    N+ is the solution of N+ B = M for the images M of the string vectors.
    All three commutation relations are verified on the result.
    """
    t = _lefschetz_operator(module, coeffs)
    y = module.grading_operator()
    n = module.dim

    strings: list[list] = []
    images: list[list] = []
    for level in range(module.weight + 1):
        for v in _kernel(module, [t] * (level + 1), level):
            string = [v]
            for _ in range(level):
                string.append(t.apply(string[-1]))
            strings += string
            images.append([Fraction(0)] * n)
            images += [[j * (level - j + 1) * e for e in string[j - 1]] for j in range(1, level + 1)]
    if len(strings) != n:
        raise ConstructionError(f"no-basis: {len(strings)} string vectors in dimension {n}")
    try:
        inverse = Matrix.from_columns(strings, n).inverse()
    except ValueError:
        raise ConstructionError("no-basis: the primitive strings are linearly dependent") from None
    n_plus = Matrix.from_columns(images, n) * inverse

    comm1 = n_plus * t - t * n_plus
    comm2 = y * n_plus - n_plus * y
    comm3 = y * t - t * y
    if comm1 != y or comm2 != n_plus.scale(Fraction(2)) or comm3 != t.scale(Fraction(-2)):
        raise ConstructionError("sl2 commutation relations failed after solving")
    return Sl2Triple(y=y, n=t, n_plus=n_plus)


# ---------------------------------------------------------------------------
# Polarization and the cone
# ---------------------------------------------------------------------------


def _kernel_form(module: HLModule, mats: Sequence[Matrix], p: int, q: int) -> tuple[Matrix, list[tuple], tuple | None]:
    """The form i^(p-q) Q(u, T_1 ... T_{t-1} conj v) on ker(T_1 ... T_t) in V^{p,q}.

    Returns the form, the kernel basis K (ambient coordinates) and the
    twisted images T_1 ... T_{t-1} C conj(K), as the bidegree they lie in
    and their block there (None when the kernel is 0).  Every factor is a
    block, so the form is i^(p-q) K^T Q_blk chain C_blk conj(K).  The
    primitive form of level l is the constant tuple ``[T] * (l + 1)``.
    """
    bi = module.space.bidegree_indices()
    idx = bi.get((p, q), [])
    kern = kernel_basis(product_block(module, mats, (p, q)))[0] if idx else []
    vectors = [_embed(v, idx, module.dim) for v in kern]
    if not kern:
        return Matrix([], 0, 0), vectors, None
    conj_kern = Matrix.from_columns([[conj(e) for e in v] for v in kern], len(idx))
    swap = module.space.conjugation.submatrix(bi.get((q, p), []), idx)
    twisted = product_block(module, mats[:-1], (q, p)) * (swap * conj_kern)
    dst = (q - len(mats) + 1, p - len(mats) + 1)
    form = _pairing(module, vectors, (p, q), dst, twisted).scale(i_power(p - q))
    return form, vectors, (dst, twisted)


def hermitian_primitive_form(module: HLModule, t: Matrix, level: int, p: int, q: int) -> tuple[Matrix, list[tuple]]:
    """The form i^(p-q) Q(u, T^l conj v) on the (p, q) primitive part of V_l."""
    h, vectors, _ = _kernel_form(module, [t] * (level + 1), p, q)
    return h, vectors


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
            h, vectors, twisted = _kernel_form(module, [t] * (level + 1), p, q)
            if not vectors:
                continue
            pieces[(p, q)] = (vectors, twisted)
            _add_positivity(rep, h, f"l={level},p={p},q={q}", {"level": level, "p": p, "q": q})

        for (p1, q1), (vectors, _) in sorted(pieces.items()):
            for (p2, q2), (_, (dst, twisted)) in sorted(pieces.items()):
                if (p1, q1) == (p2, q2):
                    continue
                orthogonal = _pairing(module, vectors, (p1, q1), dst, twisted).is_zero()
                rep.add(
                    f"orthogonality[l={level},({p1},{q1})x({p2},{q2})]",
                    orthogonal,
                    None if orthogonal else {"level": level, "from": [p1, q1], "to": [p2, q2]},
                )
    return rep


def _add_positivity(rep: CheckReport, h: Matrix, label: str, where: dict, vectors: Sequence[Sequence] | None = None) -> None:
    """Add the hermitian / positive-definite subcheck of the form ``h`` on one piece.

    ``label`` names the subcheck and ``where`` opens its witness; with the
    basis ``vectors`` of the piece, the witness of a nonpositive minor also
    carries the basis vector at which that minor ends.
    """
    if not h.is_hermitian():
        rep.add(f"hermitian[{label}]", False, dict(where))
        return
    bad = first_nonpositive_minor(h)
    witness = None
    if bad is not None:
        witness = {**where, "minor-index": bad[0], "minor": format_scalar(bad[1])}
        if vectors is not None:
            witness["witness"] = _vector_witness(vectors[bad[0] - 1])
    rep.add(f"positive-definite[{label}]", bad is None, witness)


def _certify_module(module: HLModule, error: type[Exception]) -> None:
    """Raise ``error`` unless the module satisfies its structural axioms and
    its reference operator polarizes it.

    :func:`polarization_check` certifies the Lefschetz property first (its
    ``lefschetz-precondition`` subcheck), so this ranks each T^l once.  The
    reports are kept as ``module.structure`` and ``module.polarization``.
    """
    rep = validate_structure(module)
    object.__setattr__(module, "structure", rep)
    if rep.passed:
        rep = polarization_check(module, module.reference)
        object.__setattr__(module, "polarization", rep)
    if not rep.passed:
        reasons = [s.name for s in rep.failures()] or [rep.data.get("error", "")]
        raise error(f"module fails {rep.check}: " + "; ".join(reasons))


def _polarizes(module: HLModule, coeffs) -> bool:
    """Lefschetz plus polarization for one operator; a grade dimension
    mismatch raises :class:`InvalidModuleError`."""
    t = module.operator(coeffs)
    if not _is_lefschetz(module, t):
        return False
    return _polarization(module, t, CheckReport("polarization", "hodge-riemann-unmixed")).passed


def _on_ray(module: HLModule, c: Sequence[Fraction], closed: bool) -> bool:
    """c = lambda N0 with lambda > 0 (>= 0 when ``closed``), for a reference
    N0 that polarizes the module."""
    ref = module.reference
    pivot = next((i for i, r in enumerate(ref) if r), None)
    lam = c[pivot] / ref[pivot] if pivot is not None else 1
    on = (lam >= 0 if closed else lam > 0) and all(a == lam * b for a, b in zip(c, ref))
    return on and _polarizes(module, ref)


def _pencil_at(module: HLModule, c: Sequence[Fraction]) -> Matrix:
    """sum_j c_j K_j over the module's cone pencil."""
    return module.cone.combine(c, module.cone.matrices[0].rows)


def cone_membership(module: HLModule, coeffs) -> bool:
    """Membership of ``coeffs`` in the module's cone K.

    With a pencil this is one :func:`hermitian_pd` of sum_j c_j K_j; the
    paper's theorems hold for every tuple of elements of K, which is
    convex.  Without one, K is the ray of the reference, whose Lefschetz
    check raises :class:`InvalidModuleError` on a grade dimension mismatch.
    ``polarization_check(module, coeffs).passed`` is the test for one
    operator on its own.
    """
    c = module.coefficients(coeffs)
    if not module.cone:
        return _on_ray(module, c, closed=False)
    return hermitian_pd(_pencil_at(module, c))


def closed_cone_membership(module: HLModule, coeffs) -> bool:
    """Membership of ``coeffs`` in the closure of the module's cone K.

    With a pencil: sum_j c_j K_j is positive semidefinite
    (:func:`hermitian_psd`, from the signs of the coefficients of its
    characteristic polynomial; for the diagonal pencil of a polytope, the
    signs of its entries), and the reference lies in K.  K is then not
    empty, so its closure is the set of semidefinite points of the pencil,
    and c + lambda N0 lies in K for every lambda > 0.  Without a pencil,
    c = lambda N0 with lambda >= 0.
    """
    c = module.coefficients(coeffs)
    if not module.cone:
        return _on_ray(module, c, closed=True)
    if not hermitian_pd(_pencil_at(module, module.reference)):
        return False
    return hermitian_psd(_pencil_at(module, c))


def sample_cone_element(module: HLModule, rng) -> tuple:
    """A random element of the module's cone K near the reference.

    Draws rational perturbations of the reference coefficients, of size at
    most 1/16, and certifies each with :func:`cone_membership`, halving the
    size after every ten failures.  Raises :class:`PreconditionError` when
    none of 60 draws is certified, as on a module whose K is the ray of the
    reference and which has more than one generator.
    """
    base = module.reference
    scale = Fraction(1, 4)
    for attempt in range(60):
        cand = tuple(
            b + Fraction(rng.randint(-16, 16), 64) * scale for b in base
        )
        if cone_membership(module, cand):
            return cand
        if attempt % 10 == 9:
            scale = scale / 2
    raise PreconditionError("no certified cone element near the reference in 60 draws")


def sample_cone_tuple(module: HLModule, rng, length: int) -> tuple:
    return tuple(sample_cone_element(module, rng) for _ in range(length))
