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
decomposition and the twisted forms (``_decomposition_dims``, from ranks,
with the bases of ``_decomposition`` only for a witness; ``_kernel_form``),
which the unmixed checks call with the constant tuple ``[T] * (l + 1)`` and
the mixed checkers in :mod:`hlmod.mixed` with the sampled tuple.  sl2
completion solves for N+ on each grade, from the strings v, T v, ..., T^l v
of the primitives v.  Descent reads whole products off the chain as well:
``_chain_columns`` sets T_1 ... T_t e_i for every basis vector into the
rows of one matrix and ``_ambient_kernel`` gives the kernel basis of the
product on the whole space, one block at a time.
The structural axioms are checked on nonzero entries: ``validate_structure``
reads C, Q and the generators as their sparse views, per-row
``{col: numerator}`` dicts of their numerators in Z[i]
(:meth:`~hlmod.exact.Matrix.sparse_numerators`), multiplies and compares
them sparsely at a common scale, and scans only nonzero positions for
witnesses, whose values it reads from the matrices; ``combine`` adds only
the entries of the generators' views into the sum it returns.

Conventions: basis vectors carry (grade l, bidegree (p, q)) labels with
p + q = l + k; conjugation is the antilinear map v -> C * conj(v); the
pairing is the bilinear (not sesquilinear) matrix Q, and Hermitian forms are
built explicitly as i^(p-q) * Q(u, T^l * conj(v)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from operator import neg
from typing import Callable, Mapping, Sequence

from .exact import (
    Matrix,
    conj,
    echelon_basis,
    format_scalar,
    hstack,
    i_power,
    kernel_basis,
    first_nonpositive_minor,
    greedy_echelon,
    hermitian_pd,
    hermitian_psd,
    integer_rows,
)
from .report import INPUT_ERROR, CheckReport


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
    grade: int
    p: int
    q: int


@dataclass(frozen=True)
class GradedSpace:
    weight: int
    vectors: tuple[BasisVector, ...]
    conjugation: Matrix

    @cached_property
    def _index_maps(self) -> tuple[dict[int, list[int]], dict[tuple[int, int], list[int]]]:
        """Basis positions by grade and by bidegree, keys sorted; every block
        of an operator is sliced through these maps, so they are built once."""
        grades: dict[int, list[int]] = {}
        bidegrees: dict[tuple[int, int], list[int]] = {}
        for i, v in enumerate(self.vectors):
            grades.setdefault(v.grade, []).append(i)
            bidegrees.setdefault((v.p, v.q), []).append(i)
        return {l: grades[l] for l in sorted(grades)}, {pq: bidegrees[pq] for pq in sorted(bidegrees)}

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def grade_indices(self) -> dict[int, list[int]]:
        return self._index_maps[0]

    def bidegree_indices(self) -> dict[tuple[int, int], list[int]]:
        return self._index_maps[1]

    def grade_dims(self) -> dict[int, int]:
        return {l: len(ix) for l, ix in self.grade_indices().items()}


@dataclass(frozen=True)
class OperatorFamily:
    names: tuple[str, ...]
    matrices: tuple[Matrix, ...]

    def __len__(self) -> int:
        return len(self.names)

    def combine(self, coefficients: Sequence[Fraction], dim: int) -> Matrix:
        """sum_j c_j G_j for rational c_j: the nonzero numerators of the
        generators (their sparse views), scaled to one common denominator
        and added into a carrier with no scalar built."""
        terms = []
        for c, mat in zip(coefficients, self.matrices):
            if c:
                if (mat.rows, mat.cols) != (dim, dim):
                    raise ValueError("shape mismatch")
                terms.append((c, *mat.sparse_numerators()))
        denom = lcm(*(c.denominator * d for c, _, d in terms))
        out = [[0] * dim for _ in range(dim)]
        for c, rows, d in terms:
            s = c.numerator * (denom // (c.denominator * d))
            for acc, row in zip(out, rows):
                if row:
                    for j, e in row.items():
                        acc[j] += s * e
        return Matrix.over(out, denom, dim)


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
    ``form`` is the pairing Q, of parity (-1)^k, and a basis vector's id is
    its position.  Its certificates are functions of the data, each computed
    on first read and kept: ``structure`` (:func:`validate_structure`),
    ``lefschetz`` (the reference's rank report), ``polarization`` (its
    :func:`polarization_check`, premised on ``lefschetz``) and
    ``reference_in_cone``.
    ``dataclasses.replace`` starts a copy with none of them and with
    ``_operators`` empty: :meth:`operator` combined per coefficient vector.
    """

    space: GradedSpace
    form: Matrix
    family: OperatorFamily
    reference: tuple[Fraction, ...]
    cone: OperatorFamily | None = None
    _operators: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def structure(self) -> CheckReport:
        return validate_structure(self)

    @cached_property
    def lefschetz(self) -> CheckReport:
        return _rank_report(self, self.operator(self.reference))

    @cached_property
    def polarization(self) -> CheckReport:
        return polarization_check(self, self.reference)

    @cached_property
    def reference_in_cone(self) -> bool:
        return hermitian_pd(_pencil_at(self, self.reference))

    @property
    def weight(self) -> int:
        return self.space.weight

    @property
    def dim(self) -> int:
        return self.space.dim

    def coefficients(self, coeffs) -> tuple[Fraction, ...]:
        """Normalize a coefficient vector over the named generators (a tuple of Fractions as it is)."""
        if type(coeffs) is tuple and len(coeffs) == len(self.family.names) and all(type(c) is Fraction for c in coeffs):
            return coeffs
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
        c = self.coefficients(coeffs)
        t = self._operators.get(c)
        if t is None:
            t = self._operators[c] = self.family.combine(c, self.dim)
        return t

    def grading_operator(self) -> Matrix:
        return Matrix.diagonal([Fraction(v.grade) for v in self.space.vectors])


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


def _chain_columns(module: HLModule, mats: Sequence[Matrix]) -> Matrix:
    """The matrix whose row i is T_1 ... T_t e_i, in ambient coordinates.

    One :func:`product_block` per source bidegree, transposed into the rows
    of its sources; for t = 0 this is the identity.
    """
    bi = module.space.bidegree_indices()
    t = len(mats)
    blocks = ((src, bi.get((p - t, q - t), []), product_block(module, mats, (p, q)).transpose()) for (p, q), src in bi.items())
    return Matrix.from_blocks(module.dim, module.dim, blocks)


def _pairing(module: HLModule, coords: Matrix, src: tuple[int, int], dst: tuple[int, int], twisted: Matrix) -> Matrix:
    """The matrix Q(u, w) over u the rows of ``coords``, vectors of V^src in
    its coordinates, and w the columns of ``twisted``, given in V^dst
    coordinates."""
    bi = module.space.bidegree_indices()
    return coords * (module.form.submatrix(bi.get(src, []), bi.get(dst, [])) * twisted)


def _vector_witness(v: Sequence) -> list[str]:
    return [format_scalar(e) for e in v]


# ---------------------------------------------------------------------------
# Structural validation
# ---------------------------------------------------------------------------


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


def _span_basis(gens: Sequence[list[dict]]) -> list[int]:
    """The indices of the generators independent over Q of those before them:
    :func:`~hlmod.exact.greedy_echelon` of their numerators, real and imaginary parts apart."""
    return greedy_echelon(
        {(i, j, part): x for i, row in enumerate(rows) for j, e in row.items() for part, x in enumerate((e.real, e.imag)) if x}
        for rows in gens
    )[0]


def _commute(a: list[dict], b: list[dict]) -> bool:
    return _sparse_mul(a, b) == _sparse_mul(b, a)


def _skew(rows: list[dict], cols: list[dict], q_rows: list[dict]) -> bool:
    """G^T Q = -Q G, for G with ``rows`` and transpose ``cols``."""
    return _sparse_mul(cols, q_rows) == _sparse_mul(q_rows, _sparse_map(rows, neg))


def _conjugation_products(c_rows: list[dict]):
    """A -> A C and A -> C A on sparse rows: when C holds one nonzero s_i per
    row i and per column (on every built module), by relabelling each entry
    and scaling it by s_i; else by :func:`_sparse_mul`."""
    sigma = [j for row in c_rows if len(row) == 1 for j in row]
    if len(set(sigma)) < len(c_rows):
        return lambda a: _sparse_mul(a, c_rows), lambda a: _sparse_mul(c_rows, a)
    s = [x for row in c_rows for x in row.values()]
    return (
        lambda a: [{sigma[j]: e * s[j] for j, e in row.items()} for row in a],
        lambda a: [{j: x * e for j, e in a[t].items()} for t, x in zip(sigma, s)],
    )


def validate_structure(module: HLModule) -> CheckReport:
    """Check every structural axiom of the module data.

    Products of C, Q and the generators are taken and compared on nonzero
    entries, those with a C of one nonzero per row and column by relabelling
    (:func:`_conjugation_products`); the witness scans visit only nonzero
    positions, in row- or column-major order, so each reports the first
    offending position.
    Dimension mismatches are reported with verdict ``input-error`` so they
    are never confused with a failed mathematical check.  The parity of Q
    is (-1)^k, read off the weight k.

    The operator axioms G C = C conj(G), G^T Q = -Q G and commutation are
    (bi)linear over Q, so checking them on a basis of the generators' span
    (:func:`_span_basis`) certifies every generator: cube4's 8 facet
    generators span 4 dimensions, and 6 pairs stand for all 28.  After a
    basis failure every pair and generator is checked, for the witnesses.
    """
    rep = CheckReport("validate-structure", "module-definition")
    n = module.dim
    k = module.weight

    conj_m = module.space.conjugation
    q = module.form
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

    # bigrading consistency: p + q = l + k with labels inside [0, k]
    vecs = module.space.vectors
    bad = next(
        (
            {"id": i, "grade": v.grade, "p": v.p, "q": v.q}
            for i, v in enumerate(vecs)
            if v.p + v.q != v.grade + k or not (0 <= v.p <= k) or not (0 <= v.q <= k) or abs(v.grade) > k
        ),
        None,
    )
    rep.add("bigrading-consistency", bad is None, bad)

    bi = module.space.bidegree_indices()
    sym_bad = next(({"p": p_, "q": q_} for (p_, q_), idx in bi.items() if len(bi.get((q_, p_), [])) != len(idx)), None)
    rep.add("bidegree-dimension-symmetry", sym_bad is None, sym_bad)

    # products and comparisons run on numerators: C = c_rows / dc, Q = q_rows / dq
    c_rows, dc = conj_m.sparse_numerators()
    q_rows, _ = q.sparse_numerators()

    times_c, c_times = _conjugation_products(c_rows)
    # conjugation: involution and (p,q) <-> (q,p) swap
    invol = c_times(_sparse_map(c_rows, conj)) == [{i: dc * dc} for i in range(n)]
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
    parity = (-1) ** k
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

    cqc = times_c(_sparse_transpose(times_c(_sparse_transpose(q_rows))))  # C^T Q C = (Q^T C)^T C
    real_ok = cqc == _sparse_map(q_rows, lambda e: conj(e) * dc * dc)
    rep.add("form-real", real_ok)

    # operator family axioms; both sides of each equation carry the same scale
    names, gens = module.family.names, [m.sparse_numerators()[0] for m in module.family.matrices]
    cols_of = [_sparse_transpose(rows) for rows in gens]
    basis = _span_basis(gens)
    span_ok = all(_commute(gens[a], gens[b]) for a, b in combinations(basis, 2)) and all(
        _skew(gens[a], cols_of[a], q_rows) and times_c(gens[a]) == c_times(_sparse_map(gens[a], conj)) for a in basis
    )
    commute_bad = None if span_ok else next(
        (
            {"first": names[a], "second": names[b]}
            for a, b in combinations(range(len(gens)), 2)
            if not _commute(gens[a], gens[b])
        ),
        None,
    )
    rep.add("operators-commute", commute_bad is None, commute_bad)

    for name, rows, cols in zip(names, gens, cols_of):
        degree_bad = next(
            (
                {"generator": name, "column": j, "row": i}
                for j, i in _support(cols)
                if (vecs[i].grade, vecs[i].p, vecs[i].q) != (vecs[j].grade - 2, vecs[j].p - 1, vecs[j].q - 1)
            ),
            None,
        )
        rep.add(f"operator-bidegree[{name}]", degree_bad is None, degree_bad)

        skew = span_ok or _skew(rows, cols, q_rows)
        rep.add(f"operator-skew[{name}]", skew, None if skew else {"generator": name})

        real = span_ok or times_c(rows) == c_times(_sparse_map(rows, conj))  # G C = C conj(G)
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
    for l in sorted({abs(g) for g in dims if 0 < abs(g) <= module.weight}):
        d_top, d_bot = dims.get(l, 0), dims.get(-l, 0)
        if d_top != d_bot:
            raise InvalidModuleError(f"dim-mismatch: dim V_{l} = {d_top} != {d_bot} = dim V_{-l}")
        if d_top:
            yield l, d_top, product_block(module, [t] * l, l).rank()


def _is_lefschetz(module: HLModule, t: Matrix) -> bool:
    return all(rank == dim for _, dim, rank in _power_ranks(module, t))


def _lefschetz_operator(module: HLModule, coeffs) -> Matrix:
    """The operator of ``coeffs``, certified Lefschetz (the reference by ``module.lefschetz``)."""
    t = module.operator(coeffs)
    if not (t is module.operator(module.reference) and module.lefschetz.passed or _is_lefschetz(module, t)):
        raise PreconditionError("operator does not satisfy the Lefschetz property")
    return t


def _rank_report(module: HLModule, t: Matrix) -> CheckReport:
    """Per-grade rank report for the Lefschetz property of the operator ``t``."""
    rep = CheckReport("lefschetz-property", "hard-lefschetz")
    try:
        for l, dim, rank in _power_ranks(module, t):
            rep.add(
                f"power-rank[l={l}]",
                rank == dim,
                None if rank == dim else {"grade": l, "rank": rank, "dim": dim},
            )
    except InvalidModuleError as exc:
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
    The checks build these bases only for a witness (:func:`_decomposition_dims`).
    """
    gi = module.space.grade_indices()
    idx = gi.get(grade, [])
    kernel = _kernel(module, mats, grade)
    image: list[tuple] = []
    if gi.get(grade + 2) and idx:
        block = product_block(module, mats[-1:], grade + 2)
        image = [_embed(v, idx, module.dim) for v in echelon_basis(block.transpose())]
    combined = Matrix.from_columns(kernel + image, module.dim)
    combos, _ = kernel_basis(combined)
    witness = None
    if combos:
        part = combos[0][: len(kernel)]
        witness = _vector_witness(Matrix.from_columns(kernel, module.dim).apply(part))
    return kernel, image, not combos and combined.cols == len(idx), witness


def _decomposition_dims(module: HLModule, mats: Sequence[Matrix], grade: int) -> tuple[int, int, bool, list | None]:
    """:func:`_decomposition` with dimensions for bases, from the ranks of P =
    T_1 ... T_t on V_grade and of T_t and P T_t on V_{grade+2}, which differ
    by dim(ker P ∩ image); only a sum that is not direct builds the bases."""
    dim = len(module.space.grade_indices().get(grade, []))
    block, image = product_block(module, mats, grade), product_block(module, mats[-1:], grade + 2)
    kernel_dim, image_dim = dim - block.rank(), image.rank()
    if kernel_dim + image_dim == dim and (block * image).rank() == image_dim:
        return kernel_dim, image_dim, True, None
    kernel, image, direct, witness = _decomposition(module, mats, grade)
    return len(kernel), len(image), direct, witness


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


def _lefschetz_dims(module: HLModule, coeffs, grade: int) -> tuple[int, int]:
    """The dimensions of the summands of :func:`lefschetz_decomposition` at a
    grade >= 0, from ranks; any other outcome is that function's error."""
    kernel_dim, image_dim, direct, _ = _decomposition_dims(module, [_lefschetz_operator(module, coeffs)] * (grade + 1), grade)
    return (kernel_dim, image_dim) if direct else tuple(map(len, lefschetz_decomposition(module, coeffs, grade)))


# ---------------------------------------------------------------------------
# sl2 completion
# ---------------------------------------------------------------------------


def sl2_complete(module: HLModule, coeffs) -> Sl2Triple:
    """The unique degree +2 completion of (Y, T) to an sl2-triple.

    Each primitive v of grade l spans the string v, T v, ..., T^l v, on
    which N+ T^j v = j (l - j + 1) T^(j-1) v; the strings of the primitive
    bases form a basis B of the module by the Lefschetz decomposition, so
    N+ B = M for the images M of the string vectors.  Each string vector
    lies in one grade g, so N+ = M_g B_g^-1 from V_g to V_{g+2}, and all
    three commutation relations are verified block by block.
    """
    t = _lefschetz_operator(module, coeffs)
    gi, dims, n = module.space.grade_indices(), module.space.grade_dims(), module.dim
    step = {g: product_block(module, [t], g) for g in gi}  # T: V_g -> V_{g-2}
    pieces = {g: [] for g in gi}  # blocks of string vectors in V_g, with their images in V_{g+2}
    for level in range(module.weight + 1):
        kern = kernel_basis(product_block(module, [t] * (level + 1), level))[0]
        if kern:
            s, image = Matrix.from_columns(kern, dims[level]), Matrix.zeros(dims.get(level + 2, 0), len(kern))
            for j in range(level + 1):
                pieces[level - 2 * j].append((s, image))
                image, s = s.scale((j + 1) * (level - j)), step[level - 2 * j] * s
    count = sum(s.cols for blocks in pieces.values() for s, _ in blocks)
    if count != n:
        raise ConstructionError(f"no-basis: {count} string vectors in dimension {n}")
    raising = {}  # N+: V_g -> V_{g+2}
    for g, blocks in pieces.items():
        try:
            inverse = hstack(Matrix.zeros(dims[g], 0), *(s for s, _ in blocks)).inverse()
        except ValueError:
            raise ConstructionError("no-basis: the primitive strings are linearly dependent") from None
        raising[g] = hstack(*(image for _, image in blocks)) * inverse
    n_plus = Matrix.from_blocks(n, n, ((gi.get(g + 2, []), gi[g], r) for g, r in raising.items()))
    grade = [v.grade for v in module.space.vectors]
    ok = all(grade[i] - grade[j] == deg for m, deg in ((t, -2), (n_plus, 2)) for i, j in _support(m.sparse_numerators()[0]))
    if not ok or any(
        raising.get(g - 2, Matrix.zeros(d, 0)) * step[g] - step.get(g + 2, Matrix.zeros(d, 0)) * raising[g]
        != Matrix.identity(d).scale(g)
        for g, d in dims.items()
    ):
        raise ConstructionError("sl2 commutation relations failed after solving")
    return Sl2Triple(y=module.grading_operator(), n=t, n_plus=n_plus)


# ---------------------------------------------------------------------------
# Polarization and the cone
# ---------------------------------------------------------------------------


def _bidegrees(module: HLModule, level: int) -> list[tuple[int, int]]:
    """The bidegrees (p, q) of the basis with p + q = level + k and
    0 <= p, q <= k, in increasing p: the pieces a form of that level reads."""
    k = module.weight
    return [(p, q) for p, q in module.space.bidegree_indices() if p + q == level + k and 0 <= p <= k and 0 <= q <= k]


def _kernel_form(module: HLModule, mats: Sequence[Matrix], p: int, q: int) -> tuple[Matrix, list[tuple], tuple | None]:
    """The form i^(p-q) Q(u, T_1 ... T_{t-1} conj v) on ker(T_1 ... T_t) in V^{p,q}.

    Returns the form, the kernel basis K in V^{p,q} coordinates and, when
    the kernel is not 0 (else None), the rows of K, with the bidegree that
    the twisted images T_1 ... T_{t-1} C conj(K) lie in and their block
    there.  Every factor is a block, so the form is
    i^(p-q) K^T Q_blk chain C_blk conj(K), all read from one carrier of K.
    The primitive form of level l is the constant tuple ``[T] * (l + 1)``.
    """
    bi = module.space.bidegree_indices()
    idx = bi.get((p, q), [])
    kern = kernel_basis(product_block(module, mats, (p, q)))[0] if idx else []
    if not kern:
        return Matrix([], 0, 0), kern, None
    columns = Matrix.from_columns(kern, len(idx))
    swap = module.space.conjugation.submatrix(bi.get((q, p), []), idx)
    twisted = product_block(module, mats[:-1], (q, p)) * (swap * columns.conjugate())
    dst = (q - len(mats) + 1, p - len(mats) + 1)
    coords = columns.transpose()
    form = _pairing(module, coords, (p, q), dst, twisted).scale(i_power(p - q))
    return form, kern, (coords, dst, twisted)


def polarization_check(module: HLModule, coeffs) -> CheckReport:
    """Positivity of the twisted Hermitian forms on every primitive piece.

    For each l >= 0 and each (p, q) with p + q = l + k the form
    i^(p-q) Q(u, T^l conj v) restricted to the (p, q) part of the primitive
    subspace must be Hermitian positive definite, and distinct (p, q) pieces
    must be orthogonal under Q(., T^l conj .).  The premise is T's rank
    report (``module.lefschetz`` for the reference): a failed rank makes the
    input error ``lefschetz-precondition``, a dimension mismatch its own.
    """
    rep = CheckReport("polarization", "hodge-riemann-unmixed")
    c = module.coefficients(coeffs)
    t = module.operator(c)
    ranks = module.lefschetz if c == module.reference else _rank_report(module, t)
    if ranks.failures():
        rep.add("lefschetz-precondition", False)
        rep.verdict = INPUT_ERROR
        return rep
    if not ranks.passed:
        return rep.mark_input_error(ranks.data["error"])
    for level in (l for l in module.space.grade_indices() if 0 <= l <= module.weight):
        pieces: dict[tuple[int, int], tuple[Matrix, tuple[int, int], Matrix]] = {}
        for p, q in _bidegrees(module, level):
            h, _, piece = _kernel_form(module, [t] * (level + 1), p, q)
            if piece is None:
                continue
            pieces[(p, q)] = piece
            _add_positivity(rep, h, f"l={level},p={p},q={q}", {"level": level, "p": p, "q": q})

        for (p1, q1), (coords, _, _) in sorted(pieces.items()):
            for (p2, q2), (_, dst, twisted) in sorted(pieces.items()):
                if (p1, q1) == (p2, q2):
                    continue
                orthogonal = _pairing(module, coords, (p1, q1), dst, twisted).is_zero()
                rep.add(
                    f"orthogonality[l={level},({p1},{q1})x({p2},{q2})]",
                    orthogonal,
                    None if orthogonal else {"level": level, "from": [p1, q1], "to": [p2, q2]},
                )
    return rep


def _add_positivity(rep: CheckReport, h: Matrix, label: str, where: dict, vector: Callable[[int], Sequence] | None = None) -> None:
    """Add the hermitian / positive-definite subcheck of the form ``h`` on one piece.

    ``label`` names the subcheck and ``where`` opens its witness; with
    ``vector``, position -> ambient basis vector of the piece, the witness of
    a nonpositive minor also carries the vector at which that minor ends.
    """
    if not h.is_hermitian():
        rep.add(f"hermitian[{label}]", False, dict(where))
        return
    bad = first_nonpositive_minor(h)
    witness = None
    if bad is not None:
        witness = {**where, "minor-index": bad[0], "minor": format_scalar(bad[1])}
        if vector is not None:
            witness["witness"] = _vector_witness(vector(bad[0] - 1))
    rep.add(f"positive-definite[{label}]", bad is None, witness)


def _certify_module(module: HLModule, error: type[Exception]) -> None:
    """Raise ``error`` unless the module satisfies its structural axioms and
    its reference operator polarizes it: reads ``module.structure``, then
    ``module.polarization``, which a check suite on the module reuses."""
    rep = module.structure
    if rep.passed:
        rep = module.polarization
    if not rep.passed:
        reasons = [s.name for s in rep.failures()] or [rep.data.get("error", "")]
        raise error(f"module fails {rep.check}: " + "; ".join(reasons))


def _on_ray(module: HLModule, c: Sequence[Fraction], closed: bool) -> bool:
    """c = lambda N0 with lambda > 0 (>= 0 when ``closed``), for a reference
    N0 that polarizes the module; raises InvalidModuleError on a grade
    dimension mismatch."""
    ref = module.reference
    pivot = next((i for i, r in enumerate(ref) if r), None)
    lam = c[pivot] / ref[pivot] if pivot is not None else 1
    on = (lam >= 0 if closed else lam > 0) and all(a == lam * b for a, b in zip(c, ref))
    if on and "error" in module.polarization.data:
        raise InvalidModuleError(module.polarization.data["error"])
    return on and module.polarization.passed


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
    (:func:`hermitian_psd`, by symmetric elimination with diagonal pivots;
    for the diagonal pencil of a polytope, the signs of its entries), and
    the reference lies in K (``module.reference_in_cone``, once per module).
    K is then not empty, so its closure is the set of semidefinite points of
    the pencil, and c + lambda N0 lies in K for every lambda > 0.  Without a
    pencil, c = lambda N0 with lambda >= 0.
    """
    c = module.coefficients(coeffs)
    if not module.cone:
        return _on_ray(module, c, closed=True)
    return module.reference_in_cone and hermitian_psd(_pencil_at(module, c))


def sample_cone_element(module: HLModule, rng) -> tuple:
    """A random element of the module's cone K near the reference.

    Draws rational perturbations of the reference coefficients, of size at
    most 1/16, and certifies each with :func:`cone_membership`, halving the
    size after every ten failures.  Each coefficient b + r / q, for the
    reference b = B / e, an integer r in [-16, 16] and q = 256 2^j, is the
    one Fraction (B q + r e) / (e q).  Raises :class:`PreconditionError` when
    none of 60 draws is certified, as on a module whose K is the ray of the
    reference and which has more than one generator.
    """
    (base,), e = integer_rows([module.reference])
    q = 256
    for attempt in range(60):
        cand = tuple(Fraction(b * q + rng.randint(-16, 16) * e, e * q) for b in base)
        if cone_membership(module, cand):
            return cand
        if attempt % 10 == 9:
            q *= 2
    raise PreconditionError("no certified cone element near the reference in 60 draws")


def sample_cone_tuple(module: HLModule, rng, length: int) -> tuple:
    return tuple(sample_cone_element(module, rng) for _ in range(length))
