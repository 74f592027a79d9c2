"""Checkers for products of polarizing-cone operators.

Each check takes a tuple of coefficient vectors over the module's
generators, certifies cone membership for every entry (unless explicitly
told not to, which the boundary-sensitivity tests rely on), and then
verifies one statement about the product operator: the kernel weight bound,
invertibility from grade t down to grade -t, the two-summand decomposition
of a middle grade, or positivity of the twisted Hermitian forms on the
kernel pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import (
    Matrix,
    echelon_basis,
    format_scalar,
    i_power,
    kernel_basis,
    leading_principal_minors,
    as_fraction,
)
from .hodge_lefschetz import (
    HLModule,
    PreconditionError,
    cone_membership,
    graded_block,
    product_block,
    _bidegree_product,
    _embed,
    _form_matrix,
    _twisted_images,
    _vector_witness,
)
from .report import CheckReport, timed


class ConeMembershipError(PreconditionError):
    """A tuple entry failed the polarizing-cone certificate."""


@dataclass(frozen=True)
class OperatorTuple:
    """A tuple of coefficient vectors; ``certified`` records that every
    entry carried a cone-membership certificate when it was validated."""

    coefficients: tuple[tuple[Fraction, ...], ...]
    certified: bool = True

    def __len__(self) -> int:
        return len(self.coefficients)


def validate_tuple(module: HLModule, entries, require_cone: bool = True) -> OperatorTuple:
    if isinstance(entries, OperatorTuple):
        return entries
    coeffs = []
    for pos, entry in enumerate(entries):
        c = module.coefficients(entry)
        if require_cone and not cone_membership(module, c):
            raise ConeMembershipError(f"tuple entry {pos} is not in the polarizing cone")
        coeffs.append(c)
    return OperatorTuple(tuple(coeffs), certified=require_cone)


def _matrices(module: HLModule, tuple_: OperatorTuple) -> list[Matrix]:
    return [module.operator(c) for c in tuple_.coefficients]


def _ambient_product(module: HLModule, mats: Sequence[Matrix]) -> Matrix:
    out = Matrix.identity(module.dim)
    for m in mats:
        out = out * m
    return out


@timed
def kernel_weight_bound(module: HLModule, entries, require_cone: bool = True) -> CheckReport:
    """ker(T_1 ... T_t) must live in the grades strictly below t."""
    rep = CheckReport("kernel-weight-bound", "kernel-weight-bound")
    tuple_ = validate_tuple(module, entries, require_cone)
    t = len(tuple_)
    if t > module.weight:
        raise PreconditionError("tuple length exceeds the weight")
    product = _ambient_product(module, _matrices(module, tuple_))
    kern, _ = kernel_basis(product)
    rep.data["kernel-dim"] = len(kern)
    rep.data["length"] = t
    bad = None
    for v in kern:
        for i, e in enumerate(v):
            if e and module.space.vectors[i].grade >= t:
                bad = {
                    "vector": _vector_witness(v),
                    "top-grade": max(
                        module.space.vectors[i2].grade for i2, e2 in enumerate(v) if e2
                    ),
                }
                break
        if bad:
            break
    rep.add("kernel-inside-weight-bound", bad is None, bad)
    return rep


@timed
def mixed_hlt_check(module: HLModule, entries, require_cone: bool = True) -> CheckReport:
    """T_1 ... T_t from grade t to grade -t must be exactly invertible."""
    rep = CheckReport("mixed-hard-lefschetz", "mixed-hard-lefschetz")
    tuple_ = validate_tuple(module, entries, require_cone)
    t = len(tuple_)
    if t > module.weight:
        raise PreconditionError("tuple length exceeds the weight")
    dims = module.space.grade_dims()
    d_top, d_bot = dims.get(t, 0), dims.get(-t, 0)
    if d_top != d_bot:
        return rep.mark_input_error(f"dim V_{t} = {d_top} != {d_bot} = dim V_{-t}")
    rep.data["dim"] = d_top
    rep.data["length"] = t
    if d_top == 0:
        rep.add("invertible", True)
        return rep
    block = product_block(module, _matrices(module, tuple_), t)
    det = block.det()
    rep.data["determinant"] = format_scalar(det)
    rep.add("invertible", bool(det), None if det else {"determinant": "0"})
    return rep


@timed
def mixed_decomposition_check(module: HLModule, entries, require_cone: bool = True) -> CheckReport:
    """V_t splits as (ker of the (t+1)-fold product) plus T_{t+1} V_{t+2}."""
    rep = CheckReport("mixed-decomposition", "mixed-lefschetz-decomposition")
    tuple_ = validate_tuple(module, entries, require_cone)
    t = len(tuple_) - 1
    if t < 0:
        raise PreconditionError("tuple must contain at least one operator")
    if t + 2 > module.weight:
        raise PreconditionError("tuple too long: need length + 1 <= weight")
    mats = _matrices(module, tuple_)
    gi = module.space.grade_indices()
    idx = gi.get(t, [])
    dim_t = len(idx)
    rep.data["grade"] = t

    kernel_block = product_block(module, mats, t)
    kern, _ = kernel_basis(kernel_block)
    primitive = [_embed(v, idx, module.dim) for v in kern]

    upper = gi.get(t + 2, [])
    image: list[tuple] = []
    if upper and idx:
        block = graded_block(module, mats[-1], t + 2)
        image = [
            _embed(v, idx, module.dim)
            for v in echelon_basis([block.column(j) for j in range(block.cols)])
        ]

    rep.data["dims"] = [len(primitive), len(image)]
    combined = primitive + image
    rank = (
        Matrix(combined, len(combined), module.dim).rank() if combined else 0
    )
    ok = rank == len(combined) == dim_t
    witness = None
    if not ok and combined:
        combos, _ = kernel_basis(Matrix.from_columns(combined, module.dim))
        if combos:
            c = combos[0]
            vec = [Fraction(0)] * module.dim
            for t_, cv in enumerate(c):
                if cv:
                    for a in range(module.dim):
                        vec[a] = vec[a] + cv * combined[t_][a]
            witness = {"intersection-vector": _vector_witness(vec)}
    rep.add("direct-sum", ok, witness)
    return rep


@timed
def mixed_hrr_check(module: HLModule, entries, require_cone: bool = True) -> CheckReport:
    """Positivity of i^(p-q) Q(., T_1...T_t conj .) on each kernel piece.

    The kernel is taken against the full product T_1 ... T_{t+1}; the form
    drops the final factor.  Strict positive definiteness encodes the
    equality clause.
    """
    rep = CheckReport("mixed-hodge-riemann", "mixed-hodge-riemann")
    tuple_ = validate_tuple(module, entries, require_cone)
    t = len(tuple_) - 1
    if t < 0:
        raise PreconditionError("tuple must contain at least one operator")
    if t + 2 > module.weight:
        raise PreconditionError("tuple too long: need length + 1 <= weight")
    mats = _matrices(module, tuple_)
    k = module.weight
    bi = module.space.bidegree_indices()
    rep.data["grade"] = t

    for p in range(0, k + 1):
        q = k + t - p
        if not (0 <= q <= k):
            continue
        idx = bi.get((p, q), [])
        if not idx:
            continue
        chain = _bidegree_product(module, mats, p, q)
        kern, _ = kernel_basis(chain)
        if not kern:
            continue
        vectors = [_embed(v, idx, module.dim) for v in kern]
        images = _twisted_images(module, mats[:-1], vectors)
        h = _form_matrix(module, i_power(p - q), vectors, images)
        if not h.is_hermitian():
            rep.add(f"hermitian[p={p},q={q}]", False, {"p": p, "q": q})
            continue
        bad = None
        for m_index, minor in enumerate(leading_principal_minors(h)):
            if as_fraction(minor) <= 0:
                bad = {
                    "p": p,
                    "q": q,
                    "minor-index": m_index + 1,
                    "minor": format_scalar(minor),
                    "witness": _vector_witness(vectors[m_index]),
                }
                break
        rep.add(f"positive-definite[p={p},q={q}]", bad is None, bad)
    return rep
