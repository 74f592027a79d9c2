"""Checkers for products of operators from the module's cone K.

:func:`validate_tuple` is the one gate for the entries of a tuple.  It
reads each entry as a coefficient vector over the module's generators and
certifies its membership in K unless told not to, as the sampler has
certified the CLI's drawn tuples already, and the boundary-sensitivity
tests pass entries outside K on purpose.  K is convex, so the whole tuple
comes from one convex cone, as the mixed theorems require.
``_checked_tuple`` adds the one check of the tuple's length, for the four
checks here and for repeated descent and the Koszul complex of
:mod:`hlmod.descent`.  The operators are built only where a product is
formed, so the hard Lefschetz check builds none when dim V_t = 0.
Each check then verifies one statement about the product operator: the
kernel weight bound, invertibility from grade t down to grade -t, the
two-summand decomposition of a middle grade, or positivity of the twisted
Hermitian forms on the kernel pieces.  The bound and the decomposition are
read off exact ranks of grade blocks, and build kernel bases only for the
witness of a failure.  The decomposition and the forms come from the cores
in :mod:`hlmod.hodge_lefschetz` that the unmixed checks call with a
constant tuple.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import format_scalar
from .hodge_lefschetz import (
    HLModule,
    PreconditionError,
    cone_membership,
    product_block,
    _add_positivity,
    _ambient_kernel,
    _bidegrees,
    _decomposition_dims,
    _embed,
    _kernel_form,
    _vector_witness,
)
from .report import CheckReport


class ConeMembershipError(PreconditionError):
    """A tuple entry is not in the module's cone K."""


def validate_tuple(module: HLModule, entries, require_cone: bool = True) -> tuple[tuple[Fraction, ...], ...]:
    """The entries as coefficient vectors, each certified to lie in K when
    ``require_cone``."""
    coeffs = []
    for pos, entry in enumerate(entries):
        c = module.coefficients(entry)
        if require_cone and not cone_membership(module, c):
            raise ConeMembershipError(f"tuple entry {pos} is not in the cone K")
        coeffs.append(c)
    return tuple(coeffs)


def _checked_tuple(module: HLModule, entries, require_cone: bool, low: int, high: int | None) -> tuple:
    """:func:`validate_tuple`, for a statement that needs low <= length <=
    high (no upper bound when ``high`` is None)."""
    coeffs = validate_tuple(module, entries, require_cone)
    n = len(coeffs)
    if n < low or high is not None and n > high:
        bound = "" if high is None else high
        raise PreconditionError(f"tuple length {n} outside {low}..{bound} at weight {module.weight}")
    return coeffs


def kernel_weight_bound(module: HLModule, entries, require_cone: bool = True) -> CheckReport:
    """ker(T_1 ... T_t) must live in the grades strictly below t: each grade
    g >= t has full rank.  Only a failure builds kernel bases, for the witness."""
    rep = CheckReport("kernel-weight-bound", "kernel-weight-bound")
    coeffs = _checked_tuple(module, entries, require_cone, 0, module.weight)
    t = len(coeffs)
    mats = [module.operator(c) for c in coeffs]
    nullity = {g: d - product_block(module, mats, g).rank() for g, d in module.space.grade_dims().items()}
    rep.data["kernel-dim"] = sum(nullity.values())
    rep.data["length"] = t
    kern = _ambient_kernel(module, mats) if any(d for g, d in nullity.items() if g >= t) else []
    bad = next(({"vector": _vector_witness(v), "top-grade": grade} for v, grade in kern if grade >= t), None)
    rep.add("kernel-inside-weight-bound", bad is None, bad)
    return rep


def mixed_hlt_check(module: HLModule, entries, require_cone: bool = True) -> CheckReport:
    """T_1 ... T_t from grade t to grade -t must be exactly invertible."""
    rep = CheckReport("mixed-hard-lefschetz", "mixed-hard-lefschetz")
    coeffs = _checked_tuple(module, entries, require_cone, 0, module.weight)
    t = len(coeffs)
    dims = module.space.grade_dims()
    d_top, d_bot = dims.get(t, 0), dims.get(-t, 0)
    if d_top != d_bot:
        return rep.mark_input_error(f"dim V_{t} = {d_top} != {d_bot} = dim V_{-t}")
    rep.data["dim"] = d_top
    rep.data["length"] = t
    if d_top == 0:
        rep.add("invertible", True)
        return rep
    block = product_block(module, [module.operator(c) for c in coeffs], t)
    det = block.det()
    rep.data["determinant"] = format_scalar(det)
    rep.add("invertible", bool(det), None if det else {"determinant": "0"})
    return rep


def mixed_decomposition_check(module: HLModule, entries, require_cone: bool = True) -> CheckReport:
    """V_t splits as (ker of the (t+1)-fold product) plus T_{t+1} V_{t+2}."""
    rep = CheckReport("mixed-decomposition", "mixed-lefschetz-decomposition")
    mats = [module.operator(c) for c in _checked_tuple(module, entries, require_cone, 1, module.weight - 1)]
    t = len(mats) - 1
    rep.data["grade"] = t
    kernel_dim, image_dim, direct, witness = _decomposition_dims(module, mats, t)
    rep.data["dims"] = [kernel_dim, image_dim]
    rep.add("direct-sum", direct, None if witness is None else {"intersection-vector": witness})
    return rep


def mixed_hrr_check(module: HLModule, entries, require_cone: bool = True) -> CheckReport:
    """Positivity of i^(p-q) Q(., T_1...T_t conj .) on each kernel piece.

    The kernel is taken against the full product T_1 ... T_{t+1}; the form
    drops the final factor.  Strict positive definiteness encodes the
    equality clause.
    """
    rep = CheckReport("mixed-hodge-riemann", "mixed-hodge-riemann")
    mats = [module.operator(c) for c in _checked_tuple(module, entries, require_cone, 1, module.weight - 1)]
    t = len(mats) - 1
    rep.data["grade"] = t
    bi = module.space.bidegree_indices()
    for p, q in _bidegrees(module, t):
        h, kern, _ = _kernel_form(module, mats, p, q)
        if kern:
            _add_positivity(rep, h, f"p={p},q={q}", {"p": p, "q": q}, lambda i: _embed(kern[i], bi[p, q], module.dim))
    return rep
