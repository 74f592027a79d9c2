"""The kernel routes of the dimension checks, kept as the oracle of their rank routes.

``kernel_weight_bound``, ``mixed_decomposition_check`` and the Lefschetz
decomposition report of ``hlmod check --all`` read exact ranks of grade
blocks on a pass, and build kernel bases only for the witness of a failure;
``sl2_complete`` solves for N+ one grade at a time.  These are the routes
they replaced: the kernel basis of the product on the whole space, the
kernel and image bases of each decomposition, and one inverse of the full
matrix of the primitive strings, with the commutators taken on full
matrices.  Each returns what its replacement returns, so a test can require
the two to agree byte for byte.
"""

from __future__ import annotations

from fractions import Fraction

from hlmod.exact import Matrix
from hlmod.hodge_lefschetz import (
    ConstructionError,
    HLModule,
    PreconditionError,
    Sl2Triple,
    _ambient_kernel,
    _decomposition,
    _kernel,
    _lefschetz_operator,
    _vector_witness,
    lefschetz_decomposition,
)
from hlmod.mixed import _checked_tuple
from hlmod.report import CheckReport


def kernel_weight_bound(module: HLModule, entries, require_cone: bool = True) -> CheckReport:
    """:func:`hlmod.mixed.kernel_weight_bound` from the kernel basis of the
    product, sorted by last nonzero coordinate."""
    rep = CheckReport("kernel-weight-bound", "kernel-weight-bound")
    coeffs = _checked_tuple(module, entries, require_cone, 0, module.weight)
    t = len(coeffs)
    kern = _ambient_kernel(module, [module.operator(c) for c in coeffs])
    rep.data["kernel-dim"] = len(kern)
    rep.data["length"] = t
    bad = next(
        ({"vector": _vector_witness(v), "top-grade": grade} for v, grade in kern if grade >= t),
        None,
    )
    rep.add("kernel-inside-weight-bound", bad is None, bad)
    return rep


def mixed_decomposition_check(module: HLModule, entries, require_cone: bool = True) -> CheckReport:
    """:func:`hlmod.mixed.mixed_decomposition_check` from the kernel and
    image bases of the decomposition."""
    rep = CheckReport("mixed-decomposition", "mixed-lefschetz-decomposition")
    mats = [module.operator(c) for c in _checked_tuple(module, entries, require_cone, 1, module.weight - 1)]
    t = len(mats) - 1
    rep.data["grade"] = t
    kernel, image, direct, witness = _decomposition(module, mats, t)
    rep.data["dims"] = [len(kernel), len(image)]
    rep.add("direct-sum", direct, None if witness is None else {"intersection-vector": witness})
    return rep


def decomposition_report(module: HLModule) -> CheckReport:
    """The CLI's Lefschetz decomposition report, from the bases that
    :func:`lefschetz_decomposition` returns."""
    rep = CheckReport("lefschetz-decomposition", "lefschetz-decomposition")
    try:
        for grade in range(0, module.weight + 1):
            primitive, image = lefschetz_decomposition(module, module.reference, grade)
            rep.add(f"direct-sum[grade={grade}]", True)
            rep.data[f"dims[grade={grade}]"] = [len(primitive), len(image)]
    except (PreconditionError, ConstructionError) as exc:
        rep.add("direct-sum", False, {"error": str(exc)})
    return rep


def sl2_complete(module: HLModule, coeffs) -> Sl2Triple:
    """:func:`hlmod.hodge_lefschetz.sl2_complete` as N+ = M B^-1 on the
    whole space, for the matrix B of all string vectors and their images M,
    with the three commutation relations checked on full products."""
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
