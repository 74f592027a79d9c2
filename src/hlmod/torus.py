"""Torus cohomology as a polarized Hodge-Lefschetz module.

The underlying space is the exterior algebra on generators e_1..e_k,
ebar_1..ebar_k; wedging with the real (1,1) forms built from Hermitian
matrices gives the commuting operator family.  This is the one fixture
family with off-diagonal bidegrees (p != q), so it exercises every i^(p-q)
phase the diagonal polytope modules never touch.

The integration functional on the top exterior power is calibrated so the
k-th power of the reference form integrates to k!; the stored bilinear form
twists the integral by the usual degree sign, matching the polytope
convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .exact import (
    GaussianRational,
    I,
    Matrix,
    as_fraction,
    hermitian_pd,
    i_power,
    integer_rows,
)
from .hodge_lefschetz import (
    BasisVector,
    ConstructionError,
    GradedSpace,
    HLModule,
    OperatorFamily,
    _certify_module,
    intersection_sign,
)


class TorusSpecError(ValueError):
    """Invalid torus input (non-Hermitian generator, indefinite reference)."""


@dataclass(frozen=True)
class TorusSpec:
    """Complex dimension plus Hermitian generator matrices and a reference
    coefficient vector whose combination must be positive definite."""

    dim: int
    hermitians: tuple[Matrix, ...]
    reference: tuple[Fraction, ...]


# the builder holds g + 2 dense n x n matrices at n = 4^k: the g generators,
# the form and the conjugation; (g + 2) * 16^k entries past this are refused,
# so k > 5 is refused whatever g is
TORUS_SIZE_LIMIT = 2**23


# ---------------------------------------------------------------------------
# Exterior algebra bookkeeping
# ---------------------------------------------------------------------------
#
# Generator indexing: e_a -> 2a, ebar_a -> 2a + 1 (a = 0..k-1), so the
# orientation monomial e_1 ebar_1 ... e_k ebar_k is the sorted full tuple.


def exterior_monomials(k: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for d in range(2 * k + 1):
        out.extend(combinations(range(2 * k), d))
    return out


def _sorting_sign(seq) -> tuple[int, tuple[int, ...]]:
    """Sign of the permutation that sorts ``seq`` (distinct entries), and
    the sorted tuple."""
    inversions = sum(x > y for i, x in enumerate(seq) for y in seq[i + 1 :])
    return (-1 if inversions % 2 else 1, tuple(sorted(seq)))


def wedge_monomials(m1: tuple[int, ...], m2: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Sign and sorted merge of two monomials, or None when they collide."""
    if set(m1) & set(m2):
        return None
    return _sorting_sign(m1 + m2)


def conjugate_monomial(m: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Swap e <-> ebar in a sorted monomial; sign counts the resorting."""
    return _sorting_sign([x ^ 1 for x in m])


def _monomial_labels(k: int, m: tuple[int, ...]) -> tuple[int, int, int]:
    """(grade, p, q) of a monomial: grade = k - degree, p = k - #ebar,
    q = k - #e."""
    n_e = sum(1 for x in m if x % 2 == 0)
    n_bar = len(m) - n_e
    return (k - len(m), k - n_bar, k - n_e)


def kahler_form(h: Matrix, k: int) -> dict[tuple[int, int], GaussianRational]:
    """The (1,1) element i * sum h_ab e_a wedge ebar_b as a monomial dict;
    each nonzero h_ab has a monomial {2a, 2b+1} of its own."""
    if h.rows != k or h.cols != k:
        raise TorusSpecError("Hermitian matrix dimension mismatch")
    out: dict[tuple[int, int], GaussianRational] = {}
    for a in range(k):
        for b in range(k):
            if c := h.data[a][b]:
                sign, mono = wedge_monomials((2 * a,), (2 * b + 1,))
                out[mono] = I * c * sign
    return out


def kahler_operator(spec: TorusSpec, j: int) -> Matrix:
    """Matrix of wedging with the j-th generator form in the monomial basis;
    a form monomial takes distinct monomials to distinct ones, so each entry
    is set once."""
    k = spec.dim
    monomials = exterior_monomials(k)
    index = {m: i for i, m in enumerate(monomials)}
    form = kahler_form(spec.hermitians[j], k)
    (numerators,), d = integer_rows([form.values()])
    rows = [[0] * len(monomials) for _ in monomials]
    for col, m in enumerate(monomials):
        for fm, fc in zip(form, numerators):
            if res := wedge_monomials(fm, m):
                rows[index[res[1]]][col] = fc * res[0]
    return Matrix.over(rows, d, len(monomials))


def build_torus_module(spec: TorusSpec) -> HLModule:
    """Assemble the exterior algebra module and verify it end to end.

    Rejects tori past ``TORUS_SIZE_LIMIT``, generators that are not k x k
    Hermitian matrices and references whose combined matrix is not positive
    definite; the finished module must pass the structural, Lefschetz, and
    polarization checks before it is returned.  Its cone is the Kahler cone
    of the generators, the pencil K_j = H_j (Gromov 1990; Dinh-Nguyen 2006).
    """
    k = spec.dim
    if k < 1:
        raise TorusSpecError("complex dimension must be at least 1")
    if k > 5 or (len(spec.hermitians) + 2) * 16**k > TORUS_SIZE_LIMIT:
        raise TorusSpecError(f"torus too large: (generators + 2) * 16^dim exceeds {TORUS_SIZE_LIMIT}")
    if len(spec.reference) != len(spec.hermitians):
        raise TorusSpecError("reference coefficient length mismatch")
    for h in spec.hermitians:
        if (h.rows, h.cols) != (k, k):
            raise TorusSpecError("Hermitian matrix dimension mismatch")
        if not h.is_hermitian():
            raise TorusSpecError("generator matrix is not Hermitian")

    names = tuple(f"h{i + 1}" for i in range(len(spec.hermitians)))
    reference = tuple(Fraction(c) for c in spec.reference)
    cone = OperatorFamily(names, spec.hermitians)
    h0 = cone.combine(reference, k)
    if not hermitian_pd(h0):
        raise TorusSpecError("reference combination is not positive definite")

    monomials = exterior_monomials(k)
    index = {m: i for i, m in enumerate(monomials)}
    n = len(monomials)

    vectors = tuple(BasisVector(*_monomial_labels(k, m)) for m in monomials)

    conjugation = [[0] * n for _ in range(n)]
    for j, m in enumerate(monomials):
        sign, m2 = conjugate_monomial(m)
        conjugation[index[m2]][j] = sign

    # integral of the orientation monomial, from int(omega_0^k) = k!, over d
    integral_full, d = (i_power(-k) / as_fraction(h0.det())).as_integer_ratio()

    # only a monomial and its complement wedge to the orientation monomial
    form = [[0] * n for _ in range(n)]
    for i, m in enumerate(monomials):
        complement = tuple(x for x in range(2 * k) if x not in m)
        sign, _ = wedge_monomials(m, complement)
        form[i][index[complement]] = integral_full * (sign * intersection_sign(len(m)))

    generators = tuple(kahler_operator(spec, j) for j in range(len(spec.hermitians)))

    module = HLModule(
        space=GradedSpace(k, vectors, Matrix.over(conjugation, 1, n)),
        form=Matrix.over(form, d, n),
        family=OperatorFamily(names, generators),
        reference=reference,
        cone=cone,
    )

    _certify_module(module, ConstructionError)
    return module
