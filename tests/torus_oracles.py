"""The loops the torus builder replaced, kept as the oracle of its tests.

``hlmod.torus`` reads every sign from one rule, the sign of the permutation
that sorts a sequence; writes each Kahler form term and each operator entry
once; and pairs each monomial with its complement only.  The loops here
are the ones it replaced: the two inversion counts, the Kahler form that
merges and cancels equal monomials, the operator that accumulates into its
entries, and the form that wedges every pair of monomials.  Beside them sit
the inputs of the torus tests: the conjugate C conj(v) of a vector, which no
check applies to a single vector, and random Hermitian classes, the dense
k = 4 reference among them.  The standard tori T1, T2 and T3 are the files
``fixtures/torus{1,2,3}.json``, read by ``corpus.py``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hlmod.exact import I, Matrix, as_fraction, conj, gaussian, i_power
from hlmod.hodge_lefschetz import HLModule, intersection_sign
from hlmod.torus import TorusSpec, exterior_monomials
from matrix_edits import with_entries


def conjugate_vector(module: HLModule, v) -> list:
    """The conjugate C conj(v) of the vector ``v`` of ``module``."""
    return module.space.conjugation.apply([conj(e) for e in v])


def form_value(module: HLModule, u, v):
    """The module's form Q(u, v) = u^T Q v."""
    return sum((a * b for a, b in zip(u, module.form.apply(v)) if a and b), Fraction(0))


def random_hermitian(rng, k: int) -> Matrix:
    """A k x k Hermitian matrix with small Gaussian-rational entries, zeros
    among them."""
    entries = {}
    for a in range(k):
        entries[a, a] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        for b in range(a + 1, k):
            z = gaussian(Fraction(rng.randint(-2, 2), rng.randint(1, 3)), Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
            entries[a, b], entries[b, a] = z, z.conjugate()
    return with_entries(Matrix.zeros(k, k), entries)


def dense_k4_spec() -> TorusSpec:
    """The k = 4 torus with the dense nonreal class h = A A^H + I beside the
    identity, A = ``random_hermitian(random.Random(94), 4)``."""
    a = random_hermitian(random.Random(94), 4)
    h = a * a.transpose().conjugate() + Matrix.identity(4)
    return TorusSpec(4, (h, Matrix.identity(4)), (Fraction(1, 2), Fraction(1)))


def oracle_wedge(m1: tuple[int, ...], m2: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """:func:`hlmod.torus.wedge_monomials`: the inversions between the two
    sorted monomials."""
    if set(m1) & set(m2):
        return None
    inversions = 0
    for x in m1:
        for y in m2:
            if x > y:
                inversions += 1
    return (1 if inversions % 2 == 0 else -1, tuple(sorted(m1 + m2)))


def oracle_conjugate(m: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """:func:`hlmod.torus.conjugate_monomial`: the inversions of the swapped
    sequence."""
    swapped = [x ^ 1 for x in m]
    inversions = 0
    for i in range(len(swapped)):
        for j in range(i + 1, len(swapped)):
            if swapped[i] > swapped[j]:
                inversions += 1
    return (1 if inversions % 2 == 0 else -1, tuple(sorted(swapped)))


def oracle_kahler_form(h: Matrix, k: int) -> dict:
    """:func:`hlmod.torus.kahler_form`, merging terms on one monomial and
    dropping those that cancel."""
    out: dict = {}
    for a in range(k):
        for b in range(k):
            c = h.data[a][b]
            if not c:
                continue
            sign, mono = oracle_wedge((2 * a,), (2 * b + 1,))
            coeff = I * c * sign
            if mono in out:
                coeff = out[mono] + coeff
            if coeff:
                out[mono] = coeff
            else:
                out.pop(mono, None)
    return out


def oracle_kahler_operator(spec: TorusSpec, j: int) -> Matrix:
    """:func:`hlmod.torus.kahler_operator`, accumulating into each entry."""
    form = oracle_kahler_form(spec.hermitians[j], spec.dim)
    monomials = exterior_monomials(spec.dim)
    index = {m: i for i, m in enumerate(monomials)}
    rows = [[Fraction(0)] * len(monomials) for _ in monomials]
    for col, m in enumerate(monomials):
        for fm, fc in form.items():
            res = oracle_wedge(fm, m)
            if res is None:
                continue
            sign, merged = res
            rows[index[merged]][col] = rows[index[merged]][col] + fc * sign
    return Matrix(rows)


def oracle_form(spec: TorusSpec) -> Matrix:
    """The form of :func:`hlmod.torus.build_torus_module`: the reference
    matrix summed one scaled generator at a time, and every pair of
    monomials wedged."""
    k = spec.dim
    h0 = Matrix.zeros(k, k)
    for c, h in zip(spec.reference, spec.hermitians):
        if c:
            h0 = h0 + h.scale(c)
    integral_full = i_power(-k) * Fraction(1, 1) / as_fraction(h0.det())
    monomials = exterior_monomials(k)
    full = tuple(range(2 * k))
    form = [[Fraction(0)] * len(monomials) for _ in monomials]
    for i, mi in enumerate(monomials):
        sign_i = intersection_sign(len(mi))
        for j, mj in enumerate(monomials):
            res = oracle_wedge(mi, mj)
            if res is None or res[1] != full:
                continue
            form[i][j] = integral_full * (res[0] * sign_i)
    return Matrix(form)
