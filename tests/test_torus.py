"""Torus cohomology fixtures: calibration, signs, and the Kaehler criterion.

These are the only fixtures with off-diagonal bidegrees, so they pin the
imaginary phases: the weight-1 calibration i Q(e1, conj e1) = 1, and the
surface-level sign flip where the raw integral of a primitive (1,1) class
against itself is negative while the stored form is positive.
"""

import random
import time
from fractions import Fraction
from math import comb

import pytest

from corpus import load_torus_spec
from hlmod.exact import GaussianRational, Matrix
from hlmod.hodge_lefschetz import (
    cone_membership,
    intersection_sign,
    lefschetz_property,
    polarization_check,
    validate_structure,
)
from hlmod.torus import (
    TorusSpec,
    TorusSpecError,
    build_torus_module,
    conjugate_monomial,
    exterior_monomials,
    kahler_form,
    kahler_operator,
    wedge_monomials,
)
from matrix_edits import with_entries
from torus_oracles import (
    conjugate_vector,
    dense_k4_spec,
    form_value,
    oracle_conjugate,
    oracle_form,
    oracle_kahler_form,
    oracle_kahler_operator,
    oracle_wedge,
    random_hermitian,
)

F = Fraction
I = GaussianRational(0, 1)


def _unit(n, i):
    v = [F(0)] * n
    v[i] = F(1)
    return v


def _monomial_vector(k, mono):
    monomials = exterior_monomials(k)
    return _unit(len(monomials), monomials.index(mono))


# ---------------------------------------------------------------------------
# construction and labels
# ---------------------------------------------------------------------------


def test_t1_dimensions(t1_module):
    assert t1_module.space.grade_dims() == {-1: 1, 0: 2, 1: 1}


def test_degenerate_reference_rejected():
    with pytest.raises(TorusSpecError):
        build_torus_module(TorusSpec(1, (Matrix([[F(0)]]),), (F(1),)))
    with pytest.raises(TorusSpecError):
        build_torus_module(TorusSpec(1, (Matrix([[F(1)]]),), (F(-1),)))


def test_non_hermitian_generator_rejected():
    bad = Matrix([[F(0), F(1)], [F(2), F(0)]])
    with pytest.raises(TorusSpecError):
        build_torus_module(TorusSpec(2, (bad,), (F(1),)))


def test_hodge_numbers(t2_module, t3_module):
    for module in (t2_module, t3_module):
        k = module.weight
        bi = module.space.bidegree_indices()
        for (p, q), idx in bi.items():
            assert len(idx) == comb(k, k - p) * comb(k, k - q)
            assert len(bi[(q, p)]) == len(idx)


def test_conjugation_exchanges_bidegrees(t2_module):
    bi = t2_module.space.bidegree_indices()
    for j, v in enumerate(t2_module.space.vectors):
        target = set(bi[(v.q, v.p)])
        column = t2_module.space.conjugation.column(j)
        assert all(not c or i in target for i, c in enumerate(column))


# ---------------------------------------------------------------------------
# exterior algebra bookkeeping
# ---------------------------------------------------------------------------


def test_wedge_anticommutes_on_generators():
    s1, m1 = wedge_monomials((0,), (1,))
    s2, m2 = wedge_monomials((1,), (0,))
    assert m1 == m2 and s1 == -s2


def test_wedge_associativity_exhaustive_k2():
    monomials = [m for m in exterior_monomials(2) if len(m) <= 2]
    for a in monomials:
        for b in monomials:
            for c in monomials:
                ab = wedge_monomials(a, b)
                bc = wedge_monomials(b, c)
                left = None if ab is None else wedge_monomials(ab[1], c)
                right = None if bc is None else wedge_monomials(a, bc[1])
                lhs = None if left is None else (ab[0] * left[0], left[1])
                rhs = None if right is None else (bc[0] * right[0], right[1])
                assert lhs == rhs


def test_conjugation_is_an_involution():
    for m in exterior_monomials(3):
        s1, m1 = conjugate_monomial(m)
        s2, m2 = conjugate_monomial(m1)
        assert m2 == m and s1 * s2 == 1


# ---------------------------------------------------------------------------
# calibration and signs
# ---------------------------------------------------------------------------


def test_t1_hermitian_calibration(t1_module):
    e1 = _monomial_vector(1, (0,))
    value = I * form_value(t1_module, e1, conjugate_vector(t1_module, e1))
    assert value == 1


def test_t1_operator_maps_unit_to_volume_form(t1_module):
    l = t1_module.operator(t1_module.reference)
    one = _monomial_vector(1, ())
    image = l.apply(one)
    top = _monomial_vector(1, (0, 1))
    assert image == [I * c for c in top]
    # and kills everything of degree >= 1
    assert all(not c for c in l.apply(l.apply(one)))


def test_t2_squared_calibration(t2_identity_module):
    l = t2_identity_module.operator(t2_identity_module.reference)
    one = _monomial_vector(2, ())
    omega_sq = l.apply(l.apply(one))
    # int(omega^2) = 2 with the unit-covolume calibration; the degree-4
    # twist is trivial, so the stored form sees the value directly
    assert intersection_sign(4) == 1
    assert form_value(t2_identity_module, omega_sq, one) == 2


def test_t2_primitive_sign_flip(t2_identity_module):
    m = t2_identity_module
    mons = exterior_monomials(2)
    n = len(mons)
    delta = [F(0)] * n
    delta[mons.index((0, 1))] = I
    delta[mons.index((2, 3))] = -I
    # delta is real and primitive for the identity reference
    assert conjugate_vector(m, delta) == delta
    assert all(not c for c in m.operator(m.reference).apply(delta))
    # stored form is positive on it
    assert form_value(m, delta, delta) == 2
    # the raw integral (undo the degree-2 twist) is negative
    raw = intersection_sign(2) * form_value(m, delta, delta)
    assert raw == -2


def test_t2_holomorphic_kernel_piece(t2_identity_module):
    # the (2,0) piece of the middle grade is killed by the reference
    # operator, and the phase-twisted form on it is exactly [1]
    m = t2_identity_module
    u = _monomial_vector(2, (0, 2))  # e1 wedge e2
    l = m.operator(m.reference)
    assert all(not c for c in l.apply(u))
    phase = I * I  # i^(p-q) at (p, q) = (2, 0)
    value = phase * form_value(m, u, conjugate_vector(m, u))
    assert value == 1
    from hlmod.mixed import mixed_hrr_check

    rep = mixed_hrr_check(m, [m.reference])
    assert rep.passed
    assert "positive-definite[p=2,q=0]" in [s.name for s in rep.subchecks]


def test_torus_form_parity(t1_module, t2_module):
    for module in (t1_module, t2_module):
        q = module.form
        assert q.transpose() == q.scale((-1) ** module.weight)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def test_kahler_operator_degree_and_realness(t2_module):
    spec = load_torus_spec("torus2")
    conj = t2_module.space.conjugation
    for j in range(3):
        op = kahler_operator(spec, j)
        assert op * conj == conj * op.conjugate()
        for col, v in enumerate(t2_module.space.vectors):
            for row in range(t2_module.dim):
                if op.data[row][col]:
                    w = t2_module.space.vectors[row]
                    assert (w.grade, w.p, w.q) == (v.grade - 2, v.p - 1, v.q - 1)


def test_non_hermitian_breaks_realness():
    k = 2
    monomials = exterior_monomials(k)
    index = {m: i for i, m in enumerate(monomials)}
    bad = Matrix([[F(0), F(1)], [F(0), F(0)]])
    op = kahler_operator(TorusSpec(2, (bad,), (F(1),)), 0)
    edits = {}
    for j, m in enumerate(monomials):
        s, m2 = conjugate_monomial(m)
        edits[index[m2], j] = F(s)
    conj = with_entries(Matrix.zeros(len(monomials), len(monomials)), edits)
    assert op * conj != conj * op.conjugate()


def test_kahler_cone_matches_positive_definiteness():
    # two independent criteria: the Sylvester test on h and the
    # Lefschetz-plus-polarization certificate on the wedge operator
    grid = [F(-1), F(0), F(1), F(2)]
    ident = Matrix.identity(1)
    for a in grid:
        h = Matrix([[a]])
        spec = TorusSpec(1, (ident,), (F(1),))
        module = build_torus_module(spec)
        coeffs = (a,)
        from hlmod.exact import hermitian_pd

        pd = a > 0
        assert cone_membership(module, coeffs) == pd


def test_kahler_cone_matches_pd_k2():
    from hlmod.exact import hermitian_pd

    spec = load_torus_spec("torus2")
    module = build_torus_module(spec)
    rng = random.Random(2)
    for _ in range(12):
        coeffs = tuple(F(rng.randint(-2, 3)) for _ in range(3))
        h = Matrix.zeros(2, 2)
        for c, gen in zip(coeffs, spec.hermitians):
            if c:
                h = h + gen.scale(c)
        pd = hermitian_pd(h)
        assert cone_membership(module, coeffs) == pd


def test_kahler_cone_matches_pd_k3_samples(t3_module):
    from hlmod.exact import hermitian_pd

    spec = load_torus_spec("torus3")
    rng = random.Random(314)
    samples = [
        (F(1), F(0), F(0)),
        (F(1), F(1), F(1)),
        (F(-1), F(0), F(0)),
        (F(0), F(0), F(1)),
    ] + [tuple(F(rng.randint(-1, 2)) for _ in range(3)) for _ in range(3)]
    for coeffs in samples:
        h = Matrix.zeros(3, 3)
        for c, gen in zip(coeffs, spec.hermitians):
            if c:
                h = h + gen.scale(c)
        assert cone_membership(t3_module, coeffs) == hermitian_pd(h)


def test_torus_full_suite(t1_module, t2_module):
    for module in (t1_module, t2_module):
        assert validate_structure(module).passed
        assert lefschetz_property(module, module.reference)
        assert polarization_check(module, module.reference).passed


# ---------------------------------------------------------------------------
# against the loops of torus_oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_wedge_matches_the_pairwise_inversion_count(k):
    monomials = exterior_monomials(k)
    for m1 in monomials:
        for m2 in monomials:
            assert wedge_monomials(m1, m2) == oracle_wedge(m1, m2)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_conjugate_matches_the_inversion_count(k):
    for m in exterior_monomials(k):
        assert conjugate_monomial(m) == oracle_conjugate(m)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_kahler_form_and_operator_match_the_accumulating_loops(k):
    rng = random.Random(70 + k)
    for _ in range(4):
        spec = TorusSpec(k, (random_hermitian(rng, k),), (F(1),))
        assert kahler_form(spec.hermitians[0], k) == oracle_kahler_form(spec.hermitians[0], k)
        assert kahler_operator(spec, 0) == oracle_kahler_operator(spec, 0)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_module_form_matches_the_all_pairs_loop(k):
    # the reference is diag(1, 3/2, ...) with i and -i beside the diagonal
    # at k >= 2, so det(h0) is not 1 and the form's scale is not i^k
    h0 = Matrix.diagonal([F(j + 2, 2) for j in range(k)])
    if k > 1:
        h0 = with_entries(h0, {(0, 1): I, (1, 0): -I})
    spec = TorusSpec(k, (random_hermitian(random.Random(90 + k), k), h0), (F(0), F(1)))
    assert build_torus_module(spec).form == oracle_form(spec)


def test_dense_complex_reference_builds_at_k4():
    # h = A A^H + I is dense and nonreal; eliminations over Z[i] must divide
    # rows by their Gaussian content, or the entries grow from pivot to pivot
    # and the build does not return within a minute
    spec = dense_k4_spec()
    start = time.perf_counter()
    module = build_torus_module(spec)
    assert time.perf_counter() - start < 10.0
    assert module.structure.passed and module.polarization.passed
