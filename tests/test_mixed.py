"""Mixed checkers: kernel bound, product invertibility, decomposition,
positivity, and their cross-checks against the unmixed machinery."""

import dataclasses
import random
from fractions import Fraction

import pytest

from failing_paths import failing_modules, negated, tuples
from hlmod.exact import Matrix, format_scalar, kernel_basis
from hlmod.hodge_lefschetz import (
    OperatorFamily,
    PreconditionError,
    lefschetz_decomposition,
    lefschetz_property,
    polarization_check,
    sample_cone_element,
    sample_cone_tuple,
)
from hlmod.mixed import (
    ConeMembershipError,
    kernel_weight_bound,
    mixed_decomposition_check,
    mixed_hlt_check,
    mixed_hrr_check,
    validate_tuple,
)

F = Fraction

ONES = {"d1": 1, "d2": 1, "d3": 1, "d4": 1}
SCALED = {"d1": 2, "d2": 2, "d3": 1, "d4": 1}


# ---------------------------------------------------------------------------
# kernel weight bound
# ---------------------------------------------------------------------------


def test_kernel_bound_square_reference(sq_module):
    rep = kernel_weight_bound(sq_module, [sq_module.reference])
    assert rep.passed
    # one kernel vector in grade 0, one in grade -2, both below grade 1
    assert rep.data["kernel-dim"] == 2


def test_kernel_bound_empty_tuple(sq_module):
    rep = kernel_weight_bound(sq_module, [])
    assert rep.passed and rep.data["kernel-dim"] == 0


def test_kernel_bound_full_length(c3_module):
    rng = random.Random(8)
    entries = sample_cone_tuple(c3_module, rng, c3_module.weight)
    assert kernel_weight_bound(c3_module, entries).passed


def test_kernel_bound_rejects_overlong_tuple(sq_module):
    with pytest.raises(PreconditionError):
        kernel_weight_bound(sq_module, [sq_module.reference] * 3)


def _ambient_kernel_bound(module, entries):
    """kernel-dim and witness of the bound from ker(T_1 ... T_t) taken on the
    whole space: the product of the full n x n operator matrices."""
    product = Matrix.identity(module.dim)
    for c in entries:
        product = product * module.operator(c)
    kern, _ = kernel_basis(product)
    grades = [v.grade for v in module.space.vectors]
    for v in kern:
        support = [grades[i] for i, e in enumerate(v) if e]
        if max(support) >= len(entries):
            witness = {"vector": [format_scalar(e) for e in v], "top-grade": max(support)}
            return len(kern), witness
    return len(kern), None


def test_kernel_bound_matches_ambient_product_oracle():
    # the grade-by-grade kernel gives the same dimension and the same first
    # offending vector as the kernel of the ambient product, on boundary and
    # negated-form inputs where the bound fails
    failures = 0
    for module in failing_modules().values():
        for target in (module, negated(module)):
            for length in range(1, module.weight + 1):
                for entries in tuples(target, length):
                    rep = kernel_weight_bound(target, entries, require_cone=False)
                    dim, witness = _ambient_kernel_bound(target, entries)
                    assert rep.data["kernel-dim"] == dim
                    assert rep.subchecks[0].witness == witness
                    failures += witness is not None
    assert failures > 0


def test_cone_precondition_enforced(sq_module):
    with pytest.raises(ConeMembershipError):
        validate_tuple(sq_module, [[1, 0, 0, 0]])


def test_validate_tuple_returns_coefficient_vectors(sq_module):
    # a plain tuple of coefficient vectors, whether or not K was tested
    expected = ((F(1),) * 4, sq_module.reference)
    assert validate_tuple(sq_module, [ONES, sq_module.reference]) == expected
    assert validate_tuple(sq_module, [ONES, sq_module.reference], require_cone=False) == expected
    assert validate_tuple(sq_module, [[1, 0, 0, 0]], require_cone=False) == ((F(1), F(0), F(0), F(0)),)


# ---------------------------------------------------------------------------
# mixed invertibility
# ---------------------------------------------------------------------------


def test_mixed_hlt_worked_example(sq_module):
    rep = mixed_hlt_check(sq_module, [ONES, SCALED])
    assert rep.passed
    assert rep.data["determinant"] == "12"
    assert rep.data["dim"] == 1


def test_mixed_hlt_empty_tuple_is_identity(sq_module):
    assert mixed_hlt_check(sq_module, []).passed


def test_mixed_hlt_rejects_a_tuple_longer_than_the_weight(sq_module):
    with pytest.raises(PreconditionError) as err:
        mixed_hlt_check(sq_module, [sq_module.reference] * (sq_module.weight + 1))
    assert err.type is PreconditionError


def test_mixed_hlt_constant_tuple_matches_lefschetz(corpus):
    rng = random.Random(17)
    for name, (_, _, module) in corpus.items():
        t = sample_cone_element(module, rng)
        assert lefschetz_property(module, t)
        for power in range(1, module.weight + 1):
            rep = mixed_hlt_check(module, [t] * power)
            assert rep.passed, (name, power)


def test_mixed_hlt_builds_operators_only_for_a_product(corpus, monkeypatch):
    # cube4 has no odd grades: at odd lengths dim V_t = 0 and no operator is
    # assembled; at even lengths each entry is combined once (the cone
    # pencil, which certifies the entries, is another family), on a copy of
    # the module that starts with no operator, and a second check on the
    # same entries combines none
    module = corpus["cube4"][2]
    calls = []
    real = OperatorFamily.combine

    def counted(family, coefficients, dim):
        if family is module.family:
            calls.append(coefficients)
        return real(family, coefficients, dim)

    monkeypatch.setattr(OperatorFamily, "combine", counted)
    counts = []
    for t in range(1, module.weight + 1):
        fresh = dataclasses.replace(module)
        entries = [tuple((j + 1) * c for c in module.reference) for j in range(t)]
        calls.clear()
        assert mixed_hlt_check(fresh, entries).passed
        counts.append(len(calls))
        assert mixed_hlt_check(fresh, entries).passed and len(calls) == counts[-1]
    assert counts == [0, 2, 0, 4]


def test_mixed_hlt_order_invariance(sq_module):
    rng = random.Random(23)
    a = sample_cone_element(sq_module, rng)
    b = sample_cone_element(sq_module, rng)
    r1 = mixed_hlt_check(sq_module, [a, b])
    r2 = mixed_hlt_check(sq_module, [b, a])
    assert r1.data["determinant"] == r2.data["determinant"]
    assert r1.passed and r2.passed


def test_mixed_hlt_boundary_failure_with_witness(sq_module):
    rep = mixed_hlt_check(
        sq_module, [[1, 0, 0, 0], [1, 0, 0, 0]], require_cone=False
    )
    assert rep.verdict == "fail"
    assert rep.data["determinant"] == "0"


# ---------------------------------------------------------------------------
# mixed decomposition
# ---------------------------------------------------------------------------


def test_mixed_decomposition_on_cube(c3_module):
    rng = random.Random(31)
    entries = sample_cone_tuple(c3_module, rng, 2)
    rep = mixed_decomposition_check(c3_module, entries)
    assert rep.passed
    assert rep.data["dims"] == [2, 1]


def test_mixed_decomposition_trivial_second_summand(corpus):
    # triangle at grade 0: V_2 has dimension 1, so the image summand is
    # present; the segment-free check is the prism at grade 1 with V_3 = 1
    module = corpus["prism"][2]
    rng = random.Random(5)
    entries = sample_cone_tuple(module, rng, 2)
    rep = mixed_decomposition_check(module, entries)
    assert rep.passed
    assert sum(rep.data["dims"]) == module.space.grade_dims()[1]


def test_mixed_decomposition_agrees_with_unmixed(c3_module):
    rng = random.Random(41)
    t = sample_cone_element(c3_module, rng)
    rep = mixed_decomposition_check(c3_module, [t, t])
    prim, image = lefschetz_decomposition(c3_module, t, 1)
    assert rep.passed
    assert rep.data["dims"] == [len(prim), len(image)]


def test_mixed_decomposition_vacuous_when_grade_empty(c3_module):
    # cube grades are odd, so at grade 0 both summands are empty
    rep = mixed_decomposition_check(c3_module, [c3_module.reference])
    assert rep.passed
    assert rep.data["dims"] == [0, 0]


def test_mixed_decomposition_rejects_bad_length(sq_module):
    with pytest.raises(PreconditionError):
        mixed_decomposition_check(sq_module, [sq_module.reference] * 2)


# ---------------------------------------------------------------------------
# mixed positivity
# ---------------------------------------------------------------------------


def test_mixed_hrr_rejects_lengths_outside_one_to_weight_minus_one(sq_module):
    # the statement is about grade t = length - 1 with 0 <= t <= weight - 2
    for length in (0, sq_module.weight):
        with pytest.raises(PreconditionError) as err:
            mixed_hrr_check(sq_module, [sq_module.reference] * length)
        assert err.type is PreconditionError, length


def test_mixed_hrr_square_reference(sq_module):
    rep = mixed_hrr_check(sq_module, [sq_module.reference])
    assert rep.passed
    names = [s.name for s in rep.subchecks]
    assert names == ["positive-definite[p=1,q=1]"]


def test_mixed_hrr_matches_polarization_for_constant_tuples(c3_module):
    rng = random.Random(53)
    t = sample_cone_element(c3_module, rng)
    assert polarization_check(c3_module, t).passed
    for grade in range(0, c3_module.weight - 1):
        rep = mixed_hrr_check(c3_module, [t] * (grade + 1))
        assert rep.passed, grade


def test_mixed_hrr_rescaling_invariance(c3_module):
    rng = random.Random(67)
    entries = [list(sample_cone_element(c3_module, rng)) for _ in range(2)]
    base = mixed_hrr_check(c3_module, entries)
    scaled = [[F(7, 3) * c for c in entries[0]], entries[1]]
    rescaled = mixed_hrr_check(c3_module, scaled)
    assert base.passed and rescaled.passed


def test_mixed_hrr_boundary_failure(sq_module):
    # both entries on the cone boundary: the kernel piece grows and the
    # form degenerates on it
    rep = mixed_hrr_check(sq_module, [[1, 0, 0, 0]], require_cone=False)
    assert rep.verdict == "fail"
    bad = rep.failures()[0]
    assert bad.witness is not None and "minor" in bad.witness


def test_all_checkers_on_random_cone_tuples(corpus):
    rng = random.Random(97)
    for name, (_, _, module) in corpus.items():
        k = module.weight
        for t in range(1, k + 1):
            entries = sample_cone_tuple(module, rng, t)
            assert mixed_hlt_check(module, entries, require_cone=False).passed, name
            assert kernel_weight_bound(module, entries, require_cone=False).passed, name
        for t in range(0, k - 1):
            entries = sample_cone_tuple(module, rng, t + 1)
            assert mixed_decomposition_check(module, entries, require_cone=False).passed, name
            assert mixed_hrr_check(module, entries, require_cone=False).passed, name


def test_torus_mixed_checks(t1_module, t2_module):
    rng = random.Random(11)
    for module in (t1_module, t2_module):
        k = module.weight
        for t in range(1, k + 1):
            entries = sample_cone_tuple(module, rng, t)
            assert mixed_hlt_check(module, entries, require_cone=False).passed
            assert kernel_weight_bound(module, entries, require_cone=False).passed
        for t in range(0, k - 1):
            entries = sample_cone_tuple(module, rng, t + 1)
            assert mixed_hrr_check(module, entries, require_cone=False).passed
            assert mixed_decomposition_check(module, entries, require_cone=False).passed
