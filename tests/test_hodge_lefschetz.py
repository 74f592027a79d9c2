"""Module axioms, Lefschetz machinery, polarization, and the cone sampler."""

import random
from fractions import Fraction

import pytest

from filtration_oracles import rank_of_vectors
import hlmod.hodge_lefschetz as hl
from hlmod.exact import (
    Matrix,
    echelon_basis,
    parse_scalar,
)
from hlmod.hodge_lefschetz import (
    BasisVector,
    ConstructionError,
    GradedSpace,
    HLModule,
    InvalidModuleError,
    OperatorFamily,
    PolarizationForm,
    PreconditionError,
    _decomposition,
    cone_membership,
    hermitian_primitive_form,
    lefschetz_decomposition,
    lefschetz_property,
    lefschetz_report,
    polarization_check,
    primitive_subspace,
    sample_cone_element,
    sl2_complete,
    trivial_module,
    validate_structure,
)

F = Fraction


def _replace_form(module, matrix):
    return HLModule(
        space=module.space,
        form=PolarizationForm(matrix, module.form.parity),
        family=module.family,
        reference=module.reference,
    )


# ---------------------------------------------------------------------------
# structure validation
# ---------------------------------------------------------------------------


def test_trivial_module_is_valid():
    m = trivial_module()
    assert validate_structure(m).passed
    assert lefschetz_property(m, ())
    assert polarization_check(m, ()).passed
    assert cone_membership(m, ())


def test_corpus_modules_validate(corpus):
    for name, (_, _, module) in corpus.items():
        rep = validate_structure(module)
        assert rep.passed, (name, [s.name for s in rep.failures()])


def test_torus_modules_validate(t1_module, t2_module):
    assert validate_structure(t1_module).passed
    assert validate_structure(t2_module).passed


def _rescaled_basis(module, scales):
    """The module in the basis s_i e_i: with S = diag(scales), C and the
    generators become S^-1 M S and the form S Q S."""

    def similar(m):
        return Matrix([[e * scales[j] / scales[i] for j, e in enumerate(row)] for i, row in enumerate(m.data)])

    q = module.form.matrix
    form = Matrix([[e * scales[i] * scales[j] for j, e in enumerate(row)] for i, row in enumerate(q.data)])
    return HLModule(
        space=GradedSpace(module.weight, module.space.vectors, similar(module.space.conjugation)),
        form=PolarizationForm(form, module.form.parity),
        family=OperatorFamily(module.family.names, tuple(map(similar, module.family.matrices))),
        reference=module.reference,
    )


def test_structure_in_a_rescaled_basis_compares_at_its_scale(t2_module):
    # C, Q and the generators get denominators, so the numerator products
    # of validate_structure carry scales other than 1
    module = _rescaled_basis(t2_module, [F(i % 3 + 1, 2) for i in range(t2_module.dim)])
    assert hl._sparse_numerators(module.space.conjugation)[1] > 1
    assert validate_structure(module).passed
    broken = _with_conjugation(module, module.space.conjugation.scale(2))
    failed = {s.name for s in validate_structure(broken).failures()}
    assert {"conjugation-involution", "form-real"} <= failed


def test_block_negated_form_breaks_parity(sq_module):
    q = Matrix([list(r) for r in sq_module.form.matrix.data])
    top = [v.ident for v in sq_module.space.vectors if v.grade == 2]
    bottom = [v.ident for v in sq_module.space.vectors if v.grade == -2]
    for i in top:
        for j in bottom:
            q.data[i][j] = -q.data[i][j]
    rep = validate_structure(_replace_form(sq_module, q))
    failed = {s.name for s in rep.failures()}
    assert "form-parity" in failed
    parity = next(s for s in rep.failures() if s.name == "form-parity")
    assert parity.witness is not None and {"i", "j"} <= set(parity.witness)


def _with_conjugation(module, conj):
    return HLModule(
        space=GradedSpace(module.weight, module.space.vectors, conj),
        form=module.form,
        family=module.family,
        reference=module.reference,
    )


def _with_generator(module, index, matrix):
    mats = list(module.family.matrices)
    mats[index] = matrix
    return HLModule(
        space=module.space,
        form=module.form,
        family=OperatorFamily(module.family.names, tuple(mats)),
        reference=module.reference,
    )


def test_mutation_battery_each_axiom_is_guarded(t2_module):
    module = t2_module
    n = module.dim

    # break the involution
    broken_conj = Matrix([list(r) for r in module.space.conjugation.data])
    broken_conj.data[0][0] = F(2)
    rep = validate_structure(_with_conjugation(module, broken_conj))
    assert not rep.passed
    assert any(s.name == "conjugation-involution" for s in rep.failures())

    # break graded orthogonality of the form
    q = Matrix([list(r) for r in module.form.matrix.data])
    top = next(i for i, v in enumerate(module.space.vectors) if v.grade == module.weight)
    q.data[top][top] = F(1)
    rep = validate_structure(_replace_form(module, q))
    assert any(s.name == "form-graded-orthogonality" for s in rep.failures())

    # make the form degenerate
    q = Matrix([list(r) for r in module.form.matrix.data])
    for j in range(n):
        q.data[0][j] = F(0)
        q.data[j][0] = F(0)
    rep = validate_structure(_replace_form(module, q))
    assert any(s.name == "form-nondegenerate" for s in rep.failures())

    # break commutativity and bidegree purity of a generator
    g = Matrix([list(r) for r in module.family.matrices[0].data])
    g.data[0][0] = F(1)  # grade 0 entry on a degree -2 operator
    rep = validate_structure(_with_generator(module, 0, g))
    failed = {s.name for s in rep.failures()}
    assert any(name.startswith("operator-bidegree") for name in failed)

    # break skewness while keeping the degree structure: scale one block
    gi = module.space.grade_indices()
    g2 = Matrix([list(r) for r in module.family.matrices[0].data])
    src = gi[module.weight]
    dst = gi[module.weight - 2]
    for i in dst:
        for j in src:
            g2.data[i][j] = g2.data[i][j] * 3
    rep = validate_structure(_with_generator(module, 0, g2))
    failed = {s.name for s in rep.failures()}
    assert any(
        name.startswith("operator-skew") or name.startswith("operators-commute")
        for name in failed
    )


def test_dimension_mismatch_is_input_error():
    bad = HLModule(
        space=GradedSpace(1, (BasisVector(0, 1, 1, 1),), Matrix.identity(2)),
        form=PolarizationForm(Matrix.identity(1), -1),
        family=OperatorFamily((), ()),
        reference=(),
    )
    assert validate_structure(bad).verdict == "input-error"


def test_conjugation_is_checked_as_an_antilinear_map(sq_module):
    # v -> C conj(v) with C = diag(i, 1, 1, 1) is an involution although
    # C * C is not the identity; the phase i breaks the reality of Q
    c = Matrix.identity(sq_module.dim)
    c.data[0][0] = parse_scalar("1 i")
    failed = {s.name for s in validate_structure(_with_conjugation(sq_module, c)).failures()}
    assert "conjugation-involution" not in failed
    assert "form-real" in failed


def test_sparse_product_drops_cancelled_entries():
    a = [{0: F(1), 1: F(1)}, {}]
    b = [{0: F(1)}, {0: F(-1)}]
    assert hl._sparse_mul(a, b) == [{}, {}] == hl._sparse(Matrix.zeros(2, 2))


def test_validate_structure_forms_no_dense_product(corpus, t2_module, monkeypatch):
    """The axioms are checked on nonzero entries: no dense Matrix product
    or Matrix comparison runs inside validate_structure."""
    calls = {"__mul__": 0, "__eq__": 0}
    for op in calls:
        def counted(self, other, _op=op, _dense=getattr(Matrix, op)):
            calls[_op] += 1
            return _dense(self, other)

        monkeypatch.setattr(Matrix, op, counted)
    for module in (corpus["cube4"][2], t2_module):
        assert validate_structure(module).passed
    assert calls == {"__mul__": 0, "__eq__": 0}


# ---------------------------------------------------------------------------
# Lefschetz property and primitive subspaces
# ---------------------------------------------------------------------------


def test_lefschetz_on_square(sq_module):
    assert lefschetz_property(sq_module, {"d1": 1, "d2": 1, "d3": 1, "d4": 1})
    assert lefschetz_property(sq_module, sq_module.reference)
    assert not lefschetz_property(sq_module, [0, 0, 0, 0])
    # support of the degenerate segment summand
    assert not lefschetz_property(sq_module, [1, 0, 0, 0])


def test_lefschetz_dim_mismatch_raises():
    lop_sided = HLModule(
        space=GradedSpace(1, (BasisVector(0, 1, 1, 1),), Matrix.identity(1)),
        form=PolarizationForm(Matrix([[1]]), -1),
        family=OperatorFamily(("t",), (Matrix.zeros(1, 1),)),
        reference=(F(1),),
    )
    with pytest.raises(InvalidModuleError):
        lefschetz_property(lop_sided, (F(1),))


def test_primitive_dimensions_on_square(sq_module):
    t = {"d1": 1, "d2": 1, "d3": 1, "d4": 1}
    top = primitive_subspace(sq_module, t, 2)
    assert len(top) == 1
    zero = primitive_subspace(sq_module, t, 0)
    assert len(zero) == 1
    # the degree-1 primitive is [d1] - [d3] up to scale; basis order is
    # [1], [d1], [d3], [d1 d3]
    expected = (F(0), F(1), F(-1), F(0))
    assert echelon_basis(zero) == echelon_basis([expected])
    assert primitive_subspace(sq_module, t, 5) == []


def test_primitive_requires_lefschetz(sq_module):
    with pytest.raises(PreconditionError):
        primitive_subspace(sq_module, [1, 0, 0, 0], 0)


def test_primitive_dimension_formula(corpus):
    rng = random.Random(31)
    for name, (_, _, module) in corpus.items():
        t = sample_cone_element(module, rng)
        dims = module.space.grade_dims()
        for level in range(module.weight + 1):
            expected = dims.get(level, 0) - dims.get(level + 2, 0)
            assert len(primitive_subspace(module, t, level)) == expected, name


def test_lefschetz_decomposition_on_square(sq_module):
    t = {"d1": 1, "d2": 1, "d3": 1, "d4": 1}
    prim, image = lefschetz_decomposition(sq_module, t, 0)
    assert (len(prim), len(image)) == (1, 1)
    prim, image = lefschetz_decomposition(sq_module, t, 2)
    assert (len(prim), len(image)) == (1, 0)


def test_lefschetz_decomposition_on_cube(c3_module):
    prim, image = lefschetz_decomposition(c3_module, c3_module.reference, 1)
    assert (len(prim), len(image)) == (2, 1)


def test_decomposition_witness_lies_in_both_summands(sq_module, c3_module):
    # on boundary classes (a single d_i) the kernel and image summands meet;
    # the witness must be a nonzero vector of that intersection
    failures = 0
    for module in (sq_module, c3_module):
        n = len(module.reference)
        for i in range(n):
            t = module.operator([int(j == i) for j in range(n)])
            for grade in range(module.weight + 1):
                kernel, image, direct, witness = _decomposition(module, [t] * (grade + 1), grade)
                if direct:
                    assert witness is None
                    continue
                failures += 1
                w = [parse_scalar(e) for e in witness]
                assert any(w)
                assert rank_of_vectors(kernel + [w]) == rank_of_vectors(kernel)
                assert rank_of_vectors(image + [w]) == rank_of_vectors(image)
    assert failures


# ---------------------------------------------------------------------------
# sl2 completion
# ---------------------------------------------------------------------------


def test_sl2_on_segment_is_transpose_block(segment_module):
    triple = sl2_complete(segment_module, segment_module.reference)
    n, n_plus, y = triple.n, triple.n_plus, triple.y
    assert n_plus * n - n * n_plus == y
    assert y * n_plus - n_plus * y == n_plus.scale(F(2))
    assert y * n - n * y == n.scale(F(-2))
    # both off-diagonal blocks are single entries and inverse to each other
    lower = [n.data[i][j] for i in range(2) for j in range(2) if n.data[i][j]]
    upper = [n_plus.data[i][j] for i in range(2) for j in range(2) if n_plus.data[i][j]]
    assert len(lower) == len(upper) == 1
    assert lower[0] * upper[0] == 1


def test_sl2_relations_across_corpus(corpus):
    for name, (_, _, module) in corpus.items():
        triple = sl2_complete(module, module.reference)
        assert triple.n_plus * triple.n - triple.n * triple.n_plus == triple.y, name


def test_sl2_uniqueness_via_perturbation(sq_module):
    triple = sl2_complete(sq_module, sq_module.reference)
    rng = random.Random(99)
    gi = sq_module.space.grade_indices()
    perturbed = Matrix([list(r) for r in triple.n_plus.data])
    changed = False
    for l, idx in gi.items():
        for i in gi.get(l + 2, []):
            for j in idx:
                if rng.random() < 0.5:
                    perturbed.data[i][j] = perturbed.data[i][j] + F(rng.randint(1, 3))
                    changed = True
    assert changed
    assert perturbed * triple.n - triple.n * perturbed != triple.y


@pytest.mark.parametrize("skew", ["dropped", "dependent"])
def test_sl2_rejects_strings_that_are_no_basis(sq_module, monkeypatch, skew):
    # the square has one primitive in V_0; dropping it leaves 3 string
    # vectors, and replacing it by T of the top primitive leaves a
    # dependent set of 4
    real = hl._kernel
    t = sq_module.reference_operator()
    top = real(sq_module, [t] * 3, 2)

    def skewed(module, mats, grade):
        if grade == 0:
            return [] if skew == "dropped" else [t.apply(v) for v in top]
        return real(module, mats, grade)

    monkeypatch.setattr(hl, "_kernel", skewed)
    with pytest.raises(ConstructionError, match="no-basis"):
        sl2_complete(sq_module, sq_module.reference)


# ---------------------------------------------------------------------------
# polarization and the cone
# ---------------------------------------------------------------------------


def test_polarization_hermitian_form_value(sq_module):
    t = sq_module.reference_operator()
    h, vectors = hermitian_primitive_form(sq_module, t, 0, 1, 1)
    assert len(vectors) == 1
    assert h == Matrix([[F(2)]])


def test_globally_negated_form_fails_polarization(sq_module):
    negated = _replace_form(sq_module, sq_module.form.matrix.scale(F(-1)))
    assert validate_structure(negated).passed  # global sign keeps the axioms
    rep = polarization_check(negated, negated.reference)
    assert rep.verdict == "fail"
    names = {s.name for s in rep.failures()}
    assert "positive-definite[l=2,p=2,q=2]" in names
    witness = next(s.witness for s in rep.failures() if s.name == "positive-definite[l=2,p=2,q=2]")
    assert witness["minor-index"] == 1 and witness["minor"] == "-2"


def test_certify_module_raises_the_callers_error(sq_module):
    from hlmod.descent import DescentError
    from hlmod.hodge_lefschetz import ConstructionError, _certify_module

    _certify_module(sq_module, ConstructionError)
    negated = _replace_form(sq_module, sq_module.form.matrix.scale(F(-1)))
    with pytest.raises(DescentError, match=r"^module fails polarization: positive-definite"):
        _certify_module(negated, DescentError)
    lop_sided = _replace_form(sq_module, Matrix.identity(sq_module.dim))
    with pytest.raises(ConstructionError, match=r"^module fails validate-structure: "):
        _certify_module(lop_sided, ConstructionError)
    boundary = HLModule(sq_module.space, sq_module.form, sq_module.family, (F(1), F(0), F(0), F(0)))
    with pytest.raises(ConstructionError, match=r"^module fails polarization: lefschetz-precondition$"):
        _certify_module(boundary, ConstructionError)


def test_sampler_raises_without_cone_element(c3_module):
    # the negated reference of cube3 fails polarization, and so does every
    # draw near it; the sampler must not hand back the uncertified reference
    negated = HLModule(
        c3_module.space, c3_module.form, c3_module.family, tuple(-c for c in c3_module.reference)
    )
    assert not cone_membership(negated, negated.reference)
    with pytest.raises(PreconditionError, match="no certified cone element"):
        sample_cone_element(negated, random.Random(5))


def test_sampler_certifies_the_empty_family(c3_module, monkeypatch):
    # with no generators the only candidate is (), the zero operator: it is
    # certified on the trivial module and must be rejected on cube3, where
    # zero is not Lefschetz
    calls = []

    def counted(module, coeffs):
        calls.append(coeffs)
        return cone_membership(module, coeffs)

    monkeypatch.setattr(hl, "cone_membership", counted)
    assert sample_cone_element(trivial_module(), random.Random(1)) == ()
    assert calls == [()]
    empty = HLModule(c3_module.space, c3_module.form, OperatorFamily((), ()), ())
    with pytest.raises(PreconditionError, match="no certified cone element"):
        sample_cone_element(empty, random.Random(1))


def test_cone_membership_basics(sq_module, c3_module):
    assert cone_membership(sq_module, sq_module.reference)
    # the negated reference is outside the type cone; K is convex, so a
    # combination of two sampled elements lies in it
    assert cone_membership(c3_module, c3_module.reference)
    assert not cone_membership(c3_module, [-c for c in c3_module.reference])
    rng = random.Random(4)
    a = sample_cone_element(sq_module, rng)
    b = sample_cone_element(sq_module, rng)
    mix = tuple(F(1, 3) * x + F(2, 3) * y for x, y in zip(a, b))
    assert cone_membership(sq_module, mix)


@pytest.mark.parametrize("name", ["c3_module", "t2_module"])
def test_combine_matches_dense_sum(name, request):
    # the sparse assembly against the dense reference sum of c_i * G_i, on a
    # Q module (cube3) and a Q(i) module (torus2)
    module = request.getfixturevalue(name)
    family = module.family
    before = [m.to_lists() for m in family.matrices]
    rng = random.Random(11)
    trials = [tuple(F(0) for _ in family.matrices), module.reference]
    for _ in range(6):
        # about two thirds of the coefficients are zero, the rest signed
        trials.append(
            tuple(F(rng.choice([0, 0, rng.randint(-5, 5)]), rng.randint(1, 4)) for _ in family.matrices)
        )
    assert any(c < 0 for trial in trials for c in trial)
    for coeffs in trials:
        dense = Matrix.zeros(module.dim, module.dim)
        for c, mat in zip(coeffs, family.matrices):
            dense = dense + mat.scale(c)
        assert family.combine(coeffs, module.dim) == dense
        assert module.operator(coeffs) == dense
    assert [m.to_lists() for m in family.matrices] == before
    # the cached entries take no part in equality or repr
    assert OperatorFamily(family.names, family.matrices) == family
    assert "entries" not in repr(family)


def test_cone_membership_dim_mismatch_raises():
    lop_sided = HLModule(
        space=GradedSpace(1, (BasisVector(0, 1, 1, 1),), Matrix.identity(1)),
        form=PolarizationForm(Matrix([[1]]), -1),
        family=OperatorFamily(("t",), (Matrix.zeros(1, 1),)),
        reference=(F(1),),
    )
    with pytest.raises(InvalidModuleError):
        cone_membership(lop_sided, (F(1),))
    assert polarization_check(lop_sided, (F(1),)).verdict == "input-error"


def test_cone_membership_rejects_non_lefschetz(sq_module):
    boundary = [F(1), 0, 0, 0]  # the segment summand of the square
    assert not cone_membership(sq_module, boundary)
    rep = polarization_check(sq_module, boundary)
    assert rep.verdict == "input-error"
    assert [s.name for s in rep.failures()] == ["lefschetz-precondition"]


def test_checks_invariant_under_positive_rescaling(sq_module):
    t = sq_module.reference
    for scale in (F(3), F(1, 5)):
        scaled = tuple(scale * c for c in t)
        assert lefschetz_property(sq_module, scaled)
        assert polarization_check(sq_module, scaled).passed
    # boundary element stays outside under rescaling
    assert not lefschetz_property(sq_module, [F(2), 0, 0, 0])


def test_form_orthogonality_between_grades(corpus):
    for name, (_, _, module) in corpus.items():
        q = module.form.matrix
        for i, vi in enumerate(module.space.vectors):
            for j, vj in enumerate(module.space.vectors):
                if vi.grade + vj.grade != 0:
                    assert not q.data[i][j], name


def test_lefschetz_report_carries_rank_witness(sq_module):
    rep = lefschetz_report(sq_module, [1, 0, 0, 0])
    assert rep.verdict == "fail"
    assert any(s.witness and "rank" in s.witness for s in rep.failures())
