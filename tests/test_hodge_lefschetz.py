"""Module axioms, Lefschetz machinery, polarization, and weight filtrations.

The weight filtration is checked against an independent closed-form oracle
(sums of ker N^(l+j+1) ∩ im N^j) in addition to its defining property.
"""

import random
from fractions import Fraction

import pytest

from hlmod.exact import Matrix, echelon_basis, sum_spaces, intersect_spaces, kernel_basis
from hlmod.hodge_lefschetz import (
    BasisVector,
    Filtration,
    GradedSpace,
    HLModule,
    InvalidModuleError,
    NotNilpotentError,
    OperatorFamily,
    PolarizationForm,
    PreconditionError,
    cone_membership,
    filtration_satisfies_weight_property,
    filtrations_equal,
    grading_filtration,
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
    weight_filtration,
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


def test_cone_membership_basics(sq_module, c3_module):
    assert cone_membership(sq_module, sq_module.reference)
    # negation flips positivity on the odd-grade primitive parts, which the
    # cube has; on the square every check uses an even power of T, so the
    # pointwise certificate is blind to the sign there
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


# ---------------------------------------------------------------------------
# weight filtrations
# ---------------------------------------------------------------------------


def _closed_form_weight_filtration(n_mat, bound):
    """Independent oracle: W_l = sum over j of ker N^(l+j+1) ∩ im N^j."""
    dim = n_mat.rows
    full = [tuple(r) for r in Matrix.identity(dim).data]
    pieces = []
    for level in range(-bound - 1, bound + 1):
        acc = []
        for j in range(0, bound + 2):
            power_k = level + j + 1
            if power_k <= 0:
                continue
            ker = (
                full
                if power_k > bound
                else echelon_basis(kernel_basis(n_mat.power(power_k))[0])
            )
            if j == 0:
                img = full
            else:
                img = echelon_basis(
                    [n_mat.power(j).column(c) for c in range(dim)]
                )
            acc = sum_spaces(acc, intersect_spaces(ker, img, dim))
        pieces.append(tuple(acc))
    return Filtration(-bound - 1, tuple(pieces))


def test_weight_filtration_of_zero_map():
    f = weight_filtration(Matrix.zeros(3, 3), 0)
    assert len(f.piece(-1)) == 0 and len(f.piece(0)) == 3


def test_weight_filtration_of_jordan_block():
    n = Matrix([[0, 1], [0, 0]])
    f = weight_filtration(n, 1)
    assert [len(f.piece(l)) for l in (-2, -1, 0, 1)] == [0, 1, 1, 2]
    assert f.piece(-1) == ((F(1), F(0)),)


def test_weight_filtration_not_nilpotent():
    with pytest.raises(NotNilpotentError):
        weight_filtration(Matrix.identity(2), 3)


def test_weight_filtration_matches_closed_form_oracle():
    rng = random.Random(2718)
    for _ in range(12):
        dim = rng.randint(2, 5)
        upper = Matrix.zeros(dim, dim)
        for i in range(dim):
            for j in range(i + 1, dim):
                upper.data[i][j] = F(rng.randint(-2, 2))
        base = Matrix.identity(dim)
        for i in range(dim):
            for j in range(i):
                base.data[i][j] = F(rng.randint(-1, 1))
        n_mat = base * upper * base.inverse()
        bound = dim - 1
        ours = weight_filtration(n_mat, bound)
        oracle = _closed_form_weight_filtration(n_mat, bound)
        assert filtrations_equal(ours, oracle)
        assert filtration_satisfies_weight_property(n_mat, ours, bound)


def test_weight_filtration_uniqueness_against_perturbation():
    n = Matrix([[0, 1], [0, 0]])
    f = weight_filtration(n, 1)
    # empty out W_{-1}: the graded pieces no longer match up
    shifted = Filtration(f.lowest, (f.pieces[0], f.pieces[0], f.pieces[2], f.pieces[3]))
    assert not filtration_satisfies_weight_property(n, shifted, 1)


def test_cone_element_filtration_is_grading_filtration(sq_module, c3_module):
    for module in (sq_module, c3_module):
        wf = weight_filtration(module.reference_operator(), module.weight)
        assert filtrations_equal(wf, grading_filtration(module))


def test_boundary_element_filtration_differs(sq_module):
    t = sq_module.operator([1, 0, 0, 0])
    wf = weight_filtration(t, sq_module.weight)
    assert not lefschetz_property(sq_module, [1, 0, 0, 0])
    assert not filtrations_equal(wf, grading_filtration(sq_module))


def test_lefschetz_report_carries_rank_witness(sq_module):
    rep = lefschetz_report(sq_module, [1, 0, 0, 0])
    assert rep.verdict == "fail"
    assert any(s.witness and "rank" in s.witness for s in rep.failures())
