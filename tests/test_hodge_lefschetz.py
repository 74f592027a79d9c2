"""Module axioms, Lefschetz machinery, polarization, and the cone sampler."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from failing_paths import hermitian_primitive_form, lefschetz_report
from field_oracles import full_scan_structure, sparse_entries
from filtration_oracles import rank_of_vectors
from matrix_edits import with_entries
import hlmod.hodge_lefschetz as hl
from hlmod import build_pkt_module, cli, exact
from hlmod.descent import repeated_descent
from hlmod.exact import (
    Matrix,
    echelon_basis,
    kernel_basis,
    parse_scalar,
)
from hlmod.hodge_lefschetz import (
    BasisVector,
    ConstructionError,
    GradedSpace,
    HLModule,
    InvalidModuleError,
    OperatorFamily,
    PreconditionError,
    _decomposition,
    cone_membership,
    lefschetz_decomposition,
    lefschetz_property,
    polarization_check,
    primitive_subspace,
    sample_cone_element,
    sl2_complete,
    validate_structure,
)
from structure_failures import structure_failure_lines
from triangulations import perturbed
from volume_polys import cube, triangle_triangle_interval

F = Fraction


def _replace_form(module, matrix):
    return HLModule(
        space=module.space,
        form=matrix,
        family=module.family,
        reference=module.reference,
    )


# ---------------------------------------------------------------------------
# structure validation
# ---------------------------------------------------------------------------


def trivial_module() -> HLModule:
    """The smallest legal module: weight 0, one-dimensional, empty family."""
    space = GradedSpace(0, (BasisVector(0, 0, 0),), Matrix.identity(1))
    form = Matrix([[Fraction(1)]])
    return HLModule(space, form, OperatorFamily((), ()), ())


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

    q = module.form
    form = Matrix([[e * scales[i] * scales[j] for j, e in enumerate(row)] for i, row in enumerate(q.data)])
    return HLModule(
        space=GradedSpace(module.weight, module.space.vectors, similar(module.space.conjugation)),
        form=form,
        family=OperatorFamily(module.family.names, tuple(map(similar, module.family.matrices))),
        reference=module.reference,
    )


def test_structure_in_a_rescaled_basis_compares_at_its_scale(t2_module):
    # C, Q and the generators get denominators, so the numerator products
    # of validate_structure carry scales other than 1
    module = _rescaled_basis(t2_module, [F(i % 3 + 1, 2) for i in range(t2_module.dim)])
    assert module.space.conjugation.sparse_numerators()[1] > 1
    assert validate_structure(module).passed
    broken = _with_conjugation(module, module.space.conjugation.scale(2))
    failed = {s.name for s in validate_structure(broken).failures()}
    assert {"conjugation-involution", "form-real"} <= failed


def test_block_negated_form_breaks_parity(sq_module):
    form = sq_module.form
    top = [i for i, v in enumerate(sq_module.space.vectors) if v.grade == 2]
    bottom = [i for i, v in enumerate(sq_module.space.vectors) if v.grade == -2]
    q = with_entries(form, {(i, j): -form[i, j] for i in top for j in bottom})
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
    broken_conj = with_entries(module.space.conjugation, {(0, 0): F(2)})
    rep = validate_structure(_with_conjugation(module, broken_conj))
    assert not rep.passed
    assert any(s.name == "conjugation-involution" for s in rep.failures())

    # break graded orthogonality of the form
    top = next(i for i, v in enumerate(module.space.vectors) if v.grade == module.weight)
    q = with_entries(module.form, {(top, top): F(1)})
    rep = validate_structure(_replace_form(module, q))
    assert any(s.name == "form-graded-orthogonality" for s in rep.failures())

    # make the form degenerate
    q = with_entries(module.form, {ij: F(0) for j in range(n) for ij in ((0, j), (j, 0))})
    rep = validate_structure(_replace_form(module, q))
    assert any(s.name == "form-nondegenerate" for s in rep.failures())

    # break commutativity and bidegree purity of a generator
    g = with_entries(module.family.matrices[0], {(0, 0): F(1)})  # grade 0 entry on a degree -2 operator
    rep = validate_structure(_with_generator(module, 0, g))
    failed = {s.name for s in rep.failures()}
    assert any(name.startswith("operator-bidegree") for name in failed)

    # break skewness while keeping the degree structure: scale one block
    gi = module.space.grade_indices()
    g = module.family.matrices[0]
    src = gi[module.weight]
    dst = gi[module.weight - 2]
    g2 = with_entries(g, {(i, j): g[i, j] * 3 for i in dst for j in src})
    rep = validate_structure(_with_generator(module, 0, g2))
    failed = {s.name for s in rep.failures()}
    assert any(
        name.startswith("operator-skew") or name.startswith("operators-commute")
        for name in failed
    )


def test_dimension_mismatch_is_input_error():
    bad = HLModule(
        space=GradedSpace(1, (BasisVector(1, 1, 1),), Matrix.identity(2)),
        form=Matrix.identity(1),
        family=OperatorFamily((), ()),
        reference=(),
    )
    assert validate_structure(bad).verdict == "input-error"


def test_conjugation_is_checked_as_an_antilinear_map(sq_module):
    # v -> C conj(v) with C = diag(i, 1, 1, 1) is an involution although
    # C * C is not the identity; the phase i breaks the reality of Q
    c = with_entries(Matrix.identity(sq_module.dim), {(0, 0): parse_scalar("1 i")})
    failed = {s.name for s in validate_structure(_with_conjugation(sq_module, c)).failures()}
    assert "conjugation-involution" not in failed
    assert "form-real" in failed


def test_sparse_product_drops_cancelled_entries():
    a = [{0: F(1), 1: F(1)}, {}]
    b = [{0: F(1)}, {0: F(-1)}]
    assert hl._sparse_mul(a, b) == [{}, {}] == sparse_entries(Matrix.zeros(2, 2))


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


def _by_products(c_rows):
    """``_conjugation_products`` with C applied by ``_sparse_mul`` always."""
    return (lambda a: hl._sparse_mul(a, c_rows)), (lambda a: hl._sparse_mul(c_rows, a))


def test_monomial_conjugation_matches_the_product_route(corpus, t1_module, t2_module, t3_module, monkeypatch):
    # a C with one nonzero per row and per column, which every built module
    # has, is applied by relabelling, with no product; the reports equal
    # those of the products on the corpus, the tori and every corrupted
    # module of structure_failures (some C no longer monomial)
    modules = [module for _, _, module in corpus.values()] + [t1_module, t2_module, t3_module]
    for module in modules:
        c_rows = module.space.conjugation.sparse_numerators()[0]
        with monkeypatch.context() as patch:
            patch.setattr(hl, "_sparse_mul", None)
            times_c, c_times = hl._conjugation_products(c_rows)
            assert times_c(c_rows) == c_times(c_rows)
    relabelled, failures = [validate_structure(m).to_json() for m in modules], structure_failure_lines()
    monkeypatch.setattr(hl, "_conjugation_products", _by_products)
    assert [validate_structure(m).to_json() for m in modules] == relabelled
    assert structure_failure_lines() == failures


def _descended(module, times=1):
    return repeated_descent(module, [module.reference] * times).module


STRUCTURE_MODULES = {
    "square": lambda request: request.getfixturevalue("sq_module"),
    "cube3": lambda request: request.getfixturevalue("c3_module"),
    "cube4": lambda request: request.getfixturevalue("c4_module"),
    "cube5": lambda request: build_pkt_module(cube(5)),
    "square-perturbed": lambda request: request.getfixturevalue("corpus")["square-perturbed"][2],
    "cube3-perturbed": lambda request: request.getfixturevalue("corpus")["cube3-perturbed"][2],
    "prism-perturbed": lambda request: request.getfixturevalue("corpus")["prism-perturbed"][2],
    "cube5-perturbed": lambda request: build_pkt_module(perturbed(cube(5), "structure:cube5")),
    "d2d2i": lambda request: build_pkt_module(triangle_triangle_interval()),
    "torus1": lambda request: request.getfixturevalue("t1_module"),
    "torus2": lambda request: request.getfixturevalue("t2_module"),
    "torus3": lambda request: request.getfixturevalue("t3_module"),
    "torus4-dense": lambda request: request.getfixturevalue("t4_dense_module"),
    "cube4-descended": lambda request: _descended(request.getfixturevalue("c4_module")),
    "cube4-descended-twice": lambda request: _descended(request.getfixturevalue("c4_module"), 2),
    "d2d2i-descended": lambda request: _descended(build_pkt_module(triangle_triangle_interval())),
    "torus3-descended": lambda request: _descended(request.getfixturevalue("t3_module")),
}


@pytest.mark.parametrize("name", sorted(STRUCTURE_MODULES))
def test_validate_structure_matches_the_full_scan(name, request):
    # the operator axioms, checked on a basis of the generators' span, give
    # the report of the scan over every pair and every generator
    module = STRUCTURE_MODULES[name](request)
    rep = validate_structure(module)
    assert rep.passed, (name, [s.name for s in rep.failures()])
    assert rep.to_json() == full_scan_structure(module).to_json(), name


def test_span_basis_is_a_greedy_basis_over_q(corpus, t2_module):
    # facet generators span h_1 = r - k dimensions; the torus generators are
    # independent; a rational combination adds nothing, a complex one does
    for name, (p, _, module) in corpus.items():
        gens = [m.sparse_numerators()[0] for m in module.family.matrices]
        basis = hl._span_basis(gens)
        assert len(basis) == p.facet_count - p.dim == rank_of_vectors(
            [[e for row in g.data for e in row] for g in module.family.matrices]
        ), name
        assert basis[0] == 0, name
    rows = [m.sparse_numerators()[0] for m in t2_module.family.matrices]
    assert hl._span_basis(rows) == list(range(len(rows)))
    a, b = t2_module.family.matrices[:2]
    sums = [a.scale(F(2, 3)) + b.scale(-5), a.scale(parse_scalar("1 i")) + b]
    family = OperatorFamily(("a", "b", "rational", "complex"), (a, b, *sums))
    assert hl._span_basis([m.sparse_numerators()[0] for m in family.matrices]) == [0, 1, 3]


def _corruptions(module, basis, rng, gaussian):
    """Seeded edits of each basis generator in its bidegree blocks: one entry
    moved by a rational, or by a Gaussian rational when ``gaussian``."""
    vecs = module.space.vectors
    cells = [
        (i, j)
        for i in range(module.dim)
        for j in range(module.dim)
        if (vecs[i].grade, vecs[i].p, vecs[i].q) == (vecs[j].grade - 2, vecs[j].p - 1, vecs[j].q - 1)
    ]
    for index in basis:
        g = module.family.matrices[index]
        for _ in range(4):
            i, j = rng.choice(cells)
            delta = F(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
            if gaussian:
                delta = delta * parse_scalar("1 i")
            yield _with_generator(module, index, with_entries(g, {(i, j): g[i, j] + delta}))


def test_validate_structure_matches_the_full_scan_on_broken_basis_generators(request):
    # an edit of a basis generator fails a basis check, and the full scan
    # then names the same first offenders as the scan over every generator
    rng = random.Random(2031)
    failed = Counter()
    for name, gaussian in (("cube4", False), ("cube4", True), ("d2d2i", False), ("torus2", False), ("torus2", True)):
        module = STRUCTURE_MODULES[name](request)
        basis = hl._span_basis([m.sparse_numerators()[0] for m in module.family.matrices])
        for broken in _corruptions(module, basis, rng, gaussian):
            rep = validate_structure(broken)
            assert rep.to_json() == full_scan_structure(broken).to_json(), name
            failed.update(s.name.split("[")[0] for s in rep.failures())
    assert {"operators-commute", "operator-skew", "operator-real"} <= set(failed)


def test_validate_structure_commutes_basis_pairs_only(c4_module, monkeypatch):
    # cube4's 8 facet generators span 4 dimensions: 6 pairs, 12 products,
    # certify the 28 pairs a full scan would take with 56
    index = {id(m.sparse_numerators()[0]): n for n, m in enumerate(c4_module.family.matrices)}
    products = []
    real = hl._sparse_mul

    def recorded(a, b):
        if id(a) in index and id(b) in index:
            products.append(frozenset((index[id(a)], index[id(b)])))
        return real(a, b)

    monkeypatch.setattr(hl, "_sparse_mul", recorded)
    assert validate_structure(c4_module).passed
    assert len(products) == 12
    assert set(products) == set(map(frozenset, combinations([0, 2, 4, 6], 2)))


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
        space=GradedSpace(1, (BasisVector(1, 1, 1),), Matrix.identity(1)),
        form=Matrix([[1]]),
        family=OperatorFamily(("t",), (Matrix.zeros(1, 1),)),
        reference=(F(1),),
    )
    with pytest.raises(InvalidModuleError):
        lefschetz_property(lop_sided, (F(1),))


def _zero_operator_module(grades):
    """A weight-2 module by hand, one basis vector per entry of ``grades``
    and one generator, the zero operator, which ranks 0 on every grade."""
    n = len(grades)
    return HLModule(
        space=GradedSpace(2, tuple(BasisVector(g, 2, g) for g in grades), Matrix.identity(n)),
        form=Matrix.identity(n),
        family=OperatorFamily(("t",), (Matrix.zeros(n, n),)),
        reference=(F(1),),
    )


@pytest.mark.parametrize("coeffs", [(F(1),), (F(2),)])
def test_polarization_reads_its_premise_from_the_rank_report(coeffs, monkeypatch):
    # the reference's premise is module.lefschetz, any other operator's its
    # own rank report, which stops at the first grade dimension mismatch:
    # a failed rank before a mismatch is the lefschetz-precondition input
    # error, and a mismatch with no failed rank before it is the report's error
    ranked = []
    real = hl._power_ranks
    monkeypatch.setattr(hl, "_power_ranks", lambda module, t: ranked.append(module.dim) or real(module, t))
    failed_first = _zero_operator_module([1, -1, 2])  # rank 0 of 1 at l = 1, then dim V_2 = 1 != 0
    mismatch_first = _zero_operator_module([1, 2, -2])  # dim V_1 = 1 != 0 at l = 1
    for module in (failed_first, mismatch_first):
        assert module.lefschetz.verdict == "input-error"
    assert [s.name for s in failed_first.lefschetz.failures()] == ["power-rank[l=1]"]
    ranked.clear()

    rep = polarization_check(failed_first, coeffs)
    assert (rep.verdict, rep.data) == ("input-error", {})
    assert [(s.name, s.passed) for s in rep.subchecks] == [("lefschetz-precondition", False)]
    rep = polarization_check(mismatch_first, coeffs)
    assert (rep.verdict, rep.subchecks) == ("input-error", [])
    assert rep.data == {"error": "dim-mismatch: dim V_1 = 1 != 0 = dim V_-1"} == mismatch_first.lefschetz.data
    # the reference is ranked once, for module.lefschetz
    assert ranked == ([] if coeffs == (F(1),) else [3, 3])


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
    edits = {}
    changed = False
    for l, idx in gi.items():
        for i in gi.get(l + 2, []):
            for j in idx:
                if rng.random() < 0.5:
                    edits[i, j] = triple.n_plus[i, j] + F(rng.randint(1, 3))
                    changed = True
    assert changed
    perturbed = with_entries(triple.n_plus, edits)
    assert perturbed * triple.n - triple.n * perturbed != triple.y


@pytest.mark.parametrize("skew", ["dropped", "dependent"])
def test_sl2_rejects_strings_that_are_no_basis(sq_module, monkeypatch, skew):
    # the square has one primitive in V_0; dropping it leaves 3 string
    # vectors, and replacing it by T of the top primitive leaves a
    # dependent set of 4; sl2_complete reads the primitives of V_0 as the
    # kernel of the block T: V_0 -> V_-2
    real = hl.kernel_basis
    t = sq_module.operator(sq_module.reference)
    primitive_block, step = hl.product_block(sq_module, [t], 0), hl.product_block(sq_module, [t], 2)

    def skewed(m):
        if m == primitive_block:
            return ([] if skew == "dropped" else [tuple(step.apply([F(1)]))]), m.rank()
        return real(m)

    monkeypatch.setattr(hl, "kernel_basis", skewed)
    with pytest.raises(ConstructionError, match="no-basis"):
        sl2_complete(sq_module, sq_module.reference)


# ---------------------------------------------------------------------------
# polarization and the cone
# ---------------------------------------------------------------------------


def test_polarization_hermitian_form_value(sq_module):
    t = sq_module.operator(sq_module.reference)
    h, vectors = hermitian_primitive_form(sq_module, t, 0, 1, 1)
    assert len(vectors) == 1
    assert h == Matrix([[F(2)]])


def test_globally_negated_form_fails_polarization(sq_module):
    negated = _replace_form(sq_module, sq_module.form.scale(F(-1)))
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
    negated = _replace_form(sq_module, sq_module.form.scale(F(-1)))
    with pytest.raises(DescentError, match=r"^module fails polarization: positive-definite"):
        _certify_module(negated, DescentError)
    lop_sided = _replace_form(sq_module, Matrix.identity(sq_module.dim))
    with pytest.raises(ConstructionError, match=r"^module fails validate-structure: "):
        _certify_module(lop_sided, ConstructionError)
    boundary = HLModule(sq_module.space, sq_module.form, sq_module.family, (F(1), F(0), F(0), F(0)))
    with pytest.raises(ConstructionError, match=r"^module fails polarization: lefschetz-precondition$"):
        _certify_module(boundary, ConstructionError)


def test_certificates_are_functions_of_the_data(c3_module):
    # a copy with the zero reference takes its own reports on first read;
    # the original keeps its passed ones
    zero = dataclasses.replace(c3_module, reference=(F(0),) * len(c3_module.reference))
    assert zero.structure.passed
    assert not zero.lefschetz.passed
    assert zero.polarization.verdict == "input-error"
    assert [s.name for s in zero.polarization.failures()] == ["lefschetz-precondition"]
    assert c3_module.structure.passed and c3_module.lefschetz.passed and c3_module.polarization.passed


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


def _fraction_candidates(reference, rng, count):
    """The sampler's first ``count`` draws on Fractions: b + r / 64 * scale,
    the scale halved after every ten."""
    scale, out = F(1, 4), []
    for attempt in range(count):
        out.append(tuple(b + F(rng.randint(-16, 16), 64) * scale for b in reference))
        if attempt % 10 == 9:
            scale /= 2
    return out


def test_sampler_draws_are_the_fraction_draws(corpus, c3_module, monkeypatch):
    # each coefficient is built as one Fraction from the reference's
    # numerators, equal to the draw on Fractions; the negated cube3 rejects
    # all 60 draws, so every halving of the scale is passed
    negated = HLModule(c3_module.space, c3_module.form, c3_module.family, tuple(-c for c in c3_module.reference))
    seen = []
    monkeypatch.setattr(hl, "cone_membership", lambda module, c: seen.append(c) or cone_membership(module, c))
    for module in (corpus["square-perturbed"][2], corpus["cube3-perturbed"][2], negated):
        for seed in range(3):
            seen.clear()
            try:
                sample_cone_element(module, random.Random(seed))
            except PreconditionError:
                assert len(seen) == 60
            assert seen == _fraction_candidates(module.reference, random.Random(seed), len(seen))
            assert all(type(x) is F for c in seen for x in c)
    assert any(x.denominator > 1 for x in corpus["cube3-perturbed"][2].reference)


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


# name -> (module fixture, family attribute): Q and Q(i) module families,
# the dense nonreal k = 4 reference among them, and the cone pencils of a
# polytope (diagonal) and a torus (Hermitian)
COMBINED_FAMILIES = {
    "c3_module": ("c3_module", "family"),
    "t2_module": ("t2_module", "family"),
    "t3_module": ("t3_module", "family"),
    "t4_dense_module": ("t4_dense_module", "family"),
    "c4_module-cone": ("c4_module", "cone"),
    "t3_module-cone": ("t3_module", "cone"),
}


@pytest.mark.parametrize("name", sorted(COMBINED_FAMILIES))
def test_combine_matches_dense_sum(name, request):
    # the sparse assembly against the dense reference sum of c_i * G_i
    fixture, attr = COMBINED_FAMILIES[name]
    module = request.getfixturevalue(fixture)
    family = getattr(module, attr)
    dim = family.matrices[0].rows
    before = [m.data for m in family.matrices]
    rng = random.Random(11)
    trials = [tuple(F(0) for _ in family.matrices), module.reference]
    for _ in range(6):
        # about two thirds of the coefficients are zero, the rest signed
        trials.append(
            tuple(F(rng.choice([0, 0, rng.randint(-5, 5)]), rng.randint(1, 4)) for _ in family.matrices)
        )
    assert any(c < 0 for trial in trials for c in trial)
    for coeffs in trials:
        dense = Matrix.zeros(dim, dim)
        for c, mat in zip(coeffs, family.matrices):
            dense = dense + mat.scale(c)
        assert family.combine(coeffs, dim) == dense
        if attr == "family":
            assert module.operator(coeffs) == dense
    assert [m.data for m in family.matrices] == before
    # the view combine reads is each matrix's nonzero numerators by row, and
    # takes no part in equality or repr
    for m in family.matrices:
        rows, d = m.numerators()
        assert m.sparse_numerators() == ([{j: e for j, e in enumerate(row) if e} for row in rows], d)
    assert OperatorFamily(family.names, family.matrices) == family
    assert "{" not in repr(family)


def test_families_derive_their_rows_once(corpus, monkeypatch):
    # from a cube4 build through its whole suite, the built generators are
    # born with their sparse view and never derive it, each matrix of the
    # other families (cone pencil, descended generators) derives it from its
    # rows exactly once, and combine reads no matrix entry outside that
    # derivation
    p, nu, _ = corpus["cube4"]
    depth = {"combine": 0, "derive": 0}
    families, converted, reads = [], [], []

    def tracked(fn, key):
        def wrapper(*args):
            depth[key] += 1
            try:
                return fn(*args)
            finally:
                depth[key] -= 1

        return wrapper

    def read(m):
        # a sparse view reads its matrix's rows only when it derives from them
        if depth["derive"]:
            converted.append(m)
        elif depth["combine"]:
            reads.append(m)

    combine, view = tracked(OperatorFamily.combine, "combine"), tracked(Matrix.sparse_numerators, "derive")
    numerators, data = Matrix.numerators, Matrix.data.fget
    monkeypatch.setattr(OperatorFamily, "combine", lambda self, *args: families.append(self) or combine(self, *args))
    monkeypatch.setattr(Matrix, "sparse_numerators", view)
    monkeypatch.setattr(Matrix, "numerators", lambda self: read(self) or numerators(self))
    monkeypatch.setattr(Matrix, "data", property(lambda self: read(self) or data(self)))

    module = build_pkt_module(p, nu)
    reports = cli._module_suite(module, random.Random(7), 1, True)
    assert all(r.passed for r in reports)
    assert reads == []
    unique = list({id(f): f for f in families}.values())
    assert {id(module.family), id(module.cone)} < {id(f) for f in unique}
    counts = Counter(map(id, converted))
    expected = [int(f is not module.family) for f in unique for _ in f.matrices]
    assert [counts[id(m)] for f in unique for m in f.matrices] == expected


def test_cone_membership_dim_mismatch_raises():
    lop_sided = HLModule(
        space=GradedSpace(1, (BasisVector(1, 1, 1),), Matrix.identity(1)),
        form=Matrix([[1]]),
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
        q = module.form
        for i, vi in enumerate(module.space.vectors):
            for j, vj in enumerate(module.space.vectors):
                if vi.grade + vj.grade != 0:
                    assert not q.data[i][j], name


def test_lefschetz_report_carries_rank_witness(sq_module):
    rep = lefschetz_report(sq_module, [1, 0, 0, 0])
    assert rep.verdict == "fail"
    assert any(s.witness and "rank" in s.witness for s in rep.failures())


def test_operator_blocks_stay_on_numerators(corpus, monkeypatch):
    # combine, the block chain, its ranks and its kernels pass carriers of
    # numerators along, so no matrix goes back through exact.integer_rows
    module = corpus["cube4"][2]
    calls = []
    real = exact.integer_rows
    monkeypatch.setattr(exact, "integer_rows", lambda rows: calls.append(rows) or real(rows))
    t = module.operator(module.reference)
    for l in range(1, 5):
        block = hl.product_block(module, [t] * l, l)
        assert block.rank() == module.space.grade_dims().get(l, 0)
        kernel_basis(block)
    assert calls == []
