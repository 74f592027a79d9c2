"""Descent, quotient presentations, Koszul complexes, and purity."""

import dataclasses
import importlib
import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import descent_oracles
from filtration_oracles import intersect_spaces, rank_of_vectors
from matrix_edits import with_entries
from purity_reports import purity_tuples
from torus_oracles import form_value
from hlmod import cli, exact
from hlmod.exact import Matrix, echelon_basis, kernel_basis, parse_scalar
from hlmod.hodge_lefschetz import (
    BasisVector,
    ConstructionError,
    GradedSpace,
    HLModule,
    OperatorFamily,
    PreconditionError,
    cone_membership,
    lefschetz_property,
    polarization_check,
    sample_cone_element,
    sample_cone_tuple,
    validate_structure,
)
from hlmod.descent import (
    DescentError,
    KoszulComplex,
    descent,
    koszul_complex,
    purity_check,
    quotient_descent,
    repeated_descent,
)
from hlmod.mixed import ConeMembershipError
from hlmod.serialization import module_text

F = Fraction


# ---------------------------------------------------------------------------
# descent
# ---------------------------------------------------------------------------


def test_square_descent_dims(sq_module):
    res = descent(sq_module, sq_module.reference)
    assert res.module.weight == 1
    assert res.module.space.grade_dims() == {-1: 1, 1: 1}


def test_cube_descent_dims_match_blockwise_ranks(c3_module):
    t = c3_module.operator(c3_module.reference)
    res = descent(c3_module, c3_module.reference)
    gi = c3_module.space.grade_indices()
    dims = res.module.space.grade_dims()
    for level in range(-res.module.weight, res.module.weight + 1):
        src = gi.get(level + 1, [])
        if not src:
            assert dims.get(level, 0) == 0
            continue
        cols = [t.column(i) for i in src]
        assert dims.get(level, 0) == len(echelon_basis(cols)), level
    assert dims == {-2: 1, 0: 3, 2: 1}


def test_descent_output_passes_full_suite(corpus):
    for name, (_, _, module) in corpus.items():
        res = descent(module, module.reference)
        new = res.module
        assert validate_structure(new).passed, name
        if new.dim:
            assert lefschetz_property(new, new.reference), name
            assert polarization_check(new, new.reference).passed, name
            assert cone_membership(new, new.reference), name


def test_descent_with_zero_operator_gives_zero_module(sq_module):
    res = descent(sq_module, [0, 0, 0, 0])
    assert res.module.dim == 0


def test_descent_on_boundary_element(sq_module):
    # segment summand of the square: not Lefschetz itself, but T + l N0 is
    # for every positive l, so descent applies
    assert not lefschetz_property(sq_module, [1, 0, 0, 0])
    res = descent(sq_module, [1, 0, 0, 0])
    assert res.module.space.grade_dims() == {-1: 1, 1: 1}
    assert validate_structure(res.module).passed


def test_descent_premise_violation_rejected(sq_module):
    # the negated reference shifts outside the closure: T + l N0 stays
    # degenerate for small l
    with pytest.raises(PreconditionError):
        descent(sq_module, [-c for c in sq_module.reference])


def test_descent_projection_and_section(sq_module):
    res = descent(sq_module, sq_module.reference)
    t = sq_module.operator(sq_module.reference)
    # projection of T . (section of each new basis vector) is that vector
    for j in range(res.module.dim):
        pre = res.section.column(j)
        image_coords = res.projection.apply(pre)
        expected = [F(1) if i == j else F(0) for i in range(res.module.dim)]
        assert image_coords == expected


def test_form_well_definedness_invariant(corpus):
    rng = random.Random(3)
    for name, (_, _, module) in corpus.items():
        t = module.operator(sample_cone_element(module, rng))
        kern, _ = kernel_basis(t)
        image = echelon_basis([t.column(j) for j in range(module.dim)])
        for u in kern:
            for w in image:
                assert form_value(module, u, w) == 0, name


# ---------------------------------------------------------------------------
# repeated and quotient descent
# ---------------------------------------------------------------------------


def test_repeated_matches_iterated(sq_module, c3_module):
    for module in (sq_module, c3_module):
        direct = repeated_descent(module, [module.reference] * 2)
        once = descent(module, module.reference)
        twice = descent(once.module, once.module.reference)
        assert (
            direct.module.space.grade_dims()
            == twice.module.space.grade_dims()
        )
        # the two presentations are related by an exact base change
        if direct.module.dim:
            change_cols = []
            for j in range(twice.module.dim):
                coords = direct.projection.apply(once.section.apply(
                    twice.section.column(j)
                ))
                change_cols.append(coords)
            change = Matrix.from_columns(change_cols, direct.module.dim)
            assert change.det() != 0
            transported = change.transpose() * direct.module.form * change
            assert transported == twice.module.form


def test_repeated_descent_length_zero_is_identity_presentation(sq_module):
    res = repeated_descent(sq_module, [])
    assert res.module.space.grade_dims() == sq_module.space.grade_dims()
    assert res.module.form == sq_module.form


def test_repeated_descent_rejects_a_tuple_longer_than_the_weight(sq_module):
    with pytest.raises(PreconditionError) as err:
        repeated_descent(sq_module, [sq_module.reference] * (sq_module.weight + 1))
    assert err.type is PreconditionError


def test_full_length_descent_is_positive_point(sq_module):
    res = repeated_descent(sq_module, [sq_module.reference] * sq_module.weight)
    assert res.module.weight == 0
    assert res.module.dim == 1
    value = res.module.form.data[0][0]
    assert value > 0


def test_quotient_descent_power_zero(sq_module):
    qd = quotient_descent(sq_module, sq_module.reference, 0)
    assert qd.module.space.grade_dims() == sq_module.space.grade_dims()
    assert qd.module.dim == sq_module.dim


def test_quotient_descent_rejects_powers_outside_zero_to_weight(sq_module):
    for power in (-1, sq_module.weight + 1):
        with pytest.raises(PreconditionError) as err:
            quotient_descent(sq_module, sq_module.reference, power)
        assert err.type is PreconditionError, power


def test_quotient_descent_tests_k_at_power_zero(sq_module):
    # T^0 is the identity, yet T must still lie in K: (1, 0, 0, 0) is on its wall
    with pytest.raises(ConeMembershipError):
        quotient_descent(sq_module, [1, 0, 0, 0], 0)


def test_quotient_descent_square(sq_module):
    qd = quotient_descent(sq_module, sq_module.reference, 1)
    assert qd.module.dim == 2
    assert qd.module.space.grade_dims() == {-1: 1, 1: 1}
    assert qd.isomorphism.det() != 0
    iso = qd.isomorphism
    assert iso.transpose() * qd.image.module.form * iso == qd.module.form


def test_quotient_descent_cube_power_two(c3_module):
    qd = quotient_descent(c3_module, c3_module.reference, 2)
    assert qd.module.space.grade_dims() == qd.image.module.space.grade_dims()
    for g_q, g_i in zip(qd.module.family.matrices, qd.image.module.family.matrices):
        assert qd.isomorphism * g_q == g_i * qd.isomorphism


@pytest.mark.parametrize("name", ["cube3", "torus2"])
def test_quotient_descent_is_the_image_module(name, c3_module, t2_module):
    module = {"cube3": c3_module, "torus2": t2_module}[name]
    for power in range(module.weight + 1):
        qd = quotient_descent(module, module.reference, power)
        assert qd.module == qd.image.module, power
        assert qd.isomorphism == Matrix.identity(qd.image.module.dim), power


def test_quotient_descent_takes_the_kernel_once(c3_module, monkeypatch):
    # the image descent hands over the kernel of T^power it checked the form on
    descent_mod = importlib.import_module("hlmod.descent")
    real, calls = descent_mod._ambient_kernel, []
    monkeypatch.setattr(descent_mod, "_ambient_kernel", lambda m, mats: calls.append(len(mats)) or real(m, mats))
    quotient_descent(c3_module, c3_module.reference, 2)
    assert calls == [2]


def test_quotient_descent_rejects_a_dropped_kernel(c3_module, monkeypatch):
    # without the kernel the generator images of the representatives are
    # not combinations of representatives
    monkeypatch.setattr(importlib.import_module("hlmod.descent"), "_ambient_kernel", lambda m, mats: [])
    with pytest.raises(DescentError):
        quotient_descent(c3_module, c3_module.reference, 1)


def _negated_conjugation(module):
    space = dataclasses.replace(module.space, conjugation=module.space.conjugation.scale(-1))
    return dataclasses.replace(module, space=space)


def _doubled_generators(module):
    family = dataclasses.replace(module.family, matrices=tuple(g.scale(2) for g in module.family.matrices))
    return dataclasses.replace(module, family=family)


@pytest.mark.parametrize("tamper", [_negated_conjugation, _doubled_generators])
def test_quotient_descent_compares_class_coordinates_with_the_image(tamper, c3_module, monkeypatch):
    descent_mod = importlib.import_module("hlmod.descent")
    real = descent_mod._descend

    def tampered(module, mats):
        image, kernel = real(module, mats)
        return dataclasses.replace(image, module=tamper(image.module)), kernel

    monkeypatch.setattr(descent_mod, "_descend", tampered)
    with pytest.raises(DescentError, match="class coordinates disagree"):
        quotient_descent(c3_module, c3_module.reference, 1)


def test_quotient_descent_certifies_the_operator_once(c3_module, monkeypatch):
    # the image presentation is descended from the certified operator
    # directly, not re-certified once per factor of T^power; the operator is
    # certified by the tuple gate of hlmod.mixed, and hlmod.descent holds no
    # cone_membership of its own to bypass it
    calls = []

    def counted(module, coeffs):
        calls.append(coeffs)
        return cone_membership(module, coeffs)

    monkeypatch.setattr(importlib.import_module("hlmod.mixed"), "cone_membership", counted)
    assert not hasattr(importlib.import_module("hlmod.descent"), "cone_membership")
    quotient_descent(c3_module, c3_module.reference, 2)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Koszul complexes and purity
# ---------------------------------------------------------------------------


def test_koszul_single_operator(sq_module):
    kc = koszul_complex(sq_module, [sq_module.reference])
    assert kc.term_dim(0) == sq_module.dim
    t = sq_module.operator(sq_module.reference)
    assert kc.term_dim(1) == len(
        echelon_basis([t.column(j) for j in range(sq_module.dim)])
    )
    rep = purity_check(kc)
    assert rep.passed
    # H^0 = ker T in weights <= 0 and H^1 = 0
    assert rep.data["h-dim[p=0]"] == 2
    assert rep.data["h-dim[p=1]"] == 0


def test_koszul_rejects_the_empty_tuple(sq_module):
    with pytest.raises(PreconditionError) as err:
        koszul_complex(sq_module, [])
    assert err.type is PreconditionError


def test_koszul_pair_on_square(sq_module):
    rng = random.Random(13)
    entries = [sq_module.reference, sample_cone_element(sq_module, rng)]
    kc = koszul_complex(sq_module, entries)
    assert kc.term_dim(0) == 4
    assert len(kc.terms[1]) == 2
    assert len(kc.terms[2]) == 1
    assert purity_check(kc).passed


def test_koszul_differential_signs_cancel(c3_module):
    rng = random.Random(19)
    entries = sample_cone_tuple(c3_module, rng, 3)
    kc = koszul_complex(c3_module, entries)
    for p in range(len(kc.differentials) - 1):
        assert (kc.differentials[p + 1] * kc.differentials[p]).is_zero()


def test_purity_on_zero_operator_module():
    # weight 0 module with one zero generator: H^0 is everything, in weight 0
    module = HLModule(
        space=GradedSpace(0, (BasisVector(0, 0, 0),), Matrix.identity(1)),
        form=Matrix([[F(1)]]),
        family=OperatorFamily(("z",), (Matrix.zeros(1, 1),)),
        reference=(F(0),),
    )
    assert validate_structure(module).passed
    assert cone_membership(module, module.reference)
    kc = koszul_complex(module, [module.reference])
    rep = purity_check(kc)
    assert rep.passed
    assert rep.data["h-dim[p=0]"] == 1


def test_purity_random_tuples(corpus, t2_module):
    rng = random.Random(29)
    modules = [corpus[n][2] for n in ("square", "cube3")] + [t2_module]
    for module in modules:
        for length in (1, 2, 3):
            entries = sample_cone_tuple(module, rng, length)
            kc = koszul_complex(module, entries, require_cone=False)
            assert purity_check(kc).passed


def _graded_dims_by_intersection(kc):
    """Graded dims and h-dims of the Koszul cohomology from (ker ∩ W_l) + im."""
    k = kc.module.weight
    graded, h_dims = {}, {}
    for p in range(kc.operator_count + 1):
        dim_p = kc.term_dim(p)
        if p < kc.operator_count:
            z = echelon_basis(kernel_basis(kc.differentials[p])[0])
        else:
            z = [tuple(row) for row in Matrix.identity(dim_p).data]
        b = []
        if p > 0:
            d_prev = kc.differentials[p - 1]
            b = echelon_basis([d_prev.column(j) for j in range(d_prev.cols)])
        h_dims[f"h-dim[p={p}]"] = len(z) - len(b)
        prev = 0
        for level in range(-k - p, k - p + 1):
            w = kc.filtration_basis(p, level)
            inter = intersect_spaces(z, w, dim_p) if w else []
            here = len(echelon_basis(list(inter) + list(b))) - len(b)
            if here - prev:
                graded[f"p={p},l={level}"] = here - prev
            prev = here
    return graded, h_dims


def test_purity_rank_identity_matches_intersection_formula(corpus, t2_module):
    rng = random.Random(31)
    modules = [corpus[n][2] for n in ("square", "cube3")] + [t2_module]
    for module in modules:
        r = len(module.reference)
        tuples = [sample_cone_tuple(module, rng, length) for length in (1, 2, 3)]
        # tuples outside the cone too: boundary and seeded arbitrary elements
        tuples.append([[1] + [0] * (r - 1)])
        tuples.append([[rng.randint(-2, 2) for _ in range(r)] for _ in range(2)])
        for entries in tuples:
            kc = koszul_complex(module, entries, require_cone=False)
            rep = purity_check(kc)
            graded, h_dims = _graded_dims_by_intersection(kc)
            assert rep.data["graded-dims"] == graded
            assert {key: rep.data[key] for key in h_dims} == h_dims


def test_koszul_rejects_a_basis_vector_of_two_grades(sq_module, monkeypatch):
    descent_mod = importlib.import_module("hlmod.descent")
    real = descent_mod.echelon_basis

    def mixed(vectors):
        basis = real(vectors)
        if len(basis) < 2:
            return basis
        # the first and last basis vectors lie in different grades
        return [tuple(a + b for a, b in zip(basis[0], basis[-1]))] + basis[1:]

    monkeypatch.setattr(descent_mod, "echelon_basis", mixed)
    kc = koszul_complex(sq_module, [sq_module.reference])
    # the explicit complex is built, and checked, when first read
    with pytest.raises(ConstructionError, match="not homogeneous"):
        kc.terms


def test_koszul_rejects_a_differential_that_mixes_grades(sq_module, monkeypatch):
    descent_mod = importlib.import_module("hlmod.descent")
    real = descent_mod._coordinates

    def reversed_coordinates(basis, pivots, vectors):
        # the summand T.V has one coordinate in grade 0 and one in grade -2
        c = real(basis, pivots, vectors)
        return None if c is None else Matrix(c.data[::-1], c.rows, c.cols)

    monkeypatch.setattr(descent_mod, "_coordinates", reversed_coordinates)
    kc = koszul_complex(sq_module, [sq_module.reference])
    with pytest.raises(ConstructionError, match="lower the grade"):
        kc.differentials


def test_purity_witness_is_a_class_of_the_reported_weight(corpus):
    failures = 0
    for name in ("square", "cube3", "prism", "cube4"):
        module = corpus[name][2]
        for entries in purity_tuples(name, module):
            kc = koszul_complex(module, entries, require_cone=False)
            for sub in purity_check(kc).failures():
                failures += 1
                p, level = sub.witness["p"], sub.witness["level"]
                v = [parse_scalar(e) for e in sub.witness["class"]]
                dim_p = kc.term_dim(p)
                assert level > 0
                if p < kc.operator_count:
                    z = echelon_basis(kernel_basis(kc.differentials[p])[0])
                    assert not any(kc.differentials[p].apply(v))
                else:
                    z = [tuple(row) for row in Matrix.identity(dim_p).data]
                # weight exactly ``level``: in W_level, not in W_{level-1}
                assert rank_of_vectors(list(kc.filtration_basis(p, level)) + [v]) == len(
                    kc.filtration_basis(p, level)
                )
                below = list(kc.filtration_basis(p, level - 1))
                assert rank_of_vectors(below + [v]) > len(below)
                # outside (ker ∩ W_0) + im, the subspace of weight <= 0 classes
                b = []
                if p > 0:
                    b = kc.differentials[p - 1].columns()
                w0 = kc.filtration_basis(p, 0)
                low = echelon_basis(list(intersect_spaces(z, w0, dim_p) if w0 else []) + b)
                assert rank_of_vectors(low + [v]) > len(low)
    assert failures >= 20


def test_purity_witness_skips_kernel_vectors_in_the_image():
    # a two-term complex by hand, read as the explicit parts that
    # _explicit_dims reads: d^0 sends the grade-2 coordinate onto the first
    # grade-0 coordinate of term 1, so the first kernel vector there is a
    # boundary and the class of weight 1 is the second one
    descent_mod = importlib.import_module("hlmod.descent")
    kc = SimpleNamespace(operator_count=1, grades=((2,), (0, 0)), differentials=(Matrix([[F(1)], [F(0)]]),))
    dims, witnesses = descent_mod._explicit_dims(kc)
    assert dims == {(1, 0): 1}
    assert witnesses == {1: {"p": 1, "level": 1, "class": ["0", "1"]}}


def test_purity_graded_dims_are_reported(sq_module):
    kc = koszul_complex(sq_module, [sq_module.reference])
    rep = purity_check(kc)
    assert "graded-dims" in rep.data
    assert all(l.startswith("p=") for l in rep.data["graded-dims"])


def test_purity_failure_carries_witness(sq_module):
    # d1 - d2 acts as zero on the square algebra (the two classes agree),
    # so the top class survives in positive weight: a genuine purity
    # violation for an operator outside the cone
    t = sq_module.operator({"d1": 1, "d2": -1})
    assert t.is_zero()
    kc = koszul_complex(sq_module, [{"d1": 1, "d2": -1}], require_cone=False)
    rep = purity_check(kc)
    assert rep.verdict == "fail"
    bad = rep.failures()[0]
    assert bad.witness is not None
    assert bad.witness["level"] > 0
    assert "class" in bad.witness


def test_mixed_decomposition_failure_witness(sq_module):
    from hlmod.mixed import mixed_decomposition_check

    # on the boundary element d1 the kernel piece and the image piece of
    # grade 0 coincide, so the sum cannot be direct
    rep = mixed_decomposition_check(sq_module, [[1, 0, 0, 0]], require_cone=False)
    assert rep.verdict == "fail"
    witness = rep.failures()[0].witness
    assert witness is not None and "intersection-vector" in witness


def test_koszul_converts_only_its_summand_bases(corpus, monkeypatch):
    # the operators, their images and coordinates and the differentials are
    # carriers of numerators; only the summand bases, vectors of scalars,
    # go through exact.integer_rows, once each
    module = corpus["cube4"][2]
    entries = sample_cone_tuple(module, random.Random(3), 3)
    calls = []
    real = exact.integer_rows
    monkeypatch.setattr(exact, "integer_rows", lambda rows: calls.append([tuple(r) for r in rows]) or real(rows))
    kc = koszul_complex(module, entries)
    assert calls == []  # the explicit parts are built when first read
    terms = kc.terms
    assert calls == [list(s.basis) for term in terms for s in term]
    assert sum(map(len, calls)) == sum(kc.term_dim(p) for p in range(4))


def test_purity_rank_table_matches_the_explicit_complex(corpus, t1_module, t2_module):
    # every tuple of the purity goldens, zero and out-of-cone ones included,
    # and the longest tuples --lengths allows on cube3 and cube4: the ranks
    # give the per-grade kernel dims of the explicit complex
    descent_mod = importlib.import_module("hlmod.descent")
    modules = {name: corpus[name][2] for name in corpus} | {"torus1": t1_module, "torus2": t2_module}
    cases = [(module, entries) for name, module in modules.items() for entries in purity_tuples(name, module)]
    assert len(cases) == 245
    cases += [(corpus[name][2], sample_cone_tuple(corpus[name][2], random.Random(t), t)) for name, t in (("cube3", 11), ("cube4", 10))]
    for module, entries in cases:
        kc = koszul_complex(module, entries, require_cone=False)
        explicit, _ = descent_mod._explicit_dims(kc)
        assert descent_mod._rank_dims(module, kc.operators) == explicit
        rep = purity_check(kc)
        assert {f"p={p},l={g + p}": dim for (p, g), dim in explicit.items()} == rep.data["graded-dims"]
        for p in range(len(entries) + 1):
            assert rep.data[f"h-dim[p={p}]"] == sum(dim for (q, _), dim in explicit.items() if q == p)


def test_rank_dims_lists_index_subsets_only_up_to_the_weight(sq_module, monkeypatch):
    # T_J V = 0 for |J| > k, so a 12-entry tuple on the square (k = 2) lists
    # the subsets of sizes 0, 1 and 2 of its indices, 1 + 12 + 66 = 79 of
    # them, not all 4096
    descent_mod = importlib.import_module("hlmod.descent")
    real, listed = descent_mod.combinations, []

    def counted(items, r):
        out = list(real(items, r))
        if items == range(12):
            listed.extend(out)
        return iter(out)

    monkeypatch.setattr(descent_mod, "combinations", counted)
    assert purity_check(koszul_complex(sq_module, [sq_module.reference] * 12)).passed
    assert len(listed) == 79


def test_purity_rejects_a_tuple_that_does_not_commute(sq_module):
    # d1 with its grade-0 -> grade-(-2) entry (3, 2) doubled still lowers the
    # grade by 2, but d1 d3 e0 = 2 e3 while d3 d1 e0 = e3
    d1, d2, d3, d4 = sq_module.family.matrices
    family = dataclasses.replace(sq_module.family, matrices=(with_entries(d1, {(3, 2): 2}), d2, d3, d4))
    module = dataclasses.replace(sq_module, family=family)
    kc = koszul_complex(module, [(1, 0, 0, 0), (0, 0, 1, 0)], require_cone=False)
    with pytest.raises(ConstructionError, match="does not commute"):
        purity_check(kc)


def test_purity_reads_its_premise_off_the_structure_report(corpus, monkeypatch):
    # the module's own operators on a module whose structure passed: the
    # only blocks formed are the T_J blocks of the rank table, with no
    # commutation pair [a, b] against [b, a]; equal matrices that the module
    # did not combine are scanned for both premises
    descent_mod = importlib.import_module("hlmod.descent")
    module = corpus["cube4"][2]
    own = koszul_complex(module, sample_cone_tuple(module, random.Random(3), 3))
    copies = KoszulComplex(module, tuple(with_entries(t, {}) for t in own.operators))
    gi = module.space.grade_indices()
    t_j = [(J, h) for p in range(1, 4) for J in itertools.combinations(range(3), p) for h in gi if h - 2 * p in gi]
    pairs = [(ab, h) for ab in itertools.permutations(range(3), 2) for h in gi]
    real = descent_mod.product_block
    for kc, expected in ((own, t_j), (copies, t_j + pairs)):
        calls = []

        def counted(module, mats, start):
            calls.append((tuple(next(j for j, t in enumerate(kc.operators) if t is m) for m in mats), start))
            return real(module, mats, start)

        monkeypatch.setattr(descent_mod, "product_block", counted)
        assert module.structure.passed and purity_check(kc).passed
        assert sorted(calls) == sorted(expected)


def test_hand_built_complex_that_does_not_commute_is_refused(sq_module):
    # d1 with its entry (3, 2) doubled still lowers the grade by 2 but does
    # not commute with d3; the square's own structure passes, and the tuple
    # is not the module's, so the scan runs and refuses it
    d1, _, d3, _ = sq_module.family.matrices
    assert sq_module.structure.passed
    with pytest.raises(ConstructionError, match="does not commute"):
        purity_check(KoszulComplex(sq_module, (with_entries(d1, {(3, 2): 2}), d3)))


def _oracle_descents(module, name):
    """(label, route output, oracle output) for descent, every repeated
    descent and every quotient descent along a sampled tuple of ``module``."""
    k = module.weight
    entries = sample_cone_tuple(module, random.Random(name), max(k, 1))
    yield "descent", descent(module, entries[0]), descent_oracles.descend(module, [module.operator(entries[0])])[0]
    for t in range(k + 1):
        yield f"repeated[{t}]", repeated_descent(module, entries[:t]), descent_oracles.descend(
            module, [module.operator(c) for c in entries[:t]]
        )[0]
    for power in range(k + 1):
        ours, oracle = quotient_descent(module, entries[0], power), descent_oracles.quotient_descent(module, entries[0], power)
        assert ours.isomorphism == oracle.isomorphism
        yield f"quotient[{power}]", ours.image, oracle.image


def _rescaled_generators(module):
    """The module with generator j scaled by s_j = (j + 2) / (2j + 1), its
    reference entry by 1 / s_j and its cone matrix by s_j: the same
    operators and cone, over generators of different denominators."""
    scales = [F(j + 2, 2 * j + 1) for j in range(len(module.family))]
    family = dataclasses.replace(module.family, matrices=tuple(g.scale(s) for g, s in zip(module.family.matrices, scales)))
    cone = dataclasses.replace(module.cone, matrices=tuple(k.scale(s) for k, s in zip(module.cone.matrices, scales)))
    return dataclasses.replace(module, family=family, reference=tuple(c / s for c, s in zip(module.reference, scales)), cone=cone)


def test_span_basis_descent_writes_the_all_generator_modules(corpus, t1_module, t2_module, t3_module):
    # descent solves only for the span basis of the generators and combines
    # the rest; the all-generator solve of tests/descent_oracles.py must
    # write the same module text and transport matrices on the corpus and
    # the tori, including modules with dependent generators, also over
    # generators of different denominators
    modules = {name: module for name, (_, _, module) in corpus.items()}
    modules.update(torus1=t1_module, torus2=t2_module, torus3=t3_module)
    modules.update({f"{name}-rescaled": _rescaled_generators(modules[name]) for name in ("square", "cube3", "prism")})
    span, dependent = importlib.import_module("hlmod.descent")._generator_span, 0
    for name, module in modules.items():
        dependent += len(span(module)[0]) < len(module.family)
        for label, ours, oracle in _oracle_descents(module, name):
            assert module_text(ours.module) == module_text(oracle.module), (name, label)
            assert (ours.embedding, ours.section, ours.projection) == (oracle.embedding, oracle.section, oracle.projection)
    assert dependent >= 13


def test_cli_purity_pass_stays_on_numerators(corpus, monkeypatch):
    # a passing purity check reads ranks of the operators' grade blocks only:
    # no scalar is converted and no summand basis is built
    module = corpus["cube4"][2]
    entries = sample_cone_tuple(module, random.Random(3), 3)
    calls, built = [], []
    real = exact.integer_rows
    monkeypatch.setattr(exact, "integer_rows", lambda rows: calls.append(rows) or real(rows))
    monkeypatch.setattr(importlib.import_module("hlmod.descent"), "_explicit_complex", lambda *args: built.append(args))
    rep = cli._purity(module, entries, require_cone=False)
    assert rep.passed and rep.data["graded-dims"]
    assert calls == [] and built == []


def test_descent_converts_only_kernel_vectors(corpus, monkeypatch):
    # the kernel of T, whose pairing with the image it checks, then the
    # primitive kernels that certify the descended module's polarization,
    # each read once: its conjugate and coordinate rows come from one carrier
    module = corpus["cube4"][2]
    kernel = [u for u, _ in importlib.import_module("hlmod.hodge_lefschetz")._ambient_kernel(module, [module.operator(module.reference)])]
    calls = []
    real = exact.integer_rows
    monkeypatch.setattr(exact, "integer_rows", lambda rows: calls.append([tuple(r) for r in rows]) or real(rows))
    descent(module, module.reference)
    assert calls[0] == kernel
    assert [len(c) for c in calls] == [6, 3, 1]
