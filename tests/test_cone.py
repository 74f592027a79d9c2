"""The cone K of a module: the type cone of a polytope, the Kahler cone of a
torus, its closure, and the verdicts that rest on it."""

import dataclasses
import importlib
import random
from fractions import Fraction

import pytest

from cone_oracles import draws_around, strict_vertices
from hlmod.descent import descent, koszul_complex, repeated_descent
from hlmod.exact import Matrix
from hlmod.hodge_lefschetz import (
    HLModule,
    PreconditionError,
    closed_cone_membership,
    cone_membership,
    polarization_check,
    sample_cone_element,
)
from hlmod.mixed import (
    ConeMembershipError,
    kernel_weight_bound,
    mixed_decomposition_check,
    mixed_hlt_check,
    mixed_hrr_check,
)
from hlmod.polytopes import PolytopeError, type_cone, volume_oracle

F = Fraction


@pytest.mark.parametrize("name,forms", [("square", 2), ("prism", 2), ("cube3", 3), ("cube4", 4)])
def test_slack_forms_are_deduplicated(name, forms, corpus):
    p = corpus[name][0]
    assert len(p.slack_forms) == forms
    for j, k_j in enumerate(type_cone(p)):
        assert k_j == Matrix.diagonal([form[j] for form in p.slack_forms])


def _cone_modules(corpus, t1_module, t2_module):
    modules = {name: module for name, (_, _, module) in corpus.items()}
    modules.update(torus1=t1_module, torus2=t2_module)
    return modules


def test_every_point_of_k_polarizes(corpus, t1_module, t2_module):
    # K lies inside the polarizing operators: seeded draws within +-1 of the
    # reference, each accepted one certified by the single-operator check
    accepted = rejected = 0
    for name, module in _cone_modules(corpus, t1_module, t2_module).items():
        rng = random.Random(f"cone:{name}")
        for c in draws_around(module.reference, rng, 6):
            if cone_membership(module, c):
                accepted += 1
                assert polarization_check(module, c).passed, (name, c)
            else:
                rejected += 1
    assert accepted and rejected


def test_volume_oracle_slack_forms_match_the_vertex_loop(corpus):
    # the slack forms decide exactly what the per-vertex loop decided, also
    # at supports that change the combinatorics
    kept = changed = 0
    for name, (p, _, _) in corpus.items():
        rng = random.Random(f"oracle:{name}")
        for x in draws_around(p.support, rng, 12):
            strict = strict_vertices(p, x)
            try:
                volume_oracle(p, x)
                accepted = True
            except PolytopeError as err:
                assert err.code == "combinatorics-changed"
                accepted = False
            assert accepted == strict, (name, x)
            kept += strict
            changed += not strict
    assert kept and changed


@pytest.mark.parametrize("name", ["cube4", "torus2"])
def test_sampler_runs_no_polarization(name, corpus, t2_module, monkeypatch):
    module = t2_module if name == "torus2" else corpus[name][2]
    hl = importlib.import_module("hlmod.hodge_lefschetz")
    calls = []
    real = hl.polarization_check

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hl, "polarization_check", counted)
    rng = random.Random(7)
    for _ in range(5):
        assert cone_membership(module, sample_cone_element(module, rng))
    assert calls == []


def test_closure_of_the_type_cone(sq_module):
    assert closed_cone_membership(sq_module, [1, 0, 0, 0])  # a segment: on a wall
    assert not cone_membership(sq_module, [1, 0, 0, 0])
    assert closed_cone_membership(sq_module, [0, 0, 0, 0])
    assert not closed_cone_membership(sq_module, [F(-1, 3), 0, 1, 0])
    assert not closed_cone_membership(sq_module, [-c for c in sq_module.reference])


def test_closure_of_the_kahler_cone(t2_module):
    # h1 = I, h3 = [[2, i], [-i, 2]]: h3 - h1 has eigenvalues 0 and 2, and
    # h3 - 2 h1 has eigenvalues -1 and 1
    assert closed_cone_membership(t2_module, [-1, 0, 1])
    assert not cone_membership(t2_module, [-1, 0, 1])
    assert not closed_cone_membership(t2_module, [-2, 0, 1])
    assert closed_cone_membership(t2_module, [-1, 1, 0])  # diag(0, 1)


def test_closure_needs_the_reference_in_k(sq_module):
    # a module whose reference is outside K certifies no closure point
    outside = HLModule(sq_module.space, sq_module.form, sq_module.family, (F(-1),) * 4, sq_module.cone)
    assert not closed_cone_membership(outside, [0, 0, 0, 0])
    assert not closed_cone_membership(outside, sq_module.reference)


def test_descent_premise_is_the_closure(sq_module, t2_module):
    with pytest.raises(PreconditionError, match="descent premise violated"):
        descent(sq_module, [F(-1, 3), 0, 1, 0])
    # a wall point of the Kahler cone: Cattani's descent to the image holds
    # on the closure, and the descended module keeps the cone
    res = descent(t2_module, [-1, 0, 1])
    assert res.module.cone == t2_module.cone
    assert polarization_check(res.module, res.module.reference).passed


def test_mixed_hrr_rejects_an_entry_outside_k(corpus):
    module = corpus["cube4"][2]
    n0 = module.reference
    assert polarization_check(module, [-c for c in n0]).passed  # pointwise blind to the sign
    with pytest.raises(ConeMembershipError, match="tuple entry 1"):
        mixed_hrr_check(module, [n0, [-c for c in n0], n0])


@pytest.mark.parametrize(
    "gate",
    [kernel_weight_bound, mixed_hlt_check, mixed_decomposition_check, repeated_descent, koszul_complex],
    ids=lambda f: f.__name__,
)
def test_every_tuple_gate_names_the_entry_outside_k(gate, corpus):
    # mixed_hrr_check, the fifth tuple gate, is pinned by the test above
    module = corpus["cube4"][2]
    n0 = module.reference
    with pytest.raises(ConeMembershipError, match="tuple entry 1"):
        gate(module, [n0, [-c for c in n0], n0])


def test_ray_cone_of_a_module_without_pencil(sq_module):
    ray = HLModule(sq_module.space, sq_module.form, sq_module.family, sq_module.reference)
    assert cone_membership(ray, sq_module.reference)
    assert cone_membership(ray, [3 * c for c in sq_module.reference])
    assert not cone_membership(ray, [0, 0, 0, 0])
    assert closed_cone_membership(ray, [0, 0, 0, 0])
    assert not cone_membership(ray, [1, 1, 1, 1])
    with pytest.raises(PreconditionError, match="no certified cone element"):
        sample_cone_element(ray, random.Random(1))
    zero = HLModule(sq_module.space, sq_module.form, sq_module.family, (F(0),) * 4)
    assert not closed_cone_membership(zero, [0, 0, 0, 0])  # zero does not polarize


def test_ray_cone_polarizes_its_reference_once(c4_module, monkeypatch):
    # a module with no pencil reads the reference's certificate from
    # ``module.polarization``, taken on first read: 40 membership tests on
    # the ray of cube4 run one polarization between them
    hl = importlib.import_module("hlmod.hodge_lefschetz")
    real, calls = hl.polarization_check, []
    monkeypatch.setattr(hl, "polarization_check", lambda module, coeffs: calls.append(module.dim) or real(module, coeffs))
    ray = dataclasses.replace(c4_module, cone=None)
    for j in range(20):
        assert cone_membership(ray, [(j + 1) * c for c in ray.reference])
        assert closed_cone_membership(ray, [j * c for c in ray.reference])
    assert calls == [16]


def test_closed_membership_certifies_the_reference_once(c4_module, monkeypatch):
    # that the reference lies in K is ``module.reference_in_cone``, taken on
    # first read: 40 closed-membership tests on a fresh copy of the built
    # cube4 module run one hermitian_pd on the pencil at the reference
    hl = importlib.import_module("hlmod.hodge_lefschetz")
    module = dataclasses.replace(c4_module)
    at_reference = hl._pencil_at(module, module.reference)
    real, calls = hl.hermitian_pd, []
    monkeypatch.setattr(hl, "hermitian_pd", lambda m: calls.append(m == at_reference) or real(m))
    for j in range(20):
        assert closed_cone_membership(module, [j * c for c in module.reference])
        assert not closed_cone_membership(module, [-(j + 1) * c for c in module.reference])
    assert calls == [True]
