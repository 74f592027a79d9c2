"""The rank routes of the dimension checks against their kernel-route oracles.

``kernel_weight_bound``, ``mixed_decomposition_check`` and the CLI's
Lefschetz decomposition report must print the reports that the routes of
``mixed_oracles.py`` print, byte for byte, on tuples drawn from K by the
sampler and on entries outside K: zeros, signed integer vectors, and points
on a wall of K (in its closure but not in K).  ``sl2_complete`` must solve
for the N+ of the full-inverse route.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixed_oracles
from hlmod import cli
from hlmod.hodge_lefschetz import (
    PreconditionError,
    _lefschetz_dims,
    closed_cone_membership,
    cone_membership,
    lefschetz_decomposition,
    sample_cone_element,
    sample_cone_tuple,
    sl2_complete,
)
from hlmod.mixed import kernel_weight_bound, mixed_decomposition_check

F = Fraction

MODULES = ("square", "cube3", "prism", "cube4", "torus2", "torus3")


@pytest.fixture(scope="session")
def modules(corpus, t2_module, t3_module):
    out = {name: corpus[name][2] for name in MODULES if name in corpus}
    out.update(torus2=t2_module, torus3=t3_module)
    return out


def _wall_points(module) -> list[tuple]:
    """Points a e_i + b e_j of the closure of K that are not in K, and, for a
    diagonal pencil, the reference moved along -e_i onto the wall."""
    n = len(module.reference)
    walls = []
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        for a, b in itertools.product((-1, 1, 2), repeat=2):
            c = [F(0)] * n
            c[i] += a
            c[j] += b
            if any(c) and closed_cone_membership(module, c) and not cone_membership(module, c):
                walls.append(tuple(c))
    pencil = module.cone.matrices
    if all(m[r, s] == 0 for m in pencil for r in range(m.rows) for s in range(m.cols) if r != s):
        at = module.cone.combine(module.reference, pencil[0].rows)
        for i in range(n):
            ratios = [at[r, r] / pencil[i][r, r] for r in range(pencil[i].rows) if pencil[i][r, r] > 0]
            if ratios:
                walls.append(tuple(c - min(ratios) * (k == i) for k, c in enumerate(module.reference)))
    return walls


@pytest.fixture(scope="session")
def walls(modules):
    out = {name: _wall_points(module) for name, module in modules.items()}
    assert all(out.values())
    for name, points in out.items():
        module = modules[name]
        assert all(closed_cone_membership(module, c) and not cone_membership(module, c) for c in points), name
    return out


@st.composite
def _entry(draw, module, walls):
    n = len(module.reference)
    kind = draw(st.sampled_from(["cone", "cone", "zero", "signed", "unit", "wall"]))
    if kind == "cone":
        return sample_cone_element(module, random.Random(draw(st.integers(0, 2**32))))
    if kind == "zero":
        return (F(0),) * n
    if kind == "signed":
        return tuple(F(draw(st.integers(-3, 3)), draw(st.integers(1, 3))) for _ in range(n))
    if kind == "unit":
        i = draw(st.integers(0, n - 1))
        return tuple(F(k == i) for k in range(n))
    return draw(st.sampled_from(walls))


@st.composite
def _case(draw, modules, walls, low, top):
    """(module, tuple) with low <= length <= weight - top."""
    name = draw(st.sampled_from(MODULES))
    module = modules[name]
    length = draw(st.integers(low, module.weight - top))
    return module, [draw(_entry(module, walls[name])) for _ in range(length)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_kernel_weight_bound_matches_the_kernel_route(modules, walls, data):
    module, entries = data.draw(_case(modules, walls, 0, 0))
    report = kernel_weight_bound(module, entries, require_cone=False)
    assert report.to_json() == mixed_oracles.kernel_weight_bound(module, entries, require_cone=False).to_json()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mixed_decomposition_matches_the_kernel_route(modules, walls, data):
    module, entries = data.draw(_case(modules, walls, 1, 1))
    report = mixed_decomposition_check(module, entries, require_cone=False)
    assert report.to_json() == mixed_oracles.mixed_decomposition_check(module, entries, require_cone=False).to_json()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_decomposition_report_matches_the_kernel_route(modules, walls, data):
    # a module with a drawn reference carries no rank report, so the
    # reference is ranked; the built modules use theirs
    name = data.draw(st.sampled_from(MODULES))
    module = modules[name]
    reference = data.draw(_entry(module, walls[name]))
    for target in (module, dataclasses.replace(module, reference=reference)):
        assert cli._decomposition_report(target).to_json() == mixed_oracles.decomposition_report(target).to_json()


def test_the_rank_report_certifies_the_reference_only(modules):
    # a built module's passed rank report stands for its reference alone:
    # the zero operator, which is not Lefschetz, is ranked and refused
    for name, module in modules.items():
        assert module.lefschetz.passed, name
        zero = (F(0),) * len(module.reference)
        for split in (lefschetz_decomposition, _lefschetz_dims):
            with pytest.raises(PreconditionError, match="Lefschetz property"):
                split(module, zero, 0)


def test_sampled_tuples_match_the_kernel_route(modules):
    # the suites' own draws: every length at every grade, five trials
    rng = random.Random(32)
    for name, module in modules.items():
        for length in range(module.weight + 1):
            for _ in range(5):
                entries = sample_cone_tuple(module, rng, length)
                report = kernel_weight_bound(module, entries)
                assert report.to_json() == mixed_oracles.kernel_weight_bound(module, entries).to_json(), name
                if 1 <= length < module.weight:
                    report = mixed_decomposition_check(module, entries)
                    assert report.to_json() == mixed_oracles.mixed_decomposition_check(module, entries).to_json(), name


def test_raising_operator_matches_the_full_inverse(corpus, t1_module, t2_module, t3_module):
    # N+ is unique: the grade-block solve equals the full inverse, for the
    # reference and for sampled elements of K
    rng = random.Random(28)
    modules = [(name, m) for name, (_, _, m) in corpus.items()] + [
        ("torus1", t1_module), ("torus2", t2_module), ("torus3", t3_module)
    ]
    for name, module in modules:
        for coeffs in [module.reference] + [sample_cone_element(module, rng) for _ in range(2)]:
            triple, oracle = sl2_complete(module, coeffs), mixed_oracles.sl2_complete(module, coeffs)
            assert (triple.y, triple.n, triple.n_plus) == (oracle.y, oracle.n, oracle.n_plus), name
