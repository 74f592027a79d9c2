"""The module file writer against its oracle, the indent=1 dump of the dict.

``module_text`` must give exactly ``json.dumps(oracle_dict(m),
sort_keys=True, indent=1)``: on the corpus, the tori, the benchmark's
build-scale modules, descended modules, a module without a cone, and drawn
modules with arbitrary generator names and sparse Q(i) matrices.  The CLI
writes the same bytes, and the writer formats each nonzero entry once and
runs no indenting JSON encoder.
"""

import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlmod import cli, exact, serialization
from hlmod.descent import descent
from hlmod.exact import Matrix, gaussian
from hlmod.hodge_lefschetz import BasisVector, GradedSpace, HLModule, OperatorFamily
from hlmod.serialization import module_text, module_to_json
from module_oracles import bench_workloads, oracle_dict


def _dump(module) -> str:
    return json.dumps(oracle_dict(module), sort_keys=True, indent=1)


def _assert_written_as_the_oracle(module, tmp_path):
    text = module_text(module)
    assert text == _dump(module)
    assert module_to_json(module) == oracle_dict(module)
    path = tmp_path / "module.json"
    cli._write_module(module, str(path))
    assert path.read_bytes() == text.encode("ascii")


def test_corpus_modules_are_written_as_the_oracle(corpus, tmp_path):
    for _, _, module in corpus.values():
        _assert_written_as_the_oracle(module, tmp_path)


@pytest.mark.parametrize("name", ["t1_module", "t2_module", "t3_module", "t4_dense_module"])
def test_torus_modules_are_written_as_the_oracle(name, request, tmp_path):
    _assert_written_as_the_oracle(request.getfixturevalue(name), tmp_path)


def test_build_scale_modules_are_written_as_the_oracle(tmp_path):
    # the seed-11 perturbed cube4, cube5 and D2xD2xI, and torus3
    workloads = bench_workloads()
    setups = workloads.make("build-scale", 11, tmp_path).setups
    assert [s.kind for s in setups] == ["polytope"] * 3 + ["torus"]
    for setup in setups:
        _assert_written_as_the_oracle(workloads.run_setup(setup), tmp_path)


@pytest.mark.parametrize("name", ["c4_module", "t3_module"])
def test_descended_modules_are_written_as_the_oracle(name, request, tmp_path):
    module = request.getfixturevalue(name)
    descended = descent(module, module.reference).module
    assert descended.dim < module.dim
    _assert_written_as_the_oracle(descended, tmp_path)


def test_module_without_a_cone_is_written_as_the_oracle(c3_module, tmp_path):
    module = dataclasses.replace(c3_module, cone=None)
    _assert_written_as_the_oracle(module, tmp_path)
    assert all("cone" not in g for g in json.loads(module_text(module))["generators"])


# names with quotes, backslashes, control characters and non-ASCII text
names = st.text(st.sampled_from('"\\\n\t\x00\x1f\x7fé€\u2028😀') | st.characters(blacklist_categories=("Cs",)), max_size=6)


# sparse Z[i] numerators: mostly zero, else an integer or a Gaussian integer
nonzero = st.integers(-40, 40).filter(bool)
entries = st.sampled_from([0, 0, 0, 1, 2]).flatmap(
    lambda kind: (st.just(0), nonzero, st.builds(gaussian, st.integers(-40, 40), nonzero))[kind]
)


@st.composite
def _matrix(draw, rows: int, cols: int) -> Matrix:
    flat = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
    numerators = [flat[i * cols:(i + 1) * cols] for i in range(rows)]
    return Matrix.over(numerators, draw(st.integers(1, 36)), cols)


@st.composite
def _modules(draw) -> HLModule:
    """An unvalidated module: only the writer reads it.  Dimension 0 and
    rows of zeros come up."""
    n = draw(st.integers(0, 4))
    generators = draw(st.lists(names, max_size=3))
    small = st.integers(-3, 3)
    vectors = tuple(BasisVector(draw(small), draw(small), draw(small)) for _ in range(n))
    k = draw(st.integers(1, 3))
    cones = tuple(draw(_matrix(k, k)) for _ in generators)
    return HLModule(
        space=GradedSpace(draw(small), vectors, draw(_matrix(n, n))),
        form=draw(_matrix(n, n)),
        family=OperatorFamily(tuple(generators), tuple(draw(_matrix(n, n)) for _ in generators)),
        reference=tuple(Fraction(draw(small), draw(st.integers(1, 5))) for _ in generators),
        cone=OperatorFamily(tuple(generators), cones) if draw(st.booleans()) else None,
    )


@settings(max_examples=80, deadline=None)
@given(_modules())
def test_drawn_modules_are_written_as_the_oracle(module):
    assert module_text(module) == _dump(module)


def test_dimension_zero_module_is_written_as_the_oracle():
    empty = Matrix.over([], 1, 0)
    module = HLModule(
        space=GradedSpace(0, (), empty),
        form=empty,
        family=OperatorFamily(("d\"1\\", "é\n"), (empty, empty)),
        reference=(Fraction(1), Fraction(-1, 2)),
    )
    assert module_text(module) == _dump(module)
    assert '"conjugation": []' in module_text(module)


def test_writing_torus3_formats_each_nonzero_entry_once(t3_module, tmp_path, monkeypatch):
    # a scalar is built (fractions_over) and formatted (format_scalar) for
    # each nonzero matrix entry and reference entry only, and no indenting
    # JSON encoder runs
    data = oracle_dict(t3_module)
    matrices = [data["conjugation"], data["form"]] + [g[key] for g in data["generators"] for key in ("matrix", "cone")]
    nonzero = sum(e != "0" for m in matrices for row in m for e in row)
    assert nonzero == 315
    built, formatted = [], []

    def fractions_over(numerators, d):
        built.extend(numerators)
        return exact.fractions_over(numerators, d)

    def format_scalar(x):
        formatted.append(x)
        return exact.format_scalar(x)

    def refused(*args, **kwargs):
        raise AssertionError("the module writer ran the json encoder")

    monkeypatch.setattr(serialization, "fractions_over", fractions_over)
    monkeypatch.setattr(serialization, "format_scalar", format_scalar)
    monkeypatch.setattr(json, "dump", refused)
    monkeypatch.setattr(json, "dumps", refused)
    monkeypatch.setattr(json.encoder, "_make_iterencode", refused)
    monkeypatch.setattr(json.JSONEncoder, "iterencode", refused)
    cli._write_module(t3_module, str(tmp_path / "torus3.json"))
    assert len(built) == nonzero and all(built)
    assert len(formatted) == nonzero + len(t3_module.reference)
    monkeypatch.undo()
    assert (tmp_path / "torus3.json").read_text(encoding="utf-8") == _dump(t3_module)
