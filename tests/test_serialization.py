"""Wire formats: round trips, validation on import, and determinism."""

import json
import random
from fractions import Fraction

import pytest

from corpus import load_torus_spec
from hlmod import build_pkt_module, exact, serialization, volume_polynomial
from hlmod.exact import GaussianRational, Matrix, format_scalar, gaussian, integer_rows, parse_scalar
from hlmod.hodge_lefschetz import closed_cone_membership, cone_membership, sample_cone_tuple
from hlmod.mixed import mixed_hlt_check
from hlmod.serialization import (
    ModuleCheckError,
    ModuleJSONError,
    matrix_from_json,
    module_from_json,
    module_text,
    module_to_json,
    polytope_from_json,
    torus_spec_from_json,
    tuple_from_json,
)
from hlmod.polytopes import SimplePolytope, build_polytope
from hlmod.torus import TorusSpec
from module_oracles import matrix_to_json
from volume_polys import cube

F = Fraction


def polytope_to_json(p: SimplePolytope) -> dict:
    """The wire form that :func:`polytope_from_json` reads."""
    return {
        "name": p.name,
        "dim": p.dim,
        "normals": [[format_scalar(c) for c in row] for row in p.normals],
        "support": [format_scalar(c) for c in p.support],
    }


def torus_spec_to_json(spec: TorusSpec) -> dict:
    """The wire form that :func:`torus_spec_from_json` reads."""
    return {
        "dim": spec.dim,
        "hermitians": [matrix_to_json(h) for h in spec.hermitians],
        "reference": [format_scalar(c) for c in spec.reference],
    }


def test_matrix_round_trip():
    m = Matrix([[F(1, 2), GaussianRational(0, 1)], [F(-3), GaussianRational(F(1), F(-2, 5))]])
    back = matrix_from_json(matrix_to_json(m))
    assert back == m


def _dense_to_json(m: Matrix) -> list[list[str]]:
    """The writer's dense route: every scalar of every row, formatted."""
    return [[format_scalar(e) for e in row] for row in m.data]


def _dense_from_json(rows) -> tuple[list[list], int]:
    """The reader's dense route: a matrix of parsed scalars, then its
    numerators."""
    return integer_rows(Matrix([[parse_scalar(e) for e in row] for row in rows]).data)


def _matrices(module) -> list[Matrix]:
    cone = module.cone.matrices if module.cone else ()
    return [module.space.conjugation, module.form, *module.family.matrices, *cone]


def _perturbed_cube5():
    """cube5 with each support 1 + k/16 for a seeded odd k: its reference is
    not integral."""
    p = cube(5)
    rng = random.Random(5)
    support = [1 + F(rng.choice((-3, -1, 1, 3)), 16) for _ in p.support]
    perturbed = build_polytope(p.normals, support, "cube5-perturbed")
    return build_pkt_module(perturbed, volume_polynomial(perturbed))


def _cube_module(n: int):
    p = cube(n)
    return build_pkt_module(p, volume_polynomial(p))


ORACLE_MODULES = {
    "cube3": lambda request: request.getfixturevalue("c3_module"),
    "cube4": lambda request: request.getfixturevalue("c4_module"),
    "cube5": lambda request: _cube_module(5),
    "cube5-perturbed": lambda request: _perturbed_cube5(),
    "torus2": lambda request: request.getfixturevalue("t2_module"),
    "torus3": lambda request: request.getfixturevalue("t3_module"),
    "torus4-dense": lambda request: request.getfixturevalue("t4_dense_module"),
}


@pytest.mark.parametrize("name", sorted(ORACLE_MODULES))
def test_matrix_files_match_the_dense_route(name, request):
    # each matrix is written to the same strings as its dense rows of
    # scalars, and read back to the same numerators and denominator
    module = ORACLE_MODULES[name](request)
    assert module.cone is not None
    for m in _matrices(module):
        rows = matrix_to_json(m)
        assert rows == _dense_to_json(m)
        numerators, d = matrix_from_json(rows).numerators()
        expected, expected_d = _dense_from_json(rows)
        assert (numerators, d) == (expected, expected_d)
        assert [list(map(type, row)) for row in numerators] == [list(map(type, row)) for row in expected]


def _random_scalar(rng):
    """Half zeros; the rest rationals and Gaussian rationals whose parts have
    their own denominators."""
    if rng.random() < 0.5:
        return 0
    re, im = (F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(2))
    return gaussian(re, im if rng.random() < 0.5 else 0)


@pytest.mark.parametrize("seed", range(20))
def test_random_matrices_match_the_dense_route(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(0, 6), rng.randint(1, 6)
    m = Matrix([[_random_scalar(rng) for _ in range(cols)] for _ in range(rows)], rows, cols)
    strings = matrix_to_json(m)
    assert strings == _dense_to_json(m)
    back = matrix_from_json(strings, cols)
    assert (back.rows, back.cols) == (rows, cols)
    assert back.numerators() == _dense_from_json(strings)
    assert back == m


@pytest.mark.parametrize("entry", [0, None, [], "1e3", "1/0", "x"], ids=repr)
def test_matrix_reader_refuses_a_bad_entry(entry):
    with pytest.raises(ModuleJSONError, match="bad matrix entry"):
        matrix_from_json([["1", "0"], ["0", entry]])


def test_matrix_reader_refuses_ragged_rows_after_the_entries():
    with pytest.raises(ModuleJSONError, match="ragged matrix"):
        matrix_from_json([["1", "0"], ["0"]])
    with pytest.raises(ModuleJSONError, match="bad matrix entry"):
        matrix_from_json([["1", "0"], ["1/0"]])


def test_empty_matrix_takes_the_expected_columns():
    m = matrix_from_json([], 3)
    assert (m.rows, m.cols, m.numerators()) == (0, 3, ([], 1))
    assert (matrix_from_json([]).rows, matrix_from_json([]).cols) == (0, 0)
    assert matrix_to_json(m) == []


def test_every_spelling_of_zero_reads_and_writes_as_zero():
    m = matrix_from_json([["0/5", "-0", "0+0 i", "0"]])
    assert m.numerators() == ([[0, 0, 0, 0]], 1)
    assert [type(v) for v in m.numerators()[0][0]] == [int] * 4
    assert matrix_to_json(m) == [["0"] * 4]


def test_gaussian_entry_with_two_denominators():
    rows = [["1/2+1/3 i", "1/4"], ["0", "-2/3 i"]]
    m = matrix_from_json(rows)
    assert m.numerators() == ([[gaussian(6, 4), 3], [0, gaussian(0, -8)]], 12)
    assert m.numerators() == _dense_from_json(rows)
    assert matrix_to_json(m) == rows


def test_module_files_convert_no_dense_rows(t3_module, c4_module, monkeypatch):
    # reading the torus3 module file parses each distinct string other than
    # "0" once per matrix and reads no scalar back into numerators; writing
    # a module reads no dense row of scalars
    text = json.dumps(module_to_json(t3_module))
    data = json.loads(text)
    calls = {"integer_rows": 0, "parse_scalar": 0, "data": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(exact, "integer_rows", counted("integer_rows", exact.integer_rows))
    monkeypatch.setattr(serialization, "parse_scalar", counted("parse_scalar", parse_scalar))
    back = module_from_json(data)
    matrices = [data["conjugation"], data["form"], *(g[key] for g in data["generators"] for key in ("matrix", "cone"))]
    distinct = sum(len({e for row in m for e in row} - {"0"}) for m in matrices)
    distinct += sum(e != "0" for e in data["reference"])
    assert (calls["integer_rows"], calls["parse_scalar"]) == (0, distinct)

    monkeypatch.setattr(Matrix, "data", property(counted("data", Matrix.data.fget)))
    for module in (back, t3_module, c4_module):
        module_to_json(module)
    assert calls["data"] == 0
    assert json.dumps(module_to_json(back)) == text


def test_writing_a_built_module_builds_no_dense_generator_rows():
    # a built module's generators are born as their sparse view, and the
    # module file is written from that view, so none builds its dense rows
    module = build_pkt_module(cube(5))
    module_text(module)
    assert all(m._numerators is None and m._data is None for m in module.family.matrices)


@pytest.mark.parametrize("name", ["cube5-perturbed", "torus3"])
def test_module_files_validate_the_rows_as_read(name, request, monkeypatch):
    # every matrix of a module file keeps the sparse view it was read as:
    # validating the module and combining its generators and its cone
    # pencil derive no sparse row from a dense one, so no view reads rows;
    # and a matrix read only through its view, as the generators and the
    # conjugation are, never builds its dense rows, which a first read builds
    module = ORACLE_MODULES[name](request)
    data = json.loads(json.dumps(module_to_json(module)))
    n = module.cone.matrices[0].rows
    operator, pencil = module.operator(module.reference), module.cone.combine(module.reference, n)
    scans, depth = [], [0]
    view, numerators = Matrix.sparse_numerators, Matrix.numerators

    def sparse_numerators(self):
        depth[0] += 1
        try:
            return view(self)
        finally:
            depth[0] -= 1

    def read(self):
        if depth[0]:
            scans.append(self)
        return numerators(self)

    monkeypatch.setattr(Matrix, "sparse_numerators", sparse_numerators)
    monkeypatch.setattr(Matrix, "numerators", read)
    back = module_from_json(data)
    assert back.structure.passed
    assert (back.operator(back.reference), back.cone.combine(back.reference, n)) == (operator, pencil)
    assert scans == []
    sparse_only = [*back.family.matrices, back.space.conjugation]
    assert all(m._numerators is None and m._data is None for m in sparse_only)
    assert sparse_only == [*module.family.matrices, module.space.conjugation]
    assert all(m._numerators is not None for m in sparse_only)


def test_module_round_trip_polytope(sq_module):
    data = module_to_json(sq_module)
    # must survive a JSON text cycle
    back = module_from_json(json.loads(json.dumps(data)))
    assert back.weight == sq_module.weight
    assert back.form == sq_module.form
    assert back.space.conjugation == sq_module.space.conjugation
    assert back.family.names == sq_module.family.names
    assert all(
        a == b for a, b in zip(back.family.matrices, sq_module.family.matrices)
    )
    assert back.reference == sq_module.reference


def test_module_round_trip_torus(t1_module):
    back = module_from_json(module_to_json(t1_module))
    assert back.form == t1_module.form
    assert [v for v in back.space.vectors] == [v for v in t1_module.space.vectors]


@pytest.mark.parametrize("name", ["sq_module", "t2_module"])
def test_module_round_trip_keeps_the_cone(name, request):
    module = request.getfixturevalue(name)
    data = json.loads(json.dumps(module_to_json(module)))
    assert all("cone" in g for g in data["generators"])
    back = module_from_json(data)
    assert back.cone == module.cone
    assert back == module


def test_module_file_without_cone_has_the_reference_ray(sq_module):
    data = module_to_json(sq_module)
    for g in data["generators"]:
        del g["cone"]
    back = module_from_json(data)
    assert back.cone is None
    assert cone_membership(back, [2 * c for c in sq_module.reference])
    assert not cone_membership(back, [1, 1, 1, 1])  # in the type cone, off the ray
    assert closed_cone_membership(back, [0, 0, 0, 0])
    assert not closed_cone_membership(back, [1, 0, 0, 0])


def test_module_import_rejects_a_malformed_cone(sq_module):
    data = module_to_json(sq_module)
    del data["generators"][0]["cone"]
    with pytest.raises(ModuleJSONError, match="cone entries"):
        module_from_json(data)
    data = module_to_json(sq_module)
    data["generators"][0]["cone"] = [["1", "1"], ["0", "0"]]
    with pytest.raises(ModuleJSONError, match="cone entries"):
        module_from_json(data)
    data = module_to_json(sq_module)
    data["generators"][0]["cone"] = [["1"]]
    with pytest.raises(ModuleJSONError, match="cone entries"):
        module_from_json(data)


def test_module_import_rejects_malformed(sq_module):
    data = module_to_json(sq_module)
    del data["form"]
    with pytest.raises(ModuleJSONError):
        module_from_json(data)
    data = module_to_json(sq_module)
    data["form"] = data["form"][:-1]
    with pytest.raises(ModuleJSONError):
        module_from_json(data)


def test_module_import_rejects_broken_axioms(sq_module):
    data = module_to_json(sq_module)
    # negate one complementary block only: parity breaks
    data["form"][0][3] = "-" + data["form"][0][3]
    with pytest.raises(ModuleCheckError) as err:
        module_from_json(data)
    assert any("parity" in s.name for s in err.value.report.failures())


def test_polytope_round_trip(corpus):
    p = corpus["cube3"][0]
    back = polytope_from_json(polytope_to_json(p))
    assert back.vertices == p.vertices
    assert back.incidences == p.incidences


def test_torus_spec_round_trip():
    spec = load_torus_spec("torus1")
    back = torus_spec_from_json(torus_spec_to_json(spec))
    assert back.dim == spec.dim
    assert back.reference == spec.reference
    assert all(a == b for a, b in zip(back.hermitians, spec.hermitians))


def test_tuple_parsing():
    parsed = tuple_from_json([{"T": {"d1": "1", "d3": "2"}}, {"d2": "1/2"}])
    assert parsed == [{"d1": F(1), "d3": F(2)}, {"d2": F(1, 2)}]
    with pytest.raises(ModuleJSONError):
        tuple_from_json("nope")


def test_reports_are_byte_identical_for_fixed_seed(sq_module):
    blobs = []
    for _ in range(2):
        rng = random.Random(42)
        entries = sample_cone_tuple(sq_module, rng, 2)
        rep = mixed_hlt_check(sq_module, entries)
        blobs.append(rep.to_json())
    assert blobs[0] == blobs[1]


def test_report_json_excludes_timing(sq_module):
    # the canonical report holds the verdict and its evidence, nothing that
    # varies from run to run
    rep = mixed_hlt_check(sq_module, [sq_module.reference])
    assert set(json.loads(rep.to_json())) == {"check", "tag", "verdict", "subchecks", "data"}
