"""Wire formats: round trips, validation on import, and determinism."""

import json
import random
from fractions import Fraction

import pytest

from hlmod.exact import GaussianRational, Matrix
from hlmod.hodge_lefschetz import closed_cone_membership, cone_membership, sample_cone_tuple
from hlmod.mixed import mixed_hlt_check
from hlmod.serialization import (
    ModuleCheckError,
    ModuleJSONError,
    matrix_from_json,
    matrix_to_json,
    module_from_json,
    module_to_json,
    polytope_from_json,
    polytope_to_json,
    torus_spec_from_json,
    torus_spec_to_json,
    tuple_from_json,
)
from hlmod.torus import t1_spec

F = Fraction


def test_matrix_round_trip():
    m = Matrix([[F(1, 2), GaussianRational(0, 1)], [F(-3), GaussianRational(F(1), F(-2, 5))]])
    back = matrix_from_json(matrix_to_json(m))
    assert back == m


def test_module_round_trip_polytope(sq_module):
    data = module_to_json(sq_module)
    # must survive a JSON text cycle
    back = module_from_json(json.loads(json.dumps(data)))
    assert back.weight == sq_module.weight
    assert back.form.matrix == sq_module.form.matrix
    assert back.space.conjugation == sq_module.space.conjugation
    assert back.family.names == sq_module.family.names
    assert all(
        a == b for a, b in zip(back.family.matrices, sq_module.family.matrices)
    )
    assert back.reference == sq_module.reference


def test_module_round_trip_torus(t1_module):
    back = module_from_json(module_to_json(t1_module))
    assert back.form.matrix == t1_module.form.matrix
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
    spec = t1_spec()
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
    rep = mixed_hlt_check(sq_module, [sq_module.reference])
    rep.elapsed = 123.0
    assert "elapsed" not in json.loads(rep.to_json())
    assert "elapsed" in rep.to_dict(include_timing=True)
