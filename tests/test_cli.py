"""End-to-end CLI behavior: subcommands, exit codes, and determinism."""

import hashlib
import importlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from failing_paths import lefschetz_report
from hlmod.cli import KOSZUL_SIZE_LIMIT, UsageError, _parse_lengths, main
from hlmod.polytopes import PolytopeError, build_pkt_module, build_polytope, volume_polynomial
from hlmod.serialization import module_from_json, module_to_json, polytope_from_json

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_full_suite_on_square(capsys):
    code, out, err = run(
        capsys, "polytope", "check", str(FIXTURES / "square.json"), "--all", "--seed", "7"
    )
    assert code == 0
    assert "[PASS] validate-structure" in out
    assert "mixed-hodge-riemann" in out
    assert "koszul-purity" in out
    assert "descent" in out


def test_mixed_volume_prints_value(capsys):
    code, out, _ = run(
        capsys,
        "polytope",
        "mixed-volume",
        str(FIXTURES / "square.json"),
        "--supports",
        "[1,1,1,1]",
        "[2,2,1,1]",
    )
    assert code == 0
    assert out.strip() == "6"


def test_hvector_output(capsys):
    code, out, _ = run(capsys, "polytope", "hvector", str(FIXTURES / "cube4.json"))
    assert code == 0
    assert out.split() == ["1", "4", "6", "4", "1"]


def test_broken_module_exits_one_with_witness(capsys):
    code, out, err = run(capsys, "module", "check", "--in", str(FIXTURES / "broken.json"))
    assert code == 1
    assert "parity" in err


@pytest.mark.parametrize("action", ["check", "descent", "purity", "mixed-hrr"])
def test_broken_module_json_prints_the_structure_report(action, capsys):
    code, out, err = run(
        capsys, "module", action, "--in", str(FIXTURES / "broken.json"), "--seed", "1", "--json"
    )
    assert code == 1
    assert err == ""
    report = json.loads(out)
    assert out == json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    assert (report["check"], report["verdict"]) == ("validate-structure", "fail")
    parity = next(s for s in report["subchecks"] if s["name"] == "form-parity")
    assert parity["witness"] == {"i": 0, "j": 3, "q_ij": "-1", "q_ji": "1", "parity": 1}


def test_octahedron_exits_two(capsys):
    code, out, err = run(
        capsys, "polytope", "check", str(FIXTURES / "octahedron.json"), "--seed", "1"
    )
    assert code == 2
    assert "input error" in err


SQUARE_NORMALS = [[1, 0], [-1, 0], [0, 1], [0, -1]]

# polytopes on which the facet cones meet zero, repeated or too few normals,
# each with the message it exits 2 with
DEGENERATE_POLYTOPES = {
    "dim-0": ({"dim": 0, "normals": [[], []], "support": ["1", "1"]}, "facets [0, 1] support no vertex"),
    "square-and-a-zero-normal-with-support-1": (
        {"dim": 2, "normals": SQUARE_NORMALS + [[0, 0]], "support": ["1"] * 5},
        "facets [4] support no vertex",
    ),
    "square-and-a-zero-normal-with-support-minus-1": (
        {"dim": 2, "normals": SQUARE_NORMALS + [[0, 0]], "support": ["1"] * 4 + ["-1"]},
        "no vertex satisfies all inequalities",
    ),
    "duplicated-facet": (
        {"dim": 2, "normals": SQUARE_NORMALS + [[1, 0]], "support": ["1"] * 5},
        "vertex ('1', '-1') lies on 3 facets",
    ),
    "point": ({"dim": 2, "normals": SQUARE_NORMALS, "support": ["0"] * 4}, "vertex ('0', '0') lies on 4 facets"),
    "half-plane": ({"dim": 2, "normals": [[1, 0], [0, 1], [0, -1]], "support": ["1"] * 3}, "polyhedron has an extreme ray"),
}


@pytest.mark.parametrize("command", [["build"], ["check", "--all", "--seed", "1"]], ids=["build", "check-all"])
@pytest.mark.parametrize("case", sorted(DEGENERATE_POLYTOPES))
def test_degenerate_polytope_exits_two_with_its_message(case, command, tmp_path, capsys):
    data, message = DEGENERATE_POLYTOPES[case]
    path = _written(tmp_path, "polytope.json", json.dumps({"name": case, **data}).encode())
    code, out, err = run(capsys, "polytope", command[0], path, *command[1:])
    assert (code, out, err) == (2, "", f"input error: {message}\n")


def test_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "module", "check", "--in", str(bad))
    assert code == 2


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "module", "check", "--in", "no-such-file.json")
    assert code == 2


def test_seed_required_for_randomized_suites(capsys):
    code, _, err = run(capsys, "polytope", "check", str(FIXTURES / "square.json"), "--all")
    assert code == 2
    assert "--seed" in err


def test_json_reports_are_deterministic(capsys):
    args = (
        "polytope",
        "check",
        str(FIXTURES / "triangle.json"),
        "--all",
        "--seed",
        "11",
        "--tuples",
        "4",
        "--json",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    for line in out1.strip().splitlines():
        json.loads(line)


# SHA-256 of the stdout of each --all suite at seed 7, taken when the kernel
# bound, the decomposition and sl2 completion still built kernel bases and
# one full inverse: their rank and grade-block routes print the same bytes
SUITE_DIGESTS = {
    ("polytope", "cube4", "2"): "2ede524380053a636c6fe13c0aefcfc723c505dc742a76d9c2ce85a6b1de44e1",
    ("polytope", "prism", "2"): "df589c72f40403eb25ca9c5c02ea4ad40537ad8995201010d684edfd49666f51",
    ("polytope", "square", "2"): "68a0b7aefad940f88723f5064774e9f032c738983a50812cb9910034bac63329",
    ("torus", "torus2", "1"): "33fd4781e551ead130c3b357f6b1427982389576966aae7fa002be961eec250e",
    ("torus", "torus3", "1"): "fadc603271827b0c6c0410664990a353013880fe2b296afb36ebaf5a6fa7a4bb",
}


@pytest.mark.parametrize("family, fixture, tuples", sorted(SUITE_DIGESTS))
def test_full_suite_output_keeps_its_digest(family, fixture, tuples, capsys):
    argv = [family, "check", str(FIXTURES / f"{fixture}.json"), "--all", "--seed", "7", "--tuples", tuples, "--json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SUITE_DIGESTS[family, fixture, tuples]


# SHA-256 of the stdout of three commands on the cube3 module file with its
# cone entries stripped, so that its K is the ray of the reference; taken
# when every membership test on the ray polarized the reference again
RAY_DIGESTS = {
    "check": "8bb4997877094d816883bb4dd744e8869c2568b99a7ea207bf234def10063c4d",
    "descent": "ccca0aa80f1f5f7f3b03dc4f6f181105f5adb4ea64a0864122d667204770ec68",
    "mixed-hlt": "cce3dc32748d6380705eb251c61e5a214ed75a5f4109b2ad2812c8f222903fc5",
}


@pytest.mark.parametrize("action", sorted(RAY_DIGESTS))
def test_ray_cone_output_keeps_its_digest(action, tmp_path, capsys):
    data = json.loads(MODULE_CUBE3.read_text())
    for generator in data["generators"]:
        del generator["cone"]
    path = tmp_path / "cube3-ray.json"
    path.write_text(json.dumps(data))
    ops = ["--ops", json.dumps({f"d{i}": 1 for i in range(1, 7)})] if action == "mixed-hlt" else []
    code, out, _ = run(capsys, "module", action, "--in", str(path), *ops, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RAY_DIGESTS[action]


def test_module_export_import_cycle(tmp_path, capsys):
    out_path = tmp_path / "square-module.json"
    code, _, _ = run(
        capsys,
        "polytope",
        "build",
        str(FIXTURES / "square.json"),
        "--module-out",
        str(out_path),
    )
    assert code == 0 and out_path.exists()
    code, out, _ = run(capsys, "module", "import", "--in", str(out_path))
    assert code == 0 and "ok:" in out
    round_trip = tmp_path / "again.json"
    code, _, _ = run(
        capsys, "module", "export", "--in", str(out_path), "--out", str(round_trip)
    )
    assert code == 0
    assert json.loads(out_path.read_text()) == json.loads(round_trip.read_text())


def test_module_descent_subcommand(tmp_path, capsys):
    module_path = tmp_path / "m.json"
    run(
        capsys,
        "polytope",
        "build",
        str(FIXTURES / "square.json"),
        "--module-out",
        str(module_path),
    )
    descended = tmp_path / "descended.json"
    code, out, _ = run(
        capsys,
        "module",
        "descent",
        "--in",
        str(module_path),
        "--out",
        str(descended),
    )
    assert code == 0
    assert descended.exists()
    code, out, _ = run(capsys, "module", "import", "--in", str(descended))
    assert code == 0 and "weight 1" in out


def test_descent_premise_violation_exits_two(tmp_path, capsys):
    # -d1 lies outside the closure of the type cone: the operator is an
    # invalid input, not a failed check
    module_path = tmp_path / "sq.json"
    run(capsys, "polytope", "build", str(FIXTURES / "square.json"), "--module-out", str(module_path))
    out_path = tmp_path / "descended.json"
    code, out, err = run(
        capsys, "module", "descent", "--in", str(module_path), "--ops", '{"d1":"-1"}', "--out", str(out_path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and "descent premise violated" in err
    assert not out_path.exists()


def test_module_mixed_subcommands(tmp_path, capsys):
    module_path = tmp_path / "m.json"
    run(
        capsys,
        "polytope",
        "build",
        str(FIXTURES / "cube3.json"),
        "--module-out",
        str(module_path),
    )
    code, out, _ = run(
        capsys,
        "module",
        "mixed-hlt",
        "--in",
        str(module_path),
        "--seed",
        "3",
        "--tuples",
        "2",
    )
    assert code == 0 and "mixed-hard-lefschetz" in out
    code, out, _ = run(
        capsys,
        "module",
        "purity",
        "--in",
        str(module_path),
        "--seed",
        "3",
        "--tuples",
        "1",
        "--lengths",
        "1,2",
    )
    assert code == 0 and "koszul-purity" in out


def test_torus_module_export_then_check(tmp_path, capsys):
    module_path = tmp_path / "t2.json"
    code, _, _ = run(
        capsys,
        "torus",
        "build",
        str(FIXTURES / "torus2.json"),
        "--module-out",
        str(module_path),
    )
    assert code == 0
    code, out, _ = run(capsys, "module", "check", "--in", str(module_path))
    assert code == 0
    assert "[PASS] polarization" in out


def test_explicit_ops_tuple(tmp_path, capsys):
    module_path = tmp_path / "sq.json"
    run(
        capsys,
        "polytope",
        "build",
        str(FIXTURES / "square.json"),
        "--module-out",
        str(module_path),
    )
    code, out, _ = run(
        capsys,
        "module",
        "mixed-hlt",
        "--in",
        str(module_path),
        "--ops",
        '[{"d1":"1","d2":"1","d3":"1","d4":"1"},{"d1":"2","d2":"2","d3":"1","d4":"1"}]',
    )
    assert code == 0
    assert "mixed-hard-lefschetz" in out


def test_torus_check_cli(capsys):
    code, out, _ = run(
        capsys,
        "torus",
        "check",
        str(FIXTURES / "torus1.json"),
        "--all",
        "--seed",
        "5",
        "--tuples",
        "3",
    )
    assert code == 0
    assert "[PASS] polarization" in out


def test_six_cube_hvector(tmp_path, capsys):
    n = 6
    normals = []
    for i in range(n):
        for sign in ("1", "-1"):
            row = ["0"] * n
            row[i] = sign
            normals.append(row)
    cube6 = tmp_path / "cube6.json"
    cube6.write_text(
        json.dumps({"name": "cube6", "dim": n, "normals": normals, "support": ["1", "0"] * n})
    )
    code, out, err = run(capsys, "polytope", "hvector", str(cube6))
    assert code == 0
    assert out == "1 6 15 20 15 6 1\n"
    assert err == ""


def test_purity_lengths_not_integers_exits_two(capsys):
    code, out, err = run(
        capsys,
        "module",
        "purity",
        "--in",
        str(FIXTURES.parent / "tests" / "golden" / "module-cube3.json"),
        "--seed",
        "5",
        "--lengths",
        "1,x",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("input error: --lengths")


@pytest.mark.parametrize(
    "normals,support",
    [
        ([[1, 1], [-1, -1], [1, 0], [-1, 0]], [0, 0, 1, 1]),  # a segment on x + y = 0 in R^2
        ([[0, 0, 1], [0, 0, -1], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]], [0, 0, 1, 1, 1, 1]),
        ([[1], [-1]], [0, 0]),  # a point in R^1
    ],
    ids=["segment-in-plane", "square-in-space", "point"],
)
def test_lower_dimensional_polytopes_exit_two(normals, support, tmp_path, capsys):
    # every vertex of a polytope of lower dimension lies on more than k facets
    with pytest.raises(PolytopeError) as err:
        build_polytope(normals, support)
    assert err.value.code == "non-simple"
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"name": "flat", "dim": len(normals[0]), "normals": normals, "support": support}))
    code, out, err = run(capsys, "polytope", "build", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("input error: vertex")


def test_purity_lengths_beyond_the_koszul_limit_exit_two(capsys):
    # module-cube3 has dimension 8: length 11 gives 8 * 2^11 = KOSZUL_SIZE_LIMIT
    # coordinates, length 12 twice that; --lengths 99 would never finish, and
    # neither would it on an empty module, whose complex has 2^99 summands
    assert _parse_lengths("1,11", 8) == [1, 11]
    assert _parse_lengths("14", 0) == [14]
    with pytest.raises(UsageError, match="--lengths 15 exceeds 14"):
        _parse_lengths("15", 0)
    with pytest.raises(UsageError, match="positive integers"):
        _parse_lengths("9" * 5000, 8)  # more digits than int() reads
    for lengths in ("12", "1,99"):
        argv = ("module", "purity", "--in", str(MODULE_CUBE3), "--seed", "5", "--lengths", lengths)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"input error: --lengths {lengths.split(',')[-1]} exceeds 11")
    with pytest.raises(SystemExit):
        main(["module", "--help"])
    assert f"n * 2^t <= {KOSZUL_SIZE_LIMIT} at module dimension n" in " ".join(capsys.readouterr().out.split())


def _reference_ops(count: int) -> str:
    """A purity --ops tuple: the reference of module-cube3, ``count`` times."""
    data = json.loads(MODULE_CUBE3.read_text())
    return json.dumps([dict(zip((g["name"] for g in data["generators"]), data["reference"]))] * count)


def test_purity_ops_beyond_the_koszul_limit_exit_two_before_building(capsys, monkeypatch):
    # the --lengths bound holds for a purity --ops tuple: on module-cube3
    # (n = 8), 12 entries are refused before any complex is built, and 11
    # are checked
    cli = importlib.import_module("hlmod.cli")
    real, built = cli.koszul_complex, []
    monkeypatch.setattr(cli, "koszul_complex", lambda module, entries, *rest: built.append(len(entries)) or real(module, entries, *rest))
    code, out, err = run(capsys, "module", "purity", "--in", str(MODULE_CUBE3), "--ops", _reference_ops(12))
    assert (code, out, built) == (2, "", [])
    assert err.startswith("input error: --ops length 12 exceeds 11: max(n, 1) * 2^t > 16384 at n = 8")
    code, out, _ = run(capsys, "module", "purity", "--in", str(MODULE_CUBE3), "--ops", _reference_ops(11), "--json")
    assert (code, built, json.loads(out)["verdict"]) == (0, [11], "pass")


def _capped_cli(*argv: str) -> subprocess.CompletedProcess:
    """The CLI in a child process whose address space is capped at 512 MiB;
    the cap is set in the child alone."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))

    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")}
    return subprocess.run([sys.executable, "-m", "hlmod.cli", *argv], capture_output=True, text=True, env=env,
                          timeout=120, preexec_fn=cap)


def test_bounded_inputs_exit_two_under_a_memory_cap(tmp_path):
    # each bounded input just past its bound: a Koszul length and a purity
    # --ops tuple of 12 on module-cube3, and a 5-dimensional torus with 7
    # generators, (7 + 2) * 16^5 > TORUS_SIZE_LIMIT; an input that lost its
    # bound would allocate until the cap stops it, not fill the host
    identity = [["1" if i == j else "0" for j in range(5)] for i in range(5)]
    torus = tmp_path / "torus5.json"
    torus.write_text(json.dumps({"dim": 5, "hermitians": [identity] * 7, "reference": ["1"] * 7}))
    for argv in (
        ["module", "purity", "--in", str(MODULE_CUBE3), "--seed", "5", "--lengths", "12"],
        ["module", "purity", "--in", str(MODULE_CUBE3), "--ops", _reference_ops(12)],
        ["torus", "check", str(torus), "--seed", "5"],
    ):
        proc = _capped_cli(*argv)
        assert (proc.returncode, proc.stdout) == (2, ""), (argv, proc.stderr)
        assert proc.stderr.startswith("input error:"), argv


def test_module_file_with_basis_ids_out_of_order_exits_two(tmp_path, capsys):
    # a basis vector's id is its position, so the reader refuses any other
    def swapped(data):
        data["basis"][0]["id"], data["basis"][1]["id"] = data["basis"][1]["id"], data["basis"][0]["id"]

    def shifted(data):
        for b in data["basis"]:
            b["id"] += 1

    for edit in (swapped, shifted):
        code, out, err = run(capsys, "module", "import", "--in", _edited_json(tmp_path, MODULE_CUBE3, edit))
        assert (code, out) == (2, "")
        assert err.startswith("input error:") and "basis ids must be 0..n-1 in order" in err


def test_mixed_volume_non_rational_support_exits_two(capsys):
    code, out, err = run(
        capsys,
        "polytope",
        "mixed-volume",
        str(FIXTURES / "square.json"),
        "--supports",
        '["a",1,1,1]',
        "[1,1,1,1]",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("input error: support")


def test_mixed_volume_wrong_support_count_exits_two(capsys):
    code, out, err = run(
        capsys,
        "polytope",
        "mixed-volume",
        str(FIXTURES / "square.json"),
        "--supports",
        "[1,1,1,1]",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("input error: mixed-volume needs exactly 2 supports")


GOLDEN = FIXTURES.parent / "tests" / "golden"
MODULE_CUBE3 = GOLDEN / "module-cube3.json"


def _edited_json(tmp_path, source, edit):
    data = json.loads(source.read_text())
    edit(data)
    path = tmp_path / source.name
    path.write_text(json.dumps(data))
    return str(path)


def _set_first_entry(key: str, value):
    """An edit that sets the first entry of ``data[key]``, of its first row
    when it is a matrix, to ``value``."""

    def edit(data):
        entries = data[key][0] if isinstance(data[key][0], list) else data[key]
        entries[0] = value

    return edit


def _square_with_first_support(tmp_path, value) -> str:
    return _edited_json(tmp_path, FIXTURES / "square.json", _set_first_entry("support", value))


def _cube3_module_with_first(tmp_path, key, value) -> str:
    return _edited_json(tmp_path, MODULE_CUBE3, _set_first_entry(key, value))


# Fraction() reads exponent notation and writes out every digit: this one
# would take seconds
HUGE_EXPONENT = "1e10000000"
# more digits than int() reads
PAST_DIGIT_LIMIT = "1" * 5000
SQUARE_WITH_NUMBER_PAST_DIGIT_LIMIT = (
    b'{"dim":2,"normals":[[1,0],[-1,0],[0,1],[0,-1]],"support":[%s,0,1,0]}' % PAST_DIGIT_LIMIT.encode()
)

BAD_SCALAR_CASES = {
    "ops-not-a-rational": lambda tmp: [
        "module", "mixed-hlt", "--in", str(MODULE_CUBE3), "--ops", '[{"T":{"d1":"x"}}]'
    ],
    "ops-zero-denominator": lambda tmp: [
        "module", "mixed-hlt", "--in", str(MODULE_CUBE3), "--ops", '[{"T":{"d1":"1/0"}}]'
    ],
    "ops-exponent": lambda tmp: [
        "module", "mixed-hlt", "--in", str(MODULE_CUBE3), "--ops", '[{"T":{"d1":"%s"}}]' % HUGE_EXPONENT
    ],
    "module-matrix-zero-denominator": lambda tmp: [
        "module", "check", "--in", _cube3_module_with_first(tmp, "conjugation", "1/0")
    ],
    "module-matrix-exponent": lambda tmp: [
        "module", "check", "--in", _cube3_module_with_first(tmp, "conjugation", HUGE_EXPONENT)
    ],
    "module-matrix-gaussian-exponent": lambda tmp: [
        "module", "check", "--in", _cube3_module_with_first(tmp, "conjugation", "1+1e5000 i")
    ],
    "module-matrix-entry-a-number": lambda tmp: [
        "module", "check", "--in", _cube3_module_with_first(tmp, "conjugation", 1)
    ],
    "module-matrix-entry-the-number-zero": lambda tmp: [
        "module", "check", "--in", _cube3_module_with_first(tmp, "form", 0)
    ],
    "module-matrix-entry-null": lambda tmp: [
        "module", "check", "--in", _cube3_module_with_first(tmp, "form", None)
    ],
    "module-matrix-entry-a-list": lambda tmp: [
        "module", "check", "--in", _cube3_module_with_first(tmp, "form", [])
    ],
    "module-matrix-short-exponent": lambda tmp: [
        "module", "check", "--in", _cube3_module_with_first(tmp, "conjugation", "1e3")
    ],
    "module-reference-zero-denominator": lambda tmp: [
        "module", "check", "--in", _cube3_module_with_first(tmp, "reference", "1/0")
    ],
    "polytope-support-zero-denominator": lambda tmp: [
        "polytope", "hvector", _square_with_first_support(tmp, "1/0")
    ],
    "polytope-support-exponent": lambda tmp: [
        "polytope", "check", _square_with_first_support(tmp, "1e5000"), "--all", "--seed", "1", "--tuples", "1"
    ],
    "polytope-support-past-digit-limit": lambda tmp: [
        "polytope", "build", _square_with_first_support(tmp, PAST_DIGIT_LIMIT)
    ],
    "polytope-support-json-number-past-digit-limit": lambda tmp: [
        "polytope", "build", _written(tmp, "square.json", SQUARE_WITH_NUMBER_PAST_DIGIT_LIMIT)
    ],
    "mixed-volume-support-exponent": lambda tmp: [
        "polytope", "mixed-volume", str(FIXTURES / "square.json"), "--supports", '["1e5000",0,1,0]', "[1,0,1,0]"
    ],
    "mixed-volume-support-json-number-exponent": lambda tmp: [
        "polytope", "mixed-volume", str(FIXTURES / "square.json"), "--supports", "[1e0,0,1,0]", "[1,0,1,0]"
    ],
    "mixed-volume-support-json-number-past-digit-limit": lambda tmp: [
        "polytope", "mixed-volume", str(FIXTURES / "square.json"),
        "--supports", "[%s,0,1,0]" % PAST_DIGIT_LIMIT, "[1,0,1,0]",
    ],
}


@pytest.mark.parametrize("case", sorted(BAD_SCALAR_CASES))
def test_bad_scalar_exits_two(case, tmp_path, capsys):
    code, out, err = run(capsys, *BAD_SCALAR_CASES[case](tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")
    assert "Traceback" not in err


def _written(tmp_path, name, data: bytes) -> str:
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


# a torus whose one Hermitian matrix is 1 x 1 at dimension 2
SMALL_HERMITIAN = b'{"dim":2,"hermitians":[[["1"]]],"reference":["1"]}'


def _identity_torus(tmp_path, dim: int, generators: int) -> str:
    """A torus file of ``generators`` copies of the dim x dim identity."""
    ident = [["1" if i == j else "0" for j in range(dim)] for i in range(dim)]
    data = {"dim": dim, "hermitians": [ident] * generators, "reference": ["1"] * generators}
    return _written(tmp_path, "torus.json", json.dumps(data).encode())


def _square_module_with_strings_for_lists(tmp_path) -> str:
    """The square's module file with its reference and first form row each
    one string, which iterates as the list of its characters."""
    polytope = polytope_from_json(json.loads((FIXTURES / "square.json").read_text()))
    data = module_to_json(build_pkt_module(polytope, volume_polynomial(polytope)))
    data["reference"] = "".join(data["reference"])
    data["form"][0] = "".join(data["form"][0])
    return _written(tmp_path, "square-module.json", json.dumps(data).encode())


INVALID_INPUT_CASES = {
    "polytope-support-a-string": lambda tmp: [
        "polytope", "build", _edited_json(tmp, FIXTURES / "square.json", lambda data: data.update(support="1010"))
    ],
    "torus-hermitian-rows-and-reference-strings": lambda tmp: [
        "torus", "build", _written(tmp, "torus.json", b'{"dim":2,"hermitians":[["10","01"]],"reference":"1"}')
    ],
    "module-reference-and-form-row-strings": lambda tmp: [
        "module", "check", "--in", _square_module_with_strings_for_lists(tmp)
    ],
    # deeper than the JSON parser's recursion limit
    "ops-nested-too-deep": lambda tmp: ["module", "mixed-hlt", "--in", str(MODULE_CUBE3), "--ops", "[" * 100000],
    "polytope-nested-too-deep": lambda tmp: ["polytope", "build", _written(tmp, "square.json", b"[" * 100000)],
    "torus-build-hermitian-not-dim-by-dim": lambda tmp: [
        "torus", "build", _written(tmp, "torus.json", SMALL_HERMITIAN)
    ],
    "torus-check-hermitian-not-dim-by-dim": lambda tmp: [
        "torus", "check", _written(tmp, "torus.json", SMALL_HERMITIAN)
    ],
    "module-export-without-out": lambda tmp: ["module", "export", "--in", str(MODULE_CUBE3)],
    "module-matrix-ragged": lambda tmp: [
        "module", "check", "--in", _edited_json(tmp, MODULE_CUBE3, lambda data: data["form"][1].pop())
    ],
    "module-matrix-empty": lambda tmp: [
        "module", "check", "--in", _edited_json(tmp, MODULE_CUBE3, lambda data: data.update(conjugation=[]))
    ],
    # past the torus size limit, (generators + 2) * 16^dim entries
    "torus-dim-6": lambda tmp: ["torus", "build", _identity_torus(tmp, 6, 1)],
    "torus-dim-5-with-7-generators": lambda tmp: ["torus", "build", _identity_torus(tmp, 5, 7)],
    "torus-dim-a-billion": lambda tmp: [
        "torus", "build", _written(tmp, "torus.json", b'{"dim": 1000000000, "hermitians": [], "reference": []}')
    ],
    # int() would truncate these integer fields, or read a bool as one
    "module-weight-with-a-fraction": lambda tmp: [
        "module", "check", "--in", _edited_json(tmp, MODULE_CUBE3, lambda data: data.update(weight=3.7))
    ],
    "module-weight-a-bool": lambda tmp: [
        "module", "check", "--in", _edited_json(tmp, MODULE_CUBE3, lambda data: data.update(weight=True))
    ],
    "module-basis-ell-with-a-fraction": lambda tmp: [
        "module", "check", "--in", _edited_json(tmp, MODULE_CUBE3, lambda data: data["basis"][0].update(ell=3.2))
    ],
    "torus-dim-with-a-fraction": lambda tmp: [
        "torus", "build", _edited_json(tmp, FIXTURES / "torus2.json", lambda data: data.update(dim=2.9))
    ],
    "input-not-utf8": lambda tmp: [
        "polytope", "build", _written(tmp, "square.json", b'{"name": "\xff", "normals": [[1]]}')
    ],
}


@pytest.mark.parametrize("case", sorted(INVALID_INPUT_CASES))
def test_invalid_input_exits_two_without_traceback(case, tmp_path, capsys):
    # exit 1 means a check failed; none ran on these inputs
    code, out, err = run(capsys, *INVALID_INPUT_CASES[case](tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("zero", ["0/5", "-0", "0+0 i"])
def test_module_file_with_zeros_spelled_out(zero, tmp_path, capsys):
    # every zero of the cube3 form spelled otherwise: the module checks, and
    # is exported as the golden it was edited from
    def spell(data):
        data["form"] = [[zero if e == "0" else e for e in row] for row in data["form"]]

    edited = _edited_json(tmp_path, MODULE_CUBE3, spell)
    assert run(capsys, "module", "check", "--in", edited)[0] == 0
    out_path = tmp_path / "exported.json"
    assert run(capsys, "module", "export", "--in", edited, "--out", str(out_path))[0] == 0
    assert out_path.read_text() == MODULE_CUBE3.read_text()


def test_module_file_with_a_gaussian_entry_of_two_denominators(tmp_path, capsys):
    # the torus2 cone matrix of h3 with an off-diagonal (3 + 2i)/6: still
    # Hermitian and positive definite, and written back as it was read
    cone = [["2", "1/2+1/3 i"], ["1/2-1/3 i", "2"]]
    edited = _edited_json(tmp_path, GOLDEN / "module-torus2.json", lambda data: data["generators"][2].update(cone=cone))
    assert run(capsys, "module", "check", "--in", edited)[0] == 0
    out_path = tmp_path / "exported.json"
    assert run(capsys, "module", "export", "--in", edited, "--out", str(out_path))[0] == 0
    assert json.loads(out_path.read_text()) == json.loads(Path(edited).read_text())


@pytest.mark.parametrize("case", ["torus-dim-6", "torus-dim-5-with-7-generators", "torus-dim-a-billion"])
def test_oversized_torus_is_refused_before_it_is_built(case, tmp_path, capsys):
    argv = INVALID_INPUT_CASES[case](tmp_path)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert "torus too large" in err


LONG_DECIMAL = "1.00000000000000000001"


def test_mixed_volume_reads_json_numbers_exactly(capsys):
    code, out, err = run(
        capsys, "polytope", "mixed-volume", str(FIXTURES / "square.json"),
        "--supports", f"[{LONG_DECIMAL},0,1,0]", "[1,0,1,0]",
    )
    assert (code, err) == (0, "")
    assert out.strip() == "200000000000000000001/200000000000000000000"


def test_polytope_support_json_number_is_read_exactly(tmp_path, capsys):
    square = b'{"dim":2,"normals":[[1,0],[-1,0],[0,1],[0,-1]],"support":[%s,0,1,0]}' % LONG_DECIMAL.encode()
    module_path = tmp_path / "module.json"
    code, _, err = run(capsys, "polytope", "build", _written(tmp_path, "square.json", square), "--module-out", str(module_path))
    assert (code, err) == (0, "")
    reference = json.loads(module_path.read_text())["reference"]
    assert reference == ["100000000000000000001/100000000000000000000", "0", "1", "0"]


def test_square_of_very_large_supports_reports_its_verdict(tmp_path, capsys):
    # its mixed hard Lefschetz determinant has more digits than str() of an
    # int writes
    big = "1" + "0" * 2500
    path = _edited_json(tmp_path, FIXTURES / "square.json", lambda data: data.update(support=[big, "0", big, "0"]))
    code, out, err = run(capsys, "polytope", "check", path, "--all", "--seed", "1", "--tuples", "1", "--json")
    assert (code, err) == (0, "")
    reports = [json.loads(line) for line in out.splitlines()]
    assert {r["verdict"] for r in reports} == {"pass"}
    dets = [r["data"]["determinant"] for r in reports if r["check"].startswith("mixed-hard-lefschetz[len=2")]
    assert len(dets) == 1 and len(dets[0]) > 4300


def test_module_check_time_does_not_grow_with_the_weight(tmp_path, capsys):
    # one basis vector of grade 0 and bidegree (k/2, k/2) and one zero
    # generator satisfy every axiom at any even weight k
    k = 10**12
    data = {
        "weight": k,
        "basis": [{"id": 0, "ell": 0, "p": k // 2, "q": k // 2}],
        "conjugation": [["1"]],
        "form": [["1"]],
        "generators": [{"name": "d1", "matrix": [["0"]]}],
        "reference": ["1"],
    }
    path = _written(tmp_path, "weight.json", json.dumps(data).encode())
    start = time.perf_counter()
    code, out, err = run(capsys, "module", "check", "--in", path, "--json")
    assert time.perf_counter() - start < 2
    assert (code, err) == (0, "")
    reports = {r["check"]: r for r in map(json.loads, out.splitlines())}
    assert {r["verdict"] for r in reports.values()} == {"pass"}
    assert [s["name"] for s in reports["polarization"]["subchecks"]] == [f"positive-definite[l=0,p={k // 2},q={k // 2}]"]


def test_sampler_without_cone_element_exits_two(tmp_path, capsys):
    # the negated reference of cube3 is not in the polarizing cone, and no
    # draw near it is; the sampled suite must not run on uncertified tuples
    def negate_reference(data):
        data["reference"] = ["-1"] * len(data["reference"])

    path = _edited_json(tmp_path, MODULE_CUBE3, negate_reference)
    code, out, err = run(
        capsys, "module", "mixed-hlt", "--in", path, "--seed", "5", "--tuples", "1"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("input error: no certified cone element")


@pytest.mark.parametrize("command", ["mixed-hlt", "mixed-hrr", "purity"])
def test_empty_family_exits_two(command, tmp_path, capsys):
    # with no generators the only cone candidate is the zero operator, which
    # is not Lefschetz on cube3; no sampled check may run on it
    def drop_generators(data):
        data["generators"] = []
        data["reference"] = []

    path = _edited_json(tmp_path, MODULE_CUBE3, drop_generators)
    code, out, err = run(
        capsys, "module", command, "--in", path, "--seed", "1", "--tuples", "1"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("input error: no certified cone element")


NONPOSITIVE_TUPLES_CASES = {
    "mixed-hlt-negative": ["module", "mixed-hlt", "--in", str(MODULE_CUBE3), "--seed", "5", "--tuples", "-1"],
    "mixed-hlt-zero": ["module", "mixed-hlt", "--in", str(MODULE_CUBE3), "--seed", "5", "--tuples", "0"],
    "mixed-hrr-zero": ["module", "mixed-hrr", "--in", str(MODULE_CUBE3), "--seed", "5", "--tuples", "0"],
    "purity-negative": ["module", "purity", "--in", str(MODULE_CUBE3), "--seed", "5", "--tuples", "-1"],
    "torus-check-all": [
        "torus", "check", str(FIXTURES / "torus1.json"), "--all", "--seed", "1", "--tuples", "-2"
    ],
    "polytope-check-all": [
        "polytope", "check", str(FIXTURES / "square.json"), "--all", "--seed", "1", "--tuples", "0"
    ],
}


@pytest.mark.parametrize("case", sorted(NONPOSITIVE_TUPLES_CASES))
def test_nonpositive_tuples_exits_two(case, capsys):
    # a sampled suite with no trials would run no mixed check and pass
    with pytest.raises(SystemExit) as exc:
        main(NONPOSITIVE_TUPLES_CASES[case])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "--tuples: must be a positive integer" in captured.err


DIRECTORY_PATH_CASES = {
    "polytope-input": lambda tmp: ["polytope", "build", str(FIXTURES)],
    "module-input": lambda tmp: ["module", "check", "--in", str(FIXTURES)],
    "module-output": lambda tmp: [
        "polytope", "build", str(FIXTURES / "square.json"), "--module-out", str(tmp)
    ],
}


@pytest.mark.parametrize("case", sorted(DIRECTORY_PATH_CASES))
def test_directory_path_exits_two(case, tmp_path, capsys):
    # a directory where a file is read or written is an input error, not a
    # failed check
    code, out, err = run(capsys, *DIRECTORY_PATH_CASES[case](tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")


def test_polytope_file_not_an_object_exits_two(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code, out, err = run(capsys, "polytope", "build", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("input error: malformed polytope JSON")


@pytest.mark.parametrize("ops", ["[]", '[{"d1":"1"},{"d2":"5"}]'])
def test_descent_ops_must_name_one_operator(ops, tmp_path, capsys):
    out_path = tmp_path / "descended.json"
    code, out, err = run(
        capsys, "module", "descent", "--in", str(MODULE_CUBE3), "--ops", ops, "--out", str(out_path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("input error: --ops must name exactly one operator")
    assert not out_path.exists()


def _built_module_file(tmp_path, capsys, family: str, fixture: str) -> str:
    path = tmp_path / f"{fixture}-module.json"
    code, _, _ = run(capsys, family, "build", str(FIXTURES / f"{fixture}.json"), "--module-out", str(path))
    assert code == 0
    return str(path)


def test_mixed_hrr_with_an_entry_outside_the_cone_exits_two(tmp_path, capsys):
    # (N0, -N0, N0): each entry polarizes cube4 on its own (every check of a
    # single operator uses T^l with l even or the sign cancels), but -N0 is
    # outside the type cone, so the mixed theorem says nothing about the tuple
    path = _built_module_file(tmp_path, capsys, "polytope", "cube4")
    n0 = {f"d{i}": "1" for i in range(1, 9)}
    ops = json.dumps([n0, {name: "-1" for name in n0}, n0])
    code, out, err = run(capsys, "module", "mixed-hrr", "--in", path, "--ops", ops)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: tuple entry 1 is not in the cone K")


def test_descent_outside_the_closed_cone_exits_two(tmp_path, capsys):
    # T = (-1/3, 0, 1, 0) on the square: T + N0/3 is not Lefschetz, which the
    # old sampled premise (T + N0/2^j, j <= 8) missed; the width h1 + h2 of T
    # is negative, so T lies outside the closure of the type cone
    path = _built_module_file(tmp_path, capsys, "polytope", "square")
    out_path = tmp_path / "descended.json"
    code, out, err = run(
        capsys, "module", "descent", "--in", path, "--ops", '{"d1":"-1/3","d3":1}', "--out", str(out_path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and "descent premise violated" in err
    assert not out_path.exists()


@pytest.mark.parametrize("supports", [["[-1,0,1,0]", "[-1,0,1,0]"], ["[1,1,1,1]", "[0,0,1,-2]"]])
def test_mixed_volume_outside_the_closed_type_cone_exits_two(supports, capsys):
    # nu is the volume only on the closure of the type cone: at (-1,0,1,0)
    # it reads -1, which is no mixed volume of convex bodies
    code, out, err = run(capsys, "polytope", "mixed-volume", str(FIXTURES / "square.json"), "--supports", *supports)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: support") and "outside the closed type cone" in err


def test_mixed_volume_on_the_closed_type_cone(capsys):
    # the segments (1,1,0,0) and (0,0,1,1), of length 2, lie on walls of
    # the cone; their sum is a square of area 4 = 2 V(A, B)
    code, out, _ = run(
        capsys, "polytope", "mixed-volume", str(FIXTURES / "square.json"), "--supports", "[1,1,0,0]", "[0,0,1,1]"
    )
    assert code == 0
    assert out.strip() == "2"


def test_module_descent_out_descends_once(tmp_path, capsys, monkeypatch):
    descent_mod = importlib.import_module("hlmod.descent")
    real, calls = descent_mod._descend, []

    def counted(module, mats):
        calls.append(len(mats))
        return real(module, mats)

    monkeypatch.setattr(descent_mod, "_descend", counted)
    out_path = tmp_path / "descended.json"
    code, _, _ = run(capsys, "module", "descent", "--in", str(MODULE_CUBE3), "--out", str(out_path), "--json")
    assert code == 0
    assert out_path.exists()
    assert calls == [1]


@pytest.mark.parametrize(
    "argv",
    [
        ["module", "check", "--in", str(MODULE_CUBE3), "--json"],
        ["polytope", "check", str(FIXTURES / "square.json"), "--json"],
        ["torus", "check", str(FIXTURES / "torus1.json"), "--json"],
    ],
    ids=["module", "polytope", "torus"],
)
def test_checks_validate_the_structure_once(argv, capsys, monkeypatch):
    # the suite reuses the report the module was loaded or built with;
    # ``HLModule.structure`` is the one place that looks the check up
    hl = importlib.import_module("hlmod.hodge_lefschetz")
    real, calls = hl.validate_structure, []

    def counted(module):
        calls.append(module.dim)
        return real(module)

    monkeypatch.setattr(hl, "validate_structure", counted)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == 1
    assert json.loads(out.splitlines()[-1])["check"] == "validate-structure"


@pytest.mark.parametrize("action", ["mixed-hlt", "mixed-hrr"])
def test_sampled_mixed_checks_ignore_lengths(action, capsys):
    # --lengths picks the Koszul lengths of sampled purity; the mixed
    # actions draw every length their statement takes and never parse it
    argv = ["module", action, "--in", str(MODULE_CUBE3), "--seed", "5", "--tuples", "1", "--json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "--lengths", "0") == (0, out, "")


def test_polytope_check_polarizes_each_module_once(capsys, monkeypatch):
    # the build certifies the reference polarization and the suite reuses
    # that report; the suite's descent certifies the descended module
    hl = importlib.import_module("hlmod.hodge_lefschetz")
    real, calls = hl.polarization_check, []

    def counted(module, coeffs):
        calls.append(module.dim)
        return real(module, coeffs)

    monkeypatch.setattr(hl, "polarization_check", counted)
    argv = ["polytope", "check", str(FIXTURES / "cube4.json"), "--all", "--seed", "7", "--tuples", "1", "--json"]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert calls == [16, 10]


@pytest.mark.parametrize("fixture, family, dim", [("cube4", "polytope", 16), ("torus3", "torus", 64)])
def test_built_module_check_ranks_the_reference_powers_once(fixture, family, dim, capsys, monkeypatch):
    # the build ranks each T^l of the reference to certify its polarization,
    # and the suite prints that rank report instead of ranking T^l again
    hl = importlib.import_module("hlmod.hodge_lefschetz")
    real, calls = hl._power_ranks, []
    monkeypatch.setattr(hl, "_power_ranks", lambda module, t: calls.append(module.dim) or real(module, t))
    code, _, _ = run(capsys, family, "check", str(FIXTURES / f"{fixture}.json"), "--json")
    assert (code, calls) == (0, [dim])


@pytest.mark.parametrize(
    "fixture, family, ranked, combined",
    [("cube4", "polytope", [16, 10], 23), ("torus3", "torus", [64, 29], 16)],
)
def test_full_suite_ranks_the_reference_once_and_combines_each_operator_once(
    fixture, family, ranked, combined, capsys, monkeypatch
):
    # the decomposition report and the sl2 completion take the reference's
    # certificate from the build's rank report, so T^l is ranked once for
    # the module and once for its descent; every coefficient vector, the
    # reference's and each sampled entry's, is combined once, and the
    # checks of one draw share its operators
    hl = importlib.import_module("hlmod.hodge_lefschetz")
    real_ranks, real_combine, ranks, vectors = hl._power_ranks, hl.OperatorFamily.combine, [], []
    monkeypatch.setattr(hl, "_power_ranks", lambda module, t: ranks.append(module.dim) or real_ranks(module, t))

    def combine(family_, coefficients, dim):
        if dim == ranked[0]:
            vectors.append(tuple(coefficients))
        return real_combine(family_, coefficients, dim)

    monkeypatch.setattr(hl.OperatorFamily, "combine", combine)
    argv = [family, "check", str(FIXTURES / f"{fixture}.json"), "--all", "--seed", "7", "--tuples", "1", "--json"]
    code, _, _ = run(capsys, *argv)
    assert (code, ranks) == (0, ranked)
    assert len(vectors) == len(set(vectors)) == combined


def test_module_check_ranks_the_reference_powers_once(tmp_path, capsys, monkeypatch):
    # a module file carries no polarization report: the suite ranks each T^l
    # of the reference once for both reports, and a T without full rank
    # still gets polarization_check's failed precondition
    hl = importlib.import_module("hlmod.hodge_lefschetz")
    real, calls = hl._power_ranks, []
    monkeypatch.setattr(hl, "_power_ranks", lambda module, t: calls.append(module.dim) or real(module, t))
    code, _, _ = run(capsys, "module", "check", "--in", str(MODULE_CUBE3), "--json")
    assert (code, calls) == (0, [8])
    data = json.loads(MODULE_CUBE3.read_text())
    data["reference"] = ["1"] + ["0"] * (len(data["reference"]) - 1)  # one summand of the cube
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "module", "check", "--in", str(path), "--json")
    module = module_from_json(data)
    reports = [lefschetz_report(module, module.reference), hl.polarization_check(module, module.reference)]
    assert code == 2
    assert out.splitlines()[:2] == [rep.to_json() for rep in reports]
    assert [s.name for s in reports[1].failures()] == ["lefschetz-precondition"]


def test_suite_reads_each_mixed_checker_from_its_module(capsys, monkeypatch):
    # the benchmark's tracer and speed probe wrap each checker in its
    # module, so the suite must look the checkers up there when it runs
    mixed, calls = importlib.import_module("hlmod.mixed"), []
    for name in ("mixed_hlt_check", "kernel_weight_bound", "mixed_decomposition_check", "mixed_hrr_check"):

        def counted(*args, _name=name, _real=getattr(mixed, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(mixed, name, counted)
    argv = ["polytope", "check", str(FIXTURES / "square.json"), "--all", "--seed", "7", "--tuples", "1", "--json"]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    # weight 2: tuples of length 1 and 2 for the first pair, of length 1 for the second
    assert sorted(calls) == sorted(
        ["mixed_hlt_check", "kernel_weight_bound"] * 2 + ["mixed_decomposition_check", "mixed_hrr_check"]
    )
