"""End-to-end CLI behavior: subcommands, exit codes, and determinism."""

import json
from pathlib import Path

from hlmod.cli import main

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


def test_octahedron_exits_two(capsys):
    code, out, err = run(
        capsys, "polytope", "check", str(FIXTURES / "octahedron.json"), "--seed", "1"
    )
    assert code == 2
    assert "input error" in err


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


def test_polytope_above_dimension_five_exits_two(tmp_path, capsys):
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
    assert code == 2
    assert out == ""
    assert "input error" in err
    assert "dimension 6" in err
    assert "Traceback" not in err
