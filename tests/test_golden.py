"""Canonical ``--json`` output of the CLI, pinned byte for byte.

Each golden file under ``tests/golden/`` holds the stdout of one command
with a fixed seed: the ``check --all --json`` suites of the fixtures, and
the README's ``module`` subcommands on the cube3 and torus2 module files
(``module-<name>.json``, written by ``polytope build`` / ``torus build``).
``module descent --out`` also pins the descended module file it writes, and
``module-<name>-<action>-ops.jsonl`` the explicit ``--ops`` path of the
mixed and purity actions on the module's reference tuple.
``failing-reports.jsonl`` pins the library calls of ``failing_paths.py``:
the failure verdicts and witnesses of the Lefschetz and mixed checkers.
``volume-polynomials.jsonl`` pins the volume polynomials that
``volume_polys.py`` lists, and ``sl2-raising.jsonl`` the raising operators
N+ of the sl2 completions that ``sl2_raising.py`` lists, and
``descent-outputs.jsonl`` the repeated and quotient descents and the Koszul
complexes that ``descent_outputs.py`` lists, and
``structure-failures.jsonl`` the structural validation of the corrupted
modules that ``structure_failures.py`` lists, and ``purity-reports.jsonl``
the Koszul purity reports, failures and witnesses included, on the tuples
that ``purity_reports.py`` lists, and ``triangulations.jsonl`` the pulling
triangulations and their orientations of the polytopes that
``triangulations.py`` lists.
Any change to verdicts, witnesses, sampled tuples, chosen bases or the
canonical encoding shows up here as a diff.  Regenerate a file only when
such a change is intended, by running the command below and saving its
stdout (or the file it writes).
"""

import json
from pathlib import Path

import pytest

from descent_outputs import descent_output_lines
from failing_paths import failing_report_lines
from purity_reports import purity_report_lines
from sl2_raising import sl2_raising_lines
from structure_failures import structure_failure_lines
from triangulations import triangulation_lines
from volume_polys import volume_polynomial_lines
from hlmod.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "square": ("polytope", "square", "7", "2"),
    "cube3": ("polytope", "cube3", "7", "2"),
    "prism": ("polytope", "prism", "7", "2"),
    "cube4": ("polytope", "cube4", "7", "1"),
    "torus1": ("torus", "torus1", "11", "2"),
    "torus2": ("torus", "torus2", "11", "2"),
    "torus3": ("torus", "torus3", "7", "25"),
}

# module file -> the family whose ``build`` writes it from fixtures/<name>.json
MODULE_FILES = {"cube3": "polytope", "torus2": "torus"}

MODULE_COMMANDS = {
    "check": [],
    "descent": [],
    "purity": ["--seed", "5", "--tuples", "3", "--lengths", "1,2,3"],
    "mixed-hlt": ["--seed", "5"],
    "mixed-hrr": ["--seed", "5"],
}

# action -> length of the explicit tuple (N0, ..., N0) of the module's
# reference; the malformed --lengths must stay ignored outside sampled purity
MODULE_OPS_COMMANDS = {"mixed-hlt": 2, "mixed-hrr": 1, "purity": 2}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_json_output_matches_golden(name, capsys):
    kind, fixture, seed, tuples = COMMANDS[name]
    argv = [
        kind,
        "check",
        str(ROOT / "fixtures" / f"{fixture}.json"),
        "--all",
        "--seed",
        seed,
        "--tuples",
        tuples,
        "--json",
    ]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.jsonl").read_text()


@pytest.mark.parametrize("name", sorted(MODULE_FILES))
def test_built_module_file_matches_golden(name, tmp_path, capsys):
    out_path = tmp_path / f"{name}-module.json"
    argv = [
        MODULE_FILES[name],
        "build",
        str(ROOT / "fixtures" / f"{name}.json"),
        "--module-out",
        str(out_path),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert out_path.read_text() == (GOLDEN / f"module-{name}.json").read_text()


@pytest.mark.parametrize("action", sorted(MODULE_COMMANDS))
@pytest.mark.parametrize("name", sorted(MODULE_FILES))
def test_module_command_matches_golden(name, action, tmp_path, capsys):
    argv = ["module", action, "--in", str(GOLDEN / f"module-{name}.json")]
    argv += MODULE_COMMANDS[action] + ["--json"]
    written = tmp_path / f"{name}-descended.json"
    if action == "descent":
        argv += ["--out", str(written)]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"module-{name}-{action}.jsonl").read_text()
    if action == "descent":
        assert written.read_text() == (GOLDEN / f"module-{name}-descended.json").read_text()


def _reference_tuple(name: str, length: int) -> str:
    data = json.loads((GOLDEN / f"module-{name}.json").read_text())
    entry = {g["name"]: c for g, c in zip(data["generators"], data["reference"])}
    return json.dumps([entry] * length)


@pytest.mark.parametrize("action", sorted(MODULE_OPS_COMMANDS))
@pytest.mark.parametrize("name", sorted(MODULE_FILES))
def test_module_ops_command_matches_golden(name, action, capsys):
    ops = _reference_tuple(name, MODULE_OPS_COMMANDS[action])
    argv = ["module", action, "--in", str(GOLDEN / f"module-{name}.json"), "--ops", ops, "--lengths", "0", "--json"]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"module-{name}-{action}-ops.jsonl").read_text()


def test_failure_paths_match_golden():
    golden = (GOLDEN / "failing-reports.jsonl").read_text().splitlines()
    assert failing_report_lines() == golden


def test_volume_polynomials_match_golden():
    golden = (GOLDEN / "volume-polynomials.jsonl").read_text().splitlines()
    assert volume_polynomial_lines() == golden


def test_sl2_raising_operators_match_golden():
    golden = (GOLDEN / "sl2-raising.jsonl").read_text().splitlines()
    assert sl2_raising_lines() == golden


def test_descent_outputs_match_golden():
    golden = (GOLDEN / "descent-outputs.jsonl").read_text().splitlines()
    assert descent_output_lines() == golden


def test_structure_failures_match_golden():
    golden = (GOLDEN / "structure-failures.jsonl").read_text().splitlines()
    assert structure_failure_lines() == golden


def test_purity_reports_match_golden():
    golden = (GOLDEN / "purity-reports.jsonl").read_text().splitlines()
    assert purity_report_lines() == golden


def test_triangulations_match_golden():
    golden = (GOLDEN / "triangulations.jsonl").read_text().splitlines()
    assert triangulation_lines() == golden
