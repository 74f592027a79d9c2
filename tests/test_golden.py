"""Canonical ``--json`` output of the full suites, pinned byte for byte.

Each golden file under ``tests/golden/`` holds the stdout of one ``check
--all --json`` command with a fixed seed.  Any change to verdicts,
witnesses, sampled tuples or the canonical encoding shows up here as a
diff.  Regenerate a file only when such a change is intended, by running
the command below and saving its stdout.
"""

from pathlib import Path

import pytest

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
}


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
