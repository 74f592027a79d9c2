"""The table parser of ``hlmod.cli`` reads every command line as argparse did.

Each argv of the corpus is read by ``cli.parse_args`` and by the argparse
oracle of ``tests/cli_oracles.py``: an accepted argv must give the same
fields (the oracle's ``func`` aside), a rejected one exit 2 on both with
the same message.  The corpus is every ``hlmod`` command in the README,
every argv literal the tests hand to ``main``, the commands of both
benchmark workloads and the documented forms of options.  The entry point
is also run as a process, which must not load argparse at all.
"""

from __future__ import annotations

import ast
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cli_oracles import build_parser
from hlmod import cli
from module_oracles import bench_workloads

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"
PLACEHOLDER = "file.json"  # an argv item the tests compute, such as a tmp_path file


def _outcome(parse, argv, capsys):
    """("ok", fields) of an accepted argv, else ("exit", code, message, stdout)."""
    try:
        fields = dict(vars(parse(list(argv))))
    except SystemExit as exc:
        captured = capsys.readouterr()
        message = captured.err.rpartition(": error: ")[2].strip()
        return "exit", exc.code, message, captured.out != ""
    fields.pop("func", None)
    return "ok", fields


def _oracle(argv):
    return build_parser().parse_args(argv)


def _literal(node) -> list[str] | None:
    """The items of an argv literal starting with a family, computed items
    as ``PLACEHOLDER``; None for any other node."""
    items = node.elts if isinstance(node, (ast.List, ast.Tuple)) else None
    if not items or not isinstance(items[0], ast.Constant) or items[0].value not in cli.FAMILIES:
        return None
    if any(isinstance(item, ast.Starred) for item in items):
        return None
    return [item.value if isinstance(item, ast.Constant) else PLACEHOLDER for item in items]


def _test_argvs() -> list[list[str]]:
    """Every argv literal in the test files, and the argv of each
    ``run(capsys, "<family>", ...)`` call."""
    found = []
    for path in sorted(TESTS.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "run":
                node = ast.List(elts=node.args[1:])
            argv = _literal(node)
            if argv is not None and argv not in found:
                found.append(argv)
    return found


def _readme_argvs() -> list[list[str]]:
    lines = (ROOT / "README.md").read_text().splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("hlmod ")]


def _workload_argvs(tmp_path_factory) -> list[list[str]]:
    workloads = bench_workloads()
    return [
        cmd.argv
        for name in ("polytope-suite", "build-scale")
        for cmd in workloads.make(name, 1, tmp_path_factory.mktemp(name)).commands
    ]


FORMS = [
    ["polytope", "check", "fixtures/cube4.json", "--seed=7", "--tuples=3", "--all"],
    ["module", "purity", "--in=m.json", "--lengths=1,2", "--seed", "5"],
    ["module", "--seed", "5", "--in", "m.json", "mixed-hlt", "--tuples", "2"],
    ["polytope", "--json", "--all", "check", "--seed", "1", "fixtures/square.json"],
    ["torus", "--tup", "3", "check", "fixtures/torus1.json", "--se", "2", "--a"],
    ["module", "check", "--i", "m.json", "--j"],
    ["module", "descent", "--in", "m.json", "--op", '{"d1": "1"}', "--ou=d.json"],
    ["polytope", "check", "fixtures/square.json", "--seed", "-5", "--all"],
    ["polytope", "check", "fixtures/square.json", "--seed=-5"],
    ["polytope", "check", "fixtures/square.json", "--seed", "1", "--seed", "2", "--tuples", "4", "--tuples", "5"],
    ["polytope", "mixed-volume", "fixtures/square.json", "--supports"],
    ["polytope", "mixed-volume", "fixtures/square.json", "--supports", "[1,1,1,1]"],
    ["polytope", "mixed-volume", "fixtures/square.json", "--supports", "[1,1,1,1]", "[2,2,1,1]", "[1, 2, 3, 4]"],
    ["polytope", "mixed-volume", "fixtures/square.json", "--supports", "[1]", "[2]", "--json"],
    ["polytope", "--supports", "a", "b", "--supports", "c", "--json", "mixed-volume", "f.json"],
    ["polytope", "mixed-volume", "f.json", "--supports=[1]", "--supports", "-3", "-1.5", "-.5"],
    ["polytope", "build", "f.json", "--module-out", "-"],
    ["module", "mixed-hrr", "--in", "m.json", "--ops", "-1 2"],
    ["module", "descent", "--in", "m.json", "--ops={\"d1\": \"1\"}", "--out", "d.json"],
]

# argv -> the message (or part of it) after "error: " on both parsers
INVALID = {
    (): "the following arguments are required: family",
    ("cube",): "argument family: invalid choice: 'cube'",
    ("polytope", "verify", "f.json"): "argument action: invalid choice: 'verify'",
    ("module", "build", "--in", "m.json"): "invalid choice",
    ("polytope", "check", "f.json", "--verbose"): "unrecognized arguments: --verbose",
    ("torus", "check", "f.json", "--supports", "[1]"): "unrecognized arguments: --supports [1]",
    ("module", "check", "--in", "m.json", "--o", "x"): "ambiguous option: --o could match --out, --ops",
    ("module", "check", "--in", "m.json", "--seed"): "argument --seed: expected one argument",
    ("module", "check", "--in", "m.json", "--seed", "--json"): "argument --seed: expected one argument",
    ("module", "check", "--in"): "argument --in: expected one argument",
    ("polytope", "check", "f.json", "--seed", "x"): "argument --seed: invalid int value: 'x'",
    ("polytope", "check", "f.json", "--seed=1.5"): "invalid int value",
    ("polytope", "check", "f.json", "--tuples", "0"): "argument --tuples: must be a positive integer, got '0'",
    ("polytope", "check", "f.json", "--tuples", "-1"): "argument --tuples: must be a positive integer, got '-1'",
    ("module", "mixed-hlt", "--in", "m.json", "--tuples=x"): "argument --tuples: must be a positive integer, got 'x'",
    ("module", "check"): "the following arguments are required: --in",
    ("module",): "the following arguments are required: action, --in",
    ("polytope", "check"): "the following arguments are required: input",
    ("torus",): "the following arguments are required: action, input",
    ("polytope", "--supports", "a", "check", "f.json"): "the following arguments are required: action, input",
    ("polytope", "check", "f.json", "g.json"): "unrecognized arguments: g.json",
    ("module", "check", "--in", "m.json", "extra"): "unrecognized arguments: extra",
    ("polytope", "check", "f.json", "--json=1"): "argument --json: ignored explicit argument '1'",
    ("torus", "check", "f.json", "--all=yes"): "argument --all: ignored explicit argument 'yes'",
    ("polytope", "check", "f.json", "--json", "1"): "unrecognized arguments: 1",
}


@pytest.fixture(scope="module")
def valid_corpus(tmp_path_factory):
    return _readme_argvs() + _test_argvs() + _workload_argvs(tmp_path_factory) + FORMS


def test_corpus_reaches_every_source():
    assert len(_readme_argvs()) >= 10
    assert len(_test_argvs()) >= 60
    assert all(argv in _test_argvs() for argv in (
        ["polytope", "hvector", PLACEHOLDER],
        ["module", "mixed-hlt", "--in", PLACEHOLDER, "--seed", "5", "--tuples", "-1"],
    ))


def test_table_parses_as_argparse(valid_corpus, capsys):
    accepted = 0
    for argv in valid_corpus:
        expected = _outcome(_oracle, argv, capsys)
        assert _outcome(cli.parse_args, argv, capsys) == expected, argv
        accepted += expected[0] == "ok"
    assert accepted >= 100


@pytest.mark.parametrize("argv", [list(argv) for argv in INVALID], ids=" ".join)
def test_usage_errors_exit_two_as_argparse(argv, capsys):
    expected = _outcome(_oracle, argv, capsys)
    assert expected[:2] == ("exit", 2)
    assert INVALID[tuple(argv)] in expected[2]
    assert _outcome(cli.parse_args, argv, capsys) == expected
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith("usage: hlmod")
    assert INVALID[tuple(argv)] in captured.err


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["polytope", "-h"], ["torus", "check", "--help"],
                                  ["module", "--he", "--seed", "x"]])
def test_help_lists_each_option_and_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(argv)
    out = capsys.readouterr().out
    assert exc.value.code == 0 and out.startswith("usage: hlmod")
    family = cli.FAMILIES.get(argv[0])
    rows = {" ".join(line.split()) for line in out.splitlines()}
    if family is None:
        expected = {f"{name} {entry[0]}" for name, entry in cli.FAMILIES.items()}
    else:
        expected = {" ".join(f"{cli._invocation(a)} {a[4]}".split()) for a in (cli._HELP, *family[2])}
    assert expected - rows == set()


def _python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=ROOT, env=env, timeout=120)


def test_commands_load_no_argparse():
    # argparse's first use (gettext, locale, regex compiles, terminal size
    # queries) cost about 4 ms of every command
    script = (
        "import contextlib, io, sys\n"
        "from hlmod import cli\n"
        "for argv in (['module', 'check', '--in', 'tests/golden/module-cube3.json', '--json'],\n"
        "             ['polytope', 'hvector', 'fixtures/cube3.json']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    proc = _python("-c", script)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_entry_point_runs_as_a_process():
    for argv in (["--help"], ["module", "--help"]):
        proc = _python("-m", "hlmod.cli", *argv)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        assert proc.stdout.startswith("usage: hlmod")
    proc = _python("-m", "hlmod.cli", "module", "mixed-hlt", "--in", "tests/golden/module-cube3.json", "--tuples", "0")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
    proc = _python("-m", "hlmod.cli", "polytope", "hvector", "fixtures/cube4.json")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1 4 6 4 1\n", "")
