"""The tests' corpus is the CLI's input: each named input is one file of
``fixtures/``, which ``corpus.py`` and the CLI read alike."""

import json

import pytest

from corpus import FIXTURES, POLYTOPES, TORI, load_polytope
from hlmod.cli import main
from hlmod.polytopes import h_vector

# files of fixtures/ that are CLI examples of rejected input, not corpus members
ERROR_EXAMPLES = ("broken", "octahedron")


def _json_out(capsys, *argv):
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("name", POLYTOPES)
def test_cli_reads_the_polytope_corpus(name, corpus, capsys):
    out = _json_out(capsys, "polytope", "hvector", str(FIXTURES / f"{name}.json"), "--json")
    assert out == list(h_vector(corpus[name][2]))


@pytest.mark.parametrize("name", TORI)
def test_cli_reads_the_torus_corpus(name, request, capsys):
    module = request.getfixturevalue(f"t{name.removeprefix('torus')}_module")
    out = _json_out(capsys, "torus", "build", str(FIXTURES / f"{name}.json"), "--json")
    assert out["total-dim"] == module.dim


def test_every_fixture_file_is_in_the_corpus_or_an_error_example():
    assert {p.stem for p in FIXTURES.glob("*.json")} == {*POLYTOPES, *TORI, *ERROR_EXAMPLES}
    # a polytope's name, which the goldens print, is its file's name
    assert [load_polytope(name).name for name in POLYTOPES] == list(POLYTOPES)
