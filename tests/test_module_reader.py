"""The matrix reader against its oracle, the per-entry reader.

``matrix_from_json`` finds a matrix's nonzero entries by list operations
and parses each distinct string once; ``oracle_matrix`` parses every entry
in row order.  On drawn sparse Q and Q(i) matrices, spelled zeros, padded
strings and malformed input included, both must give the same numerators,
denominator and sparse view, or the same ``ModuleJSONError``.  The CLI
must print and write the same bytes with either reader, on the golden
module files and on the benchmark's build-scale module files, and the
torus reader, which shares it, must keep its outputs and errors.
"""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hlmod import serialization
from hlmod.cli import main
from hlmod.exact import format_scalar, gaussian
from hlmod.serialization import ModuleJSONError, matrix_from_json, torus_spec_from_json
from module_oracles import bench_workloads, oracle_matrix

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

ZERO_SPELLINGS = ["0/5", "-0", "0+0 i", " 0 "]
SPELLINGS = ["1", "-3", "1/2", " 7/4 ", "1 / 3", "1/2+1/3 i", "-2/3 i", "i", "3-i", "-5/6+7/10 i", " 2 +  i "]
# non-strings, unhashable entries, exponents, zero denominators and text
# that is no scalar
MALFORMED = [0, 1.5, None, True, [], {}, ["1"], "1e3", "2E1 i", "1/0", "1/2+1/0 i", "x", "", " "]

parts = st.fractions(min_value=-9, max_value=9, max_denominator=12)
# the writer's spelling of drawn rationals and Gaussian rationals, whose
# two parts have their own denominators
written = st.builds(lambda re, im: format_scalar(gaussian(re, im)), parts, st.just(Fraction(0)) | parts)
scalars = st.sampled_from(ZERO_SPELLINGS + SPELLINGS) | written


@st.composite
def json_matrices(draw):
    """Rows of mostly ``"0"`` over a few strings that repeat within a row;
    in about half the draws, malformed entries at drawn cells or a row of
    another length."""
    n_rows, n_cols = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    pool = draw(st.lists(scalars, min_size=1, max_size=4))
    entries = st.sampled_from(["0", "0", "0"] + pool) | scalars
    rows = [[draw(entries) for _ in range(n_cols)] for _ in range(n_rows)]
    if rows and n_cols and draw(st.booleans()):
        for _ in range(draw(st.integers(1, 2))):
            rows[draw(st.integers(0, n_rows - 1))][draw(st.integers(0, n_cols - 1))] = draw(st.sampled_from(MALFORMED))
    if len(rows) > 1 and draw(st.booleans()):
        row = rows[draw(st.integers(1, n_rows - 1))]
        if row and draw(st.booleans()):
            row.pop()
        else:
            row.append("0")
    return rows


def _read(reader, rows, expected_cols):
    """What ``reader`` gives: its error message, or the shape, numerators
    (with their types), d and sparse view (in column order) of the matrix."""
    try:
        m = reader(rows, expected_cols)
    except ModuleJSONError as exc:
        return str(exc)
    numerators, d = m.numerators()
    sparse, sparse_d = m.sparse_numerators()
    types = [list(map(type, row)) for row in numerators]
    return m.rows, m.cols, numerators, types, d, [list(row.items()) for row in sparse], sparse_d


@settings(max_examples=400, deadline=None)
@given(json_matrices(), st.integers(0, 6))
@example([["1", []], ["0", "1e3"]], 2)
@example([["1/2", "0"], ["1/0"], ["x", "0"]], 2)
@example([["0", "0"], ["0"]], 2)
@example([["0/5", "-0", "0+0 i", "0"]], 4)
@example([["1/2+1/3 i", "1/4", "1/2+1/3 i"], ["0", "-2/3 i", " 1/4"]], 3)
def test_reader_matches_the_per_entry_oracle(rows, expected_cols):
    assert _read(matrix_from_json, rows, expected_cols) == _read(oracle_matrix, rows, expected_cols)


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def module_files(tmp_path_factory):
    """The golden module files and the benchmark's seed-11 build-scale
    module files, written by the ``build`` commands of its workload."""
    workdir = tmp_path_factory.mktemp("build-scale")
    commands = bench_workloads().make("build-scale", 11, workdir).commands
    for cmd in commands:
        if cmd.argv[1] == "build":
            assert _run([str(ROOT / a) if a.startswith("fixtures/") else a for a in cmd.argv])[0] == 0
    built = [Path(cmd.argv[3]) for cmd in commands if cmd.argv[0] == "module"]
    assert len(built) == 4
    return sorted(GOLDEN.glob("module-*.json")) + built


def test_module_commands_print_and_write_as_with_the_oracle(module_files, tmp_path, monkeypatch):
    # module check --json and module export give the same bytes with the
    # per-entry reader, and export writes back the file it read
    def outputs():
        out = []
        for path in module_files:
            exported = tmp_path / "exported.json"
            out.append(_run(["module", "check", "--in", str(path), "--json"]))
            out.append(_run(["module", "export", "--in", str(path), "--out", str(exported)])[0])
            out.append(exported.read_bytes())
            assert out[-1] == path.read_bytes(), path.name
        return out

    assert len(module_files) == 8
    new = outputs()
    monkeypatch.setattr(serialization, "matrix_from_json", oracle_matrix)
    assert outputs() == new


def _torus(name: str) -> dict:
    return json.loads((ROOT / "fixtures" / f"{name}.json").read_text(encoding="utf-8"))


def test_torus_reader_keeps_its_outputs():
    for name in ("torus1", "torus2", "torus3"):
        data = _torus(name)
        spec = torus_spec_from_json(data)
        expected = [oracle_matrix(h, data["dim"]).numerators() for h in data["hermitians"]]
        assert [h.numerators() for h in spec.hermitians] == expected, name


@pytest.mark.parametrize("bad", [[], 1.5, "1e3", "1/0", "ragged"], ids=repr)
@pytest.mark.parametrize("name", ["torus2", "torus3"])
def test_torus_reader_keeps_its_errors(name, bad):
    data = _torus(name)
    last = data["hermitians"][-1]
    if bad == "ragged":
        last[-1].pop()
    else:
        last[-1][-1] = bad
    with pytest.raises(ModuleJSONError) as err:
        torus_spec_from_json(data)
    with pytest.raises(ModuleJSONError) as oracle:
        oracle_matrix(last, data["dim"])
    assert str(err.value) == f"malformed torus JSON: {oracle.value}"
