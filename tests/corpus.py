"""The named corpus of the tests: the polytope and torus files of ``fixtures/``.

Each input is defined once, as a JSON file under ``fixtures/``, and read
here through the same parsers the CLI uses, so the tests certify exactly
the files the CLI examples and the benchmark read.  The corpus covers odd
and even dimensions, simplicial and non-simplicial combinatorics, and
rationally perturbed supports (re-validated for simplicity on
construction).
"""

from __future__ import annotations

import json
from pathlib import Path

from hlmod.polytopes import SimplePolytope
from hlmod.serialization import polytope_from_json, torus_spec_from_json
from hlmod.torus import TorusSpec

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# the polytope corpus, in the order the tests and the golden generators walk it
POLYTOPES = (
    "segment",
    "triangle",
    "square",
    "simplex3",
    "cube3",
    "cube4",
    "prism",
    "square-perturbed",
    "cube3-perturbed",
    "prism-perturbed",
)
TORI = ("torus1", "torus2", "torus3")


def _read(name: str):
    return json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))


def load_polytope(name: str) -> SimplePolytope:
    """The polytope of ``fixtures/<name>.json``."""
    return polytope_from_json(_read(name))


def load_torus_spec(name: str) -> TorusSpec:
    """The torus data of ``fixtures/<name>.json``."""
    return torus_spec_from_json(_read(name))


def standard_corpus() -> list[SimplePolytope]:
    return [load_polytope(name) for name in POLYTOPES]
