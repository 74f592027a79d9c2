"""Purity reports of Koszul complexes, as canonical lines.

Every line is one ``purity_check(koszul_complex(module, entries,
require_cone=False))`` call on a module of the polytope corpus of
``fixtures/`` or on torus1 or torus2: its tuple and its canonical
report.  The tuples of a module, all drawn from ``random.Random(name)``:

* sampled cone tuples, two of each length 1..3;
* tuples outside the cone: the first generator ``(1, 0, ..., 0)`` repeated
  to lengths 1..3, the negated reference, every generator alone, and
  integer tuples with entries in -2..2, two of each length 1..3;
* on the square, the zero operator ``d1 - d2`` alone and before the
  reference.

The tuples outside the cone pin failing verdicts and their witnesses, not
only passes.  ``tests/golden/purity-reports.jsonl`` holds the output;
regenerate it only for an intended change, with

    PYTHONPATH=src python tests/purity_reports.py > tests/golden/purity-reports.jsonl
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from descent_outputs import descent_modules
from hlmod.descent import koszul_complex, purity_check
from hlmod.exact import format_scalar
from hlmod.hodge_lefschetz import HLModule, sample_cone_tuple

LENGTHS = (1, 2, 3)
TRIALS = 2


def purity_tuples(name: str, module: HLModule) -> list[list[tuple]]:
    """The cone tuples, then the tuples outside the cone, of one module."""
    rng = random.Random(name)
    r = len(module.reference)
    units = [tuple(Fraction(int(j == i)) for j in range(r)) for i in range(r)]
    ref = tuple(module.reference)
    out = [list(sample_cone_tuple(module, rng, n)) for n in LENGTHS for _ in range(TRIALS)]
    out += [[units[0]] * n for n in LENGTHS]
    out.append([tuple(-c for c in ref)])
    out += [[u] for u in units]
    out += [
        [tuple(Fraction(rng.randint(-2, 2)) for _ in range(r)) for _ in range(n)]
        for n in LENGTHS
        for _ in range(TRIALS)
    ]
    if name == "square":
        zero = module.coefficients({"d1": 1, "d2": -1})
        out += [[zero], [zero, ref]]
    return out


def _line(**fields) -> str:
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))


def purity_report_lines() -> list[str]:
    lines = []
    for name, module in descent_modules():
        for entries in purity_tuples(name, module):
            rep = purity_check(koszul_complex(module, entries, require_cone=False))
            lines.append(_line(
                module=name,
                entries=[[format_scalar(x) for x in c] for c in entries],
                report=rep.to_dict(),
            ))
    return lines


if __name__ == "__main__":
    for line in purity_report_lines():
        print(line)
