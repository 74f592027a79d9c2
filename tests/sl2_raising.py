"""The raising operators N+ of the sl2 completions, as canonical lines.

Every line holds one module's name and the nonzero entries of N+, the
unique degree +2 operator with [N+, T] = Y for the reference operator T
and the grading Y, as sorted ``[row, column, value]`` triples with values
in canonical scalar form: the modules of the polytope corpus of
``fixtures/``, the 5-cube, and the tori torus1 and torus2.  N+ is
unique, so any change to how ``sl2_complete`` solves for it must leave
these lines unchanged.  ``tests/golden/sl2-raising.jsonl`` holds the
output; regenerate it only for an intended change, with

    PYTHONPATH=src python tests/sl2_raising.py > tests/golden/sl2-raising.jsonl
"""

from __future__ import annotations

import json

from corpus import load_torus_spec, standard_corpus
from hlmod import torus
from hlmod.exact import format_scalar
from hlmod.hodge_lefschetz import HLModule, sl2_complete
from hlmod.polytopes import build_pkt_module
from volume_polys import cube


def sl2_modules() -> list[tuple[str, HLModule]]:
    polytopes = standard_corpus() + [cube(5)]
    modules = [(p.name, build_pkt_module(p)) for p in polytopes]
    modules.append(("torus1", torus.build_torus_module(load_torus_spec("torus1"))))
    modules.append(("torus2", torus.build_torus_module(load_torus_spec("torus2"))))
    return modules


def sl2_raising_lines() -> list[str]:
    lines = []
    for name, module in sl2_modules():
        n_plus = sl2_complete(module, module.reference).n_plus
        entries = [
            [i, j, format_scalar(e)]
            for i, row in enumerate(n_plus.data)
            for j, e in enumerate(row)
            if e
        ]
        line = {"name": name, "dim": module.dim, "entries": entries}
        lines.append(json.dumps(line, sort_keys=True, separators=(",", ":")))
    return lines


if __name__ == "__main__":
    for line in sl2_raising_lines():
        print(line)
