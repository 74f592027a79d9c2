"""The outputs of the descent family, as canonical lines.

For the modules of the polytope corpus of ``fixtures/`` and the tori
torus1 and torus2, every line holds one output, with scalars in canonical
form and matrices as sorted nonzero ``[row, column, value]`` triples:

* ``repeated_descent`` along the first ``length`` entries of a sampled cone
  tuple, for every length 0..k: the descended module file, the embedding,
  the section and the projection;
* ``quotient_descent`` along the first entry of that tuple, for every power
  0..k: the quotient module file and the canonical isomorphism;
* ``koszul_complex`` of the first 1, 2 and 3 entries: the summand bases,
  the differentials and the weight filtration.

The tuple of a module is ``sample_cone_tuple(module, random.Random(name),
length)``.  A descended module keeps the cone of the module it descends
from; the lines check that and leave the generators' ``cone`` entries out
of the module files.  Any change to the chosen bases, the transported forms or the
complexes shows up here as a diff.  ``tests/golden/descent-outputs.jsonl``
holds the output; regenerate it only for an intended change, with

    PYTHONPATH=src python tests/descent_outputs.py > tests/golden/descent-outputs.jsonl
"""

from __future__ import annotations

import json
import random

from corpus import load_torus_spec, standard_corpus
from hlmod import torus
from hlmod.descent import koszul_complex, quotient_descent, repeated_descent
from hlmod.exact import Matrix, format_scalar
from hlmod.hodge_lefschetz import HLModule, sample_cone_tuple
from hlmod.polytopes import build_pkt_module
from hlmod.serialization import module_to_json

KOSZUL_LENGTHS = (1, 2, 3)


def descent_modules() -> list[tuple[str, HLModule]]:
    modules = [(p.name, build_pkt_module(p)) for p in standard_corpus()]
    modules.append(("torus1", torus.build_torus_module(load_torus_spec("torus1"))))
    modules.append(("torus2", torus.build_torus_module(load_torus_spec("torus2"))))
    return modules


def _triples(m: Matrix) -> list:
    return [
        [i, j, format_scalar(e)] for i, row in enumerate(m.data) for j, e in enumerate(row) if e
    ]


def _vector(v) -> list[str]:
    return [format_scalar(e) for e in v]


def _line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _module_file(descended: HLModule, parent: HLModule) -> dict:
    """The descended module file without the cone, which must be the parent's."""
    if descended.cone != parent.cone:
        raise AssertionError("descent changed the cone")
    data = module_to_json(descended)
    for generator in data["generators"]:
        del generator["cone"]
    return data


def descent_output_lines() -> list[str]:
    lines = []
    for name, module in descent_modules():
        k = module.weight
        entries = sample_cone_tuple(module, random.Random(name), max(k, *KOSZUL_LENGTHS))
        for length in range(k + 1):
            res = repeated_descent(module, entries[:length])
            lines.append(_line({
                "name": name,
                "call": "repeated_descent",
                "length": length,
                "module": _module_file(res.module, module),
                "embedding": _triples(res.embedding),
                "section": _triples(res.section),
                "projection": _triples(res.projection),
            }))
        for power in range(k + 1):
            qd = quotient_descent(module, entries[0], power)
            lines.append(_line({
                "name": name,
                "call": "quotient_descent",
                "power": power,
                "module": _module_file(qd.module, module),
                "isomorphism": _triples(qd.isomorphism),
            }))
        for length in KOSZUL_LENGTHS:
            kc = koszul_complex(module, entries[:length])
            lines.append(_line({
                "name": name,
                "call": "koszul_complex",
                "length": length,
                "terms": [
                    [{"indices": list(s.indices), "basis": [_vector(b) for b in s.basis]} for s in term]
                    for term in kc.terms
                ],
                "differentials": [_triples(d) for d in kc.differentials],
                "filtration": {
                    f"{p},{level}": [_vector(v) for v in basis]
                    for (p, level), basis in sorted(kc.filtration.items())
                },
            }))
    return lines


if __name__ == "__main__":
    for line in descent_output_lines():
        print(line)
