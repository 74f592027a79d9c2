"""Workloads of the hlmod benchmark: seeded inputs, commands, known answers.

Every workload is a list of ``hlmod`` CLI commands plus the module builds
(setup) those commands start from.  The benchmark seed picks the CLI
``--seed`` of the randomized suite and the support perturbations of the
``build-scale`` polytopes; the program sees only the generated files and
arguments.  Each command carries the reports it must print, so a run can
be checked without comparing basis-dependent data (determinants, module
JSON), which a correct change of basis may alter.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from hlmod import polytopes, serialization, torus
from hlmod.polytopes import build_polytope

# Mixed-check tuples of the suite.  The CLI default is 25; one tuple keeps a
# command near 1.5 s, so a run times each command many times.
POLYTOPE_TUPLES = 1
# Suite commands of a pass, each with its own CLI seed drawn from the
# benchmark seed, so that one draw's cost weighs less in a run.
POLYTOPE_SEEDS = 2
# One cube4 build takes about 0.2 s, so a pass of the suite builds it
# several times to give the set-up time more samples.
POLYTOPE_SETUP_ROUNDS = 3

CUBE4_H = [1, 4, 6, 4, 1]
CUBE5_H = [1, 5, 10, 10, 5, 1]
D2D2I_H = [1, 3, 5, 5, 3, 1]
TORUS3_DIM = 64


@dataclass
class Command:
    """One CLI invocation and the output it must produce."""

    argv: list[str]
    label: str  # the input it reads, used to attribute build time
    # report names, each with verdict "pass"; none for a `build` command,
    # which prints one summary line instead
    expected: list[str] = field(default_factory=list)
    h: list[int] | None = None  # the known h-vector of the "h-vector" report
    summary: dict = field(default_factory=dict)  # known fields of a build summary
    # path of the set-up the command builds itself, whose time is not check time
    builds: str = ""

    @property
    def items(self) -> int:
        """Expected outputs: one per report, or the one build summary."""
        return len(self.expected) or 1


@dataclass
class Setup:
    """A module build timed as set-up: parse, then build the module."""

    kind: str  # "polytope" or "torus"
    path: str
    expected_dim: int


@dataclass
class Workload:
    name: str
    commands: list[Command]
    setups: list[Setup]
    setup_rounds: int = 1  # times every set-up is built in one pass


def suite_reports(weight: int, tuples: int) -> list[str]:
    """Report names of `polytope check --all` on a polytope of this dimension.

    Mirrors the documented suite: structural and unmixed checks, then the
    randomized mixed checks per length or grade, Koszul purity for lengths
    1..3, the h-vector and the Alexandrov-Fenchel checks.
    """
    names = [
        "validate-structure",
        "lefschetz-property",
        "polarization",
        "lefschetz-decomposition",
        "sl2-completion",
        "descent",
    ]
    for t in range(1, weight + 1):
        for trial in range(tuples):
            names.append(f"mixed-hard-lefschetz[len={t},trial={trial}]")
            names.append(f"kernel-weight-bound[len={t},trial={trial}]")
    for t in range(0, max(weight - 1, 0)):
        for trial in range(tuples):
            names.append(f"mixed-decomposition[grade={t},trial={trial}]")
            names.append(f"mixed-hodge-riemann[grade={t},trial={trial}]")
    small = max(1, tuples // 5)
    for length in range(1, 4):
        for trial in range(small):
            names.append(f"koszul-purity[len={length},trial={trial}]")
    names.append("h-vector")
    if weight >= 2:
        names.extend(f"alexandrov-fenchel[trial={t}]" for t in range(small))
    return names


MODULE_CHECK_REPORTS = ["validate-structure", "lefschetz-property", "polarization"]


def cube(n: int) -> tuple[list[list[int]], list[int]]:
    normals = []
    for i in range(n):
        for s in (1, -1):
            normals.append([s if j == i else 0 for j in range(n)])
    return normals, [1] * (2 * n)


def _triangle_triangle_interval() -> tuple[list[list[int]], list[int]]:
    """Δ₂ × Δ₂ × I: a simple 5-polytope with 8 facets."""
    normals = [
        [-1, 0, 0, 0, 0], [0, -1, 0, 0, 0], [1, 1, 0, 0, 0],
        [0, 0, -1, 0, 0], [0, 0, 0, -1, 0], [0, 0, 1, 1, 0],
        [0, 0, 0, 0, 1], [0, 0, 0, 0, -1],
    ]
    return normals, [0, 0, 1, 0, 0, 1, 1, 0]


# name -> (base polytope, known h-vector)
BUILD_INPUTS = {
    "cube4-pert": (cube(4), CUBE4_H),
    "cube5-pert": (cube(5), CUBE5_H),
    "d2d2i-pert": (_triangle_triangle_interval(), D2D2I_H),
}


def perturbed_support(normals, support, rng) -> list[Fraction]:
    """A seeded support perturbation that ``build_polytope`` accepts as simple."""
    for _ in range(100):
        cand = [Fraction(s) + Fraction(rng.randint(-3, 3), 16) for s in support]
        try:
            build_polytope(normals, cand)
        except ValueError:
            continue
        return cand
    raise RuntimeError("no simple perturbation found")


def _write_polytope(path: Path, name: str, normals, support) -> None:
    data = {
        "name": name,
        "dim": len(normals[0]),
        "normals": [[str(c) for c in row] for row in normals],
        "support": [str(c) for c in support],
    }
    path.write_text(json.dumps(data, indent=1), encoding="utf-8")


def make(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of workload ``name`` for ``seed`` under ``workdir``."""
    rng = random.Random(f"{name}:{seed}")
    if name == "polytope-suite":
        path = "fixtures/cube4.json"
        commands = [
            Command(
                ["polytope", "check", path, "--all", "--seed", str(rng.randrange(1, 10**6)),
                 "--tuples", str(POLYTOPE_TUPLES), "--json"],
                label=f"cube4-{k}",
                expected=suite_reports(4, POLYTOPE_TUPLES),
                h=CUBE4_H,
                builds=path,
            )
            for k in range(POLYTOPE_SEEDS)
        ]
        return Workload(name, commands, [Setup("polytope", path, sum(CUBE4_H))],
                        POLYTOPE_SETUP_ROUNDS)
    if name == "build-scale":
        commands, setups = [], []
        for label, ((normals, support), h) in BUILD_INPUTS.items():
            poly = workdir / f"{label}.json"
            _write_polytope(poly, label, normals,
                            perturbed_support(normals, support, rng))
            commands += _build_and_check("polytope", poly, label, {"h-vector": h}, workdir)
            setups.append(Setup("polytope", str(poly), sum(h)))
        torus = "fixtures/torus3.json"
        commands += _build_and_check("torus", torus, "torus3", {"total-dim": TORUS3_DIM}, workdir)
        setups.append(Setup("torus", torus, TORUS3_DIM))
        return Workload(name, commands, setups)
    raise KeyError(name)


def _build_and_check(family: str, path, label: str, summary: dict, workdir: Path) -> list[Command]:
    """`<family> build` to a module file, then `module check` on that file."""
    module = workdir / f"{label}-module.json"
    return [
        Command([family, "build", str(path), "--module-out", str(module), "--json"],
                label=label, summary=summary),
        Command(["module", "check", "--in", str(module), "--json"],
                label=label, expected=list(MODULE_CHECK_REPORTS)),
    ]


def check_output(cmd: Command, returncode: int, stdout: str) -> tuple[int, list[str]]:
    """Failed expected items of one command, and what went wrong.

    A non-zero exit fails every expected item; so does output that does not
    parse.  Otherwise an item fails when its report is missing, has a
    verdict other than "pass", or carries the wrong h-vector; each
    unexpected report counts as one more failure.
    """
    if returncode != 0:
        return cmd.items, [f"exit code {returncode}"]
    try:
        lines = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except json.JSONDecodeError as exc:
        return cmd.items, [f"unparsable output: {exc}"]
    if not all(isinstance(line, dict) for line in lines):
        return cmd.items, ["output lines are not JSON objects"]
    if not cmd.expected:
        if len(lines) != 1 or any(lines[0].get(k) != v for k, v in cmd.summary.items()):
            return cmd.items, [f"build summary {lines!r:.200} lacks {cmd.summary}"]
        return 0, []
    problems = []
    by_name = {}
    for rep in lines:
        name = rep.get("check")
        if name in by_name or name not in cmd.expected:
            problems.append(f"unexpected report {name!r}")
        by_name[name] = rep
    failed = len(problems)
    for name in cmd.expected:
        rep = by_name.get(name)
        if rep is None:
            problems.append(f"missing report {name}")
        elif rep.get("verdict") != "pass":
            problems.append(f"{name}: verdict {rep.get('verdict')}")
        elif name == "h-vector" and rep.get("data", {}).get("h") != cmd.h:
            problems.append(f"{name}: h {rep.get('data', {}).get('h')} != {cmd.h}")
        else:
            continue
        failed += 1
    return min(failed, cmd.items), problems


def run_setup(setup: Setup):
    """Build the module a setup names, through the public API.

    The functions are looked up on their modules at each call, so a
    benchmark wrapper installed there sees the calls.
    """
    with open(setup.path, encoding="utf-8") as fh:
        data = json.load(fh)
    if setup.kind == "torus":
        return torus.build_torus_module(serialization.torus_spec_from_json(data))
    polytope = serialization.polytope_from_json(data)
    return polytopes.build_pkt_module(polytope, polytopes.volume_polynomial(polytope))
