"""Benchmark of the hlmod verifier, run through its CLI and public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One caller runs one command at a time (closed loop).  The
workload names and the metrics with their units are read from
``BENCHMARK.json``.

``--trace 0`` repeats passes over the workload for about ``--seconds``
seconds.  A pass builds each module through the API (set-up), then runs
each ``hlmod`` command through ``hlmod.cli.main``; each build and each
command is an item run in a fresh process (``item.py``), as a user runs a
command, and timed at the reference machine speed of ``speed.py``.  Each
item's time is its median over the passes; wall_s (the commands) and
setup_s are sums of those medians, checks_per_s is the reports of a pass /
the time of the commands that print them, less the set-up when such a
command builds its module itself, and peak_rss_mb is the largest resident
set of an item process.

``--trace 1`` runs the workload in-process in pairs, once without tracing
and once with the span recorder of ``tracing.py`` installed, and prints
per-layer calls, total and self times, exact counters from the first traced
pass and two untimed probes, and the tracing overhead.  The spans go to
``perfbench/out/``.

Every command's output is checked against known answers; the failed share
of expected reports is printed, and the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status is 2
when the checkout lacks the sources or fixtures.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MAX_PROBE_CUBE = 6
TRACE_PAIRS = 3  # untraced/traced pairs of a traced run
SAMPLER_PROBE_CALLS = 20


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def calibration_s() -> float:
    """Time of a fixed Fraction loop: a record of machine speed, not a metric."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 20000):
        total += Fraction(1, i)
    return time.perf_counter() - start


# -- end-to-end passes -----------------------------------------------------------


def run_item(item: dict) -> dict:
    """Run one item in a fresh process (``item.py``) and return what it printed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "item.py")],
        input=json.dumps(item), capture_output=True, text=True, cwd=ROOT,
    )
    if proc.returncode:
        raise RuntimeError(f"item {item} stopped: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def run_pass(workload) -> dict:
    """Set up every module through the API, then run every command once.

    Each set-up build and each command is one item, timed in its own
    process: its wall time and its time at the reference speed.
    """
    from workloads import check_output

    start = time.perf_counter()
    setup = {s.path: [] for s in workload.setups}
    failed, problems = 0, []
    for _ in range(workload.setup_rounds):
        for s in workload.setups:
            r = run_item({"setup": dataclasses.asdict(s)})
            setup[s.path].append((r["wall"], r["ref"]))
            if r.get("dim") != s.expected_dim:
                failed += 1
                problems.append(f"{s.path}: module dimension {r.get('dim')} != {s.expected_dim}"
                                f" {r.get('error', '')}")
    commands = []
    for cmd in workload.commands:
        r = run_item({"command": cmd.argv})
        commands.append((r["wall"], r["ref"]))
        n, why = check_output(cmd, r["rc"], r["out"])
        failed += n
        problems += [f"{' '.join(cmd.argv[:2])} {cmd.label}: {w}" for w in why]
        problems += r["err"].strip().splitlines()[-1:] if r["rc"] else []
    return {
        "setup": setup, "commands": commands,
        "failed": failed, "problems": problems,
        "duration": time.perf_counter() - start,
    }


def end_to_end(workload, seconds: float):
    """Repeat passes for about ``seconds``; report medians at the reference speed.

    An item's time is its median over the passes; a pass's figures are sums
    of those medians.  The item processes are this process's only children,
    so their peak resident set is the run's.
    """
    passes = []
    start = time.perf_counter()
    # start another pass only while a typical one still fits
    while not passes or (
        time.perf_counter() - start + statistics.median(p["duration"] for p in passes)
        <= seconds
    ):
        passes.append(run_pass(workload))

    def medians(k: int) -> tuple[dict, list]:
        """Median per set-up and per command of sample field k (0 wall, 1 reference)."""
        setup = {path: statistics.median(x[k] for p in passes for x in p["setup"][path])
                 for path in passes[0]["setup"]}
        commands = [statistics.median(p["commands"][i][k] for p in passes)
                    for i in range(len(workload.commands))]
        return setup, commands

    setup, commands = medians(1)
    # time of the commands that print reports, less the set-up a command does itself
    check_s = sum(t - setup.get(cmd.builds, 0.0)
                  for cmd, t in zip(workload.commands, commands) if cmd.expected)
    values = {
        "wall_s": sum(commands),
        "setup_s": sum(setup.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "checks_per_s": sum(len(c.expected) for c in workload.commands) / check_s,
    }
    for p in passes:
        print("pass " + json.dumps({
            "setup": [[round(t, 4) for t in x] for v in p["setup"].values() for x in v],
            "commands": [[round(t, 4) for t in x] for x in p["commands"]],
        }))
    raw_setup, raw_commands = medians(0)
    print(f"wall time, not at the reference speed: wall_s {sum(raw_commands):.4f} s, "
          f"setup_s {sum(raw_setup.values()):.4f} s")
    items = sum(c.items for c in workload.commands) + len(workload.setups) * workload.setup_rounds
    attempted = items * len(passes)
    failed = sum(p["failed"] for p in passes)
    problems = [w for p in passes for w in p["problems"]]
    return values, attempted, failed, problems, len(passes)


# -- traced run ------------------------------------------------------------------


def max_built_cube_dim() -> int:
    """Largest n <= MAX_PROBE_CUBE for which the n-cube's module builds."""
    from hlmod.hodge_lefschetz import ConstructionError
    from hlmod.polytopes import build_pkt_module, build_polytope, volume_polynomial
    from workloads import cube

    built = 0
    for n in range(1, MAX_PROBE_CUBE + 1):
        normals, support = cube(n)
        try:
            polytope = build_polytope(normals, support, f"cube{n}")
            build_pkt_module(polytope, volume_polynomial(polytope))
        except (ValueError, ConstructionError):
            break
        built = n
    return built


def sampler_probe(seed: int) -> dict[str, float]:
    """Sampler counters of SAMPLER_PROBE_CALLS draws on the cube4 module.

    The probe runs on every workload, so the counters are defined where the
    workload itself draws nothing; its rng comes from the benchmark seed.
    """
    from tracing import Tracer
    from workloads import CUBE4_H, Setup, run_setup

    module = run_setup(Setup("polytope", "fixtures/cube4.json", sum(CUBE4_H)))
    rng = random.Random(f"sampler:{seed}")
    rec = Tracer()
    with rec.installed(), rec.command("sampler-probe"):
        sample = importlib.import_module("hlmod.hodge_lefschetz").sample_cone_element
        for _ in range(SAMPLER_PROBE_CALLS):
            sample(module, rng)
    return rec.sampler()


def traced(workload, seed: int):
    from item import call_cli
    from tracing import BUILD_SPANS, Tracer
    from workloads import check_output

    failed, problems = 0, []
    outputs = {}

    def run_workload(rec=None) -> float:
        """Run every command once; return the time spent in the commands."""
        nonlocal failed
        wall = 0.0
        for i, cmd in enumerate(workload.commands):
            start = time.perf_counter()
            if rec is None:
                rc, out, err = call_cli(cmd.argv)
            else:
                with rec.command(cmd.label):
                    rc, out, err = call_cli(cmd.argv)
            wall += time.perf_counter() - start
            n, why = check_output(cmd, rc, out)
            failed += n
            problems.extend(why + (err.strip().splitlines()[-1:] if rc else []))
            # tracing must not change what the program prints
            if outputs.setdefault(i, out) != out:
                problems.append(f"{' '.join(cmd.argv[:2])} {cmd.label}: output differs")
        return wall

    probe = max_built_cube_dim()
    sampler = sampler_probe(seed)
    tracers, traced_wall, untraced = [], [], []
    for pair in range(TRACE_PAIRS):
        rec = Tracer()
        # alternate which side of the pair runs first
        for side in ((None, rec) if pair % 2 == 0 else (rec, None)):
            if side is None:
                untraced.append(run_workload())
            else:
                with rec.installed():
                    traced_wall.append(run_workload(rec))
        why = rec.check()
        failed += bool(why)
        problems.extend(why)
        tracers.append(rec)
    rec = tracers[0]
    metrics = rec.per_layer()
    metrics.update(sampler)
    built = rec.covered_by_command(BUILD_SPANS)
    for cmd in workload.commands:
        if cmd.argv[:2] == ["polytope", "build"] or cmd.builds:
            print(f"build_s {cmd.label} {built[cmd.label]:.4f} s")
    metrics["polytopes.build_s"] = sum(built.values())
    metrics["polytopes.max_built_cube_dim"] = probe
    metrics["trace.wall_s"] = statistics.median(t.command_wall() for t in tracers)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_ratio"] = statistics.median(
        t / u for t, u in zip(traced_wall, untraced))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    rec.write(out_dir / f"trace-{workload.name}-seed{seed}.jsonl.gz")
    # every command's items in every pass, plus the span check of each traced pass
    attempted = TRACE_PAIRS * (2 * sum(c.items for c in workload.commands) + 1)
    return metrics, attempted, failed, problems


# -- entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (ROOT / "BENCHMARK.json", SRC / "hlmod" / "__init__.py",
                           ROOT / "fixtures" / "cube4.json", ROOT / "fixtures" / "torus3.json")
               if not p.is_file()]
    if missing:
        print(f"error: not a source checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import hlmod
    import workloads

    if Path(hlmod.__file__).resolve().parent != SRC / "hlmod":
        print(f"error: imported hlmod from {hlmod.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    calibration = calibration_s()
    with tempfile.TemporaryDirectory(dir=HERE, prefix="work-") as work:
        workload = workloads.make(args.workload, args.seed, Path(work))
        if args.trace:
            values, attempted, failed, problems = traced(workload, args.seed)
            passes = 2 * TRACE_PAIRS
        else:
            values, attempted, failed, problems, passes = end_to_end(workload, args.seconds)
    if set(values) != set(units):
        print(f"error: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ set(units))}", file=sys.stderr)
        return 1
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    env_info = {
        "calibration_s": round(calibration, 4),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "passes": passes,
    }
    print("env " + json.dumps(env_info, sort_keys=True))
    for problem in problems[:20]:
        print(f"problem: {problem}")
    for k in units if not args.trace else ():
        print(f"{k} {metrics[k]['value']:.4f} {metrics[k]['unit']}")
    print(f"failed_share {failed / attempted:.4f} share ({failed} of {attempted})")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
