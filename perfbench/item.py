"""Time one benchmark item in a fresh interpreter.

    python3 perfbench/item.py < ITEM.json

ITEM is ``{"setup": {"kind": ..., "path": ..., "expected_dim": ...}}`` or
``{"command": [hlmod CLI arguments]}``.  The item runs once under the
meter of ``speed.py``; one JSON object is printed: ``wall`` and ``ref``
(seconds of wall time and at the reference speed), and the module
dimension (``dim``, or ``error``) of a set-up or the exit code and output
(``rc``, ``out``, ``err``) of a command.

A user runs each command as its own process, so nothing one command leaves
in memory (a cache, warmed objects) can speed up the next; one process per
item keeps that true of the benchmark's repetitions too.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """``hlmod.cli.main`` in this process, with its output captured."""
    from hlmod import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed command, not a benchmark error
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def main() -> int:
    item = json.load(sys.stdin)
    sys.path.insert(0, str(SRC))
    from speed import Meter
    from workloads import Setup, run_setup

    def setup():
        try:
            return {"dim": run_setup(Setup(**item["setup"])).dim}
        except Exception:  # a failed build is a failed item, not a benchmark error
            return {"error": traceback.format_exc().strip().splitlines()[-1]}

    def command():
        rc, out, err = call_cli(item["command"])
        return {"rc": rc, "out": out, "err": err}

    meter = Meter()
    with meter.installed():
        result, wall, ref = meter.measure(setup if "setup" in item else command)
    json.dump({**result, "wall": wall, "ref": ref}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
