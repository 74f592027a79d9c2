"""The command line as argparse read it, the oracle of ``cli.parse_args``.

``hlmod.cli`` reads its arguments from the table ``FAMILIES`` with a short
loop of its own, because argparse's first use costs a few milliseconds in
every command.  This is the argparse parser it replaced, kept to check the
table parser against: the same namespace on every accepted argv, and exit 2
with the same message on every rejected one.
"""

from __future__ import annotations

import argparse

from hlmod import cli
from hlmod.torus import TORUS_SIZE_LIMIT


def _positive_int(text: str) -> int:
    try:
        return cli._positive_int(text)
    except ValueError as exc:  # argparse prints an ArgumentTypeError's message as it is
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hlmod",
        description="Build and verify polarized Hodge-Lefschetz modules exactly.",
    )
    sub = parser.add_subparsers(dest="family", required=True)

    poly = sub.add_parser("polytope", help="polytope volume algebras")
    poly.add_argument("action", choices=["build", "check", "mixed-volume", "hvector"])
    poly.add_argument("input", help="polytope JSON file")
    poly.add_argument("--module-out", default=None)
    poly.add_argument("--supports", nargs="*", default=[], help="JSON support vectors")
    poly.add_argument("--all", action="store_true", help="run the full check suite")
    poly.add_argument("--seed", type=int, default=None)
    poly.add_argument("--tuples", type=_positive_int, default=25)
    poly.add_argument("--json", action="store_true")
    poly.set_defaults(func=cli._cmd_polytope)

    torus = sub.add_parser("torus", help="torus cohomology modules")
    torus.add_argument("action", choices=["build", "check"])
    torus.add_argument(
        "input", help=f"torus JSON file, with (generators + 2) * 16^dim <= {TORUS_SIZE_LIMIT} (so dim <= 5)"
    )
    torus.add_argument("--module-out", default=None)
    torus.add_argument("--all", action="store_true")
    torus.add_argument("--seed", type=int, default=None)
    torus.add_argument("--tuples", type=_positive_int, default=25)
    torus.add_argument("--json", action="store_true")
    torus.set_defaults(func=cli._cmd_torus)

    mod = sub.add_parser("module", help="operate on module JSON files")
    mod.add_argument(
        "action",
        choices=["check", "descent", "purity", "mixed-hlt", "mixed-hrr", "import", "export"],
    )
    mod.add_argument("--in", dest="input", required=True)
    mod.add_argument("--out", dest="output", default=None)
    mod.add_argument("--ops", default=None, help="JSON coefficients for one operator")
    mod.add_argument("--seed", type=int, default=None)
    mod.add_argument("--tuples", type=_positive_int, default=25)
    mod.add_argument(
        "--lengths",
        default=None,
        help=f"comma-separated Koszul lengths t, each with n * 2^t <= {cli.KOSZUL_SIZE_LIMIT} at module dimension n",
    )
    mod.set_defaults(func=cli._cmd_module, json=False)
    mod.add_argument("--json", action="store_true")

    return parser
