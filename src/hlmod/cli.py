"""Command-line front end.

Subcommands build fixtures, import and export module files, and run the
theorem checks with deterministic seeds.  Exit codes: 0 when every check
passes, 1 when a theorem-style check fails (the report carries a witness),
and 2 for invalid input of any kind.  With ``--json`` the reports are
emitted as canonical JSON lines (sorted keys, no timing) so identical
inputs and seeds give byte-identical output.

``parse_args`` reads the command line from one table, ``FAMILIES``, as
argparse did on the documented forms, without argparse's first-use cost
(gettext, locale, regex compiles) of a few milliseconds in every command.
"""

from __future__ import annotations

import json
import random
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import mixed as mixed_mod
from .descent import DescentResult
from .descent import descent as descend_module
from .descent import koszul_complex, purity_check
from .exact import format_scalar, parse_rational
from .hodge_lefschetz import (
    ConstructionError,
    HLModule,
    InvalidModuleError,
    PreconditionError,
    _lefschetz_dims,
    sample_cone_tuple,
    sl2_complete,
)
from .polytopes import (
    PolytopeError,
    af_check,
    build_pkt_module,
    h_vector,
    in_closed_type_cone,
    mixed_volume,
    volume_polynomial,
)
from .report import FAIL, INPUT_ERROR, CheckReport
from .serialization import (
    ModuleCheckError,
    ModuleJSONError,
    module_from_json,
    polytope_from_json,
    torus_spec_from_json,
    tuple_from_json,
    write_module,
)
from .torus import TORUS_SIZE_LIMIT, TorusSpecError, build_torus_module

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


class UsageError(Exception):
    """A command-line argument that cannot be used as given (exit 2)."""


# the largest Koszul complex --lengths or a purity --ops tuple may ask for: t
# entries on a module of dimension n give 2^t summands of n * 2^t coordinates
# in all, and the time grows faster than that
KOSZUL_SIZE_LIMIT = 2**14


def _koszul_length(flag: str, t: int, dim: int) -> None:
    if t > (longest := (KOSZUL_SIZE_LIMIT // max(dim, 1)).bit_length() - 1):
        raise UsageError(f"{flag} {t} exceeds {longest}: max(n, 1) * 2^t > {KOSZUL_SIZE_LIMIT} at n = {dim}")


def _parse_lengths(text: str, dim: int) -> list[int]:
    parts = [part.strip() for part in text.split(",")]
    try:  # int() refuses more digits than sys.get_int_max_str_digits()
        lengths = [int(part) for part in parts if part.isdecimal()]
    except ValueError:
        lengths = []
    if len(lengths) != len(parts) or not all(lengths):
        raise UsageError(f"--lengths must be comma-separated positive integers, got {text!r}")
    _koszul_length("--lengths", max(lengths), dim)
    return lengths


def _positive_int(text: str) -> int:
    if not (text.isdecimal() and int(text) > 0):
        raise ValueError(f"must be a positive integer, got {text!r}")
    return int(text)


def _parse_support(blob: str, facets: int) -> list[Fraction]:
    values = _loads(blob)
    if isinstance(values, list) and len(values) == facets:
        try:
            return [parse_rational(str(c)) for c in values]
        except ValueError:
            pass
    raise UsageError(f"support {blob} is not a JSON list of {facets} rationals")


def _loads(text: str):
    """``json.loads`` with each JSON number that has a fraction read as its
    exact decimal; a number in exponent notation, one longer than int reads
    (4300 digits) and nesting deeper than the parser's recursion limit are
    input errors too."""
    try:
        return json.loads(text, parse_float=parse_rational)
    except (ValueError, RecursionError) as exc:  # json.JSONDecodeError among them
        raise UsageError(str(exc)) from None


def _ops(text: str) -> list[dict[str, Fraction]]:
    """The tuples of ``--ops``: one tuple object or a list of them."""
    data = _loads(text)
    return tuple_from_json(data if isinstance(data, list) else [data])


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return _loads(fh.read())


def _emit(reports: list[CheckReport], as_json: bool) -> int:
    reports = sorted(reports, key=lambda r: (r.check, r.to_json()))
    worst = EXIT_PASS
    for rep in reports:
        if as_json:
            print(rep.to_json())
        else:
            print(rep.summary_line())
            for sub in rep.failures():
                print(f"    failed: {sub.name} witness={sub.witness}")
        if rep.verdict == INPUT_ERROR:
            worst = max(worst, EXIT_INPUT)
        elif rep.verdict == FAIL:
            worst = max(worst, EXIT_FAIL)
    return worst


def _sl2_report(module: HLModule) -> CheckReport:
    rep = CheckReport("sl2-completion", "sl2-completion")
    try:
        sl2_complete(module, module.reference)
        rep.add("commutation-relations", True)
    except (PreconditionError, ConstructionError) as exc:
        rep.add("commutation-relations", False, {"error": str(exc)})
    return rep


def _decomposition_report(module: HLModule) -> CheckReport:
    rep = CheckReport("lefschetz-decomposition", "lefschetz-decomposition")
    try:
        for grade in range(0, module.weight + 1):
            dims = _lefschetz_dims(module, module.reference, grade)
            rep.add(f"direct-sum[grade={grade}]", True)
            rep.data[f"dims[grade={grade}]"] = list(dims)
    except (PreconditionError, ConstructionError) as exc:
        rep.add("direct-sum", False, {"error": str(exc)})
    return rep


def _descent_report(module: HLModule, coeffs) -> tuple[CheckReport, DescentResult | None]:
    """The descent report, and the descent itself when it succeeded."""
    rep = CheckReport("descent", "descent")
    result = None
    try:
        result = descend_module(module, coeffs)
        rep.add("descended-module-valid", True)
        rep.data["dims-by-grade"] = {
            str(l): d for l, d in result.module.space.grade_dims().items()
        }
    except ConstructionError as exc:
        rep.add("descended-module-valid", False, {"error": str(exc)})
    return rep, result


def _purity(module: HLModule, entries, require_cone: bool = True) -> CheckReport:
    return purity_check(koszul_complex(module, entries, require_cone))


def _sampled_checks() -> dict:
    """Sampled checks by the ``module`` action that runs the first of a list
    alone; a list's checks share each draw.  Per entry: tuple lengths at
    weight k, suite trial divisor, checks with labels.  Built per call, so a
    wrapper set on a checker in its module (perfbench's tracer) sees it run."""
    return {
        "mixed-hlt": (lambda k: range(1, k + 1), 1, [
            (mixed_mod.mixed_hlt_check, "mixed-hard-lefschetz[len={length},trial={trial}]"),
            (mixed_mod.kernel_weight_bound, "kernel-weight-bound[len={length},trial={trial}]"),
        ]),
        "mixed-hrr": (lambda k: range(1, k), 1, [
            (mixed_mod.mixed_hrr_check, "mixed-hodge-riemann[grade={grade},trial={trial}]"),
            (mixed_mod.mixed_decomposition_check, "mixed-decomposition[grade={grade},trial={trial}]"),
        ]),
        "purity": (lambda k: range(1, 4), 5, [(_purity, "koszul-purity[len={length},trial={trial}]")]),
    }


def _sampled(module: HLModule, rng, lengths, trials: int, checks) -> list[CheckReport]:
    """Run ``checks`` on ``trials`` sampled cone tuples of each length, all
    on the same draws, and label each report from its template.  The
    sampler certifies every entry, so the checks run with
    ``require_cone=False``."""
    reports = []
    for length in lengths:
        for trial in range(trials):
            entries = sample_cone_tuple(module, rng, length)
            for check, label in checks:
                rep = check(module, entries, require_cone=False)
                rep.check = label.format(length=length, grade=length - 1, trial=trial)
                reports.append(rep)
    return reports


def _module_suite(module: HLModule, rng, tuples: int, full: bool) -> list[CheckReport]:
    """The check reports of a module: its own structure, reference rank and
    polarization reports, each taken once per module, then the full suite."""
    reports = [module.structure, module.lefschetz, module.polarization]
    if not full:
        return reports
    reports.append(_decomposition_report(module))
    reports.append(_sl2_report(module))
    reports.append(_descent_report(module, module.reference)[0])
    for lengths_at, divisor, checks in _sampled_checks().values():
        reports += _sampled(module, rng, lengths_at(module.weight), max(1, tuples // divisor), checks)
    return reports


def _write_module(module: HLModule, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_module(module, fh.write)


def _h_vector_report(module: HLModule) -> CheckReport:
    rep = CheckReport("h-vector", "graded-dimensions")
    try:
        h = h_vector(module)
        rep.add("symmetry-and-unimodality", True)
        rep.data["h"] = list(h)
    except ConstructionError as exc:
        rep.add("symmetry-and-unimodality", False, {"error": str(exc)})
    return rep


def _cmd_polytope(args) -> int:
    data = _load_json(args.input)
    polytope = polytope_from_json(data)
    if args.action == "build":
        nu = volume_polynomial(polytope)
        module = build_pkt_module(polytope, nu)
        summary = {
            "name": polytope.name,
            "dim": polytope.dim,
            "facets": polytope.facet_count,
            "vertices": len(polytope.vertices),
            "h-vector": list(h_vector(module)),
        }
        if args.module_out:
            _write_module(module, args.module_out)
        print(json.dumps(summary, sort_keys=True) if args.json else summary)
        return EXIT_PASS
    if args.action == "hvector":
        module = build_pkt_module(polytope)
        h = list(h_vector(module))
        print(json.dumps(h) if args.json else " ".join(map(str, h)))
        return EXIT_PASS
    if args.action == "mixed-volume":
        if len(args.supports) != polytope.dim:
            raise UsageError(
                f"mixed-volume needs exactly {polytope.dim} supports, got {len(args.supports)}"
            )
        supports = [_parse_support(blob, polytope.facet_count) for blob in args.supports]
        outside = [blob for blob, s in zip(args.supports, supports) if not in_closed_type_cone(polytope, s)]
        if outside:
            raise PreconditionError(
                f"support {outside[0]} lies outside the closed type cone, where nu is no volume"
            )
        value = mixed_volume(volume_polynomial(polytope), supports)
        print(format_scalar(value))
        return EXIT_PASS
    # action == "check"
    nu = volume_polynomial(polytope)
    module = build_pkt_module(polytope, nu)
    rng = random.Random(args.seed)
    reports = _module_suite(module, rng, args.tuples, args.all)
    reports.append(_h_vector_report(module))
    if args.all and polytope.dim >= 2:
        rest = [list(module.reference)] * (polytope.dim - 2)

        def alexandrov_fenchel(module, pair, require_cone):
            return af_check(nu, pair[0], pair[1], rest)

        af = [(alexandrov_fenchel, "alexandrov-fenchel[trial={trial}]")]
        reports += _sampled(module, rng, [2], max(1, args.tuples // 5), af)
    return _emit(reports, args.json)


def _cmd_torus(args) -> int:
    spec = torus_spec_from_json(_load_json(args.input))
    module = build_torus_module(spec)
    if args.action == "build":
        if args.module_out:
            _write_module(module, args.module_out)
        summary = {"dim": spec.dim, "generators": len(spec.hermitians), "total-dim": module.dim}
        print(json.dumps(summary, sort_keys=True) if args.json else summary)
        return EXIT_PASS
    rng = random.Random(args.seed)
    reports = _module_suite(module, rng, args.tuples, args.all)
    return _emit(reports, args.json)


def _cmd_module(args) -> int:
    module = module_from_json(_load_json(args.input))
    if args.action == "import":
        print(f"ok: module of weight {module.weight}, dimension {module.dim}")
        return EXIT_PASS
    if args.action == "export":
        if args.output is None:
            raise UsageError("module export needs --out")
        _write_module(module, args.output)
        print(f"wrote {args.output}")
        return EXIT_PASS
    if args.action == "check":
        return _emit(_module_suite(module, None, 0, full=False), args.json)
    if args.action == "descent":
        coeffs = module.reference
        if args.ops:
            parsed = _ops(args.ops)
            if len(parsed) != 1:
                raise UsageError(f"--ops must name exactly one operator, got {len(parsed)}")
            coeffs = module.coefficients(parsed[0])
        rep, result = _descent_report(module, coeffs)
        if args.output and result is not None:
            _write_module(result.module, args.output)
        return _emit([rep], args.json)
    lengths_at, _, checks = _sampled_checks()[args.action]
    if args.ops:
        entries = _ops(args.ops)
        _koszul_length("--ops length", len(entries) if args.action == "purity" else 0, module.dim)
        return _emit([checks[0][0](module, entries)], args.json)
    lengths = lengths_at(module.weight)
    if args.action == "purity" and args.lengths:
        lengths = _parse_lengths(args.lengths, module.dim)
    return _emit(_sampled(module, random.Random(args.seed), lengths, args.tuples, checks[:1]), args.json)


# The command line: per family, its help, its command and its arguments, the
# positionals (names without a leading "-") first and in order.  An argument
# is (name, dest, kind, default, help): kind bool is a flag, list takes zero
# or more values, a tuple lists the choices, and any other kind converts one
# value, raising ValueError; the default ... marks a required argument.
_MODULE_OUT = ("--module-out", "module_out", str, None, "write the module file to this path")
_ALL = ("--all", "all", bool, False, "run the full check suite")
_SEED = ("--seed", "seed", int, None, "seed of the randomized suites, which require one")
_TUPLES = ("--tuples", "tuples", _positive_int, 25, "sampled tuples per randomized check")
_JSON = ("--json", "json", bool, False, "print canonical JSON lines")
FAMILIES = {
    "polytope": ("polytope volume algebras", _cmd_polytope, (
        ("action", "action", ("build", "check", "mixed-volume", "hvector"), ..., ""),
        ("input", "input", str, ..., "polytope JSON file"),
        _MODULE_OUT, ("--supports", "supports", list, [], "JSON support vectors"), _ALL, _SEED, _TUPLES, _JSON,
    )),
    "torus": ("torus cohomology modules", _cmd_torus, (
        ("action", "action", ("build", "check"), ..., ""),
        ("input", "input", str, ...,
         f"torus JSON file, with (generators + 2) * 16^dim <= {TORUS_SIZE_LIMIT} (so dim <= 5)"),
        _MODULE_OUT, _ALL, _SEED, _TUPLES, _JSON,
    )),
    "module": ("operate on module JSON files", _cmd_module, (
        ("action", "action", ("check", "descent", "purity", "mixed-hlt", "mixed-hrr", "import", "export"), ..., ""),
        ("--in", "input", str, ..., "module JSON file"),
        ("--out", "output", str, None, "module file to write"),
        ("--ops", "ops", str, None, "JSON coefficients: one operator (descent) or a tuple (mixed-hlt, mixed-hrr, purity)"),
        _SEED, _TUPLES,
        ("--lengths", "lengths", str, None,
         f"comma-separated Koszul lengths t, each with n * 2^t <= {KOSZUL_SIZE_LIMIT} at module dimension n"),
        _JSON,
    )),
}
_HELP = ("-h, --help", "help", bool, False, "show this help message and exit")


def _option(token: str, names) -> tuple[list[str], str | None] | None:
    """How argparse reads ``token``: None for a value, else the option names
    it matches (exactly, or the long names it is a prefix of) and the value
    given after ``=``.  A negative number or a token with a space that
    matches no name is a value."""
    if len(token) < 2 or token[0] != "-":
        return None
    name, eq, value = token.partition("=")
    matches = [name] if name in names else [n for n in names if name[:2] == "--" and n.startswith(name)]
    if not matches and (" " in token or re.fullmatch(r"-\d+|-\d*\.\d+", token)):
        return None
    return matches, value if eq else None


def _invocation(argument) -> str:
    name, dest, kind = argument[:3]
    if name[0] != "-":
        return "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else name
    return name if kind is bool else f"{name} [{dest.upper()} ...]" if kind is list else f"{name} {dest.upper()}"


def _help(usage: str, rows) -> None:
    sys.stdout.write(usage + "".join(f"\n  {left:<26} {text}".rstrip() for left, text in rows) + "\n")
    raise SystemExit(EXIT_PASS)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The arguments of ``main``, read from ``argv`` by the table ``FAMILIES``
    as argparse read them: options go anywhere after the family, as
    ``--opt value``, ``--opt=value`` or a unique prefix, and the last of a
    repeated option wins.  A usage error prints the usage and the error to
    stderr and exits 2; ``-h`` or ``--help`` prints the help and exits 0."""

    def fail(message: str):  # with the usage and prog of the family once it is read
        sys.stderr.write(f"{usage}{prog}: error: {message}\n")
        raise SystemExit(EXIT_INPUT)

    prog, usage = "hlmod", f"usage: hlmod [-h] {{{','.join(FAMILIES)}}} ...\n"
    family = argv[0] if argv else ""
    read = _option(family, ("-h", "--help"))
    if read and read[0]:
        _help(usage + "\nBuild and verify polarized Hodge-Lefschetz modules exactly.\n",
              [(name, entry[0]) for name, entry in FAMILIES.items()])
    if family not in FAMILIES:
        choices = ", ".join(map(repr, FAMILIES))
        fail(f"argument family: invalid choice: {family!r} (choose from {choices})" if argv
             else "the following arguments are required: family")
    arguments, prog = FAMILIES[family][2], f"hlmod {family}"
    words = (_invocation(a) if a[3] is ... else f"[{_invocation(a)}]" for a in arguments)
    usage = " ".join([f"usage: {prog} [-h]", *words]) + "\n"
    positionals = [a for a in arguments if a[0][0] != "-"]
    options = {"-h": _HELP, "--help": _HELP, **{a[0]: a for a in arguments if a[0][0] == "-"}}
    args = SimpleNamespace(family=family, **{a[1]: a[3] for a in arguments})
    tokens, extras, filled, i = argv[1:], [], 0, 0
    while i < len(tokens):
        token, i = tokens[i], i + 1
        read = _option(token, options)
        if read is None and filled < len(positionals):
            (name, dest, kind, *_), value, filled = positionals[filled], token, filled + 1
        elif read is None or not read[0]:
            extras.append(token)
            continue
        elif len(read[0]) > 1:
            fail(f"ambiguous option: {token} could match {', '.join(read[0])}")
        else:
            (name, dest, kind, *_), value = options[read[0][0]], read[1]
            if kind is bool and value is not None:
                fail(f"argument {name}: ignored explicit argument {value!r}")
            if dest == "help":
                _help(usage, [(_invocation(a), a[4]) for a in (_HELP, *arguments)])
            if kind is bool or kind is list:
                values = [] if value is None else [value]
                while kind is list and value is None and i < len(tokens) and _option(tokens[i], options) is None:
                    values.append(tokens[i])
                    i += 1
                setattr(args, dest, kind is bool or values)
                continue
            if value is None:
                if i == len(tokens) or _option(tokens[i], options) is not None:
                    fail(f"argument {name}: expected one argument")
                value, i = tokens[i], i + 1
        if isinstance(kind, tuple) and value not in kind:
            fail(f"argument {name}: invalid choice: {value!r} (choose from {', '.join(map(repr, kind))})")
        try:
            setattr(args, dest, value if isinstance(kind, tuple) else kind(value))
        except ValueError as exc:
            fail(f"argument {name}: " + (f"invalid int value: {value!r}" if kind is int else str(exc)))
    missing = [a[0] for a in arguments if getattr(args, a[1]) is ...]
    if missing:
        fail("the following arguments are required: " + ", ".join(missing))
    if extras:
        fail("unrecognized arguments: " + " ".join(extras))
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    needs_seed = (args.action in _sampled_checks() and not getattr(args, "ops", None)) or (
        args.action == "check" and getattr(args, "all", False)
    )
    if needs_seed and args.seed is None:
        print("error: --seed is required for randomized suites", file=sys.stderr)
        return EXIT_INPUT
    if args.seed is None:
        args.seed = 0
    try:
        return FAMILIES[args.family][1](args)
    except ModuleCheckError as exc:
        if args.json:
            print(exc.report.to_json())
        else:
            print(exc.report.summary_line(), file=sys.stderr)
            for sub_check in exc.report.failures():
                print(f"    failed: {sub_check.name} witness={sub_check.witness}", file=sys.stderr)
        return EXIT_FAIL
    except (
        UsageError,
        ModuleJSONError,
        PolytopeError,
        TorusSpecError,
        InvalidModuleError,
        PreconditionError,
        OSError,
        UnicodeDecodeError,
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConstructionError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
