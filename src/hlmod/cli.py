"""Command-line front end.

Subcommands build fixtures, import and export module files, and run the
theorem checks with deterministic seeds.  Exit codes: 0 when every check
passes, 1 when a theorem-style check fails (the report carries a witness),
and 2 for invalid input of any kind.  With ``--json`` the reports are
emitted as canonical JSON lines (sorted keys, no timing) so identical
inputs and seeds give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

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
    lefschetz_decomposition,
    lefschetz_report,
    polarization_check,
    sample_cone_tuple,
    sl2_complete,
    validate_structure,
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


# the largest Koszul complex --lengths may ask for: t entries on a module of
# dimension n give 2^t summands of n * 2^t coordinates in all, and the time
# grows faster than that
KOSZUL_SIZE_LIMIT = 2**14


def _parse_lengths(text: str, dim: int) -> list[int]:
    parts = [part.strip() for part in text.split(",")]
    try:  # int() refuses more digits than sys.get_int_max_str_digits()
        lengths = [int(part) for part in parts if part.isdecimal()]
    except ValueError:
        lengths = []
    if len(lengths) != len(parts) or not all(lengths):
        raise UsageError(f"--lengths must be comma-separated positive integers, got {text!r}")
    longest = (KOSZUL_SIZE_LIMIT // max(dim, 1)).bit_length() - 1
    if max(lengths) > longest:
        raise UsageError(f"--lengths {max(lengths)} exceeds {longest}: max(n, 1) * 2^t > {KOSZUL_SIZE_LIMIT} at n = {dim}")
    return lengths


def _positive_int(text: str) -> int:
    if not (text.isdecimal() and int(text) > 0):
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
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
            primitive, image = lefschetz_decomposition(module, module.reference, grade)
            rep.add(f"direct-sum[grade={grade}]", True)
            rep.data[f"dims[grade={grade}]"] = [len(primitive), len(image)]
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
    """The check reports of a module; its structure and reference
    polarization reports are the ones it was built or loaded with."""
    reports = [
        module.structure or validate_structure(module),
        lefschetz_report(module, module.reference),
        module.polarization or polarization_check(module, module.reference),
    ]
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
        check = checks[0][0]
        return _emit([check(module, _ops(args.ops))], args.json)
    lengths = lengths_at(module.weight)
    if args.action == "purity" and args.lengths:
        lengths = _parse_lengths(args.lengths, module.dim)
    return _emit(_sampled(module, random.Random(args.seed), lengths, args.tuples, checks[:1]), args.json)


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
    poly.set_defaults(func=_cmd_polytope)

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
    torus.set_defaults(func=_cmd_torus)

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
        help=f"comma-separated Koszul lengths t, each with n * 2^t <= {KOSZUL_SIZE_LIMIT} at module dimension n",
    )
    mod.set_defaults(func=_cmd_module, json=False)
    mod.add_argument("--json", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    needs_seed = (args.action in _sampled_checks() and not getattr(args, "ops", None)) or (
        args.action == "check" and getattr(args, "all", False)
    )
    if needs_seed and args.seed is None:
        print("error: --seed is required for randomized suites", file=sys.stderr)
        return EXIT_INPUT
    if args.seed is None:
        args.seed = 0
    try:
        return args.func(args)
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


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
