"""Command-line front end.

Exit codes: 0 success, 1 parse error, 2 dimension or consistency error,
3 incomplete set (check-complete only), 4 internal invariant violation.
All output is deterministic; collections are emitted in lex order.
"""

from __future__ import annotations

import argparse
import json
import sys

from .barcode import (
    BarCode,
    render_ascii,
    star_positions,
    star_set,
    to_json_dict,
)
from .corners import corner_to_json, infinite_corners
from .errors import (
    AdmissibilityError,
    BarjanetError,
    DimensionError,
    EmptyInputError,
    InputError,
    InternalInvariantError,
    MembershipError,
    SingularMatrixError,
    TermSyntaxError,
)
from .janet import CompletionReport, complete, is_complete, nmp_table
from .points import (
    format_polynomial,
    groebner_escalier,
    janet_like_basis,
    parse_points,
    polynomial_to_json,
)
from .terms import format_term, parse_term_set

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INPUT = 2
EXIT_INCOMPLETE = 3
EXIT_INTERNAL = 4

_TERM_COMMANDS = (
    "render",
    "nmp",
    "stars",
    "star-set",
    "check-complete",
    "complete",
    "corners",
)
_POINT_COMMANDS = ("escalier", "basis")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barjanet",
        description=(
            "Bar codes for finite monomial sets: Janet-like division, "
            "completeness, corner vectors, and bases of ideals of points."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "render": "draw the bar code of a term set with its stars",
        "nmp": "nonmultiplicative powers of every term",
        "stars": "star positions of the bar code",
        "star-set": "star set of an order ideal",
        "check-complete": "exit 0 when the set is Janet-like complete, 3 otherwise",
        "complete": "complete the set, printing added terms",
        "corners": "corner vectors of every term",
        "escalier": "lex escalier of the vanishing ideal of points",
        "basis": "reduced Janet-like basis of the vanishing ideal of points",
    }
    for name in _TERM_COMMANDS + _POINT_COMMANDS:
        p = sub.add_parser(name, help=descriptions[name])
        p.add_argument("input", nargs="?", default="-", help="input file, '-' for stdin")
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="output format (default text)",
        )
        p.add_argument("--output", default=None, help="write output to a file")
        p.add_argument("--quiet", action="store_true", help="essential output only")
        p.add_argument(
            "-v", "--verbose", action="store_true", help="extra detail in text output"
        )
    return parser


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _witness_lines(report: CompletionReport, verbose: bool) -> list[str]:
    lines = []
    for w in report.witnesses:
        product = w.term * w.power
        if w.divisor is None:
            lines.append(
                f"missing divisor: {format_term(w.term)} * {format_term(w.power)}"
                f" = {format_term(product)}"
            )
        elif verbose:
            lines.append(
                f"ok: {format_term(w.term)} * {format_term(w.power)}"
                f" = {format_term(product)} <- {format_term(w.divisor)}"
            )
    return lines


def _report_json(report: CompletionReport) -> dict:
    return {
        "complete": report.complete,
        "witnesses": [
            {
                "term": format_term(w.term),
                "power": format_term(w.power),
                "divisor": None if w.divisor is None else format_term(w.divisor),
            }
            for w in report.witnesses
        ],
        "added": [format_term(t) for t in report.added],
    }


def _run(args) -> tuple[str, int]:
    if args.command in _POINT_COMMANDS:
        points = parse_points(_read_input(args.input))
        if args.command == "escalier":
            escalier = groebner_escalier(points)
            if args.format == "json":
                doc = {
                    "vars": escalier.nvars,
                    "points": len(points),
                    "escalier": [format_term(t) for t in escalier],
                }
                return json.dumps(doc, indent=2), EXIT_OK
            return "\n".join(format_term(t) for t in escalier), EXIT_OK
        basis = janet_like_basis(points)
        if args.format == "json":
            doc = {
                "vars": points.nvars,
                "basis": [polynomial_to_json(g) for g in basis],
            }
            return json.dumps(doc, indent=2), EXIT_OK
        return "\n".join(format_polynomial(g) for g in basis), EXIT_OK

    terms = parse_term_set(_read_input(args.input))
    if len(terms) == 0:
        raise EmptyInputError("the input contains no terms")
    bc = BarCode.build(terms)

    if args.command == "render":
        stars = star_positions(bc)
        if args.format == "json":
            return json.dumps(to_json_dict(bc, stars), indent=2), EXIT_OK
        return render_ascii(bc, stars), EXIT_OK

    if args.command == "stars":
        stars = star_positions(bc)
        if args.format == "json":
            doc = to_json_dict(bc, stars)
            del doc["labels"]
            return json.dumps(doc, indent=2), EXIT_OK
        lines = []
        for i in range(1, bc.nvars + 1):
            bars = sorted(j for (row, j) in stars if row == i)
            lines.append(f"row {i}: after bars {', '.join(map(str, bars))}")
        return "\n".join(lines), EXIT_OK

    if args.command == "star-set":
        result = star_set(bc)
        if args.format == "json":
            doc = {"vars": result.nvars, "terms": [format_term(t) for t in result]}
            return json.dumps(doc, indent=2), EXIT_OK
        return "\n".join(format_term(t) for t in result), EXIT_OK

    if args.command == "nmp":
        table = nmp_table(terms, bc)
        if args.format == "json":
            doc = {
                "vars": terms.nvars,
                "nmp": {
                    format_term(t): [format_term(p) for p in table[t].powers()]
                    for t in terms
                },
            }
            return json.dumps(doc, indent=2), EXIT_OK
        lines = []
        for t in terms:
            powers = [format_term(p) for p in table[t].powers()]
            lines.append(f"{format_term(t)}: {', '.join(powers) if powers else '-'}")
        return "\n".join(lines), EXIT_OK

    if args.command == "corners":
        corners = infinite_corners(terms, nmp_table(terms, bc))
        if args.format == "json":
            doc = {
                "vars": terms.nvars,
                "corners": {
                    format_term(t): corner_to_json(vec) for t, vec in corners.items()
                },
            }
            return json.dumps(doc, indent=2), EXIT_OK
        return (
            "\n".join(
                f"{format_term(t)}: {vec.format()}" for t, vec in corners.items()
            ),
            EXIT_OK,
        )

    if args.command == "check-complete":
        report = is_complete(terms)
        code = EXIT_OK if report.complete else EXIT_INCOMPLETE
        if args.format == "json":
            return json.dumps(_report_json(report), indent=2), code
        lines = ["complete" if report.complete else "incomplete"]
        if not args.quiet:
            lines.extend(_witness_lines(report, args.verbose))
        return "\n".join(lines), code

    if args.command == "complete":
        completed, report = complete(terms)
        if args.format == "json":
            doc = {
                "vars": completed.nvars,
                "terms": [format_term(t) for t in completed],
                "added": [format_term(t) for t in report.added],
            }
            return json.dumps(doc, indent=2), EXIT_OK
        added = set(report.added)
        lines = []
        if args.verbose:
            lines.append(f"# added {len(report.added)} terms")
        for t in completed:
            prefix = "+ " if t in added else "  "
            lines.append((prefix if not args.quiet else "") + format_term(t))
        return "\n".join(lines), EXIT_OK

    raise InternalInvariantError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        body, code = _run(args)
    except TermSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (
        DimensionError,
        EmptyInputError,
        MembershipError,
        AdmissibilityError,
        InputError,
        SingularMatrixError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BarjanetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(body + "\n")
    else:
        print(body)
    return code


def console_main() -> None:
    sys.exit(main())
