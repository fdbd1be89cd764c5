"""Command-line front end.

Exit codes: 0 success, 1 parse or file error, 2 dimension or consistency error,
3 incomplete set (check-complete only), 4 internal invariant violation.
All output is deterministic; collections are emitted in lex order.
The argparse parser is built once per process, on the first call to main.
main pauses the cyclic collector for a command: the package builds no reference
cycles (terms, tuples, and lists and dicts of them; JSON text comes from _dumps,
as json.dumps(indent=2) makes a cycle per call), so it could only traverse.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from operator import add
from pathlib import Path
from typing import Iterator

from .barcode import (
    BarCode,
    corner_texts,
    power_texts,
    render_ascii,
    star_positions,
    star_set,
    stars_to_json,
    to_json_dict,
)
from .corners import corner_to_json, infinite_corners
from .errors import (
    BarjanetError,
    EmptyInputError,
    InputError,
    InternalInvariantError,
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
from .terms import format_exponents, format_power, format_term, parse_term_set

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INPUT = 2
EXIT_INCOMPLETE = 3
EXIT_INTERNAL = 4

MAX_BASIS_POINTS = 250  # O(m^3) operations on integers scaled per point; README gives timings
_BOM = "\ufeff"  # the byte-order mark some editors write at the start of a file

# every command and its help, in the order --help lists them
_COMMANDS = {
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
_POINT_COMMANDS = ("escalier", "basis")  # the rest read term sets


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, shared by every call: do not modify it."""
    parser = argparse.ArgumentParser(
        prog="barjanet",
        description=(
            "Bar codes for finite monomial sets: Janet-like division, "
            "completeness, corner vectors, and bases of ideals of points."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, description in _COMMANDS.items():
        p = sub.add_parser(name, help=description)
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
    """The file or stdin as strict UTF-8, less one byte-order mark. Both are
    read as bytes: a text stdin would decode with surrogateescape."""
    if path == "-" and sys.stdin is None:
        raise OSError("standard input is closed")
    data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    try:
        return data.decode("utf-8").removeprefix(_BOM)
    except UnicodeDecodeError as exc:
        raise TermSyntaxError(f"input is not UTF-8: {exc.reason} at byte {exc.start}") from None


def _witness_lines(report: CompletionReport, verbose: bool) -> Iterator[str]:
    """One line per failing witness, or per witness when verbose."""
    for t, p, s in report.witnesses:
        if s is None or verbose:
            product = format_exponents(map(add, t.exponents, p.exponents))
            line = f"{format_term(t)} * {format_term(p)} = {product}"
            yield f"missing divisor: {line}" if s is None else f"ok: {line} <- {format_term(s)}"


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


def _dumps(doc, indent: str = "\n") -> str:
    """json.dumps(doc, indent=2), whose stdlib encoder is a set of closures
    that form a reference cycle on every call; this one forms none."""
    if type(doc) is int:
        return str(doc)
    inner = indent + "  "
    if isinstance(doc, dict) and doc:
        items = [f"{inner}{json.dumps(k)}: {_dumps(v, inner)}" for k, v in doc.items()]
        return "{" + ",".join(items) + indent + "}"
    if isinstance(doc, (list, tuple)) and doc:
        return "[" + ",".join([inner + _dumps(v, inner) for v in doc]) + indent + "]"
    return json.dumps(doc)


def _run(args) -> tuple[str, int]:
    if args.command in _POINT_COMMANDS:
        points = parse_points(_read_input(args.input))
        if args.command == "escalier":
            escalier = groebner_escalier(points)
            if args.format == "json":
                terms = [format_term(t) for t in escalier]
                doc = {"vars": escalier.nvars, "points": len(points), "escalier": terms}
                return _dumps(doc), EXIT_OK
            return "\n".join(format_term(t) for t in escalier), EXIT_OK
        if len(points) > MAX_BASIS_POINTS:
            raise InputError(f"basis takes at most {MAX_BASIS_POINTS} points")
        basis = janet_like_basis(points)
        try:  # str() refuses an int of more than sys.get_int_max_str_digits() digits
            if args.format == "json":
                doc = {"vars": points.nvars, "basis": [polynomial_to_json(g) for g in basis]}
                return _dumps(doc), EXIT_OK
            return "\n".join(format_polynomial(g) for g in basis), EXIT_OK
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise InputError(f"a basis coefficient exceeds {limit} digits, the limit") from None

    terms = parse_term_set(_read_input(args.input))
    if len(terms) == 0:
        raise EmptyInputError("the input contains no terms")
    if args.command == "check-complete":
        report = is_complete(terms)
        code = EXIT_OK if report.complete else EXIT_INCOMPLETE
        if args.format == "json":
            return _dumps(_report_json(report)), code
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
            return _dumps(doc), EXIT_OK
        added = set(report.added)
        lines = []
        if args.verbose:
            lines.append(f"# added {len(report.added)} terms")
        for t in completed:
            prefix = "+ " if t in added else "  "
            lines.append((prefix if not args.quiet else "") + format_term(t))
        return "\n".join(lines), EXIT_OK

    bc = BarCode.build(terms)

    if args.command == "render":
        stars = star_positions(bc)
        if args.format == "json":
            return _dumps(to_json_dict(bc, stars)), EXIT_OK
        return render_ascii(bc, stars), EXIT_OK

    if args.command == "stars":
        stars = star_positions(bc)
        if args.format == "json":
            return _dumps(stars_to_json(bc, stars)), EXIT_OK
        lines = [
            f"row {i}: after bars {', '.join(map(str, bars))}"
            for i, bars in enumerate(stars.rows, 1)
        ]
        return "\n".join(lines), EXIT_OK

    if args.command == "star-set":
        result = star_set(bc)
        if args.format == "json":
            doc = {"vars": result.nvars, "terms": [format_term(t) for t in result]}
            return _dumps(doc), EXIT_OK
        return "\n".join(format_term(t) for t in result), EXIT_OK

    if args.command in ("nmp", "corners") and args.format == "text":
        lines = (power_texts if args.command == "nmp" else corner_texts)(bc)
        for c, t in enumerate(bc.labels):  # in place: texts and lines are never all held
            lines[c] = f"{format_term(t)}: {lines[c] or '-'}"  # only nmp's can be empty
        return "\n".join(lines), EXIT_OK

    if args.command == "nmp":
        table = nmp_table(terms, bc).items()
        powers = {format_term(t): [format_power(i, k) for i, k in p.items()] for t, p in table}
        return _dumps({"vars": terms.nvars, "nmp": powers}), EXIT_OK

    if args.command == "corners":
        corners = infinite_corners(terms, nmp_table(terms, bc)).items()
        entries = {format_term(t): corner_to_json(vec) for t, vec in corners}
        return _dumps({"vars": terms.nvars, "corners": entries}), EXIT_OK

    raise InternalInvariantError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        body, code = _run(args)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(body + "\n")
        else:
            print(body)
    except (TermSyntaxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BarjanetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if collecting:
            gc.enable()
    return code


def console_main() -> None:
    sys.exit(main())
