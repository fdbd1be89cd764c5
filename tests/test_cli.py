import argparse
import gc
import importlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from barjanet import TermSet, cli, errors, is_complete, parse_term, parse_term_set
from barjanet.cli import main
from barjanet.barcode import BarCode, star_positions
from barjanet.points import (
    format_polynomial,
    groebner_escalier,
    janet_like_basis,
    parse_points,
)
from barjanet.terms import MAX_VARS, format_power, format_term
from helpers import (
    barcode_from_json,
    corner_from_json,
    grown_order_ideal,
    polynomial_from_json,
    random_term,
    random_term_set,
)
from oracles import janet_like_basis_by_fractions

SIX_TERMS_FILE = "vars: 3\nx1^5\nx1^2*x2\nx1*x2^4\nx1^2*x3^2\nx1*x2^2*x3^2\nx3^5\n"
INCOMPLETE_FILE = "vars: 3\nx2\nx1*x3\n"
POINTS_FILE = "vars: 2\n0, 0\n1, 0\n0, 1\n"


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return str(path)


class TestNmp:
    def test_table_text(self, tmp_path, capsys):
        path = write(tmp_path, "u.terms", SIX_TERMS_FILE)
        assert main(["nmp", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "x1^5: x2, x3^2",
            "x1^2*x2: x2^3, x3^2",
            "x1*x2^4: x3^2",
            "x1^2*x3^2: x2^2, x3^3",
            "x1*x2^2*x3^2: x3^3",
            "x3^5: -",
        ]

    def test_json_roundtrip(self, tmp_path, capsys):
        path = write(tmp_path, "u.terms", SIX_TERMS_FILE)
        assert main(["nmp", path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["vars"] == 3
        assert doc["nmp"]["x3^5"] == []
        assert doc["nmp"]["x1^5"] == ["x2", "x3^2"]
        parsed = {
            parse_term(k, 3): [parse_term(p, 3) for p in v]
            for k, v in doc["nmp"].items()
        }
        assert len(parsed) == 6


class TestCheckComplete:
    def test_complete_exits_zero(self, tmp_path, capsys):
        path = write(tmp_path, "u.terms", SIX_TERMS_FILE)
        assert main(["check-complete", path]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "complete"

    def test_incomplete_exits_three(self, tmp_path, capsys):
        path = write(tmp_path, "u.terms", INCOMPLETE_FILE)
        assert main(["check-complete", path]) == 3
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "incomplete"
        assert out[1] == "missing divisor: x2 * x3 = x2*x3"

    def test_json_report(self, tmp_path, capsys):
        path = write(tmp_path, "u.terms", INCOMPLETE_FILE)
        assert main(["check-complete", path, "--format", "json"]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["complete"] is False
        missing = [w for w in doc["witnesses"] if w["divisor"] is None]
        assert missing == [{"term": "x2", "power": "x3", "divisor": None}]


def report_output(report, args):
    """check-complete's stdout built from the report the old way, with the
    product formatted from the Term w.term * w.power."""
    if "json" in args:
        doc = {
            "complete": report.complete,
            "witnesses": [
                {
                    "term": format_term(w.term),
                    "power": format_term(w.power),
                    "divisor": None if w.divisor is None else format_term(w.divisor),
                }
                for w in report.witnesses
            ],
            "added": [],
        }
        return json.dumps(doc, indent=2) + "\n"
    lines = ["complete" if report.complete else "incomplete"]
    for w in [] if "--quiet" in args else report.witnesses:
        product = f"{format_term(w.term)} * {format_term(w.power)} = {format_term(w.term * w.power)}"
        if w.divisor is None:
            lines.append(f"missing divisor: {product}")
        elif "-v" in args:
            lines.append(f"ok: {product} <- {format_term(w.divisor)}")
    return "\n".join(lines) + "\n"


class TestCheckCompleteOutput:
    """The witness lines are formatted from exponent tuples; formatting the
    product Term, as before, is their oracle, byte for byte."""

    @pytest.mark.parametrize("nvars,size,top", [(4, 300, 8), (6, 200, 3), (4, 1, 5)])
    @pytest.mark.parametrize("args", [[], ["-v"], ["--quiet"], ["--format", "json"]])
    def test_equals_old_route(self, tmp_path, capsys, nvars, size, top, args):
        rng = random.Random(nvars * 1000 + size)
        ts = TermSet(nvars, [random_term(rng, nvars, top) for _ in range(size)])
        report = is_complete(ts)
        assert report.complete == (size == 1)
        body = "".join(f"{format_term(t)}\n" for t in reversed(ts.terms))
        path = write(tmp_path, "u.terms", f"vars: {nvars}\n{body}")
        assert main(["check-complete", path, *args]) == (0 if report.complete else 3)
        captured = capsys.readouterr()
        assert captured.out == report_output(report, args)
        assert captured.err == ""


class TestComplete:
    def test_adds_and_highlights(self, tmp_path, capsys):
        path = write(tmp_path, "u.terms", INCOMPLETE_FILE)
        assert main(["complete", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["  x2", "  x1*x3", "+ x2*x3"]

    def test_json(self, tmp_path, capsys):
        path = write(tmp_path, "u.terms", INCOMPLETE_FILE)
        assert main(["complete", path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["added"] == ["x2*x3"]
        assert doc["terms"] == ["x2", "x1*x3", "x2*x3"]


class TestRenderAndStars:
    def test_render_json_roundtrip(self, tmp_path, capsys):
        path = write(tmp_path, "u.terms", SIX_TERMS_FILE)
        assert main(["render", path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        bc, stars = barcode_from_json(doc)
        expected = BarCode.build(parse_term_set(SIX_TERMS_FILE))
        assert bc == expected
        assert stars == star_positions(expected)

    def test_render_text_has_header_and_rows(self, tmp_path, capsys):
        path = write(tmp_path, "u.terms", SIX_TERMS_FILE)
        assert main(["render", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("x1^5")

    def test_stars_json_is_render_json_less_the_labels(self, tmp_path, capsys):
        rng = random.Random(271)
        texts = [SIX_TERMS_FILE, "vars: 1\nx1^4\n"]
        for _ in range(20):
            ts = random_term_set(rng, max_vars=5, max_terms=30, max_exp=4)
            texts.append(f"vars: {ts.nvars}\n" + "\n".join(map(format_term, ts)) + "\n")
        for text in texts:
            path = write(tmp_path, "u.terms", text)
            assert main(["render", path, "--format", "json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            del doc["labels"]
            assert main(["stars", path, "--format", "json"]) == 0
            assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"

    def test_stars_json_formats_no_label(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counting(t):
            calls.append(t)
            return format_term(t)

        monkeypatch.setattr("barjanet.barcode.format_term", counting)
        monkeypatch.setattr("barjanet.cli.format_term", counting)
        path = write(tmp_path, "u.terms", SIX_TERMS_FILE)
        assert main(["stars", path, "--format", "json"]) == 0
        assert calls == []
        assert main(["render", path, "--format", "json"]) == 0
        assert len(calls) == 6
        capsys.readouterr()

    def test_stars_text(self, tmp_path, capsys):
        path = write(tmp_path, "u.terms", SIX_TERMS_FILE)
        assert main(["stars", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "row 1: after bars 1, 2, 3, 4, 5, 6",
            "row 2: after bars 3, 5, 6",
            "row 3: after bars 3",
        ]


class TestStarSet:
    def test_simplex(self, tmp_path, capsys):
        path = write(tmp_path, "n.terms", "vars: 3\n1\nx1\nx2\nx3\n")
        assert main(["star-set", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["x1^2", "x1*x2", "x2^2", "x1*x3", "x2*x3", "x3^2"]

    def test_non_order_ideal_is_input_error(self, tmp_path, capsys):
        path = write(tmp_path, "n.terms", "vars: 2\nx1\n")
        assert main(["star-set", path]) == 2


class TestCorners:
    def test_plane_example(self, tmp_path, capsys):
        path = write(tmp_path, "u.terms", "vars: 2\nx2^3\nx1*x2\nx1^2\n")
        assert main(["corners", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "x1^2: x1^inf*x2^0",
            "x1*x2: x1^inf*x2^2",
            "x2^3: x1^inf*x2^inf",
        ]

    def test_json_roundtrip(self, tmp_path, capsys):
        path = write(tmp_path, "u.terms", "vars: 2\nx2^3\nx1*x2\nx1^2\n")
        assert main(["corners", path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        vec = corner_from_json(doc["corners"]["x1*x2"])
        assert vec.format() == "x1^inf*x2^2"

    def test_text_lines_format_one_piece_per_column(self, tmp_path, capsys, monkeypatch):
        # each line reads its text off its right neighbour's: no table, no
        # corner vector, and at most one power formatted per column
        calls = []

        def refused(*args):
            raise AssertionError("the text output built a table or a corner vector")

        def counting(i, e):
            calls.append((i, e))
            return format_power(i, e)

        for name in ("cli.nmp_table", "cli.infinite_corners", "corners.CornerVector.format"):
            monkeypatch.setattr(f"barjanet.{name}", refused)
        monkeypatch.setattr("barjanet.barcode.format_power", counting, raising=False)
        monkeypatch.setattr("barjanet.cli.format_power", counting)
        path = write(tmp_path, "u.terms", SIX_TERMS_FILE)
        assert main(["nmp", path]) == 0
        assert 0 < len(calls) <= 6
        assert main(["corners", path]) == 0
        assert capsys.readouterr().out.splitlines()[-6:] == [
            "x1^5: x1^inf*x2^0*x3^1",
            "x1^2*x2: x1^inf*x2^3*x3^1",
            "x1*x2^4: x1^inf*x2^inf*x3^1",
            "x1^2*x3^2: x1^inf*x2^1*x3^4",
            "x1*x2^2*x3^2: x1^inf*x2^inf*x3^4",
            "x3^5: x1^inf*x2^inf*x3^inf",
        ]


class TestPointsCommands:
    def test_escalier(self, tmp_path, capsys):
        path = write(tmp_path, "x.points", POINTS_FILE)
        assert main(["escalier", path]) == 0
        assert capsys.readouterr().out.splitlines() == ["1", "x1", "x2"]

    def test_basis_text(self, tmp_path, capsys):
        path = write(tmp_path, "x.points", POINTS_FILE)
        assert main(["basis", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["x1^2 - x1", "x1*x2", "x2^2 - x2"]

    def test_basis_json_roundtrip(self, tmp_path, capsys):
        path = write(tmp_path, "x.points", POINTS_FILE)
        assert main(["basis", path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        polys = [polynomial_from_json(d, doc["vars"]) for d in doc["basis"]]
        assert polys == list(janet_like_basis(parse_points(POINTS_FILE)))


    def test_rescaled_file_matches_fraction_pipeline(self, tmp_path, capsys):
        # large coprime denominators, 2^61-1, an all-integer column, zeros
        # and negatives: the integer scan must print the Fraction scan's text
        text = (
            "vars: 3\n"
            "0, 1/9973, -5/10007\n"
            "3, -2/9967, 0\n"
            "-1, 0, 7/2305843009213693951\n"
            "0, 4/10009, 1\n"
            "2, 1/9973, -5/10007\n"
            "-1, 1/2305843009213693951, 0\n"
            "0, 0, 0\n"
        )
        path = write(tmp_path, "x.points", text)
        escalier, basis = janet_like_basis_by_fractions(parse_points(text))
        assert main(["escalier", path]) == 0
        expected = "\n".join(format_term(t) for t in escalier) + "\n"
        assert capsys.readouterr().out == expected
        assert main(["basis", path]) == 0
        expected = "\n".join(format_polynomial(g) for g in basis) + "\n"
        assert capsys.readouterr().out == expected

    def test_basis_points_budget(self, tmp_path, capsys):
        limit = cli.MAX_BASIS_POINTS
        body = "".join(f"{k % 17}, {k // 17}\n" for k in range(limit + 1))
        path = write(tmp_path, "x.points", "vars: 2\n" + body)
        assert main(["basis", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: basis takes at most {limit} points\n"
        assert main(["escalier", path]) == 0
        assert len(capsys.readouterr().out.splitlines()) == limit + 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_basis_coefficient_over_the_digit_limit(self, tmp_path, capsys, fmt):
        # coordinates p/q of 1,500 digits each give basis coefficients longer
        # than str() of an int takes; the limit is named on one line
        rng = random.Random(1)

        def rational():
            return f"{rng.randrange(10**1499, 10**1500)}/{rng.randrange(10**1499, 10**1500)}"

        body = "".join(f"{rational()},{rational()}\n" for _ in range(3))
        path = write(tmp_path, "x.points", body)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # the default, whatever the environment set
        try:
            code = main(["basis", path, "--format", fmt])
        finally:
            sys.set_int_max_str_digits(limit)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: a basis coefficient exceeds 4300 digits, the limit\n"

    def test_escalier_in_max_vars(self, tmp_path, capsys):
        rng = random.Random(4431)
        rows = [",".join(str(rng.randint(-2, 2)) for _ in range(MAX_VARS)) for _ in range(3)]
        for header in (f"vars: {MAX_VARS}\n", ""):
            text = header + "\n".join(rows) + "\n"
            path = write(tmp_path, "x.points", text)
            assert main(["escalier", path]) == 0
            escalier = groebner_escalier(parse_points(text))
            expected = "\n".join(format_term(t) for t in escalier) + "\n"
            assert capsys.readouterr().out == expected


class TestErrorsAndPlumbing:
    def test_parse_error_exit_one(self, tmp_path, capsys):
        path = write(tmp_path, "bad.terms", "vars: 2\nx1^^\n")
        assert main(["nmp", path]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_one(self, capsys):
        assert main(["nmp", "/nonexistent/u.terms"]) == 1

    def test_index_past_vars_exit_one(self, tmp_path, capsys):
        path = write(tmp_path, "bad.terms", "vars: 2\nx5\n")
        assert main(["nmp", path]) == 1

    def test_empty_input_exit_two(self, tmp_path, capsys):
        path = write(tmp_path, "empty.terms", "# nothing here\n")
        assert main(["nmp", path]) == 2

    def test_duplicate_points_exit_two(self, tmp_path, capsys):
        path = write(tmp_path, "x.points", "1, 2\n1, 2\n")
        assert main(["escalier", path]) == 2

    def test_float_points_exit_one(self, tmp_path, capsys):
        path = write(tmp_path, "x.points", "1.5, 2\n")
        assert main(["escalier", path]) == 1

    @pytest.mark.parametrize(
        "command,content",
        [
            ("basis", "vars: 2\n0,0\n1,1/0\n2,1\n"),
            ("nmp", "vars: 400000\nx1\n"),
            ("nmp", "x400000\n"),
            pytest.param(
                "basis", ",".join(["0"] * (MAX_VARS + 1)) + "\n", id="basis-headerless-1025"
            ),
        ],
    )
    def test_bad_input_one_line_exit_one(self, tmp_path, capsys, command, content):
        path = write(tmp_path, "bad.txt", content)
        assert main([command, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "command,content",
        [
            ("nmp", b"\xff\n"),
            ("check-complete", b"vars: 2\nx1\xa0*x2\n"),
            ("basis", b"\xff\n"),
            ("escalier", b"vars: 2\n0,0\n1,\xe9\n"),
        ],
    )
    def test_non_utf8_input_one_line_exit_one(self, tmp_path, capsys, command, content):
        path = tmp_path / "bad.txt"
        path.write_bytes(content)
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: input is not UTF-8")

    def test_non_utf8_stdin_exit_one(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", bytes_stdin(b"x1\n\xff\n"))
        assert main(["nmp", "-"]) == 1
        assert capsys.readouterr().err.startswith("error: input is not UTF-8")

    @pytest.mark.parametrize(
        "content,message",
        [
            ("x1^\u00b2\n", "expected exponent"),
            ("x\u00b2\n", "expected variable index"),
            ("[\u00b2,1]\n", "expected exponent"),
        ],
    )
    def test_non_decimal_digit_one_line_exit_one(self, tmp_path, capsys, content, message):
        path = write(tmp_path, "bad.terms", content)
        assert main(["nmp", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith(f"error: {message}")

    def test_output_file(self, tmp_path, capsys):
        path = write(tmp_path, "u.terms", SIX_TERMS_FILE)
        target = tmp_path / "out.txt"
        assert main(["nmp", path, "--output", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text(encoding="utf-8").splitlines()[0] == "x1^5: x2, x3^2"

    def test_unwritable_output_exit_one(self, tmp_path, capsys):
        path = write(tmp_path, "u.terms", SIX_TERMS_FILE)
        target = tmp_path / "missing-dir" / "out.txt"
        assert main(["nmp", path, "--output", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    def test_stdin(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", bytes_stdin(SIX_TERMS_FILE.encode()))
        assert main(["check-complete", "-"]) == 0

    def test_deterministic_output(self, tmp_path, capsys):
        path = write(tmp_path, "u.terms", SIX_TERMS_FILE)
        outputs = set()
        for _ in range(3):
            assert main(["render", path, "--format", "json"]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1

    def test_python_dash_m(self):
        proc = run_module(["check-complete", "-"], input=INCOMPLETE_FILE.encode())
        assert proc.returncode == 3
        assert proc.stdout.decode().splitlines() == [
            "incomplete",
            "missing divisor: x2 * x3 = x2*x3",
        ]

    def test_non_utf8_process_stdin_exit_one(self):
        # a process's own text stdin would decode with surrogateescape, so
        # the bytes are read and decoded strictly, as for a file
        proc = run_module(["nmp", "-"], input=b"vars: 1\nx1\n# caf\xe9\n")
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr.decode() == "error: input is not UTF-8: invalid continuation byte at byte 16\n"

    def test_closed_stdin_exit_one(self):
        proc = run_module(
            ["nmp", "-"], stdin=subprocess.DEVNULL, preexec_fn=lambda: os.close(0)
        )
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr == b"error: standard input is closed\n"


def src_env():
    """This process's environment with this checkout's src first on
    PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_module(argv, **kwargs):
    """python -m barjanet argv in a child process, on this checkout's src."""
    return subprocess.run(
        [sys.executable, "-m", "barjanet", *argv],
        capture_output=True,
        env=src_env(),
        timeout=60,
        **kwargs,
    )


def bytes_stdin(content: bytes):
    """A stdin like a process's: text over a binary buffer of the content."""
    return io.TextIOWrapper(io.BytesIO(content), encoding="utf-8")


README = Path(__file__).resolve().parent.parent / "README.md"
# printf's format: any text but quotes, % and backslashes, save the \n escape
README_COMMAND = re.compile(r"\$ printf '((?:[^'%\\]|\\n)*)' \| barjanet (.+)")
README_TOUR = re.compile(r"## Library tour\n\n```python\n(.*?)```", re.S)
# the tour prints the bar code of its six terms, then the basis of its points
TOUR_OUTPUT = """\
x1^5 x1^2*x2 x1*x2^4 x1^2*x3^2 x1*x2^2*x3^2 x3^5
----*-------*-------*---------*------------*---- *
---- ------- -------*--------- ------------*---- *
-------------------- ---------------------- ---- *
x1^2 - x1
x1*x2
x2^2 - x2
"""


BOM = "\ufeff".encode()  # the UTF-8 byte-order mark, EF BB BF


def run_on_bytes(capsys, monkeypatch, argv, content):
    """main(argv) with content as stdin: (exit code, stdout, stderr)."""
    monkeypatch.setattr("sys.stdin", bytes_stdin(content))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestByteOrderMark:
    """One leading byte-order mark is dropped from a file or stdin; any other
    U+FEFF is text, and a parse error."""

    CASES = [
        ("check-complete", INCOMPLETE_FILE),
        ("check-complete", INCOMPLETE_FILE.replace("\n", "\r\n")),
        ("nmp", SIX_TERMS_FILE),
        ("complete", "x2\nx1*x3\n"),
        ("render", "[0,1,0]\n"),
        ("escalier", POINTS_FILE),
        ("basis", "0,0\n1,0\n0,1\n"),
    ]

    @pytest.mark.parametrize("command,content", CASES)
    def test_file_reads_as_without_it(self, tmp_path, capsys, command, content):
        plain = tmp_path / "plain.txt"
        plain.write_bytes(content.encode())
        marked = tmp_path / "marked.txt"
        marked.write_bytes(BOM + content.encode())
        code = main([command, str(plain)])
        expected = capsys.readouterr()
        assert main([command, str(marked)]) == code
        assert capsys.readouterr() == expected

    @pytest.mark.parametrize("command,content", CASES)
    def test_stdin_reads_as_without_it(self, capsys, monkeypatch, command, content):
        expected = run_on_bytes(capsys, monkeypatch, [command, "-"], content.encode())
        assert run_on_bytes(capsys, monkeypatch, [command, "-"], BOM + content.encode()) == expected

    def test_readme_example(self, capsys, monkeypatch):
        content = BOM + b"vars: 3\r\nx2\r\nx1*x3\r\n"
        assert run_on_bytes(capsys, monkeypatch, ["check-complete", "-"], content) == (
            3, "incomplete\nmissing divisor: x2 * x3 = x2*x3\n", ""
        )

    @pytest.mark.parametrize(
        "command,content,message",
        [
            ("nmp", "vars: 3\n\ufeffx2\n", "expected a factor like x2 or x2^3 (line 2, column 1)"),
            ("nmp", "\ufeff\ufeffvars: 3\nx2\n", "expected a factor like x2 or x2^3 (line 1, column 1)"),
            ("nmp", "\ufeffvars: 3\nx1*\ufeffx2\n", "expected a factor like x2 or x2^3 (line 2, column 4)"),
            ("nmp", "\ufeffx1\ufeff\n", "unexpected character (line 1, column 3)"),
            ("escalier", "0,0\n\ufeff1,0\n", "not an exact rational: '\\ufeff1' (line 2)"),
            ("basis", "\ufeff\ufeff0,0\n1,0\n", "not an exact rational: '\\ufeff0' (line 1)"),
        ],
    )
    def test_any_other_is_a_parse_error(self, tmp_path, capsys, command, content, message):
        path = tmp_path / "bad.txt"
        path.write_bytes(content.encode())
        assert main([command, str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


def readme_examples():
    """(stdin, argv, expected stdout) of each `$ printf ... | barjanet ...`
    line of the README; its output runs to the next `$` line or fence."""
    examples = []
    lines = README.read_text(encoding="utf-8").splitlines()
    for at, line in enumerate(lines):
        m = README_COMMAND.fullmatch(line)
        if m is None:
            continue
        expected = []
        for out in lines[at + 1 :]:
            if out.startswith(("$", "```")):
                break
            expected.append(out + "\n")
        stdin = m.group(1).replace("\\n", "\n")
        examples.append((stdin, shlex.split(m.group(2)), "".join(expected)))
    return examples


class TestReadmeExamples:
    def test_every_example_is_read(self):
        lines = README.read_text(encoding="utf-8").splitlines()
        shown = sum(line.startswith("$ printf") for line in lines)
        assert len(readme_examples()) == shown >= 3

    @pytest.mark.parametrize("stdin,argv,expected", readme_examples())
    def test_example_output(self, capsys, monkeypatch, stdin, argv, expected):
        monkeypatch.setattr("sys.stdin", bytes_stdin(stdin.encode()))
        code = main(argv)
        captured = capsys.readouterr()
        assert captured.out == expected
        assert code == (3 if expected.startswith("incomplete") else 0)

    def test_library_tour(self):
        tour = README_TOUR.search(README.read_text(encoding="utf-8")).group(1)
        proc = subprocess.run(
            [sys.executable, "-c", tour],
            capture_output=True,
            text=True,
            env=src_env(),
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == TOUR_OUTPUT


class TestExitCodeContract:
    """Every error class ends in its documented exit code, with one stderr
    line and no stdout."""

    @pytest.mark.parametrize(
        "error,code,prefix",
        [
            (errors.TermSyntaxError, 1, "error: "),
            (errors.DimensionError, 2, "error: "),
            (errors.EmptyInputError, 2, "error: "),
            (errors.MembershipError, 2, "error: "),
            (errors.AdmissibilityError, 2, "error: "),
            (errors.InputError, 2, "error: "),
            (errors.SingularMatrixError, 2, "error: "),
            (errors.InternalInvariantError, 4, "internal error: "),
            (errors.CompletionBoundError, 4, "internal error: "),
            (OSError, 1, "error: "),
        ],
    )
    def test_error_class_maps_to_exit_code(
        self, tmp_path, capsys, monkeypatch, error, code, prefix
    ):
        def raise_error(args):
            raise error("boom")

        monkeypatch.setattr(cli, "_run", raise_error)
        path = write(tmp_path, "u.terms", SIX_TERMS_FILE)
        assert main(["nmp", path]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{prefix}boom\n"


def fresh_main(argv):
    """main as a new process runs it: cli is executed anew, so the call gets
    a freshly built parser and no state left by earlier calls."""
    importlib.reload(cli)
    return cli.main(argv)


def outcome(run, argv, capsys, output=None):
    """(exit code, stdout, stderr, --output file's text or None) of one call;
    the file is removed, so the next call starts without it."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    written = None
    if output is not None and output.exists():
        written = output.read_text(encoding="utf-8")
        output.unlink()
    return code, captured.out, captured.err, written


ORDER_IDEAL_FILE = "vars: 2\n1\nx1\nx2\nx1*x2\n"
USAGE_ERRORS = [
    [],
    ["frob"],
    ["nmp", "--format", "xml"],
    ["nmp", "-", "stray"],
    ["nmp", "--frob"],
]


class TestParserReuse:
    """main builds its parser once per process. Every later call must behave
    as the same command line does against a freshly built parser."""

    def inputs(self, tmp_path):
        terms = write(tmp_path, "u.terms", INCOMPLETE_FILE)
        ideal = write(tmp_path, "ideal.terms", ORDER_IDEAL_FILE)
        points = write(tmp_path, "u.points", POINTS_FILE)
        paths = dict.fromkeys(cli._COMMANDS, terms)
        paths.update({"star-set": ideal, "escalier": points, "basis": points})
        return paths

    def test_interleaved_flags_match_fresh_parser(self, tmp_path, capsys):
        output = tmp_path / "out.txt"
        flags = [["--format", "json"], ["--output", str(output)], ["--quiet"], ["-v"]]
        calls = []
        for command, path in self.inputs(tmp_path).items():
            calls.append([command, path])
            for flag in flags:
                # each flag is absent from the call that follows it
                calls += [[command, path, *flag], [command, path]]
        shared = [outcome(main, argv, capsys, output) for argv in calls]
        fresh = [outcome(fresh_main, argv, capsys, output) for argv in calls]
        assert shared == fresh
        assert sum(written is not None for *_, written in shared) == 9
        assert {code for code, *_ in shared} == {0, 3}

    @pytest.mark.parametrize("columns", ["40", "200"])
    def test_usage_errors_match_fresh_parser(
        self, tmp_path, capsys, monkeypatch, columns
    ):
        monkeypatch.setenv("COLUMNS", columns)
        path = write(tmp_path, "u.terms", SIX_TERMS_FILE)
        for argv in USAGE_ERRORS:
            code, out, err, _ = outcome(main, argv, capsys)
            assert (code, out) == (("SystemExit", 2), "")
            assert err.startswith("usage: barjanet")
            assert re.match(r"barjanet( [\w-]+)?: error: ", err.splitlines()[-1])
            assert (code, out, err, None) == outcome(fresh_main, argv, capsys)
            assert main(["check-complete", path]) == 0
            assert capsys.readouterr().out.splitlines()[0] == "complete"

    @pytest.mark.parametrize("columns", ["40", "200"])
    def test_help_matches_fresh_parser(self, tmp_path, capsys, monkeypatch, columns):
        monkeypatch.setenv("COLUMNS", columns)
        assert main(["nmp", write(tmp_path, "u.terms", SIX_TERMS_FILE)]) == 0
        capsys.readouterr()
        helps = [["-h"], ["--help"], ["complete", "--help"]]
        shared = [outcome(main, argv, capsys) for argv in helps]
        for code, out, err, _ in shared:
            assert (code, err) == (("SystemExit", 0), "")
            assert out.startswith("usage: barjanet")
        assert shared == [outcome(fresh_main, argv, capsys) for argv in helps]

    def test_usage_line_lists_the_commands_in_order(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        code, out, err, _ = outcome(main, ["--help"], capsys)
        assert (code, err) == (("SystemExit", 0), "")
        assert out.splitlines()[0] == (
            "usage: barjanet [-h] {render,nmp,stars,star-set,check-complete,"
            "complete,corners,escalier,basis} ..."
        )

    def test_later_calls_build_no_parser(self, tmp_path, capsys, monkeypatch):
        inputs = list(self.inputs(tmp_path).items())
        assert main(list(inputs[0])) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        codes = [main(list(inputs[k % len(inputs)])) for k in range(50)]
        capsys.readouterr()
        assert set(codes) == {0, 3}
        assert built == []


@pytest.fixture
def collector():
    """The cyclic collector on for the test, and as it was found after it."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was_enabled else gc.disable)()


class TestCollectorPause:
    """main pauses the cyclic collector from after argument parsing to its
    return, and leaves it as it found it, however the call ends."""

    def test_paused_while_the_command_runs(self, tmp_path, capsys, monkeypatch, collector):
        seen = []

        def record(args):
            seen.append(gc.isenabled())
            return "", 0

        monkeypatch.setattr(cli, "_run", record)
        assert main(["nmp", write(tmp_path, "u.terms", SIX_TERMS_FILE)]) == 0
        assert seen == [False]
        assert gc.isenabled()

    def test_restored_after_every_exit_code(self, tmp_path, capsys, monkeypatch, collector):
        calls = [
            (0, ["nmp", write(tmp_path, "u.terms", SIX_TERMS_FILE)]),
            (1, ["nmp", write(tmp_path, "bad.terms", "vars: 2\nx1^^\n")]),
            (2, ["nmp", write(tmp_path, "empty.terms", "# nothing here\n")]),
            (3, ["check-complete", write(tmp_path, "i.terms", INCOMPLETE_FILE)]),
        ]
        for code, argv in calls:
            assert main(argv) == code
            assert gc.isenabled(), argv

        def raise_invariant(args):
            raise errors.InternalInvariantError("boom")

        monkeypatch.setattr(cli, "_run", raise_invariant)
        assert main(calls[0][1]) == 4
        assert gc.isenabled()

    def test_restored_after_an_escaping_error_and_a_usage_error(
        self, tmp_path, capsys, monkeypatch, collector
    ):
        path = write(tmp_path, "u.terms", SIX_TERMS_FILE)

        def raise_runtime(args):
            raise RuntimeError("boom")

        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            with pytest.raises(SystemExit):
                main(["frob"])
            assert gc.isenabled() == enabled
            with monkeypatch.context() as patch:
                patch.setattr(cli, "_run", raise_runtime)
                with pytest.raises(RuntimeError):
                    main(["nmp", path])
            assert gc.isenabled() == enabled
            assert main(["nmp", path]) == 0
            assert gc.isenabled() == enabled


def term_file(ts):
    return f"vars: {ts.nvars}\n" + "".join(f"{format_term(t)}\n" for t in ts)


def cycle_inputs():
    """(name, file text): term sets, point sets, and inputs every command
    refuses or fails on."""
    rng = random.Random(25)
    for nvars in range(2, 7):
        ts = TermSet(nvars, [random_term(rng, nvars, 3) for _ in range(8)])
        yield f"random-{nvars}", term_file(ts)
    yield "order-ideal", term_file(grown_order_ideal(rng, 3, 20))
    yield "six-terms", SIX_TERMS_FILE
    yield "grid", "vars: 2\n" + "".join(f"{a},{b}\n" for a in range(4) for b in range(3))
    rationals = {
        tuple(f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}" for _ in range(3)) for _ in range(12)
    }
    yield "rational", "vars: 3\n" + "".join(",".join(p) + "\n" for p in sorted(rationals))
    yield "over-cap", "vars: 2\nx1^2147483648*x2\n"
    yield "past-vars", "vars: 2\nx3\n"
    yield "zero-denominator", "vars: 2\n0,0\n1,1/0\n"
    yield "empty", ""
    yield "251-points", "vars: 1\n" + "".join(f"{k}\n" for k in range(251))


FLAGS = [[], ["--format", "json"], ["-v"], ["--quiet"]]


class TestNoReferenceCycles:
    """The collector could only traverse what a command builds, never free
    it: no command, on any input and in any format, leaves cyclic garbage."""

    @pytest.mark.parametrize(
        "name,content", [pytest.param(*case, id=case[0]) for case in cycle_inputs()]
    )
    def test_no_cyclic_garbage(self, tmp_path, capsys, name, content, collector):
        path, output = write(tmp_path, name, content), str(tmp_path / "out.txt")
        cli.build_parser()  # main builds it once, before its pause: no command's garbage
        codes = set()
        gc.collect()
        gc.disable()
        try:
            for command in cli._COMMANDS:
                for flags in FLAGS:
                    codes.add(main([command, path, "--output", output, *flags]))
                    assert (gc.collect(), gc.garbage) == (0, []), (command, flags)
        finally:
            gc.enable()
        capsys.readouterr()
        assert codes <= {0, 1, 2, 3}

    def test_json_output_is_the_stdlib_encoding(self, tmp_path, capsys):
        for name, content in cycle_inputs():
            path = write(tmp_path, name, content)
            for command in cli._COMMANDS:
                if main([command, path, "--format", "json"]) in (0, 3):
                    out = capsys.readouterr().out
                    assert out == json.dumps(json.loads(out), indent=2) + "\n", (name, command)
        doc = {"é\"\\": [[], {}, None, True, False, -(10**30), ("x", 0)], "": {"a": [1]}}
        assert cli._dumps(doc) == json.dumps(doc, indent=2)
