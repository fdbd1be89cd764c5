import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from barjanet import parse_term, parse_term_set
from barjanet.cli import main
from barjanet.corners import corner_from_json
from barjanet.barcode import barcode_from_json, BarCode, star_positions
from barjanet.points import polynomial_from_json, janet_like_basis, parse_points

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
        ],
    )
    def test_bad_input_one_line_exit_one(self, tmp_path, capsys, command, content):
        path = write(tmp_path, "bad.txt", content)
        assert main([command, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    def test_output_file(self, tmp_path, capsys):
        path = write(tmp_path, "u.terms", SIX_TERMS_FILE)
        target = tmp_path / "out.txt"
        assert main(["nmp", path, "--output", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text(encoding="utf-8").splitlines()[0] == "x1^5: x2, x3^2"

    def test_stdin(self, tmp_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(SIX_TERMS_FILE))
        assert main(["check-complete", "-"]) == 0

    def test_deterministic_output(self, tmp_path, capsys):
        path = write(tmp_path, "u.terms", SIX_TERMS_FILE)
        outputs = set()
        for _ in range(3):
            assert main(["render", path, "--format", "json"]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1

    def test_python_dash_m(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "barjanet", "check-complete", "-"],
            input=INCOMPLETE_FILE,
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 3
        assert proc.stdout.splitlines() == [
            "incomplete",
            "missing divisor: x2 * x3 = x2*x3",
        ]
