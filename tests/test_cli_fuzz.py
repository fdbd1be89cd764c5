"""Fuzzing every command of the CLI: any input bytes end in an exit
code of the contract (0-4), never in an uncaught exception, and an error is
reported on exactly one stderr line."""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from barjanet.cli import main

# Pieces of term and point lines, valid and nearly valid: non-ASCII digits
# (superscript two, Arabic-Indic three), a no-break space, float and zero
# denominators, stray brackets and separators.
PIECES = [
    "x", "x1", "x2", "x3", "x0", "^", "^2", "^\u00b2", "\u00b2", "\u0663", "*",
    "[", "]", ",", "0", "1", "7", "-", "+", "/", "1/2", "1/0", "1.5", " ",
    "\u00a0", "\t", "#", "vars:", "vars: 2", "vars: 0", "0,0", "1,1/3", "[1,0]",
]

line = st.lists(st.sampled_from(PIECES), max_size=6).map("".join)
text = st.lists(line, max_size=6).map("\n".join)
encoded = text.map(lambda s: s.encode("utf-8"))
# valid text with raw bytes spliced in, often not valid UTF-8
spliced = st.tuples(encoded, st.binary(min_size=1, max_size=4), encoded).map(
    lambda parts: b"".join(parts)
)
inputs = st.one_of(encoded, spliced, st.binary(max_size=40))
commands = st.sampled_from(
    [
        "render",
        "nmp",
        "stars",
        "star-set",
        "check-complete",
        "complete",
        "corners",
        "escalier",
        "basis",
    ]
)


@settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(command=commands, data=inputs)
def test_any_input_ends_in_a_documented_exit(tmp_path, command, data):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path)])
    assert code in (0, 1, 2, 3, 4)
    if code in (1, 2, 4):
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
    else:
        assert err.getvalue() == ""
