"""Tests of the definitional checker on the paper's six-term example and the
README's examples, and on outputs altered on purpose.

Run with `python3 -m pytest bench/test_checker.py` or as part of
`python3 bench/run.py --self-test`.
"""

import checker

SIX_TERMS = "vars: 3\nx1^5\nx1^2*x2\nx1*x2^4\nx1^2*x3^2\nx1*x2^2*x3^2\nx3^5\n"
SIX_NMP = [
    "x1^5: x2, x3^2",
    "x1^2*x2: x2^3, x3^2",
    "x1*x2^4: x3^2",
    "x1^2*x3^2: x2^2, x3^3",
    "x1*x2^2*x3^2: x3^3",
    "x3^5: -",
]
TWO_TERMS = "vars: 3\nx2\nx1*x3\n"
THREE_POINTS = "0,0\n1,0\n0,1\n"


def six():
    return checker.JanetData(*checker.parse_term_file(SIX_TERMS))


def rejects(check, *args):
    try:
        check(*args)
    except checker.CheckError:
        return True
    return False


def test_six_term_nmp_table():
    assert checker.expected_nmp(six()) == SIX_NMP
    checker.check_term_command("nmp", SIX_TERMS, "\n".join(SIX_NMP) + "\n", 0)


def test_six_term_divisor_assignments():
    data = six()
    for term, power, divisor in [
        ("x1^5", "x2", "x1^2*x2"),
        ("x1^5", "x3^2", "x1^2*x3^2"),
        ("x1^2*x2", "x2^3", "x1*x2^4"),
        ("x1^2*x2", "x3^2", "x1^2*x3^2"),
        ("x1*x2^4", "x3^2", "x1*x2^2*x3^2"),
        ("x1^2*x3^2", "x3^3", "x3^5"),
        ("x1^2*x3^2", "x2^2", "x1*x2^2*x3^2"),
        ("x1*x2^2*x3^2", "x3^3", "x3^5"),
    ]:
        t, p = checker.parse_term(term, 3), checker.parse_term(power, 3)
        w = tuple(a + b for a, b in zip(t, p))
        assert data.janet_like_divisors(w) == [checker.parse_term(divisor, 3)]
    assert checker.expected_check(data) == (0, ["complete"])


def test_six_term_stars_and_corners():
    data = six()
    assert checker.expected_stars(data) == [
        "row 1: after bars 1, 2, 3, 4, 5, 6",
        "row 2: after bars 3, 5, 6",
        "row 3: after bars 3",
    ]
    assert checker.expected_corners(data)[0] == "x1^5: x1^inf*x2^0*x3^1"
    assert checker.expected_corners(data)[-1] == "x3^5: x1^inf*x2^inf*x3^inf"
    assert checker.expected_render(data)[0] == "x1^5 x1^2*x2 x1*x2^4 x1^2*x3^2 x1*x2^2*x3^2 x3^5"


def test_order_ideal():
    assert checker.is_order_ideal([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert not checker.is_order_ideal([(0, 0), (1, 1)])
    assert not checker.is_order_ideal(checker.parse_term_file(SIX_TERMS)[1])


def test_readme_examples():
    checker.check_term_command(
        "check-complete", TWO_TERMS, "incomplete\nmissing divisor: x2 * x3 = x2*x3\n", 3
    )
    checker.check_term_command("complete", TWO_TERMS, "  x2\n  x1*x3\n+ x2*x3\n", 0)
    esc = checker.check_basis(THREE_POINTS, "x1^2 - x1\nx1*x2\nx2^2 - x2\n", 0)
    assert esc == {(0, 0), (1, 0), (0, 1)}
    checker.check_escalier(THREE_POINTS, "1\nx1\nx2\n", 0, esc)
    checker.check_parse_error("", "error: not an exact rational (line 2)\n", 1)


def test_rejects_altered_outputs():
    altered = "\n".join(["x1^5: x2, x3^3"] + SIX_NMP[1:])
    assert rejects(checker.check_term_command, "nmp", SIX_TERMS, altered, 0)
    assert rejects(checker.check_term_command, "check-complete", SIX_TERMS, "incomplete", 3)
    assert rejects(checker.check_term_command, "check-complete", TWO_TERMS, "complete", 0)
    ideal = "vars: 2\n1\nx1\nx2\n"
    checker.check_term_command("check-complete", ideal, "complete\n", 0)
    assert rejects(checker.check_term_command, "check-complete", ideal, "incomplete\n", 3)
    assert rejects(checker.check_term_command, "complete", TWO_TERMS, "  x2\n  x1*x3\n", 0)
    assert rejects(checker.check_term_command, "complete", TWO_TERMS, "  x2\n+ x1*x3\n  x2*x3\n", 0)
    assert rejects(
        checker.check_term_command, "stars", SIX_TERMS,
        "row 1: after bars 1, 2, 3, 4, 5, 6\nrow 2: after bars 3, 6\nrow 3: after bars 3\n", 0,
    )
    assert rejects(checker.check_basis, THREE_POINTS, "x1^2 - 1/2*x1\nx1*x2\nx2^2 - x2\n", 0)
    assert rejects(checker.check_basis, THREE_POINTS, "x1^2 - x1\nx2^2 - x2\n", 0)
    assert rejects(checker.check_basis, THREE_POINTS, "x1^3 - x1\nx1*x2\nx2^2 - x2\n", 0)
    esc = {(0, 0), (1, 0), (0, 1)}
    assert rejects(checker.check_escalier, THREE_POINTS, "1\nx1\nx1^2\n", 0, esc)
    assert rejects(checker.check_escalier, THREE_POINTS, "1\nx2^2\nx2\n", 0)
    assert rejects(checker.check_parse_error, "", "Traceback\n  ZeroDivisionError\n", 1)
