import random

import pytest

from barjanet import (
    DimensionError,
    MAX_EXPONENT,
    MAX_VARS,
    Term,
    TermSet,
    TermSyntaxError,
    box_terms,
    format_term,
    lex_compare,
    parse_term,
    parse_term_set,
)
from helpers import random_term


def t(*exps):
    return Term(exps)


class TestLexCompare:
    def test_variable_order(self):
        assert lex_compare(t(1, 0, 0), t(0, 1, 0)) == -1
        assert lex_compare(t(0, 1, 0), t(0, 0, 1)) == -1

    def test_known_ascending_chain(self):
        terms = [t(1, 0, 0), t(2, 0, 0), t(0, 1, 1), t(1, 2, 1), t(0, 3, 1)]
        assert sorted(terms) == terms

    def test_reflexive(self):
        a = t(3, 1, 2)
        assert lex_compare(a, a) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            lex_compare(t(1, 0), t(1, 0, 0))

    def test_total_order_on_random_sample(self):
        rng = random.Random(7)
        sample = [random_term(rng, 3, 5) for _ in range(60)]
        once = sorted(sample)
        assert sorted(once) == once
        for a, b in zip(once, once[1:]):
            assert lex_compare(a, b) <= 0

    def test_semigroup_property(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 4)
            s = random_term(rng, n, 4)
            t1 = random_term(rng, n, 4)
            t2 = random_term(rng, n, 4)
            if t1 < t2:
                assert s * t1 < s * t2


class TestProjection:
    def test_middle_projection(self):
        assert t(1, 2, 1).pi(2) == t(0, 2, 1)

    def test_identity(self):
        a = t(4, 0, 2)
        assert a.pi(1) == a

    def test_top_projection(self):
        assert t(0, 1, 1).pi(3) == t(0, 0, 1)

    def test_idempotent_and_divides(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(1, 4)
            a = random_term(rng, n, 5)
            i = rng.randint(1, n)
            p = a.pi(i)
            assert p.pi(i) == p
            assert p.divides(a)

    def test_out_of_range(self):
        with pytest.raises(DimensionError):
            t(1, 0).pi(3)
        with pytest.raises(DimensionError):
            t(1, 0).pi(0)


class TestDivides:
    def test_one_divides_everything(self):
        assert Term.one(3).divides(t(4, 1, 2))

    def test_coordinatewise(self):
        assert t(0, 1, 0).divides(t(1, 1, 0))
        assert not t(0, 2, 0).divides(t(1, 1, 0))
        assert t(2, 1, 0).divides(t(5, 1, 0))

    def test_quotient(self):
        assert t(5, 1, 0) / t(2, 1, 0) == t(3, 0, 0)
        with pytest.raises(ValueError):
            t(1, 0) / t(2, 0)


class TestParseFormat:
    def test_examples(self):
        assert parse_term("x3^2*x1^2", 3) == t(2, 0, 2)
        assert parse_term("1", 3) == t(0, 0, 0)
        assert parse_term("[2,1,0]", 3) == t(2, 1, 0)

    def test_whitespace_and_comment(self):
        assert parse_term("  x1 ^ 2 * x2  # trailing", 2) == t(2, 1)

    def test_roundtrip(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(1, 4)
            a = random_term(rng, n, 6)
            assert parse_term(format_term(a), n) == a

    def test_syntax_error_position(self):
        with pytest.raises(TermSyntaxError) as info:
            parse_term("x1^2*y3", 3)
        assert info.value.position == 5

    def test_index_out_of_range(self):
        with pytest.raises(TermSyntaxError):
            parse_term("x4", 3)
        with pytest.raises(TermSyntaxError):
            parse_term("x0", 3)

    def test_exponent_cap(self):
        with pytest.raises(TermSyntaxError):
            parse_term(f"x1^{MAX_EXPONENT + 1}", 1)
        assert parse_term(f"x1^{MAX_EXPONENT}", 1).deg(1) == MAX_EXPONENT

    def test_repeated_factor_accumulates(self):
        assert parse_term("x1*x1^2", 2) == t(3, 0)

    def test_bad_bracket_length(self):
        with pytest.raises(TermSyntaxError):
            parse_term("[1,2]", 3)

    def test_unit_is_alone(self):
        with pytest.raises(TermSyntaxError):
            parse_term("1*x2", 3)


class TestTermSet:
    def test_sorted_and_deduplicated(self):
        ts = TermSet(3, [t(0, 1, 1), t(1, 0, 0), t(0, 1, 1), t(2, 0, 0)])
        assert ts.terms == (t(1, 0, 0), t(2, 0, 0), t(0, 1, 1))

    def test_dimension_check(self):
        with pytest.raises(DimensionError):
            TermSet(3, [t(1, 0)])

    def test_order_ideal_detection(self):
        assert TermSet(3, [t(0, 0, 0), t(1, 0, 0), t(0, 1, 0), t(0, 0, 1)]).is_order_ideal()
        assert not TermSet(3, [t(1, 0, 0)]).is_order_ideal()
        assert not TermSet(3, [t(0, 0, 0), t(0, 1, 1)]).is_order_ideal()

    def test_bounding_box(self):
        ts = TermSet(2, [t(1, 3), t(4, 0)])
        assert ts.bounding_box() == (4, 3)

    def test_box_terms_lex_increasing(self):
        terms = list(box_terms((2, 1)))
        assert len(terms) == 6
        assert sorted(terms) == terms


class TestTermSetParsing:
    def test_header(self):
        ts = parse_term_set("vars: 3\nx1\nx2*x3\n")
        assert ts.nvars == 3 and len(ts) == 2

    def test_inferred_vars(self):
        ts = parse_term_set("x1\nx3^2\n")
        assert ts.nvars == 3

    def test_bracket_fixes_vars(self):
        ts = parse_term_set("[1,0,0]\nx2\n")
        assert ts.nvars == 3

    def test_inconsistent_brackets(self):
        with pytest.raises(TermSyntaxError):
            parse_term_set("[1,0]\n[1,0,0]\n")

    def test_line_number_in_error(self):
        with pytest.raises(TermSyntaxError) as info:
            parse_term_set("vars: 2\nx1\nx9\n")
        assert info.value.line == 3

    def test_vars_limit_is_inclusive(self):
        ts = parse_term_set(f"vars: {MAX_VARS}\nx{MAX_VARS}\n")
        assert ts.nvars == MAX_VARS
        assert parse_term_set(f"x{MAX_VARS}\n").nvars == MAX_VARS

    @pytest.mark.parametrize(
        "text",
        [
            f"vars: {MAX_VARS + 1}\nx1\n",
            "vars: " + "9" * 5000 + "\nx1\n",
            "vars: 0\nx1\n",
            f"x1\nx{MAX_VARS + 1}\n",
            "x" + "9" * 5000 + "\n",
            "[" + ",".join(["0"] * (MAX_VARS + 1)) + "]\n",
        ],
    )
    def test_vars_over_limit_rejected(self, text):
        with pytest.raises(TermSyntaxError):
            parse_term_set(text)

    def test_overlong_exponent_rejected(self):
        with pytest.raises(TermSyntaxError):
            parse_term("x1^" + "9" * 5000, 1)
