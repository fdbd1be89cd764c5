import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barjanet import (
    DimensionError,
    MAX_EXPONENT,
    MAX_VARS,
    Term,
    TermSet,
    TermSyntaxError,
    format_term,
    lex_compare,
    parse_term,
    parse_term_set,
)
from barjanet.cli import main
from barjanet.terms import (
    _exponent_text,
    _read_line,
    format_exponents,
    format_power,
    read_term_line,
    variable_text,
)
from helpers import (
    divisor_closure,
    grown_order_ideal,
    random_term,
    sparse_ci_terms,
    sparse_ci_text,
)
from oracles import box_terms


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

    def test_format_exponents_equals_format_term(self):
        rng = random.Random(6)
        vectors = [(0,), (0, 0, 0, 0), (1,), (0, 1, 0), (12, 0, 1, 0, 7)]
        vectors += [random_term(rng, rng.randint(1, 6), 3).exponents for _ in range(300)]
        for e in vectors:
            assert format_exponents(e) == format_term(Term(e))
            assert format_exponents(iter(e)) == format_term(Term(e))
        assert format_exponents((0, 0, 0)) == "1"

    def test_texts_past_the_kept_ones(self):
        # x_i and ^e texts are kept up to fixed bounds; past them the output
        # is the same, and no more are kept
        rng = random.Random(8)
        for _ in range(2):
            for _ in range(3000):
                i, e = rng.randint(1, 3 * MAX_VARS), rng.choice([1, 2, rng.randint(1, 10**9)])
                assert format_power(i, e) == (f"x{i}" if e == 1 else f"x{i}^{e}")
            for n in (1, 5, 2 * MAX_VARS):
                e = tuple(rng.choice([0, 0, 1, rng.randint(2, 10**6)]) for _ in range(n))
                expected = "*".join(
                    f"x{i}" if k == 1 else f"x{i}^{k}" for i, k in enumerate(e, 1) if k
                )
                assert format_term(Term(e)) == format_exponents(iter(e)) == (expected or "1")
        assert variable_text.cache_info().currsize <= MAX_VARS
        assert _exponent_text.cache_info().currsize <= _exponent_text.cache_info().maxsize

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
        assert parse_term(f"x1^{MAX_EXPONENT}", 1).exponents[0] == MAX_EXPONENT

    def test_repeated_factor_accumulates(self):
        assert parse_term("x1*x1^2", 2) == t(3, 0)

    def test_bad_bracket_length(self):
        with pytest.raises(TermSyntaxError):
            parse_term("[1,2]", 3)

    def test_unit_is_alone(self):
        with pytest.raises(TermSyntaxError):
            parse_term("1*x2", 3)

    @pytest.mark.parametrize(
        "text,column",
        [("12", 2), ("1 2", 3), ("10", 2), ("1x1", 2), ("1*x1", 2), ("1]", 2)],
    )
    def test_text_after_unit(self, text, column):
        with pytest.raises(TermSyntaxError) as info:
            parse_term(text, 2)
        assert str(info.value) == f"unexpected text after '1' (column {column})"
        assert info.value.position == column - 1


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

    def test_order_ideal_is_full_divisor_closure(self):
        # the oracle: every term of the box below each member is a member
        def closed(ts):
            return all(d in ts for u in ts for d in box_terms(u.exponents))

        rng = random.Random(2601)
        cases = [TermSet(n, [Term.one(n)]) for n in (1, 5)]  # {1}
        cases.append(TermSet(3, [t(1, 0, 0), t(0, 1, 0), t(0, 0, 1)]))  # no 1
        holes = []
        for n in range(1, 6):
            cases += [
                TermSet(n, {random_term(rng, n, 2) for _ in range(rng.randint(1, 10))})
                for _ in range(20)
            ]
            for _ in range(4):
                ideal = grown_order_ideal(rng, n, rng.randint(1, 16))
                cases.append(ideal)
                m = ideal.terms[-1]  # lex-last, so no m*x_w is a member
                for v in {0, n - 1}:  # a quotient missing at x_1 and at x_n
                    u = Term(m.exponents[:v] + (m.exponents[v] + 1,) + m.exponents[v + 1 :])
                    grown = divisor_closure(TermSet(n, [*ideal, u]))
                    holes.append(TermSet(n, set(grown) - {m}))  # only u/x_v is missing
        for ts in cases + holes:
            assert ts.is_order_ideal() == closed(ts), ts
        assert not any(hole.is_order_ideal() for hole in holes)

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


def read_outcome(reader, text, nvars):
    """The term a line reader returns, or its error's message, position and
    line."""
    try:
        return reader(text, nvars, 7)
    except TermSyntaxError as exc:
        return (str(exc), exc.position, exc.line)


# Single characters of the term grammar and near misses: a no-break space,
# an Arabic-Indic three (a decimal digit) and a superscript two (not one).
CHARS = ["x", "^", "*", "1", "[", "]", ",", "#", " ", "\t", "\u00a0", "0", "2",
         "9", "\u0663", "\u00b2"]
NUMBERS = [
    "0", "1", "2", "3", "4", "12", "01", "\u0663", "\u0661\u0662", "2\u0663",
    "\u00b2", "0" * 19 + "2", "9" * 19, "1" * 40, str(MAX_EXPONENT),
    str(MAX_EXPONENT + 1), str(MAX_EXPONENT // 2 + 1),
]
SPACE = st.sampled_from(["", "", " ", "\t", " \t"])
FACTOR = st.builds(
    lambda a, i, b, c, k: f"x{a}{i}" + ("" if k is None else f"{b}^{c}{k}"),
    SPACE, st.sampled_from(NUMBERS), SPACE, SPACE,
    st.none() | st.sampled_from(NUMBERS),
)
PRODUCT = st.builds(
    lambda a, factors, sep, b: a + sep.join(factors) + b,
    SPACE, st.lists(FACTOR, min_size=1, max_size=4), st.sampled_from(["*", " * ", "*\t"]),
    SPACE,
)
ANY_LINE = st.lists(st.sampled_from(CHARS), max_size=12).map("".join)


class TestLineReader:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(PRODUCT, ANY_LINE), st.integers(1, 4))
    def test_agrees_with_parse_term(self, text, nvars):
        assert read_outcome(read_term_line, text, nvars) == read_outcome(
            parse_term, text, nvars
        )

    @pytest.mark.parametrize(
        "text",
        [
            "x" + "0" * 20 + "1",
            "x1^" + "0" * 30 + "5",
            "x1^" + "9" * 19,
            "x" + "9" * 19,
            "x0",
            "x4",
            "x2*x0^3",
            f"x1^{MAX_EXPONENT}*x1",
            f"x2^{MAX_EXPONENT // 2 + 1}*x1*x2^{MAX_EXPONENT // 2}",
            f"x3^{MAX_EXPONENT}*x3^0",
            "x\u0663^\u0661\u0662",
            "x1^\u00b2",
            "x1 ^ 2 * x2 # comment",
            "1",
            "[1,2,3]",
            "",
        ],
    )
    def test_edge_lines_agree_with_parse_term(self, text):
        assert read_outcome(read_term_line, text, 3) == read_outcome(parse_term, text, 3)

    def test_product_lines_skip_parse_term(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("fell back to parse_term")

        lines = ["x1", "x3^12*x1", " x2 ^ 3 * x\t2\t", f"x1^{MAX_EXPONENT}", "x\u0663^\u0662"]
        expected = [parse_term(line, 3) for line in lines]
        monkeypatch.setattr("barjanet.terms.parse_term", refuse)
        assert [read_term_line(line, 3) for line in lines] == expected

    def test_term_set_errors_keep_their_line(self):
        with pytest.raises(TermSyntaxError) as info:
            parse_term_set(f"vars: 2\nx1\nx2^{MAX_EXPONENT}*x2\n")
        assert str(info.value) == (
            f"exponent of x2 exceeds the cap {MAX_EXPONENT} (line 3, column 16)"
        )


def set_outcome(text):
    """The term set parse_term_set reads, or its error's message, position
    and line."""
    try:
        return parse_term_set(text)
    except TermSyntaxError as exc:
        return (str(exc), exc.position, exc.line)


def oracle_set_outcome(lines, nvars):
    """set_outcome of lines under a "vars: nvars" header, each line read by
    parse_term on its own."""
    terms = []
    for line_no, raw in enumerate(lines, 2):
        body = raw.split("#", 1)[0].strip()
        if body:
            try:
                terms.append(parse_term(body, nvars, line_no))
            except TermSyntaxError as exc:
                return (str(exc), exc.position, exc.line)
    return TermSet(nvars, terms)


def term_file(lines, nvars):
    return f"vars: {nvars}\n" + "\n".join(lines) + "\n"


# Files whose pieces repeat: across lines, in whitespace variants, and as
# lines that are not products ("1", exponent lists) read by parse_term.
REPEATING_FILES = [
    (["x2^3", " x2^3", "x2^3\t", "x2 ^ 3", "x 2^3", "x1*x2^3", "x1 * x2^3 ", "x2^3*x1"], 3),
    (["[0,1,0]", "x3", "[0,1,0]", "x3*x1", "x1^2*x1^2", "x1^4"], 3),
    (["1", "x2", "1", "x2*x3"], 3),
    (["x1*x2", "x1*x2*x9", "x1"], 3),
    (["x3^2*x1", "x2*x2", f"x1^{MAX_EXPONENT}", f"x1^{MAX_EXPONENT}*x1"], 3),
    (["x1^" + "9" * 19, "x1^2"], 2),
    ([format_term(random_term(random.Random(k), 4, 3)) for k in range(60)], 4),
]


class TestPieceDict:
    """parse_term_set reads each distinct piece of a file once, through a dict
    of the call keyed by the piece's exact text."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(PRODUCT, ANY_LINE), max_size=8), st.integers(1, 4))
    def test_agrees_with_parse_term_line_by_line(self, lines, nvars):
        lines = lines + lines[::-1]
        assert set_outcome(term_file(lines, nvars)) == oracle_set_outcome(lines, nvars)

    @pytest.mark.parametrize("lines,nvars", REPEATING_FILES)
    def test_repeating_files_agree_with_parse_term(self, lines, nvars):
        assert set_outcome(term_file(lines, nvars)) == oracle_set_outcome(lines, nvars)

    @pytest.mark.parametrize("cap", [0, 1])
    def test_cap_does_not_change_results(self, monkeypatch, cap):
        expected = [set_outcome(term_file(lines, nvars)) for lines, nvars in REPEATING_FILES]
        monkeypatch.setattr("barjanet.terms._MAX_PIECES", cap)
        got = [set_outcome(term_file(lines, nvars)) for lines, nvars in REPEATING_FILES]
        assert got == expected

    def test_keys_are_the_exact_pieces_read(self):
        pieces = {}
        for line in REPEATING_FILES[0][0]:
            _read_line(line, 3, None, pieces)
        read = {"x2^3", " x2^3", "x2^3\t", "x2 ^ 3", "x 2^3", "x1", "x1 ", " x2^3 "}
        assert set(pieces) == read
        assert {pieces[p][:2] for p in read - {"x1", "x1 "}} == {(1, 3)}
        # the third entry is the index - 1 of a piece spelled as format_power spells it, else -1
        assert {p for p in read if pieces[p][2] != -1} == {"x2^3", "x1"}
        assert pieces["x2^3"][2] == 1 and pieces["x1"][2] == 0
        # a piece that parse_term reads or rejects is never kept
        for line in ["1", "[0,1,0]", " x4", "x^2", "x1^" + "9" * 19, "x\ufeff1"]:
            read_outcome(lambda *args: _read_line(*args, pieces), line, 3)
        assert set(pieces) == read

    def test_later_call_with_fewer_variables(self):
        assert parse_term_set("vars: 3\nx3\n") == TermSet(3, [t(0, 0, 1)])
        with pytest.raises(TermSyntaxError) as info:
            parse_term_set("vars: 2\nx3\n")
        assert info.value.line == 2
        assert str(info.value) == "variable index 3 exceeds 2 variables (line 2, column 2)"

    def test_product_lines_skip_parse_term(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("fell back to parse_term")

        lines = ["x1", "x3^12*x1", " x2 ^ 3 * x\t2\t", f"x1^{MAX_EXPONENT}", "x\u0663^\u0662",
                 "x1", "x3^12 * x1"]
        expected = TermSet(3, [parse_term(line, 3) for line in lines])
        monkeypatch.setattr("barjanet.terms.parse_term", refuse)
        assert parse_term_set(term_file(lines, 3)) == expected

    def test_distinct_pieces_stay_within_the_cap(self):
        """Every piece of this file is new. The pieces kept are bounded, so the
        peak stays near that of reading each line on its own, which keeps no
        piece past its line: the same peak as a cap of 0, and a quarter of the
        peak of keeping every piece."""
        rng = random.Random(3)
        columns = [rng.sample(range(2, 10**6), 200) for _ in range(MAX_VARS)]
        text = f"vars: {MAX_VARS}\n" + "".join(
            "*".join(f"x{v}^{column[k]}" for v, column in enumerate(columns, 1)) + "\n"
            for k in range(200)
        )

        def peak(parse):
            tracemalloc.start()
            try:
                parse()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def line_by_line():
            lines = enumerate(text.splitlines()[1:], 2)
            return TermSet(MAX_VARS, [read_term_line(body, MAX_VARS, k) for k, body in lines])

        assert peak(lambda: parse_term_set(text)) <= 1.2 * peak(line_by_line)


def inferred_oracle_outcome(lines):
    """set_outcome of a headerless file by the definition: n is the largest
    "x<digits>" index of its non-list lines (comments dropped) or the common
    length of its exponent lists, and then each line is read by parse_term."""
    content = [(k, raw.split("#", 1)[0].strip()) for k, raw in enumerate(lines, 1)]
    content = [(k, body) for k, body in content if body]
    lengths = {body.count(",") + 1 for _, body in content if body.startswith("[")}
    indices = [
        MAX_VARS + 1 if len(digits) > 18 else min(int(digits), MAX_VARS + 1)
        for _, body in content
        if not body.startswith("[")
        for digits in [d.lstrip("0") or "0" for d in re.findall(r"x\s*(\d+)", body)]
    ]
    max_index = max(indices, default=0)
    try:
        if max(lengths | {max_index}) > MAX_VARS:
            raise TermSyntaxError(f"more than {MAX_VARS} variables, the limit")
        if len(lengths) > 1:
            raise TermSyntaxError("exponent lists of different lengths; add a 'vars: n' header")
        nvars = lengths.pop() if lengths else max(max_index, 1)
        if max_index > nvars:
            raise TermSyntaxError(
                f"variable index {max_index} exceeds exponent-list length {nvars}"
            )
        return TermSet(nvars, [parse_term(body, nvars, k) for k, body in content])
    except TermSyntaxError as exc:
        return (str(exc), exc.position, exc.line)


def headerless(lines):
    return "\n".join(lines) + "\n"


class TestHeaderlessRead:
    """Without a header, n is the largest "x<digits>" index among the file's
    distinct pieces, searched a bounded batch at a time, or the length of its
    exponent lists; the lines are then read as under a header."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(PRODUCT, ANY_LINE), max_size=8))
    def test_agrees_with_the_definition(self, lines):
        lines = lines + lines[::-1]
        assert set_outcome(headerless(lines)) == inferred_oracle_outcome(lines)

    @pytest.mark.parametrize(
        "lines",
        [lines for lines, _ in REPEATING_FILES]
        + [
            ["x1", f"x{MAX_VARS + 1}", "x1^" + "9" * 19],
            ["x1^" + "9" * 19, f"x2x{MAX_VARS + 1}"],
            ["x0^2", "x" + "0" * 30 + "3"],
            ["x0"],
            ["[1,2]", "x3"],
            ["[1,2]", "[1,2,3]", f"x{MAX_VARS + 1}"],
            ["x2 # x99", "1", "  # x7"],
            ["x٣^2", "x1*x1"],
            ["x1*x2^3", "x 2 ^ 3 * x1", "x2^3x5"],
        ],
    )
    def test_edge_files_agree_with_the_definition(self, lines):
        assert set_outcome(headerless(lines)) == inferred_oracle_outcome(lines)

    def test_same_set_as_with_the_header(self):
        rng = random.Random(421)
        for _ in range(200):
            n = rng.randint(1, 6)
            terms = {random_term(rng, n, 4) for _ in range(rng.randint(0, 20))}
            terms |= {Term.one(n), Term.variable(n, n, rng.randint(1, 4))}
            lines = []
            for u in terms:
                factors = [f"x{i}^{e}" for i, e in enumerate(u.exponents, 1) if e]
                rng.shuffle(factors)
                line = rng.choice(
                    [
                        format_term(u),
                        " * ".join(factors) or "1",
                        "[" + ",".join(map(str, u.exponents)) + "]",
                    ]
                )
                lines.append(line + rng.choice(["", "  # x99", "#"]))
                if rng.random() < 0.2:
                    lines.append(rng.choice(["", "# x12 comment", "   "]))
            body = headerless(lines)
            expected = TermSet(n, terms)
            assert parse_term_set(body) == expected
            assert parse_term_set(f"vars: {n}\n" + body) == expected

    def test_sparse_ci_input_without_its_header(self):
        # the x1024 line makes the inferred n the declared one
        text = sparse_ci_text() + "\nx1024\n"
        expected = TermSet(1024, [*sparse_ci_terms(), Term.variable(1024, 1024)])
        assert parse_term_set(text) == expected
        assert parse_term_set(text.split("\n", 1)[1]) == expected

    @pytest.mark.parametrize("cap", [0, 1])
    def test_cap_does_not_change_results(self, monkeypatch, cap):
        files = [headerless(lines) for lines, _ in REPEATING_FILES]
        expected = [set_outcome(text) for text in files]
        monkeypatch.setattr("barjanet.terms._MAX_PIECES", cap)
        assert [set_outcome(text) for text in files] == expected

    def test_product_lines_skip_parse_term(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("fell back to parse_term")

        lines = ["x1", "x3^12*x1", " x2 ^ 3 * x\t2\t", f"x1^{MAX_EXPONENT}", "x1"]
        expected = TermSet(3, [parse_term(line, 3) for line in lines])
        monkeypatch.setattr("barjanet.terms.parse_term", refuse)
        assert parse_term_set(headerless(lines)) == expected

    def test_distinct_pieces_stay_within_the_cap(self):
        # n is read off the pieces a bounded batch at a time, so a file whose
        # pieces never repeat peaks as it does with its header
        rng = random.Random(4)
        columns = [rng.sample(range(2, 10**6), 40) for _ in range(MAX_VARS)]
        text = "".join(
            "*".join(f"x{v}^{column[k]}" for v, column in enumerate(columns, 1)) + "\n"
            for k in range(40)
        )

        def peak(text):
            tracemalloc.start()
            try:
                parse_term_set(text)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert parse_term_set(text) == parse_term_set(f"vars: {MAX_VARS}\n" + text)
        assert peak(text) <= 1.2 * peak(f"vars: {MAX_VARS}\n" + text)

    def test_vars_limit_comes_before_any_term(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a term was read")

        monkeypatch.setattr("barjanet.terms._read_line", refuse)
        with pytest.raises(TermSyntaxError) as info:
            parse_term_set(f"x1^{MAX_EXPONENT + 1}\n1/0\nx{MAX_VARS + 1}\n")
        assert str(info.value) == f"more than {MAX_VARS} variables, the limit"


def is_canonical(body, u):
    """True when the product line body is the text format_term gives u; "1"
    is read by parse_term, which keeps no text."""
    return body != "1" and body == format_exponents(u.exponents)


def check_text(u, body):
    """u, just read from the line body, holds body as its text exactly when
    body is canonical; format_term's text is format_exponents' either way."""
    assert u._text == (body if is_canonical(body, u) else None)
    assert format_term(u) == format_exponents(u.exponents)
    assert u._text == format_exponents(u.exponents)  # kept after the first use


EXPONENTS = st.lists(st.integers(0, 3), min_size=1, max_size=4)
LINE = st.one_of(
    EXPONENTS.map(format_exponents),
    EXPONENTS.map(lambda e: "[" + ",".join(map(str, e)) + "]"),
    st.lists(st.sampled_from(["x1", "x2", "x3", "x1^2", "x3^3"]), min_size=1, max_size=4).map("*".join),
    PRODUCT,
    ANY_LINE,
)
# whitespace, leading zeros, ^1, ^0, repeated and unordered indices, exponent
# lists, "1", a comment, and canonical lines
CANONICAL_TEXT_FILES = [
    ["x1^2*x3", "x3 * x1^1", "x01^2", "x1^0*x2", "x2*x1*x2", "x2^1", "x1*x1",
     "[0,0,1]", "1", "x1*x2 # a comment", " x2^5", "x2^5*x3^0", "x1*x3^12"],
    ["x1", "x1 ", "x 1", "x1^01", "x1^1", "x1^0", "x\u0661", "x1*x2*x3", "x3*x2*x1"],
    ["x2*x3", "x2*x3", "x3*x2", "x1^3*x2^2", "x1^3 *x2^2", "[3,2,0]", "x1^3*x2^2"],
    [format_term(random_term(random.Random(k), 3, 4)) for k in range(40)],
]


class TestCanonicalText:
    """A term read from a canonical product line keeps that line as its text,
    and every other term is formatted on first use."""

    @settings(max_examples=400, deadline=None)
    @given(LINE, st.integers(1, 4))
    def test_line_reader(self, text, nvars):
        try:
            u = read_term_line(text, nvars)
        except TermSyntaxError:
            return
        check_text(u, text)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(LINE, max_size=8), st.integers(1, 4), st.booleans())
    def test_term_set_reader(self, lines, nvars, header):
        self.check_file(lines, nvars if header else None)

    @pytest.mark.parametrize("lines", CANONICAL_TEXT_FILES)
    @pytest.mark.parametrize("nvars", [3, None])
    def test_seeded_files(self, lines, nvars):
        self.check_file(lines, nvars)

    @staticmethod
    def check_file(lines, nvars):
        """Each term of the file against the first line it is read from,
        the one TermSet keeps of equal terms."""
        try:
            ts = parse_term_set(headerless(lines) if nvars is None else term_file(lines, nvars))
        except TermSyntaxError:
            return
        first = {}
        for raw in lines:
            body = raw.split("#", 1)[0].strip()
            if body:
                first.setdefault(parse_term(body, ts.nvars), body)
        for u in ts:
            check_text(u, first[u])

    def test_which_terms_keep_their_line(self):
        ts = parse_term_set(term_file(CANONICAL_TEXT_FILES[0], 3))
        assert {u.exponents: u._text for u in ts} == {
            (2, 0, 1): "x1^2*x3",
            (1, 0, 1): None,
            (2, 0, 0): None,
            (0, 1, 0): None,
            (1, 2, 0): None,
            (0, 0, 1): None,
            (0, 0, 0): None,
            (1, 1, 0): "x1*x2",
            (0, 5, 0): "x2^5",
            (1, 0, 12): "x1*x3^12",
        }

    def test_a_term_is_formatted_once(self, monkeypatch):
        calls = []

        def counting(exponents):
            calls.append(tuple(exponents))
            return format_exponents(calls[-1])

        monkeypatch.setattr("barjanet.terms.format_exponents", counting)
        u = t(2, 0, 1)
        assert [format_term(u), str(u), format_term(u)] == ["x1^2*x3"] * 3
        assert calls == [(2, 0, 1)]

    @pytest.mark.parametrize("command", ["nmp", "corners", "render"])
    def test_output_formats_no_input_term(self, tmp_path, capsys, monkeypatch, command):
        rng = random.Random(22)
        terms = {tuple(rng.randint(0, 6) for _ in range(4)) for _ in range(300)} - {(0,) * 4}
        path = tmp_path / "canonical.terms"
        path.write_text("vars: 4\n" + "".join(format_exponents(e) + "\n" for e in terms))
        calls = []

        def counting(exponents):
            calls.append(tuple(exponents))
            return format_exponents(calls[-1])

        monkeypatch.setattr("barjanet.terms.format_exponents", counting)
        for options in [[], ["--format", "json"]]:
            assert main([command, str(path), *options]) == 0
            assert capsys.readouterr().out
        assert calls == []


# powers over the cap, at it, and sums over it, spelled canonically or not;
# the last file reads some of the pieces on earlier lines first
CAP_FILES = [
    [f"x1^{MAX_EXPONENT + 1}"],
    [f"x2^{MAX_EXPONENT + 1}*x3"],
    ["x1*x3^" + "9" * 18],
    [f"x2^{MAX_EXPONENT}*x3^{MAX_EXPONENT}"],
    [f"x1^{MAX_EXPONENT}*x1"],
    [f"x3*x1^{MAX_EXPONENT}*x1"],
    ["x1", f"x1^{MAX_EXPONENT}", f"x2^{MAX_EXPONENT}*x3^{MAX_EXPONENT}", f"x3*x1^{MAX_EXPONENT}*x1"],
]


class TestCapScan:
    """A canonical line holds each index once and each power within the cap,
    so only lines that are not canonical are scanned for a sum over it."""

    @pytest.mark.parametrize("lines", CAP_FILES)
    def test_cap_files_agree_with_parse_term(self, lines):
        got = set_outcome(term_file(lines, 3))
        assert got == oracle_set_outcome(lines, 3)
        if isinstance(got, TermSet):
            TestCanonicalText.check_file(lines, 3)  # x2^cap*x3^cap keeps its line

    def test_canonical_lines_skip_the_constructor_and_the_scan(self, monkeypatch):
        rng = random.Random(24)
        terms = [random_term(rng, 5, 9) for _ in range(2000)]
        terms = [u for u in terms if sum(map(bool, u.exponents)) >= 2][:500]
        canonical = [format_term(u) for u in terms]
        respelled = [" * ".join(line.split("*")) for line in canonical]
        valid, maxes = [], []
        original = Term._valid
        monkeypatch.setattr(
            Term, "_valid", classmethod(lambda cls, *args: valid.append(args) or original(*args))
        )
        monkeypatch.setattr("barjanet.terms.max", lambda *args: maxes.append(args) or max(*args),
                            raising=False)
        read = parse_term_set(term_file(canonical, 5))
        assert (len(terms), valid, maxes) == (500, [], [])
        respelled_read = parse_term_set(term_file(respelled, 5))
        assert (len(valid), len(maxes)) == (0, 500)
        assert read == respelled_read == TermSet(5, terms)
        monkeypatch.undo()
        assert [u._text for u in read] == [format_exponents(u.exponents) for u in read]
        assert {u._text for u in respelled_read} == {None}
        for u in [*read, *respelled_read]:
            v = Term._valid(u.exponents, u._text)
            assert (u.exponents, u._rev, u._hash, u._text) == (v.exponents, v._rev, v._hash, v._text)


def valid_vectors(seed):
    """Valid exponent tuples in 1 to MAX_VARS variables, with 0 and
    MAX_EXPONENT common."""
    rng = random.Random(seed)
    vectors = [(0,), (MAX_EXPONENT,), (0,) * MAX_VARS, (MAX_EXPONENT,) * MAX_VARS]
    for _ in range(400):
        n = rng.choice([1, 2, 3, 4, 6, rng.randint(1, MAX_VARS), MAX_VARS])
        choices = [0, 0, MAX_EXPONENT, 1, rng.randint(0, MAX_EXPONENT)]
        vectors.append(tuple(rng.choice(choices) for _ in range(n)))
    return vectors


class TestValidConstructor:
    """Term._valid skips the checks of Term(...), for exponents that are valid
    by construction; on valid input the two build equal terms."""

    def test_agrees_with_the_checked_constructor(self):
        vectors = valid_vectors(431)
        fast = [Term._valid(e) for e in vectors]
        checked = [Term(e) for e in vectors]
        for a, b in zip(fast, checked):
            assert a == b and b == a and not a != b
            assert hash(a) == hash(b)
            assert str(a) == str(b) and repr(a) == repr(b)
            assert (a.exponents, a._rev) == (b.exponents, b._rev)
        rng = random.Random(433)
        for _ in range(2000):
            j, k = rng.randrange(len(vectors)), rng.randrange(len(vectors))
            if len(vectors[j]) == len(vectors[k]):
                assert lex_compare(fast[j], fast[k]) == lex_compare(checked[j], checked[k])
                assert (fast[j] < checked[k]) == (checked[j] < checked[k])
                assert (fast[j] >= fast[k]) == (checked[j] >= checked[k])
        for n in {len(e) for e in vectors}:
            same = [j for j, e in enumerate(vectors) if len(e) == n]
            assert sorted(fast[j] for j in same) == sorted(checked[j] for j in same)
            assert TermSet(n, (fast[j] for j in same)) == TermSet(n, (checked[j] for j in same))

    @pytest.mark.parametrize(
        "exponents,error",
        [
            ((True,), TypeError),
            ((0, False), TypeError),
            ((1.0,), TypeError),
            ((-1,), ValueError),
            ((0, 0, -5), ValueError),
            ((MAX_EXPONENT + 1,), ValueError),
            ((0, 2**64), ValueError),
            ((), DimensionError),
        ],
    )
    def test_checked_constructor_still_rejects(self, exponents, error):
        with pytest.raises(error):
            Term(exponents)
        with pytest.raises(error):
            Term(iter(exponents))
