import random

import pytest

from barjanet import (
    INF,
    BarCode,
    CornerVector,
    Term,
    TermSet,
    complete,
    infinite_corners,
    nmp_table,
    parse_term,
    parse_term_set,
)
from barjanet.barcode import corner_texts, power_texts
from barjanet.terms import format_power
from helpers import (
    benchmark_shaped_sets,
    grown_order_ideal,
    in_semigroup_ideal,
    random_term,
    random_term_set,
    sparse_wide_sets,
)
from oracles import (
    box_terms,
    corners_by_definition,
    janet_like_divisors,
    multiplicative_variables,
    nmp_table_bruteforce,
)


def assert_line_texts(ts, table, corners):
    """power_texts and corner_texts of ts equal, line by line, the format of
    the table's powers and of the corner vectors."""
    bc = BarCode.build(ts)
    powers = [", ".join(format_power(i, k) for i, k in p.items()) for p in table.values()]
    assert power_texts(bc) == powers
    assert corner_texts(bc) == [vec.format() for vec in corners.values()]


# k[x, y] with x below y: x = x1, y = x2
PLANE = parse_term_set("vars: 2\nx2^3\nx1*x2\nx1^2\n")


def p2(text):
    return parse_term(text, 2)


class TestPlaneExample:
    def test_top_term_unbounded(self):
        corners = infinite_corners(PLANE)
        assert corners[p2("x2^3")] == CornerVector((INF, INF))

    def test_middle_term(self):
        corners = infinite_corners(PLANE)
        assert corners[p2("x1*x2")] == CornerVector((INF, 2))

    def test_bottom_term(self):
        # the cone of x1^2 admits no extra power of x2 at all
        corners = infinite_corners(PLANE)
        assert corners[p2("x1^2")] == CornerVector((INF, 0))


class TestGeneralProperties:
    def test_singleton_all_infinite(self):
        ts = TermSet(3, [Term((1, 2, 0))])
        vec = infinite_corners(ts)[Term((1, 2, 0))]
        assert vec.entries == (INF, INF, INF)

    def test_infinite_iff_multiplicative(self):
        rng = random.Random(211)
        for _ in range(100):
            ts = random_term_set(rng, max_vars=4, max_terms=15, max_exp=4)
            corners = infinite_corners(ts)
            for t in ts:
                mult = multiplicative_variables(ts, t)
                for i in range(1, ts.nvars + 1):
                    assert (corners[t].entries[i - 1] is INF) == (i in mult)

    def test_lex_max_gets_all_infinite(self):
        rng = random.Random(223)
        for _ in range(100):
            ts = random_term_set(rng, max_vars=4, max_terms=15, max_exp=4)
            top = ts.terms[-1]
            assert infinite_corners(ts)[top].entries == (INF,) * ts.nvars

    def test_finite_entries_describe_cone_membership(self):
        rng = random.Random(227)
        for _ in range(30):
            ts = random_term_set(rng, max_vars=3, max_terms=8, max_exp=3)
            done, _ = complete(ts)
            table = nmp_table(done)
            corners = infinite_corners(done, table)
            bounds = tuple(b + 1 for b in done.bounding_box())
            for t in done:
                vec = corners[t]
                ann = table[t]
                for v in box_terms(bounds):
                    if not t.divides(v):
                        continue
                    q = v / t
                    ok_direction = all(
                        q.exponents[i - 1] == 0
                        or vec.entries[i - 1] is INF
                        or v.exponents[i - 1] <= vec.entries[i - 1]
                        for i in range(1, done.nvars + 1)
                    )
                    if ok_direction:
                        assert t in janet_like_divisors(done, v, table)

    def test_cones_tile_ideal_on_complete_sets(self):
        rng = random.Random(229)
        for _ in range(30):
            ts = random_term_set(rng, max_vars=3, max_terms=8, max_exp=3)
            done, _ = complete(ts)
            table = nmp_table(done)
            bounds = tuple(b + 2 for b in done.bounding_box())
            for w in box_terms(bounds):
                count = len(janet_like_divisors(done, w, table))
                assert count == (1 if in_semigroup_ideal(done, w) else 0)

    def test_equal_corners_of_the_definitional_table(self):
        rng = random.Random(233)
        sets = [TermSet(1, [Term((e,)) for e in (0, 3, 4, 9)]), TermSet(6, [Term((1,) * 6)])]
        for nvars in (4, 5, 6):
            sets.append(TermSet(nvars, [random_term(rng, nvars, 5) for _ in range(250)]))
            sets.append(grown_order_ideal(rng, nvars, 200))
        for ts in sets:
            assert infinite_corners(ts) == corners_by_definition(ts, nmp_table_bruteforce(ts))

    def test_text_form(self):
        assert CornerVector((INF, 2)).format() == "x1^inf*x2^2"
        assert CornerVector((3, INF, 0)).format() == "x1^3*x2^inf*x3^0"

    def test_text_form_past_the_kept_texts(self):
        # more distinct variables and entries than the kept texts hold, twice
        rng = random.Random(151)
        for _ in range(2):
            for _ in range(300):
                n = rng.choice([1, 3, 6, 1500])
                entries = tuple(
                    rng.choice([INF, 0, 1, rng.randint(0, 10**6)]) for _ in range(n)
                )
                expected = "*".join(
                    f"x{i}^{'inf' if e is INF else e}" for i, e in enumerate(entries, 1)
                )
                assert CornerVector(entries).format() == expected
                assert str(CornerVector(entries)) == expected


class TestCornerOracle:
    """infinite_corners reads each term's vector off the lex-next term's; the
    oracle builds every vector from its own powers alone."""

    @pytest.fixture(scope="class")
    def cases(self):
        """(set, definitional table): random sets in 1-6 variables, sets
        shaped like the annotate benchmark's, and sparse sets in 64-1,024
        variables."""
        rng = random.Random(239)
        sets = [random_term_set(rng, max_vars=6, max_terms=40, max_exp=5) for _ in range(150)]
        sets += [*benchmark_shaped_sets(241), *sparse_wide_sets(251)]
        return [(ts, nmp_table_bruteforce(ts)) for ts in sets]

    def test_equals_oracle_without_table(self, cases):
        for ts, oracle in cases:
            assert infinite_corners(ts) == corners_by_definition(ts, oracle)

    def test_equals_oracle_with_definitional_table(self, cases):
        for ts, oracle in cases:
            assert infinite_corners(ts, oracle) == corners_by_definition(ts, oracle)

    def test_keys_in_lex_order(self, cases):
        for ts, oracle in cases:
            for corners in (infinite_corners(ts), infinite_corners(ts, oracle)):
                assert list(corners) == list(ts.terms) == sorted(ts.terms)

    def test_line_texts_equal_both_routes(self, cases):
        for ts, oracle in cases:
            assert_line_texts(ts, nmp_table(ts), infinite_corners(ts))
            assert_line_texts(ts, oracle, corners_by_definition(ts, oracle))


class TestLineTexts:
    """power_texts and corner_texts read each line off the right neighbour's
    text; the library routes and the oracles format every line whole."""

    def test_single_terms_and_one_variable(self):
        rng = random.Random(257)
        sets = [TermSet(n, [random_term(rng, n, 4)]) for n in (1, 2, 3, 6, 64)]
        sets += [TermSet(1, [Term((e,)) for e in rng.sample(range(60), k)]) for k in (1, 2, 3, 30)]
        sets += [TermSet(3, [Term((0, 0, 0))]), TermSet(2, [Term((0, 0)), Term((0, 1))])]
        for ts in sets:
            oracle = nmp_table_bruteforce(ts)
            assert_line_texts(ts, nmp_table(ts), infinite_corners(ts))
            assert_line_texts(ts, oracle, corners_by_definition(ts, oracle))

    def test_three_thousand_terms_whose_factors_never_repeat(self):
        # the bar code of the CI input distinct-3000.txt: every depth is 6
        rng = random.Random(5)
        columns = [rng.sample(range(2, 3002), 3000) for _ in range(6)]
        ts = TermSet(6, [Term(exps) for exps in zip(*columns)])
        table = nmp_table(ts)
        assert_line_texts(ts, table, infinite_corners(ts))
        assert_line_texts(ts, table, corners_by_definition(ts, table))
