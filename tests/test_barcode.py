import json
import random
import re
import tracemalloc

import pytest

from barjanet import (
    AdmissibilityError,
    BarCode,
    EmptyInputError,
    InputError,
    MembershipError,
    Term,
    TermSet,
    canonical_labels,
    decode,
    e_list,
    is_admissible,
    nmp_table,
    parse_term_set,
    render_ascii,
    star_positions,
    star_set,
    to_json_dict,
)
from helpers import (
    barcode_from_json,
    random_order_ideal,
    random_term,
    random_term_set,
    sparse_ci_terms,
)
from oracles import (
    star_set_bruteforce,
    stars_by_definition,
)


def t(*exps):
    return Term(exps)


EXAMPLE_FIVE = TermSet(3, [t(1, 0, 0), t(2, 0, 0), t(0, 1, 1), t(1, 2, 1), t(0, 3, 1)])
SIMPLEX = TermSet(3, [t(0, 0, 0), t(1, 0, 0), t(0, 1, 0), t(0, 0, 1)])
SIX_TERMS = parse_term_set(
    "vars: 3\nx1^5\nx1^2*x2\nx1*x2^4\nx1^2*x3^2\nx1*x2^2*x3^2\nx3^5\n"
)


class TestBuild:
    def test_five_term_row_lengths(self):
        bc = BarCode.build(EXAMPLE_FIVE)
        assert bc.one_lengths(1) == (1, 1, 1, 1, 1)
        assert bc.one_lengths(2) == (2, 1, 1, 1)
        assert bc.one_lengths(3) == (2, 3)

    def test_single_term(self):
        bc = BarCode.build(TermSet(4, [t(0, 0, 0, 0)]))
        for i in range(1, 5):
            assert bc.one_lengths(i) == (1,)

    def test_empty_set_rejected(self):
        with pytest.raises(EmptyInputError):
            BarCode.build(TermSet(2))

    def test_rows_match_projection_grouping(self):
        rng = random.Random(23)
        for _ in range(100):
            ts = random_term_set(rng, max_vars=4, max_terms=20, max_exp=4)
            bc = BarCode.build(ts)
            for i in range(1, ts.nvars + 1):
                expected = []
                run = 1
                cols = ts.terms
                for a, b in zip(cols, cols[1:]):
                    if a.pi(i) == b.pi(i):
                        run += 1
                    else:
                        expected.append(run)
                        run = 1
                expected.append(run)
                assert bc.one_lengths(i) == tuple(expected)

    def test_row_sums_and_refinement(self):
        rng = random.Random(29)
        for _ in range(100):
            ts = random_term_set(rng, max_vars=4, max_terms=25, max_exp=5)
            bc = BarCode.build(ts)
            m = len(ts)
            for i in range(1, ts.nvars + 1):
                assert sum(bc.one_lengths(i)) == m
            for i in range(1, ts.nvars):
                upper = set()
                acc = 0
                for ell in bc.one_lengths(i)[:-1]:
                    acc += ell
                    upper.add(acc)
                acc = 0
                for ell in bc.one_lengths(i + 1)[:-1]:
                    acc += ell
                    assert acc in upper


class TestEList:
    def test_four_column_order_ideal(self):
        bc = BarCode.build(SIMPLEX)
        assert e_list(bc, 3).entries == (0, 1, 0)
        assert e_list(bc, 3).term() == t(0, 1, 0)

    def test_column_out_of_range(self):
        from barjanet import DimensionError

        bc = BarCode.build(SIMPLEX)
        with pytest.raises(DimensionError):
            e_list(bc, 0)
        with pytest.raises(DimensionError):
            e_list(bc, 5)

    def test_first_column_all_zero(self):
        rng = random.Random(31)
        for _ in range(30):
            bc = BarCode.build(random_term_set(rng))
            assert e_list(bc, 1).entries == (0,) * bc.nvars

    def test_elists_equal_canonical_label_exponents(self):
        rng = random.Random(37)
        for _ in range(150):
            bc = BarCode.build(random_term_set(rng, max_terms=20, max_exp=4))
            labels = canonical_labels(bc)
            for col in range(1, bc.ncols + 1):
                assert e_list(bc, col).term() == labels[col - 1]

    def test_elists_equal_labels_on_order_ideals(self):
        rng = random.Random(41)
        for _ in range(100):
            ideal = random_order_ideal(rng)
            bc = BarCode.build(ideal)
            for col, label in enumerate(bc.labels, 1):
                assert e_list(bc, col).term() == label


class TestDecode:
    def test_roundtrip_arbitrary_sets(self):
        rng = random.Random(43)
        for _ in range(200):
            ts = random_term_set(rng)
            assert decode(BarCode.build(ts)) == ts

    def test_structure_only_four_columns(self):
        bc = BarCode.from_lengths([[1, 1, 1, 1], [2, 1, 1], [3, 1]])
        assert decode(bc) == SIMPLEX

    def test_structure_only_single_column(self):
        bc = BarCode.from_lengths([[1], [1]])
        assert decode(bc) == TermSet(2, [t(0, 0)])

    def test_canonical_relabeling_reproduces_structure(self):
        rng = random.Random(47)
        for _ in range(100):
            bc = BarCode.build(random_term_set(rng, max_terms=15, max_exp=3))
            relabeled = BarCode.from_lengths(
                [bc.one_lengths(i) for i in range(1, bc.nvars + 1)]
            )
            assert list(relabeled.labels) == sorted(relabeled.labels)
            rebuilt = BarCode.build(decode(relabeled))
            assert rebuilt == relabeled
            for i in range(1, bc.nvars + 1):
                assert rebuilt.one_lengths(i) == bc.one_lengths(i)


class TestFromLengths:
    def test_rejects_uneven_rows(self):
        with pytest.raises(InputError):
            BarCode.from_lengths([[1, 1], [3]])

    def test_rejects_non_unit_first_row(self):
        with pytest.raises(InputError):
            BarCode.from_lengths([[2], [2]])

    def test_rejects_broken_refinement(self):
        with pytest.raises(InputError):
            BarCode.from_lengths([[1, 1, 1], [2, 1], [1, 2]])

    def test_rejects_inconsistent_labels(self):
        with pytest.raises(InputError):
            BarCode.from_lengths([[1, 1], [1, 1]], labels=[t(0, 0), t(1, 0)])

    def test_accepts_matching_labels(self):
        bc = BarCode.from_lengths([[1, 1], [2]], labels=[t(0, 0), t(1, 0)])
        assert decode(bc) == TermSet(2, [t(0, 0), t(1, 0)])

    def test_rejects_zero_columns(self):
        with pytest.raises(EmptyInputError, match="at least one column"):
            BarCode.from_lengths([[], []])


def assert_columns_are_label_positions(bc):
    labels = list(bc.labels)
    for label in labels:
        assert bc.column_of(label) == labels.index(label) + 1


class TestColumnOf:
    def test_seeded_sets_and_their_canonical_codes(self):
        rng = random.Random(29)
        for nvars in range(1, 7):
            for _ in range(15):
                size = rng.randint(1, 40)
                ts = TermSet(nvars, {random_term(rng, nvars, 4) for _ in range(size)})
                bc = BarCode.build(ts)
                assert_columns_are_label_positions(bc)
                rows = [bc.one_lengths(i) for i in range(1, nvars + 1)]
                assert_columns_are_label_positions(BarCode.from_lengths(rows))
                for _ in range(10):
                    other = random_term(rng, nvars, 5)
                    if other not in ts:
                        with pytest.raises(MembershipError):
                            bc.column_of(other)

    def test_sparse_and_canonical(self):
        assert_columns_are_label_positions(BarCode.build(sparse_ci_terms()))
        canonical = BarCode.from_lengths([[1, 1, 1, 1], [2, 1, 1], [3, 1]])
        assert_columns_are_label_positions(canonical)
        assert canonical.column_of(t(0, 0, 1)) == 4

    @pytest.mark.parametrize(
        "outsider",
        [
            t(0, 0, 0),  # sorts before the first label
            t(3, 0, 0),  # between x1^2 and x2*x3
            t(0, 0, 2),  # after the last label
            t(1, 0),  # another ring: fewer variables
            t(1, 0, 0, 0),  # another ring: more variables
        ],
    )
    def test_non_members_rejected(self, outsider):
        bc = BarCode.build(EXAMPLE_FIVE)
        with pytest.raises(MembershipError, match="is not a column label of the bar code"):
            bc.column_of(outsider)


class TestAdmissibility:
    def test_order_ideal_is_admissible(self):
        assert is_admissible(BarCode.build(SIMPLEX))

    def test_single_variable_term_is_not(self):
        assert not is_admissible(BarCode.build(TermSet(3, [t(1, 0, 0)])))

    def test_five_term_example_is_not(self):
        assert not is_admissible(BarCode.build(EXAMPLE_FIVE))

    def test_agrees_with_divisor_closure(self):
        rng = random.Random(53)
        for _ in range(200):
            ts = random_term_set(rng)
            assert is_admissible(BarCode.build(ts)) == ts.is_order_ideal()


class TestStars:
    def test_six_term_pattern(self):
        stars = star_positions(BarCode.build(SIX_TERMS))
        expected = {(1, j) for j in range(1, 7)} | {(2, 3), (2, 5), (2, 6), (3, 3)}
        assert set(stars) == expected
        assert stars.rows == ((1, 2, 3, 4, 5, 6), (3, 5, 6), (3,))

    def test_single_column_one_star_per_row(self):
        bc = BarCode.from_lengths([[1], [1], [1]])
        assert star_positions(bc).rows == ((1,), (1,), (1,))
        assert tuple(star_positions(bc)) == ((1, 1), (2, 1), (3, 1))

    def test_last_bar_always_starred(self):
        rng = random.Random(59)
        for _ in range(100):
            bc = BarCode.build(random_term_set(rng))
            stars = star_positions(bc)
            for i in range(1, bc.nvars + 1):
                assert stars.has(i, len(bc.one_lengths(i)))

    def test_has_is_false_off_the_code(self):
        # rows 0 and n+1, and bars 0 and mu+1 of every row, carry no star
        rng = random.Random(61)
        for _ in range(100):
            bc = BarCode.build(random_term_set(rng))
            stars = star_positions(bc)
            for bar in range(bc.ncols + 2):
                assert not stars.has(0, bar)
                assert not stars.has(bc.nvars + 1, bar)
            for i in range(1, bc.nvars + 1):
                assert not stars.has(i, 0)
                assert not stars.has(i, len(bc.one_lengths(i)) + 1)

    def test_simplex_has_six_stars(self):
        assert len(star_positions(BarCode.build(SIMPLEX))) == 6

    def test_definition_on_random_sets(self):
        rng = random.Random(337)
        non_ideals = 0
        for _ in range(200):
            ts = random_term_set(rng, max_vars=5, max_terms=30, max_exp=4)
            non_ideals += not ts.is_order_ideal()
            assert star_positions(BarCode.build(ts)).rows == stars_by_definition(ts)
        assert non_ideals >= 150

    def test_peak_memory_near_the_nmp_tables(self):
        # the sparse CI input: 300 terms in 1,024 variables and 207,494 stars,
        # which held per row cost about as much memory as the powers
        terms = sparse_ci_terms()
        bc = BarCode.build(terms)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(lambda: star_positions(bc)) <= 2 * peak(lambda: nmp_table(terms, bc))


class TestStarSet:
    def test_simplex(self):
        expected = TermSet(
            3,
            [t(2, 0, 0), t(1, 1, 0), t(0, 2, 0), t(1, 0, 1), t(0, 1, 1), t(0, 0, 2)],
        )
        assert star_set(BarCode.build(SIMPLEX)) == expected

    def test_unit_ideal(self):
        for n in (1, 2, 3, 4):
            result = star_set(BarCode.build(TermSet(n, [Term.one(n)])))
            assert result == TermSet(n, [Term.variable(n, i) for i in range(1, n + 1)])

    def test_requires_admissible(self):
        with pytest.raises(AdmissibilityError):
            star_set(BarCode.build(TermSet(2, [t(1, 0)])))

    def test_matches_bruteforce_on_random_ideals(self):
        rng = random.Random(61)
        for _ in range(120):
            ideal = random_order_ideal(rng, max_vars=4, max_exp=3)
            if len(ideal) > 30:
                continue
            fast = star_set(BarCode.build(ideal))
            assert fast == star_set_bruteforce(ideal)

    def test_disjoint_from_ideal_and_quotient_inside(self):
        rng = random.Random(67)
        for _ in range(60):
            ideal = random_order_ideal(rng, max_vars=3, max_exp=3)
            result = star_set(BarCode.build(ideal))
            for s in result:
                assert s not in ideal
                i = s.min_variable()
                assert s / Term.variable(ideal.nvars, i) in ideal


def _starred_bars(line: str) -> tuple[int, set[int]]:
    stars = set()
    trailing = line.endswith(" *")
    if trailing:
        line = line[:-2]
    bar = 0
    for token in re.findall(r"-+|.", line):
        if token.startswith("-"):
            bar += 1
        elif token == "*":
            stars.add(bar)
    if trailing:
        stars.add(bar)
    return bar, stars


class TestRender:
    def test_single_column_two_vars(self):
        bc = BarCode.from_lengths([[1], [1]])
        lines = render_ascii(bc).splitlines()
        assert lines[1:] == ["-", "-"]

    def test_star_columns_match_star_positions(self):
        bc = BarCode.build(SIX_TERMS)
        stars = star_positions(bc)
        lines = render_ascii(bc, stars).splitlines()[1:]
        for i, line in enumerate(lines, 1):
            bars, starred = _starred_bars(line)
            assert bars == len(bc.one_lengths(i))
            assert starred == {j for (row, j) in stars if row == i}

    def test_width_scales_with_one_length(self):
        bc = BarCode.build(TermSet(2, [t(0, 0), t(1, 0), t(2, 0)]))
        lines = render_ascii(bc).splitlines()
        header, row1, row2 = lines
        # row 2 is one bar spanning three unit columns plus two gaps
        assert row2 == "-" * len(header)
        assert row1.split(" ") == ["-", "--", "----"]


class TestJson:
    def test_roundtrip(self):
        rng = random.Random(71)
        for _ in range(50):
            ts = random_term_set(rng, max_terms=12, max_exp=4)
            bc = BarCode.build(ts)
            stars = star_positions(bc)
            doc = json.loads(json.dumps(to_json_dict(bc, stars)))
            back, back_stars = barcode_from_json(doc)
            assert back == bc
            assert back_stars == stars

    def test_roundtrip_without_stars(self):
        bc = BarCode.build(SIMPLEX)
        back, back_stars = barcode_from_json(to_json_dict(bc))
        assert back == bc and back_stars is None
