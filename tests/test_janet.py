import random

import pytest

from barjanet import (
    BarCode,
    MembershipError,
    Term,
    TermSet,
    complete,
    divisors_for_nm_product,
    is_complete,
    is_multiplier,
    janet_divisor,
    janet_implies_janet_like,
    janet_like_divisors,
    multiplicative_variables,
    multiplicative_variables_from_stars,
    nmp_table,
    nmp_table_bruteforce,
    parse_term,
    parse_term_set,
)
from helpers import (
    expanded_box,
    grown_order_ideal,
    in_semigroup_ideal,
    random_term,
    random_term_set,
)


SIX_TERMS = parse_term_set(
    "vars: 3\nx1^5\nx1^2*x2\nx1*x2^4\nx1^2*x3^2\nx1*x2^2*x3^2\nx3^5\n"
)


def g(text):
    return parse_term(text, 3)


class TestMultiplicativeVariables:
    def test_six_term_values(self):
        assert multiplicative_variables(SIX_TERMS, g("x1*x2^4")) == {1, 2}
        assert multiplicative_variables(SIX_TERMS, g("x3^5")) == {1, 2, 3}
        assert multiplicative_variables(SIX_TERMS, g("x1^5")) == {1}
        assert multiplicative_variables(SIX_TERMS, g("x1^2*x3^2")) == {1}

    def test_singleton_all_multiplicative(self):
        ts = TermSet(4, [Term((2, 0, 1, 3))])
        assert multiplicative_variables(ts, Term((2, 0, 1, 3))) == {1, 2, 3, 4}

    def test_membership_required(self):
        with pytest.raises(MembershipError):
            multiplicative_variables(SIX_TERMS, g("x1"))

    def test_star_reading_agrees_with_definition(self):
        rng = random.Random(101)
        for _ in range(150):
            ts = random_term_set(rng, max_vars=4, max_terms=25, max_exp=5)
            bc = BarCode.build(ts)
            for t in ts:
                assert multiplicative_variables_from_stars(
                    bc, t
                ) == multiplicative_variables(ts, t)


EXPECTED_POWERS = {
    "x1^5": {"x2", "x3^2"},
    "x1^2*x2": {"x2^3", "x3^2"},
    "x1*x2^4": {"x3^2"},
    "x1^2*x3^2": {"x2^2", "x3^3"},
    "x1*x2^2*x3^2": {"x3^3"},
    "x3^5": set(),
}


class TestNmpTable:
    def test_six_term_table(self):
        table = nmp_table(SIX_TERMS)
        for text, powers in EXPECTED_POWERS.items():
            got = {str(p) for p in table[g(text)].powers()}
            assert got == powers, text

    def test_singleton_has_empty_nmp(self):
        ts = TermSet(3, [g("x1*x3^2")])
        table = nmp_table(ts)
        assert table[g("x1*x3^2")].nmp == {}
        assert table[g("x1*x3^2")].multiplicative == {1, 2, 3}

    def test_fast_path_equals_definition(self):
        rng = random.Random(103)
        for _ in range(200):
            ts = random_term_set(rng, max_vars=4, max_terms=25, max_exp=5)
            assert nmp_table(ts) == nmp_table_bruteforce(ts)

    def test_nmp_vars_are_exactly_nonmultiplicative(self):
        rng = random.Random(107)
        for _ in range(100):
            ts = random_term_set(rng, max_vars=4, max_terms=15, max_exp=4)
            for t, ann in nmp_table(ts).items():
                assert set(ann.nmp) == set(ann.nonmultiplicative)
                assert all(k >= 1 for k in ann.nmp.values())


class TestJanetDivisor:
    def test_power_stays_in_cone(self):
        assert janet_divisor(SIX_TERMS, g("x1^8")) == g("x1^5")

    def test_member_divides_itself(self):
        for t in SIX_TERMS:
            assert janet_divisor(SIX_TERMS, t) == t

    def test_nonmultiplicative_direction_changes_divisor(self):
        assert janet_divisor(SIX_TERMS, g("x1^5*x2")) == g("x1^2*x2")

    def test_agrees_with_direct_scan(self):
        rng = random.Random(109)
        for _ in range(50):
            ts = random_term_set(rng, max_vars=3, max_terms=10, max_exp=3)
            for w in expanded_box(ts, margin=1)[:200]:
                expected = None
                for t in ts:
                    if not t.divides(w):
                        continue
                    mult = multiplicative_variables(ts, t)
                    q = w / t
                    if all(q.deg(i) == 0 or i in mult for i in range(1, ts.nvars + 1)):
                        expected = t
                        break
                assert janet_divisor(ts, w) == expected


class TestMultiplier:
    def test_below_power_is_multiplier(self):
        assert is_multiplier(SIX_TERMS, g("x1^2*x3^2"), g("x2"))

    def test_one_is_always_multiplier(self):
        for t in SIX_TERMS:
            assert is_multiplier(SIX_TERMS, t, Term.one(3))

    def test_power_itself_is_not(self):
        assert not is_multiplier(SIX_TERMS, g("x1^5"), g("x2"))

    def test_membership_required(self):
        with pytest.raises(MembershipError):
            is_multiplier(SIX_TERMS, g("x2^9"), g("x1"))


class TestJanetLikeDivisors:
    def test_six_term_examples(self):
        assert janet_like_divisors(SIX_TERMS, g("x1^5*x2")) == (g("x1^2*x2"),)
        assert janet_like_divisors(SIX_TERMS, g("x1*x2^2*x3^5")) == (g("x3^5"),)

    def test_member_divides_itself(self):
        for t in SIX_TERMS:
            assert t in janet_like_divisors(SIX_TERMS, t)

    def test_janet_implies_janet_like(self):
        rng = random.Random(113)
        for _ in range(40):
            ts = random_term_set(rng, max_vars=3, max_terms=10, max_exp=3)
            for w in expanded_box(ts, margin=1)[:150]:
                assert janet_implies_janet_like(ts, w)


class TestNextBarLookup:
    DIVISOR_ASSIGNMENTS = [
        ("x1^5", "x2", "x1^2*x2"),
        ("x1^5", "x3^2", "x1^2*x3^2"),
        ("x1^2*x2", "x2^3", "x1*x2^4"),
        ("x1^2*x2", "x3^2", "x1^2*x3^2"),
        ("x1*x2^4", "x3^2", "x1*x2^2*x3^2"),
        ("x1^2*x3^2", "x3^3", "x3^5"),
        ("x1^2*x3^2", "x2^2", "x1*x2^2*x3^2"),
        ("x1*x2^2*x3^2", "x3^3", "x3^5"),
    ]

    @pytest.mark.parametrize("term,power,divisor", DIVISOR_ASSIGNMENTS)
    def test_six_term_assignments(self, term, power, divisor):
        assert divisors_for_nm_product(SIX_TERMS, g(term), g(power)) == (g(divisor),)

    def test_rejects_non_power(self):
        with pytest.raises(ValueError):
            divisors_for_nm_product(SIX_TERMS, g("x1^5"), g("x2*x3"))

    def test_rejects_wrong_power(self):
        with pytest.raises(ValueError):
            divisors_for_nm_product(SIX_TERMS, g("x1^5"), g("x2^2"))

    def test_membership_required(self):
        with pytest.raises(MembershipError):
            divisors_for_nm_product(SIX_TERMS, g("x2^9"), g("x2"))

    def test_column_map_rejects_non_members(self):
        bc = BarCode.build(SIX_TERMS)
        with pytest.raises(MembershipError):
            multiplicative_variables_from_stars(bc, g("x1"))
        other = BarCode.build(TermSet(3, [g("x1")]))
        with pytest.raises(MembershipError):
            divisors_for_nm_product(SIX_TERMS, g("x1^5"), g("x2"), other)

    def test_witnesses_equal_oracle_in_more_variables(self):
        rng = random.Random(151)
        for case in range(30):
            nvars = rng.randint(5, 6)
            size = rng.randint(1, 80)
            if case % 2:
                ts = grown_order_ideal(rng, nvars, size)
            else:
                ts = TermSet(nvars, [random_term(rng, nvars, 3) for _ in range(size)])
            bc = BarCode.build(ts)
            table = nmp_table(ts, bc)
            oracle = nmp_table_bruteforce(ts)
            for w in is_complete(ts).witnesses:
                found = divisors_for_nm_product(ts, w.term, w.power, bc, table)
                assert len(found) <= 1
                expected = janet_like_divisors(ts, w.term * w.power, oracle)
                assert (w.divisor,) == (expected or (None,))

    def test_equals_scan_on_random_sets(self):
        rng = random.Random(127)
        for _ in range(150):
            ts = random_term_set(rng, max_vars=4, max_terms=20, max_exp=4)
            bc = BarCode.build(ts)
            table = nmp_table(ts, bc)
            for t in ts:
                for p in table[t].powers():
                    via_bar = divisors_for_nm_product(ts, t, p, bc, table)
                    via_scan = janet_like_divisors(ts, t * p, table)
                    assert via_bar == via_scan


class TestCompleteness:
    def test_six_term_set_is_complete(self):
        assert is_complete(SIX_TERMS).complete

    def test_two_term_set_is_not(self):
        ts = parse_term_set("vars: 3\nx2\nx1*x3\n")
        report = is_complete(ts)
        assert not report.complete
        failing = report.failing()
        assert len(failing) == 1
        assert failing[0].term == g("x2") and failing[0].power == g("x3")

    def test_singleton_is_complete(self):
        assert is_complete(TermSet(3, [g("x1^2*x2")])).complete


class TestCompletion:
    def test_fixpoint_on_complete_input(self):
        done, report = complete(SIX_TERMS)
        assert done == SIX_TERMS and report.added == ()

    def test_known_completion(self):
        ts = parse_term_set("vars: 3\nx2\nx1*x3\n")
        done, report = complete(ts)
        assert report.added == (g("x2*x3"),)
        assert done == ts.with_terms([g("x2*x3")])

    def test_random_completions(self):
        rng = random.Random(137)
        for _ in range(60):
            ts = random_term_set(rng, max_vars=3, max_terms=10, max_exp=3)
            done, report = complete(ts)
            assert is_complete(done).complete
            assert set(ts) <= set(done)
            box = ts.bounding_box()
            for t in done:
                assert all(e <= b for e, b in zip(t.exponents, box))
            again, report2 = complete(done)
            assert again == done and report2.added == ()
            for w in expanded_box(ts, margin=1):
                assert in_semigroup_ideal(ts, w) == in_semigroup_ideal(done, w)

    def test_unique_divisor_on_complete_sets(self):
        rng = random.Random(139)
        for _ in range(40):
            ts = random_term_set(rng, max_vars=3, max_terms=8, max_exp=3)
            done, _ = complete(ts)
            table = nmp_table(done)
            for w in expanded_box(done, margin=1):
                divisors = janet_like_divisors(done, w, table)
                if in_semigroup_ideal(done, w):
                    assert len(divisors) == 1
                else:
                    assert len(divisors) == 0

    def test_cone_disjointness(self):
        rng = random.Random(149)
        for _ in range(40):
            ts = random_term_set(rng, max_vars=3, max_terms=10, max_exp=3)
            for w in expanded_box(ts, margin=1)[:200]:
                janet_divisor(ts, w)  # raises if more than one candidate
