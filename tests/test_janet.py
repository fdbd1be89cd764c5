import itertools
import random
from fractions import Fraction

import pytest

from barjanet import (
    BarCode,
    DimensionError,
    MembershipError,
    PointSet,
    StarPlacement,
    Term,
    TermSet,
    complete,
    divisors_for_nm_product,
    groebner_escalier,
    is_complete,
    janet_like_basis,
    monomial_generators,
    multiplicative_variables_from_stars,
    nmp_table,
    parse_term,
    parse_term_set,
    star_positions,
    star_set,
)
from barjanet import barcode
from barjanet.janet import Witness, _LiveCompletion
from helpers import (
    benchmark_shaped_sets,
    divisor_closure,
    expanded_box,
    grown_order_ideal,
    in_semigroup_ideal,
    multiplicative,
    nm_powers,
    random_point_set,
    random_term,
    random_term_set,
    sparse_ci_terms,
    sparse_wide_sets,
)
from oracles import (
    complete_by_rebuild,
    descent_path,
    is_multiplier,
    janet_completion,
    janet_divisor,
    janet_implies_janet_like,
    janet_like_divisors,
    multiplicative_variables,
    nmp_table_bruteforce,
    run_rule_rechecks,
    stars_by_definition,
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

    def test_star_reading_builds_one_placement(self, monkeypatch):
        # the sparse CI input, where building a placement per term made the
        # 300 reads take about 6.7 s; nmp_table is held to the scan elsewhere
        ts = sparse_ci_terms()
        bc = BarCode.build(ts)
        table = nmp_table(ts, bc)
        built = []
        monkeypatch.setattr(
            barcode, "StarPlacement", lambda rows: built.append(rows) or StarPlacement(rows)
        )
        for t in ts:
            assert multiplicative_variables_from_stars(bc, t) == multiplicative(1024, table[t])
        assert len(built) == 1


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
            got = {str(p) for p in nm_powers(3, table[g(text)])}
            assert got == powers, text

    def test_singleton_has_empty_nmp(self):
        ts = TermSet(3, [g("x1*x3^2")])
        table = nmp_table(ts)
        assert table[g("x1*x3^2")] == {}
        assert multiplicative(3, table[g("x1*x3^2")]) == {1, 2, 3}

    def test_fast_path_equals_definition(self):
        rng = random.Random(103)
        for _ in range(200):
            ts = random_term_set(rng, max_vars=4, max_terms=25, max_exp=5)
            assert nmp_table(ts) == nmp_table_bruteforce(ts)

    def test_keys_in_lex_order(self):
        rng = random.Random(109)
        for _ in range(50):
            ts = random_term_set(rng, max_vars=4, max_terms=25, max_exp=5)
            assert list(nmp_table(ts)) == list(ts.terms) == sorted(ts.terms)

    def test_powers_by_increasing_variable(self):
        # the nmp command prints each term's powers in this order, unsorted
        rng = random.Random(127)
        sets = [random_term_set(rng, max_vars=6, max_terms=40, max_exp=5) for _ in range(100)]
        tables = [t for ts in sets for t in (nmp_table(ts), nmp_table_bruteforce(ts))]
        tables += [nmp_table(ts) for ts in benchmark_shaped_sets(137)]
        for table in tables:
            assert all(list(nmp) == sorted(nmp) for nmp in table.values())

    def test_every_term_has_a_dict_of_its_own(self):
        # complete() updates the powers in place, so a dict shared by two
        # terms would change the powers of both
        rng = random.Random(257)
        sets = [random_term_set(rng, max_vars=6, max_terms=40, max_exp=5) for _ in range(100)]
        sets += [*benchmark_shaped_sets(263), *sparse_wide_sets(269)]
        for ts in sets:
            table = nmp_table(ts)
            assert len({id(nmp) for nmp in table.values()}) == len(ts)
            before = {t: dict(nmp) for t, nmp in table.items()}
            for t in ts.terms[:: max(1, len(ts) // 5)]:
                table[t][0] = 1  # no variable has index 0
                assert all(nmp == before[u] for u, nmp in table.items() if u != t)
                del table[t][0]

    def test_derived_multiplicative_equals_definition(self):
        # a table stores only the powers; the variables without one must be
        # the Janet multiplicative variables of the definitional scan
        rng = random.Random(107)
        for _ in range(100):
            ts = random_term_set(rng, max_vars=4, max_terms=15, max_exp=4)
            for t, nmp in nmp_table_bruteforce(ts).items():
                assert multiplicative(ts.nvars, nmp) == multiplicative_variables(ts, t)
                assert all(k >= 1 for k in nmp.values())


class TestFastPathsAtScale:
    def test_nmp_table_equals_definition(self):
        for ts in benchmark_shaped_sets(113):
            assert nmp_table(ts) == nmp_table_bruteforce(ts)

    def test_stars_mark_exactly_the_multiplicative_variables(self):
        for ts in benchmark_shaped_sets(131):
            bc = BarCode.build(ts)
            stars = star_positions(bc)
            oracle = nmp_table_bruteforce(ts)
            for col, t in enumerate(bc.labels, 1):
                starred = {
                    i
                    for i in range(1, ts.nvars + 1)
                    if stars.has(i, bc.bar_of_column(i, col))
                }
                assert starred == multiplicative(ts.nvars, oracle[t])
            for t in ts.terms[:: max(1, len(ts) // 10)]:
                assert multiplicative_variables_from_stars(
                    bc, t
                ) == multiplicative_variables(ts, t)


class TestSparseWideSets:
    """The bar-code routes on many variables (ROADMAP item 3), held to the
    definitional scans."""

    @pytest.fixture(scope="class")
    def cases(self):
        return [(ts, nmp_table_bruteforce(ts)) for ts in sparse_wide_sets(211)]

    def test_nmp_table_equals_definition(self, cases):
        for ts, oracle in cases:
            table = nmp_table(ts)
            assert table == oracle
            assert list(table) == list(ts.terms)

    def test_powers_by_increasing_variable(self, cases):
        for ts, oracle in cases:
            for table in (nmp_table(ts), oracle):
                assert all(list(nmp) == sorted(nmp) for nmp in table.values())

    def test_star_positions_equal_definition(self, cases):
        for ts, _ in cases:
            assert star_positions(BarCode.build(ts)).rows == stars_by_definition(ts)

    def test_witnesses_equal_oracle(self, cases):
        undivided = 0
        for ts, oracle in cases:
            bc = BarCode.build(ts)
            witnesses = is_complete(ts).witnesses
            assert [(w.term, w.power) for w in witnesses] == [
                (t, p) for t in ts for p in nm_powers(ts.nvars, oracle[t])
            ]
            for w in witnesses:
                expected = janet_like_divisors(ts, w.term * w.power, oracle)
                assert (w.divisor,) == (expected or (None,))
                found = divisors_for_nm_product(ts, w.term, w.power, bc, oracle)
                assert found == expected
                undivided += w.divisor is None
        assert undivided >= 50


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
                    if all(q.exponents[i - 1] == 0 or i in mult for i in range(1, ts.nvars + 1)):
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

    def test_other_ring_rejected(self):
        u2 = parse_term_set("vars: 2\nx1\nx2\n")
        x1 = parse_term("x1", 2)
        for v in (Term((0, 0, 5)), Term((0,)), Term((1, 0, 0))):
            with pytest.raises(DimensionError, match=f"2 vs {v.nvars} variables"):
                is_multiplier(u2, x1, v)


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

    def test_power_from_other_ring_rejected(self):
        u2 = parse_term_set("vars: 2\nx1\nx2\n")
        x1 = parse_term("x1", 2)
        assert divisors_for_nm_product(u2, x1, Term((0, 1))) == (Term((0, 1)),)
        for p in (Term((0, 1, 0)), Term((0, 0, 1)), Term((1,))):
            with pytest.raises(DimensionError, match=f"2 vs {p.nvars} variables"):
                divisors_for_nm_product(u2, x1, p)

    def test_column_map_rejects_non_members(self):
        bc = BarCode.build(SIX_TERMS)
        with pytest.raises(MembershipError):
            multiplicative_variables_from_stars(bc, g("x1"))
        other = BarCode.build(TermSet(3, [g("x1")]))
        with pytest.raises(MembershipError):
            divisors_for_nm_product(SIX_TERMS, g("x1^5"), g("x2"), other)

    def test_witnesses_equal_oracle_in_more_variables(self):
        # order ideals come out complete, so the odd cases also check the
        # minimal generators of each ideal's complement, which often are not
        rng = random.Random(151)
        undivided = 0
        for case in range(30):
            nvars = rng.randint(5, 6)
            size = rng.randint(1, 80)
            if case % 2:
                ideal = grown_order_ideal(rng, nvars, size)
                sets = [ideal, monomial_generators(ideal)]
            else:
                sets = [TermSet(nvars, [random_term(rng, nvars, 3) for _ in range(size)])]
            for ts in sets:
                bc = BarCode.build(ts)
                table = nmp_table(ts, bc)
                oracle = nmp_table_bruteforce(ts)
                for w in is_complete(ts).witnesses:
                    found = divisors_for_nm_product(ts, w.term, w.power, bc, table)
                    assert len(found) <= 1
                    expected = janet_like_divisors(ts, w.term * w.power, oracle)
                    assert (w.divisor,) == (expected or (None,))
                    undivided += case % 2 and w.divisor is None
        assert undivided >= 10

    def test_equals_scan_on_random_sets(self):
        rng = random.Random(127)
        for _ in range(150):
            ts = random_term_set(rng, max_vars=4, max_terms=20, max_exp=4)
            bc = BarCode.build(ts)
            table = nmp_table(ts, bc)
            for t in ts:
                for p in nm_powers(ts.nvars, table[t]):
                    via_bar = divisors_for_nm_product(ts, t, p, bc, table)
                    via_scan = janet_like_divisors(ts, t * p, table)
                    assert via_bar == via_scan


def witness_oracle(ts):
    """is_complete's witnesses by definition, as [(t, x_i^k, divisors or
    None)]: terms in lex order, powers by variable from nmp_table_bruteforce,
    divisors from janet_like_divisors over the same table. Each call is
    given only the members dividing t*x_i^k, found with one bit mask per
    variable and exponent, which leaves its answer unchanged."""
    oracle = nmp_table_bruteforce(ts)
    members = ts.terms
    # at_most[v][e]: bit j set when members[j] has x_(v+1)-exponent <= e
    at_most = []
    for v in range(ts.nvars):
        top = max(t.exponents[v] for t in members)
        masks = [0] * (top + 1)
        for j, t in enumerate(members):
            masks[t.exponents[v]] |= 1 << j
        for e in range(1, top + 1):
            masks[e] |= masks[e - 1]
        at_most.append(masks)
    out = []
    for t in members:
        for i, k in sorted(oracle[t].items()):
            p = Term.variable(ts.nvars, i, k)
            w = t * p
            bits = -1
            for masks, e in zip(at_most, w.exponents):
                bits &= masks[min(e, len(masks) - 1)]
            dividing = [u for j, u in enumerate(members) if bits >> j & 1]
            found = janet_like_divisors(TermSet(ts.nvars, dividing), w, oracle)
            out.append((t, p, found or None))
    return out


def oracle_sets():
    """Random sets in 1 to 6 variables, singletons, 1-variable sets, order
    ideals with the minimal generators of their complements, and one
    1,000-term set in 4 variables."""
    rng = random.Random(181)
    for nvars in range(1, 7):
        for _ in range(6):
            size = rng.randint(2, 60)
            yield TermSet(nvars, [random_term(rng, nvars, rng.randint(1, 9)) for _ in range(size)])
        yield TermSet(nvars, [random_term(rng, nvars, 5)])
        ideal = grown_order_ideal(rng, nvars, rng.randint(1, 80))
        yield ideal
        yield monomial_generators(ideal)
    yield TermSet(1, [Term((e,)) for e in rng.sample(range(100), 30)])
    yield TermSet(4, [random_term(rng, 4, 11) for _ in range(1000)])


class TestWitnessRecord:
    """Witness is a named tuple: fields by name, no assignment, and equal to
    the tuple of its fields, so to witness_oracle's with its one divisor."""

    def test_fields_and_tuple_equality(self):
        compared = 0
        for ts in itertools.islice(oracle_sets(), 30):
            witnesses = is_complete(ts).witnesses
            expected = witness_oracle(ts)
            assert len(witnesses) == len(expected)
            for w, (t, p, found) in zip(witnesses, expected):
                assert tuple(w) == (w.term, w.power, w.divisor) == w
                assert w == (t, p, found[0] if found else None)
                compared += 1
        assert compared >= 300

    def test_assignment_raises(self):
        w = is_complete(SIX_TERMS).witnesses[0]
        for field in ("term", "power", "divisor"):
            with pytest.raises(AttributeError):
                setattr(w, field, None)


class TestOnePassCheck:
    """is_complete reads every obligation's divisor off the bar code in one
    pass; the definitional scan is its oracle, order included."""

    @pytest.fixture(scope="class")
    def cases(self):
        return [(ts, witness_oracle(ts)) for ts in oracle_sets()]

    def test_witnesses_equal_oracle(self, cases):
        undivided = 0
        for ts, expected in cases:
            report = is_complete(ts)
            got = [
                (w.term, w.power, None if w.divisor is None else (w.divisor,))
                for w in report.witnesses
            ]
            assert got == expected
            assert report.complete == all(found for _, _, found in expected)
            undivided += sum(found is None for _, _, found in expected)
        assert undivided >= 100

    def test_divisors_for_nm_product_equal_oracle(self, cases):
        for ts, expected in cases:
            bc = BarCode.build(ts)
            table = nmp_table(ts, bc)
            for t, p, found in expected:
                assert divisors_for_nm_product(ts, t, p, bc, table) == (found or ())
            if len(ts) < 100:
                for t, p, found in expected:
                    assert divisors_for_nm_product(ts, t, p) == (found or ())

    def test_no_call_per_obligation(self, cases, monkeypatch):
        # the descent runs inline and each record skips Witness's __new__;
        # the live state's records are built the same way
        def refuse(*args):
            raise AssertionError("a call per obligation")

        monkeypatch.setattr(Witness, "__new__", refuse)
        for ts, _ in cases[:-1]:
            live = _LiveCompletion(ts).witnesses()
            assert all(type(w) is Witness for w in live)
        monkeypatch.setattr("barjanet.janet.descend_columns", refuse)
        for ts, expected in cases:
            report = is_complete(ts)
            assert all(type(w) is Witness for w in report.witnesses)
            got = [
                (w.term, w.power, None if w.divisor is None else (w.divisor,))
                for w in report.witnesses
            ]
            assert got == expected
            assert report.complete == all(found for _, _, found in expected)

    def test_one_power_term_per_variable_and_exponent(self, cases):
        # complete()'s live state lists the witnesses of its input alike
        for ts, _ in cases[:-1]:
            report = is_complete(ts)
            live = _LiveCompletion(ts).witnesses()
            assert live == report.witnesses
            for witnesses in (report.witnesses, live):
                powers = [w.power for w in witnesses]
                assert len(set(map(id, powers))) == len(set(powers))


def live_sets():
    """Random sets, grown order ideals and the minimal generators of their
    complements, in 1 to 5 variables."""
    rng = random.Random(191)
    for nvars in range(1, 6):
        for max_exp in (3, 9):
            for _ in range(5):
                size = rng.randint(1, 12)
                yield TermSet(nvars, [random_term(rng, nvars, max_exp) for _ in range(size)])
        for _ in range(5):
            ideal = grown_order_ideal(rng, nvars, rng.randint(1, 40))
            yield ideal
            yield monomial_generators(ideal)


class TestDescentCandidate:
    """No table confirms the descent's candidate in the library: it is a
    Janet-like divisor by construction (janet.divisors_for_nm_product). This
    holds the live state's candidate to the definitional scan on every
    obligation, after construction and after every added term;
    TestOnePassCheck does the same for is_complete."""

    @staticmethod
    def assert_candidates_are_divisors(live, nvars):
        current = TermSet(nvars, live.columns)
        oracle = nmp_table_bruteforce(current)
        assert set(live.checked) == {(t, i) for t in current for i in oracle[t]}
        queued = set(live.failing)
        for (t, i), (w, s) in live.checked.items():
            assert Term(w) == t * Term.variable(nvars, i, oracle[t][i])
            expected = janet_like_divisors(current, Term(w), oracle)
            assert ((s,) if s is not None else ()) == expected
            assert s is not None or (w[::-1], i, t) in queued
        return [s is None for _, s in live.checked.values()]

    def test_every_obligation_after_every_added_term(self):
        states, undivided = 0, []
        for ts in live_sets():
            live = _LiveCompletion(ts)
            undivided += self.assert_candidates_are_divisors(live, ts.nvars)
            while (c := live.next_failing()) is not None:
                live.add(c)
                states += 1
                undivided += self.assert_candidates_are_divisors(live, ts.nvars)
        assert states >= 300 and len(undivided) >= 10000
        assert 300 <= sum(undivided) < len(undivided)

    def test_each_failing_obligation_is_queued_once(self):
        for ts in live_sets():
            live = _LiveCompletion(ts)
            queued = len(live.failing)
            for (t, i), (_, s) in list(live.checked.items()):
                if s is None:
                    live._check(t, i)
            assert len(live.failing) == queued


class TestRecheckSet:
    """Adding c re-checks, each once, exactly the obligations whose power c
    changes, those whose descent path c crosses (by the definitional
    descent, helpers.descent_path) and c's own: the path rule of
    _LiveCompletion's docstring. That is a subset of what the run rule
    (helpers.run_rule_rechecks) re-checked, and holds every obligation whose
    record a fresh state of the new set differs in. The path each record
    keeps is held to the definition too."""

    @staticmethod
    def crossed(columns, checked, c):
        out = set()
        for key, (w, _) in checked.items():
            picks, failed = descent_path(columns, w)
            for l, p in zip(range(len(w), failed, -1), picks):
                if c.exponents[l - 1] != p:  # the highest row where c leaves
                    enters = p < c.exponents[l - 1] <= w[l - 1]
                    break
            else:
                enters = failed > 0 and c.exponents[failed - 1] <= w[failed - 1]
            if enters:
                out.add(key)
        return out

    @staticmethod
    def assert_paths(live):
        for key, (w, s) in live.checked.items():
            picks, failed = descent_path(live.columns, w)
            p = live.paths[key]
            assert p.exponents[::-1][: len(picks)] == tuple(picks)
            if s is None:
                assert failed > 0 and p.exponents[failed - 1] > w[failed - 1]
            else:
                assert failed == 0 and p is s

    @classmethod
    def assert_rechecks(cls, live, nvars, c):
        cls.assert_paths(live)
        columns, checked = list(live.columns), dict(live.checked)
        agreeing, changed, own = run_rule_rechecks(nvars, checked, columns, c)
        crossed = cls.crossed(columns, checked, c)
        seen = []
        live._check = lambda t, i: (seen.append((t, i)), type(live)._check(live, t, i))
        live.add(c)
        del live._check
        fresh = _LiveCompletion(TermSet(nvars, live.columns)).checked
        moved = {key for key, record in fresh.items() if checked.get(key) != record}
        assert len(seen) == len(set(seen))
        assert set(seen) == changed | crossed | own
        assert moved <= set(seen) <= agreeing | changed | own
        cls.assert_paths(live)
        return len(seen), len(agreeing | changed | own)

    def test_completion_adds(self):
        adds = rechecks = run_rule = 0
        for ts in live_sets():
            live = _LiveCompletion(ts)
            while (c := live.next_failing()) is not None:
                seen, candidates = self.assert_rechecks(live, ts.nvars, c)
                rechecks += seen
                run_rule += candidates
                adds += 1
        assert adds >= 300 and run_rule >= 3000
        assert 1500 <= rechecks < run_rule

    def test_arbitrary_adds(self):
        # a completion add has no run below it at row 1, as a column there
        # would divide it Janet-like; an arbitrary term can have one
        rng = random.Random(193)
        rechecks = 0
        for ts in live_sets():
            live = _LiveCompletion(ts)
            for _ in range(5):
                c = random_term(rng, ts.nvars, 9)
                if c not in live.nmp:
                    rechecks += self.assert_rechecks(live, ts.nvars, c)[0]
        assert rechecks >= 800


class TestCompletionWork:
    """The path rule's saving as a count of descents, with no timing."""

    def test_descents_on_300_terms_in_6_variables(self, monkeypatch):
        # measured: 7,962 descents while adding 700 terms; the run rule,
        # which re-checked every obligation whose product agrees with the
        # added term on x_i..x_n, made 146,621
        rng = random.Random(199)
        terms = set()
        while len(terms) < 300:
            terms.add(random_term(rng, 6, 4))
        calls = []
        check = _LiveCompletion._check
        monkeypatch.setattr(
            _LiveCompletion, "_check", lambda live, t, i: calls.append(1) or check(live, t, i)
        )
        _, report = complete(TermSet(6, terms))
        assert len(report.added) == 700
        assert len(calls) <= 8000


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
        assert done == TermSet(ts.nvars, [*ts, g("x2*x3")])

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


class TestIncrementalCompletion:
    """complete() updates one live state per added term; the round-by-round
    rebuild in helpers is the oracle for its set, added order and report."""

    # largest random input per variable count: completions in many
    # variables grow by hundreds of terms, and the oracle rebuilds per term
    MAX_TERMS = {1: 12, 2: 12, 3: 10, 4: 8, 5: 6, 6: 4}

    @staticmethod
    def assert_same_as_oracle(ts):
        done, report = complete(ts)
        expected_done, expected = complete_by_rebuild(ts)
        assert done == expected_done
        assert report.added == expected.added
        assert report.witnesses == expected.witnesses
        assert report.complete

    @pytest.mark.parametrize("max_exp", [3, 12, 1000])
    def test_random_sets_equal_oracle(self, max_exp):
        rng = random.Random(157 + max_exp)
        for nvars, cap in self.MAX_TERMS.items():
            for _ in range(8):
                size = rng.randint(1, cap)
                ts = TermSet(nvars, [random_term(rng, nvars, max_exp) for _ in range(size)])
                self.assert_same_as_oracle(ts)

    def test_order_ideals_equal_oracle(self):
        # order ideals come out complete; their complements' generators,
        # which the points route completes, and random halves do not
        rng = random.Random(163)
        for _ in range(30):
            nvars = rng.randint(1, 6)
            ideal = grown_order_ideal(rng, nvars, rng.randint(1, 40))
            self.assert_same_as_oracle(ideal)
            self.assert_same_as_oracle(monomial_generators(ideal))
            half = [t for t in ideal if rng.random() < 0.5]
            if half:
                self.assert_same_as_oracle(TermSet(nvars, half))

    def test_complete_inputs_and_singletons(self):
        rng = random.Random(167)
        self.assert_same_as_oracle(SIX_TERMS)
        for _ in range(30):
            nvars = rng.randint(1, 5)
            self.assert_same_as_oracle(TermSet(nvars, [random_term(rng, nvars, 20)]))
            ts = random_term_set(rng, max_vars=4, max_terms=8, max_exp=6)
            done, _ = complete(ts)
            self.assert_same_as_oracle(done)

    def test_report_is_a_fresh_check(self):
        rng = random.Random(173)
        for _ in range(60):
            ts = random_term_set(rng, max_vars=4, max_terms=12, max_exp=8)
            done, report = complete(ts)
            assert report.witnesses == is_complete(done).witnesses
            again, report2 = complete(done)
            assert again == done and report2.added == ()

    def test_points_route_leading_terms_complete(self):
        # subsets of a small grid share coordinates, so their generators
        # often need completion; generic rational points rarely do
        rng = random.Random(179)
        for _ in range(25):
            nvars = rng.randint(2, 4)
            grid = list(itertools.product(range(3), repeat=nvars))
            chosen = rng.sample(grid, rng.randint(1, min(len(grid), 14)))
            X = PointSet(sorted(tuple(map(Fraction, p)) for p in chosen))
            leads = TermSet(nvars, [g.leading_term for g in janet_like_basis(X)])
            assert is_complete(leads).complete
            generators = monomial_generators(groebner_escalier(X))
            assert leads == complete_by_rebuild(generators)[0]


def is_star(ideal, s):
    """The star set's definition: s lies outside the order ideal and
    s / x_min(s) inside."""
    i = s.min_variable()
    return s not in ideal and i is not None and s / Term.variable(ideal.nvars, i) in ideal


def star_fact_ideals(seed):
    """Order ideals in 2 to 6 variables: divisor closures of random terms,
    grown ideals in 5 and 6 variables, and escaliers of random points, some
    of them on a small grid, whose generators often need completion; then
    escaliers of 3 points in 64 variables, with a star set of 64 or more."""
    rng = random.Random(seed)
    for _ in range(120):
        nvars = rng.randint(2, 6)
        seeds = [random_term(rng, nvars, rng.randint(1, 3)) for _ in range(rng.randint(1, 5))]
        yield divisor_closure(TermSet(nvars, seeds))
    for nvars in (5, 6):
        for _ in range(12):
            yield grown_order_ideal(rng, nvars, rng.randint(1, 60))
    for _ in range(40):
        yield groebner_escalier(random_point_set(rng, max_points=15, max_vars=4, coord_bound=3))
    for _ in range(20):
        nvars = rng.randint(2, 4)
        grid = list(itertools.product(range(3), repeat=nvars))
        chosen = rng.sample(grid, rng.randint(1, min(len(grid), 14)))
        yield groebner_escalier(PointSet(sorted(tuple(map(Fraction, p)) for p in chosen)))
    for _ in range(3):
        points = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(64)) for _ in range(3)]
        yield groebner_escalier(PointSet(points))


class TestStarSetFacts:
    """The paper's closing facts on an order ideal N and its star set S
    (Gerdt and Blinkov, CASC 2005; Ceria, J. Symbolic Comput. 91, 2019):
    S is Janet-like complete, completing the minimal generators of the
    complement of N stays inside S, and no added term can be dropped."""

    @pytest.fixture(scope="class")
    def cases(self):
        out = []
        for ideal in star_fact_ideals(223):
            generators = monomial_generators(ideal)
            out.append((ideal, generators, complete(generators)[0]))
        return out

    def test_star_set_is_complete(self, cases):
        for ideal, _, _ in cases:
            stars = star_set(BarCode.build(ideal))
            assert all(is_star(ideal, s) for s in stars)
            assert is_complete(stars).complete

    def test_completion_stays_in_the_star_set(self, cases):
        for ideal, generators, completed in cases:
            assert set(generators) <= set(completed)
            assert all(is_star(ideal, c) for c in completed)

    def test_no_added_term_can_be_dropped(self, cases):
        added = 0
        for _, generators, completed in cases:
            for a in set(completed) - set(generators):
                rest = TermSet(completed.nvars, [c for c in completed if c != a])
                assert not is_complete(rest).complete
                added += 1
        assert added >= 100


def janet_comparison_sets():
    """Minimal generating sets: those of 1 to 6 random terms in 2 to 4
    variables with exponents up to 4, and the generators of escaliers of
    points on a small grid."""
    rng = random.Random(5)
    for _ in range(300):
        nvars = rng.randint(2, 4)
        drawn = {random_term(rng, nvars, 4) for _ in range(rng.randint(1, 6))}
        yield TermSet(nvars, [t for t in drawn if not any(u != t and u.divides(t) for u in drawn)])
    rng = random.Random(7)
    for _ in range(40):
        nvars = rng.randint(2, 4)
        grid = list(itertools.product(range(3), repeat=nvars))
        chosen = rng.sample(grid, rng.randint(1, min(len(grid), 14)))
        points = PointSet(sorted(tuple(map(Fraction, p)) for p in chosen))
        yield monomial_generators(groebner_escalier(points))


class TestJanetAgainstJanetLike:
    """A Janet-like basis is never larger than the Janet basis (Gerdt and
    Blinkov, CASC 2005): on a minimal generating set G, complete(G) is no
    larger than the Janet completion J of G. It is even a subset of J, and
    J is Janet-like complete; those two facts are measured here, not cited."""

    @pytest.fixture(scope="class")
    def cases(self):
        return [(g, complete(g)[0], janet_completion(g)) for g in janet_comparison_sets()]

    def test_janet_like_completion_is_no_larger(self, cases):
        assert sum(len(done) < len(janet) for _, done, janet in cases) > 0
        for _, done, janet in cases:
            assert len(done) <= len(janet)

    def test_janet_like_completion_lies_inside(self, cases):
        for generators, done, janet in cases:
            assert set(generators) <= set(done) <= set(janet)

    def test_janet_completion_is_janet_like_complete(self, cases):
        for _, _, janet in cases:
            assert is_complete(janet).complete
