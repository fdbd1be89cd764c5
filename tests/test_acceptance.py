"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete. Random corpora are seeded, so every run checks the same
instances.
"""

import random
import time
from fractions import Fraction as F

import pytest

from barjanet import (
    BarCode,
    Term,
    TermSet,
    decode,
    divisors_for_nm_product,
    e_list,
    groebner_escalier,
    is_admissible,
    is_complete,
    janet_like_basis,
    multiplicative_variables_from_stars,
    nmp_table,
    normal_form,
    complete,
    parse_term,
    parse_term_set,
    star_set,
)
from barjanet.cli import main
from helpers import (
    expanded_box,
    in_semigroup_ideal,
    nm_powers,
    random_point_set,
    random_polynomial,
    random_term,
    random_term_set,
)
from oracles import (
    combination,
    janet_like_divisors,
    multiplicative_variables,
    nmp_table_bruteforce,
)

SIX_TERMS_FILE = "vars: 3\nx1^5\nx1^2*x2\nx1*x2^4\nx1^2*x3^2\nx1*x2^2*x3^2\nx3^5\n"
SIX_TERMS = parse_term_set(SIX_TERMS_FILE)


def g(text):
    return parse_term(text, 3)


def _corpus(count=1000):
    rng = random.Random(20240901)
    return [
        random_term_set(rng, max_vars=4, max_terms=30, max_exp=6)
        for _ in range(count)
    ]


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


def test_criterion_01_table_reproduction(tmp_path, capsys):
    path = tmp_path / "u.terms"
    path.write_text(SIX_TERMS_FILE, encoding="utf-8")
    start = time.perf_counter()
    assert main(["nmp", str(path)]) == 0
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "x1^5: x2, x3^2",
        "x1^2*x2: x2^3, x3^2",
        "x1*x2^4: x3^2",
        "x1^2*x3^2: x2^2, x3^3",
        "x1*x2^2*x3^2: x3^3",
        "x3^5: -",
    ]
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 (nonmultiplicative power table, {elapsed:.3f}s): PASS")


def test_criterion_02_divisor_assignments(tmp_path, capsys):
    assignments = [
        ("x1^5", "x2", "x1^2*x2"),
        ("x1^5", "x3^2", "x1^2*x3^2"),
        ("x1^2*x2", "x2^3", "x1*x2^4"),
        ("x1^2*x2", "x3^2", "x1^2*x3^2"),
        ("x1*x2^4", "x3^2", "x1*x2^2*x3^2"),
        ("x1^2*x3^2", "x3^3", "x3^5"),
        ("x1^2*x3^2", "x2^2", "x1*x2^2*x3^2"),
        ("x1*x2^2*x3^2", "x3^3", "x3^5"),
    ]
    for term, power, divisor in assignments:
        assert divisors_for_nm_product(SIX_TERMS, g(term), g(power)) == (g(divisor),)
    path = tmp_path / "u.terms"
    path.write_text(SIX_TERMS_FILE, encoding="utf-8")
    assert main(["check-complete", str(path)]) == 0
    capsys.readouterr()
    print("\nACCEPTANCE 2 (divisor assignments and completeness): PASS")


def test_criterion_03_barcode_shape_and_elist():
    five = TermSet(
        3,
        [Term((1, 0, 0)), Term((2, 0, 0)), Term((0, 1, 1)), Term((1, 2, 1)), Term((0, 3, 1))],
    )
    bc = BarCode.build(five)
    assert bc.one_lengths(2) == (2, 1, 1, 1)
    assert bc.one_lengths(3) == (2, 3)
    simplex = BarCode.build(
        TermSet(3, [Term((0, 0, 0)), Term((1, 0, 0)), Term((0, 1, 0)), Term((0, 0, 1))])
    )
    assert e_list(simplex, 3).entries == (0, 1, 0)
    print("\nACCEPTANCE 3 (bar code shape and e-list): PASS")


def test_criterion_04_star_set():
    simplex = TermSet(
        3, [Term((0, 0, 0)), Term((1, 0, 0)), Term((0, 1, 0)), Term((0, 0, 1))]
    )
    expected = TermSet(
        3,
        [
            Term((2, 0, 0)),
            Term((1, 1, 0)),
            Term((0, 2, 0)),
            Term((1, 0, 1)),
            Term((0, 1, 1)),
            Term((0, 0, 2)),
        ],
    )
    assert star_set(BarCode.build(simplex)) == expected
    print("\nACCEPTANCE 4 (star set of the coordinate simplex): PASS")


def test_criterion_05_roundtrip(corpus):
    start = time.perf_counter()
    failures = sum(1 for ts in corpus if decode(BarCode.build(ts)) != ts)
    elapsed = time.perf_counter() - start
    assert failures == 0
    assert len(corpus) >= 1000
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 5 (decode/build round trip on {len(corpus)} sets,"
        f" {elapsed:.2f}s): PASS"
    )


def test_criterion_06_admissibility(corpus):
    disagreements = sum(
        1
        for ts in corpus
        if is_admissible(BarCode.build(ts)) != ts.is_order_ideal()
    )
    assert disagreements == 0
    print(
        f"\nACCEPTANCE 6 (admissibility vs divisor closure on {len(corpus)} sets): PASS"
    )


def test_criterion_07_fast_paths_equal_oracles():
    rng = random.Random(20240902)
    checked = 0
    start = time.perf_counter()
    for _ in range(500):
        ts = random_term_set(rng, max_vars=4, max_terms=25, max_exp=5)
        bc = BarCode.build(ts)
        fast = nmp_table(ts, bc)
        slow = nmp_table_bruteforce(ts)
        assert fast == slow
        for t in ts:
            assert multiplicative_variables_from_stars(bc, t) == multiplicative_variables(ts, t)
            for p in nm_powers(ts.nvars, fast[t]):
                via_bar = divisors_for_nm_product(ts, t, p, bc, fast)
                via_scan = janet_like_divisors(ts, t * p, slow)
                assert via_bar == via_scan
        checked += 1
    elapsed = time.perf_counter() - start
    print(
        f"\nACCEPTANCE 7 (fast paths vs definitional oracles on {checked} sets,"
        f" {elapsed:.2f}s): PASS"
    )


def test_criterion_08_janet_cones():
    rng = random.Random(20240903)
    for _ in range(40):
        seed_set = random_term_set(rng, max_vars=3, max_terms=8, max_exp=4)
        ts, _ = complete(seed_set)
        for w in expanded_box(ts, margin=1):
            if sum(w.exponents) > 8:
                continue
            divisors = []
            for t in ts:
                if not t.divides(w):
                    continue
                mult = multiplicative_variables(ts, t)
                q = w / t
                if all(q.exponents[i - 1] == 0 or i in mult for i in range(1, ts.nvars + 1)):
                    divisors.append(t)
            assert len(divisors) <= 1
            if divisors:
                assert divisors[0] in janet_like_divisors(ts, w)
    print("\nACCEPTANCE 8 (Janet cone disjointness, Janet implies Janet-like): PASS")


def _completion_corpus():
    rng = random.Random(20240904)
    for _ in range(200):
        yield random_term_set(rng, max_vars=3, max_terms=10, max_exp=3)
    rng = random.Random(20240906)
    for _ in range(150):
        yield TermSet(4, [random_term(rng, 4, 3) for _ in range(rng.randint(1, 10))])


def test_criterion_09_completion_soundness():
    fixed = parse_term_set("vars: 3\nx2\nx1*x3\n")
    done, report = complete(fixed)
    assert report.added == (g("x2*x3"),)
    assert done == TermSet(fixed.nvars, [*fixed, g("x2*x3")])

    checked = 0
    start = time.perf_counter()
    for ts in _completion_corpus():
        done, _ = complete(ts)
        table = nmp_table_bruteforce(done)
        for t in done:
            for p in nm_powers(done.nvars, table[t]):
                assert janet_like_divisors(done, t * p, table)
        assert set(ts) <= set(done)
        box = ts.bounding_box()
        for t in done:
            assert all(e <= b for e, b in zip(t.exponents, box))
        for w in expanded_box(ts, margin=1):
            assert in_semigroup_ideal(ts, w) == in_semigroup_ideal(done, w)
        checked += 1
    elapsed = time.perf_counter() - start
    print(
        f"\nACCEPTANCE 9 (completion soundness on {checked} sets in up to 4"
        f" variables plus fixed case, {elapsed:.2f}s): PASS"
    )


def test_criterion_10_points_pipeline():
    rng = random.Random(20240905)
    start = time.perf_counter()
    for _ in range(100):
        X = random_point_set(rng, max_points=10, max_vars=3, coord_bound=10)
        basis = janet_like_basis(X)
        for gpoly in basis:
            for p in X:
                assert gpoly.evaluate(p) == 0
        leads = TermSet(X.nvars, [gpoly.leading_term for gpoly in basis])
        assert len(leads) == len(basis)
        assert is_complete(leads).complete
        escalier = groebner_escalier(X)
        f = random_polynomial(rng, X.nvars)
        h = random_polynomial(rng, X.nvars)
        a = F(rng.randint(-6, 6), rng.randint(1, 6))
        b = F(rng.randint(-6, 6), rng.randint(1, 6))
        nf_f = normal_form(f, escalier, X)
        nf_h = normal_form(h, escalier, X)
        combo = normal_form(combination((a, f), (b, h)), escalier, X)
        assert combo == combination((a, nf_f), (b, nf_h))
        assert normal_form(nf_f, escalier, X) == nf_f
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 10 (points pipeline on 100 sets, {elapsed:.2f}s): PASS")
