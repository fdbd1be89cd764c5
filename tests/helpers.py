"""Shared random generators and the readers of the CLI's JSON output. The
brute-force reference routes live in oracles.py."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from barjanet import (
    INF,
    BarCode,
    CornerVector,
    PointSet,
    Polynomial,
    StarPlacement,
    Term,
    TermSet,
    parse_term,
    parse_term_set,
)
from oracles import box_terms


def random_term(rng: random.Random, nvars: int, max_exp: int) -> Term:
    return Term(tuple(rng.randint(0, max_exp) for _ in range(nvars)))


def random_term_set(
    rng: random.Random,
    max_vars: int = 4,
    max_terms: int = 30,
    max_exp: int = 6,
) -> TermSet:
    nvars = rng.randint(1, max_vars)
    size = rng.randint(1, max_terms)
    terms = {random_term(rng, nvars, max_exp) for _ in range(size)}
    return TermSet(nvars, terms)


def divisor_closure(terms: TermSet) -> TermSet:
    seen = set(terms)
    stack = list(terms)
    while stack:
        t = stack.pop()
        for i in range(terms.nvars):
            if t.exponents[i]:
                exps = list(t.exponents)
                exps[i] -= 1
                d = Term(exps)
                if d not in seen:
                    seen.add(d)
                    stack.append(d)
    return TermSet(terms.nvars, seen)


def random_order_ideal(
    rng: random.Random,
    max_vars: int = 4,
    max_seed_terms: int = 5,
    max_exp: int = 3,
) -> TermSet:
    nvars = rng.randint(1, max_vars)
    seeds = {
        random_term(rng, nvars, max_exp)
        for _ in range(rng.randint(1, max_seed_terms))
    }
    return divisor_closure(TermSet(nvars, seeds))


def grown_order_ideal(rng: random.Random, nvars: int, size: int) -> TermSet:
    """Order ideal of exactly size terms, grown from 1 by adding a random
    multiple x_i*t of a member whose one-step divisors are all present."""
    ideal = {Term.one(nvars)}
    while len(ideal) < size:
        exps = list(rng.choice(sorted(ideal)).exponents)
        exps[rng.randrange(nvars)] += 1
        u = Term(exps)
        if all(
            Term(exps[:i] + [e - 1] + exps[i + 1 :]) in ideal
            for i, e in enumerate(exps)
            if e
        ):
            ideal.add(u)
    return TermSet(nvars, ideal)


def in_semigroup_ideal(generators: TermSet, w: Term) -> bool:
    return any(g.divides(w) for g in generators)


def expanded_box(terms: TermSet, margin: int = 0) -> list[Term]:
    bounds = tuple(b + margin for b in terms.bounding_box())
    return list(box_terms(bounds))


def random_point_set(
    rng: random.Random,
    max_points: int = 10,
    max_vars: int = 3,
    coord_bound: int = 10,
) -> PointSet:
    nvars = rng.randint(1, max_vars)
    count = rng.randint(1, max_points)
    points = set()
    while len(points) < count:
        points.add(
            tuple(
                Fraction(
                    rng.randint(-coord_bound, coord_bound),
                    rng.randint(1, coord_bound),
                )
                for _ in range(nvars)
            )
        )
    return PointSet(sorted(points))


def random_polynomial(rng: random.Random, nvars: int, max_exp: int = 3):
    size = rng.randint(0, 5)
    coeffs = {}
    for _ in range(size):
        t = random_term(rng, nvars, max_exp)
        coeffs[t] = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
    return Polynomial(nvars, coeffs)


def scaled(f: Polynomial, a: Fraction) -> Polynomial:
    """a * f, built term by term through the constructor."""
    return Polynomial(f.nvars, {t: a * c for t, c in f.coefficients.items()})


def nm_powers(nvars: int, nmp: dict[int, int]) -> tuple[Term, ...]:
    """The powers x_i^(k_i) of one nmp_table entry, by increasing i."""
    return tuple(Term.variable(nvars, i, k) for i, k in sorted(nmp.items()))


def multiplicative(nvars: int, nmp: dict[int, int]) -> frozenset[int]:
    """The variables without a power in one nmp_table entry."""
    return frozenset(range(1, nvars + 1)).difference(nmp)


def all_terms_up_to_degree(nvars: int, max_total: int, cap: int) -> list[Term]:
    out = []
    for exps in itertools.product(range(cap + 1), repeat=nvars):
        if sum(exps) <= max_total:
            out.append(Term(exps))
    return out


def benchmark_shaped_sets(seed):
    """Sets like the annotate benchmark's, smaller: random sets and order
    ideals of a few hundred terms in 5-6 variables, 1-variable sets and
    single terms."""
    rng = random.Random(seed)
    for nvars in (5, 6):
        yield TermSet(nvars, [random_term(rng, nvars, 6) for _ in range(300)])
        yield grown_order_ideal(rng, nvars, 250)
        yield TermSet(nvars, [random_term(rng, nvars, 3)])
    yield TermSet(1, [Term((e,)) for e in rng.sample(range(200), 40)])
    yield TermSet(1, [Term((7,))])


def sparse_wide_sets(seed):
    """Sets in 64 to 1,024 variables with one to four nonzero exponents per
    term. Pooled ones draw from 8 variables, x1 and x_n among them, so terms
    share variables; the others draw from all n."""
    rng = random.Random(seed)
    for nvars, size in ((64, 60), (256, 30), (1024, 12)):
        pool = rng.sample(range(1, nvars - 1), 6) + [0, nvars - 1]
        for support in (pool, range(nvars)):
            terms = set()
            while len(terms) < size:
                exps = [0] * nvars
                for v in rng.sample(support, rng.randint(1, 4)):
                    exps[v] = rng.randint(1, 3)
                terms.add(Term(exps))
            yield TermSet(nvars, terms)


def sparse_ci_text() -> str:
    """The CI's sparse input file: 300 terms in 1,024 variables, each with one
    to four factors of exponent 1 to 5 (random.Random(3))."""
    rng = random.Random(3)
    texts = set()
    while len(texts) < 300:
        support = rng.sample(range(1, 1025), rng.randint(1, 4))
        texts.add("*".join(f"x{v}^{rng.randint(1, 5)}" for v in sorted(support)))
    return "vars: 1024\n" + "\n".join(sorted(texts))


def sparse_ci_terms() -> TermSet:
    return parse_term_set(sparse_ci_text())


# Readers of the CLI's JSON output, the inverses of to_json_dict,
# corner_to_json and polynomial_to_json.


def barcode_from_json(doc: dict) -> tuple[BarCode, StarPlacement | None]:
    nvars = int(doc["vars"])
    labels = [parse_term(s, nvars) for s in doc["labels"]]
    bc = BarCode.from_lengths(doc["rows"], labels)
    stars = None
    if "stars" in doc:
        rows = [[] for _ in range(nvars)]
        for i, j in doc["stars"]:
            rows[int(i) - 1].append(int(j))
        stars = StarPlacement(tuple(map(tuple, rows)))
    return bc, stars


def corner_from_json(entries: list) -> CornerVector:
    return CornerVector(tuple(INF if e == "inf" else int(e) for e in entries))


def polynomial_from_json(doc: dict, nvars: int) -> Polynomial:
    return Polynomial(
        nvars,
        {parse_term(s, nvars): Fraction(c) for s, c in doc.items()},
    )
