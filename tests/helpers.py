"""Shared random generators and brute-force reference checks."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from barjanet import PointSet, Term, TermSet, box_terms


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
    from barjanet import Polynomial

    size = rng.randint(0, 5)
    coeffs = {}
    for _ in range(size):
        t = random_term(rng, nvars, max_exp)
        coeffs[t] = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
    return Polynomial(nvars, coeffs)


def all_terms_up_to_degree(nvars: int, max_total: int, cap: int) -> list[Term]:
    out = []
    for exps in itertools.product(range(cap + 1), repeat=nvars):
        if sum(exps) <= max_total:
            out.append(Term(exps))
    return out
