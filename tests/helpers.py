"""Shared random generators and brute-force reference checks."""

from __future__ import annotations

import heapq
import itertools
import random
from fractions import Fraction

from barjanet import (
    INF,
    BarCode,
    CompletionBoundError,
    CompletionReport,
    CornerVector,
    EmptyInputError,
    InternalInvariantError,
    PointSet,
    Polynomial,
    StarPlacement,
    Term,
    TermSet,
    box_terms,
    complete,
    is_complete,
    monomial_generators,
    nmp_table,
    parse_term,
    parse_term_set,
)
from barjanet.points import eval_term


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


def corners_by_definition(
    terms: TermSet, table: dict[Term, dict[int, int]]
) -> dict[Term, CornerVector]:
    """infinite_corners one term at a time: every entry infinite, except
    t_i + k_i - 1 for each power x_i^(k_i) in the table."""
    out = {}
    for t in terms:
        entries = [INF] * terms.nvars
        for i, k in table[t].items():
            entries[i - 1] = t.exponents[i - 1] + k - 1
        out[t] = CornerVector(tuple(entries))
    return out


def stars_by_definition(terms: TermSet) -> tuple[tuple[int, ...], ...]:
    """Per row i, the bars j of row i that a star follows, by definition: the
    bars are the runs of equal pi^i, read off the sorted terms alone, and a
    star follows bar j when pi^(i+1) changes between its last column and the
    next bar's first, or when j is the last bar."""
    cols = [u.exponents for u in terms.terms]
    rows = []
    for i in range(1, terms.nvars + 1):
        ends = [c for c in range(1, len(cols)) if cols[c - 1][i - 1 :] != cols[c][i - 1 :]]
        starred = [j for j, c in enumerate(ends, 1) if cols[c - 1][i:] != cols[c][i:]]
        rows.append((*starred, len(ends) + 1))
    return tuple(rows)


def all_terms_up_to_degree(nvars: int, max_total: int, cap: int) -> list[Term]:
    out = []
    for exps in itertools.product(range(cap + 1), repeat=nvars):
        if sum(exps) <= max_total:
            out.append(Term(exps))
    return out


def complete_by_rebuild(terms: TermSet) -> tuple[TermSet, CompletionReport]:
    """Reference completion: check every obligation from scratch, add the
    lex-least failing product, rebuild, repeat. complete() must return the
    same set, added order and witnesses."""
    if len(terms) == 0:
        raise EmptyInputError("completeness is defined for nonempty sets")
    box = terms.bounding_box()
    current = terms
    added: list[Term] = []
    while True:
        report = is_complete(current)
        if report.complete:
            return current, CompletionReport(
                complete=True,
                witnesses=report.witnesses,
                added=tuple(added),
            )
        candidate = min(w.term * w.power for w in report.failing())
        if any(e > b for e, b in zip(candidate.exponents, box)):
            raise CompletionBoundError(
                f"completion candidate {candidate} escapes the bounding box {box}"
            )
        if candidate in current:
            raise InternalInvariantError(
                f"{candidate} is already present yet reported without a divisor"
            )
        added.append(candidate)
        current = current.with_terms([candidate])


def run_rule_rechecks(nvars, checked, columns, c):
    """The obligations the run rule re-checks when c joins a live completion
    state with these records and columns, in three sets: those whose
    product agrees with c on x_i..x_n, those whose power c changes (by
    nmp_table before and after), and c's own. Adding c can change no other
    record; complete() re-checks a subset of their union (the path rule)."""
    before = nmp_table(TermSet(nvars, columns))
    after = nmp_table(TermSet(nvars, [*columns, c]))
    agreeing = {
        (t, i) for (t, i), (w, _) in checked.items() if w[i - 1 :] == c.exponents[i - 1 :]
    }
    changed = {
        (t, i) for t, nmp in before.items() for i, k in after[t].items() if nmp.get(i) != k
    }
    return agreeing, changed, {(c, i) for i in after[c]}


def descent_path(columns, w):
    """The descent for the product w over the columns, by definition: going
    down from x_n, the largest x_l-exponent not above w_l among the columns
    agreeing with the picks above. Returns the picks from x_n down and the
    row where no column qualifies, or 0 when the descent reaches x_1."""
    agreeing = list(columns)
    picks = []
    for row in range(len(w), 0, -1):
        fitting = [u.exponents[row - 1] for u in agreeing if u.exponents[row - 1] <= w[row - 1]]
        if not fitting:
            return picks, row
        picks.append(max(fitting))
        agreeing = [u for u in agreeing if u.exponents[row - 1] == picks[-1]]
    return picks, 0


def escalier_scan_by_fractions(points: PointSet):
    """Reference escalier scan over Fraction: the lex escalier of the
    vanishing ideal of the points and the map from a term to its interpolant
    (Buchberger-Moeller). The integer scan of barjanet.points must give the
    same escalier and equal interpolants.

    Terms are visited in increasing lex along the divisor-closed frontier; a
    term is kept exactly when its evaluation vector is independent of those
    already kept, and the complement of the kept set is the leading-term
    ideal. Stops after one term per point. A queued term's vector is its
    parent's times a coordinate column. Each echelon row keeps its pivot
    column, its nonzero entries scaled to 1 there, its pivot value before
    scaling and the reduction factors it met, so an interpolant costs one
    reduction and one back-substitution, both O(m^2).
    """
    n = points.nvars
    m = len(points)
    columns = [[p[i] for p in points] for i in range(n)]
    kept: list[Term] = []
    kept_set: set[Term] = set()
    echelon = []  # (pivot, row scaled to 1 at pivot, pivot value, factors met)

    def reduce(vec):
        factors = []
        for pivot, row, _, _ in echelon:
            factor = vec[pivot]
            if factor:
                for c, v in row:
                    vec[c] -= factor * v
            factors.append(factor)
        return factors

    def interpolant(t):
        vec = [eval_term(t, p) for p in points]
        factors = reduce(vec)
        if any(vec):
            raise InternalInvariantError(f"{t} is independent of a full escalier")
        coeffs = [Fraction(0)] * m
        for k, (_, _, scale, met) in reversed(list(enumerate(echelon))):
            coeffs[k] = c = factors[k] / scale
            if c:
                for j, f in enumerate(met):
                    factors[j] -= c * f
        return Polynomial(n, dict(zip(kept, coeffs)))

    one = Term.one(n)
    heap = [(one._rev, one)]
    queued = {one: [Fraction(1)] * m}  # term -> its evaluation vector
    while heap and len(kept) < m:
        _, t = heapq.heappop(heap)
        vec = list(queued[t])
        factors = reduce(vec)
        pivot = next((c for c in range(m) if vec[c]), None)
        if pivot is None:
            continue
        scale = vec[pivot]
        row = [(c, v / scale) for c, v in enumerate(vec) if v]
        echelon.append((pivot, row, scale, factors))
        kept.append(t)
        kept_set.add(t)
        for i in range(1, n + 1):
            u = t * Term.variable(n, i)
            if u in queued:
                continue
            divisors_kept = all(
                u / Term.variable(n, j) in kept_set
                for j in range(1, n + 1)
                if u.deg(j)
            )
            if divisors_kept:
                heapq.heappush(heap, (u._rev, u))
                queued[u] = [a * b for a, b in zip(queued[t], columns[i - 1])]
    if len(kept) != m:
        raise InternalInvariantError(
            "distinct points must admit one standard monomial per point"
        )
    return TermSet(n, kept), interpolant


def janet_like_basis_by_fractions(points: PointSet):
    """The escalier and the basis of janet_like_basis, over the reference
    scan."""
    escalier, interpolant = escalier_scan_by_fractions(points)
    completed, _ = complete(monomial_generators(escalier))
    basis = [Polynomial.from_term(t) - interpolant(t) for t in completed.terms]
    return escalier, basis


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
