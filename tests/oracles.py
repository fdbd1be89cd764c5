"""Definitional reference routes: the oracles the package's fast paths are
tested against.

Each function computes its quantity straight from the definition, by
scanning the term set, the bounding box or a Fraction echelon, with no bar
code. The package ships only the fast paths; the tests hold every fast path
equal to the oracle here on seeded random inputs. test_oracles.py checks
that no name defined here is also defined in barjanet.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from typing import Iterator, Sequence

from barjanet import (
    INF,
    AdmissibilityError,
    CompletionBoundError,
    CompletionReport,
    CornerVector,
    EmptyInputError,
    InternalInvariantError,
    MembershipError,
    PointSet,
    Polynomial,
    Term,
    TermSet,
    complete,
    is_complete,
    monomial_generators,
    nmp_table,
)
from barjanet.points import eval_term


# Janet and Janet-like division (fast paths: nmp_table,
# multiplicative_variables_from_stars, divisors_for_nm_product and
# is_complete's descent)


def _agrees_above(u: Term, t: Term, i: int) -> bool:
    return u.exponents[i:] == t.exponents[i:]


def multiplicative_variables(terms: TermSet, t: Term) -> frozenset[int]:
    """Janet multiplicative variables of t, by the definitional scan."""
    if t not in terms:
        raise MembershipError(f"{t} does not belong to the given set")
    out = set()
    for i in range(1, terms.nvars + 1):
        if not any(
            _agrees_above(u, t, i) and u.exponents[i - 1] > t.exponents[i - 1]
            for u in terms
        ):
            out.add(i)
    return frozenset(out)


def janet_divisor(terms: TermSet, w: Term) -> Term | None:
    """The unique t in the set with w = t*v and v supported on t's
    multiplicative variables, or None."""
    found = []
    for t in terms:
        if not t.divides(w):
            continue
        mult = multiplicative_variables(terms, t)
        if all(e == 0 or i in mult for i, e in enumerate((w / t).exponents, 1)):
            found.append(t)
    if len(found) > 1:
        raise InternalInvariantError(
            f"{w} has {len(found)} Janet divisors; cones must be disjoint"
        )
    return found[0] if found else None


def nmp_table_bruteforce(terms: TermSet) -> dict[Term, dict[int, int]]:
    """nmp_table by the definitional max/min scans, no bar code."""
    if len(terms) == 0:
        raise EmptyInputError("cannot annotate an empty set")
    table = {}
    for t in terms:
        nmp: dict[int, int] = {}
        for i in range(1, terms.nvars + 1):
            group = [u for u in terms if _agrees_above(u, t, i)]
            h = max(u.exponents[i - 1] for u in group) - t.exponents[i - 1]
            if h > 0:
                nmp[i] = min(
                    u.exponents[i - 1] - t.exponents[i - 1]
                    for u in group
                    if u.exponents[i - 1] > t.exponents[i - 1]
                )
        table[t] = nmp
    return table


def is_multiplier(
    terms: TermSet,
    t: Term,
    v: Term,
    table: dict[Term, dict[int, int]] | None = None,
) -> bool:
    """True when no nonmultiplicative power of t divides v."""
    if table is None:
        table = nmp_table(terms)
    if t not in table:
        raise MembershipError(f"{t} does not belong to the given set")
    t._check_dim(v)
    return all(v.exponents[i - 1] < k for i, k in table[t].items())


def janet_like_divisors(
    terms: TermSet,
    w: Term,
    table: dict[Term, dict[int, int]] | None = None,
) -> tuple[Term, ...]:
    """All Janet-like divisors of w in the set, lex-increasing.

    On a complete set there is at most one; during completion an incomplete
    set may momentarily offer several, so all candidates are returned.
    """
    if table is None:
        table = nmp_table(terms)
    return tuple(
        t
        for t in terms
        if t.divides(w) and is_multiplier(terms, t, w / t, table)
    )


def janet_implies_janet_like(terms: TermSet, w: Term) -> bool:
    """True when w's Janet divisor, if any, is also a Janet-like divisor."""
    t = janet_divisor(terms, w)
    return t is None or t in janet_like_divisors(terms, w)


def janet_completion(terms: TermSet) -> TermSet:
    """Janet completion: while some prolongation u*x_i, with x_i
    nonmultiplicative for u, has no janet_divisor, add the lex-least such
    prolongation. Janet division is Noetherian, so the loop ends. Gerdt and
    Blinkov ("Janet-like monomial division", CASC 2005) show that the
    Janet-like completion, complete(), is never larger."""
    current = terms
    while True:
        everything = set(range(1, current.nvars + 1))
        prolongations = sorted(
            u * Term.variable(current.nvars, i)
            for u in current
            for i in everything - multiplicative_variables(current, u)
        )
        missing = next((w for w in prolongations if janet_divisor(current, w) is None), None)
        if missing is None:
            return current
        current = TermSet(current.nvars, [*current, missing])


# Bar codes and stars (fast path: star_positions and star_set)


def box_terms(bounds: Sequence[int]) -> Iterator[Term]:
    """All terms with deg_i <= bounds[i], yielded in lex-increasing order."""
    ranges = [range(b + 1) for b in reversed(bounds)]
    for rev in itertools.product(*ranges):
        yield Term(rev[::-1])


def star_set_bruteforce(ideal: TermSet) -> TermSet:
    """Definitional star set: terms outside the order ideal whose quotient by
    their minimal variable lies inside. Enumerates a bounding box grown by
    one in each direction, which contains every candidate."""
    if not ideal.is_order_ideal():
        raise AdmissibilityError("the star set is defined for order ideals only")
    bounds = tuple(b + 1 for b in ideal.bounding_box())
    out = []
    for t in box_terms(bounds):
        if t in ideal:
            continue
        i = t.min_variable()
        if i is None:
            continue
        if t / Term.variable(ideal.nvars, i) in ideal:
            out.append(t)
    return TermSet(ideal.nvars, out)


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


# Completion (fast path: complete's live state)


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
        candidate = min(w.term * w.power for w in report.witnesses if w.divisor is None)
        if any(e > b for e, b in zip(candidate.exponents, box)):
            raise CompletionBoundError(
                f"completion candidate {candidate} escapes the bounding box {box}"
            )
        if candidate in current:
            raise InternalInvariantError(
                f"{candidate} is already present yet reported without a divisor"
            )
        added.append(candidate)
        current = TermSet(current.nvars, [*current, candidate])


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


# Corner vectors (fast path: infinite_corners)


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


# Ideals of points (fast path: escalier_scan and janet_like_basis)


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
                if u.exponents[j - 1]
            )
            if divisors_kept:
                heapq.heappush(heap, (u._rev, u))
                queued[u] = [a * b for a, b in zip(queued[t], columns[i - 1])]
    if len(kept) != m:
        raise InternalInvariantError(
            "distinct points must admit one standard monomial per point"
        )
    return TermSet(n, kept), interpolant


def combination(*summands: tuple[Fraction, Polynomial]) -> Polynomial:
    """The sum of a*f over the (a, f) summands: the Polynomial constructor
    merges repeated terms and drops zero coefficients."""
    n = summands[0][1].nvars
    return Polynomial(n, [(t, a * c) for a, f in summands for t, c in f.coefficients.items()])


def janet_like_basis_by_fractions(points: PointSet):
    """The escalier and the basis of janet_like_basis, over the reference
    scan."""
    escalier, interpolant = escalier_scan_by_fractions(points)
    completed, _ = complete(monomial_generators(escalier))
    basis = [
        combination((1, Polynomial(t.nvars, {t: 1})), (-1, interpolant(t)))
        for t in completed.terms
    ]
    return escalier, basis


def janet_like_reduce(
    f: Polynomial, basis: Sequence[Polynomial]
) -> tuple[Polynomial, list[tuple[Term, ...]]]:
    """Janet-like reduction of f by a basis: while some term of f has a
    Janet-like divisor among the leading terms (janet_like_divisors over
    nmp_table_bruteforce), cancel the lex-greatest such term u with the
    multiple of the basis element whose leading term divides it. Returns the
    remainder and, per step, every divisor u had; the first one is used."""
    by_lead = {g.leading_term: g for g in basis}
    leads = TermSet(f.nvars, by_lead)
    table = nmp_table_bruteforce(leads)
    coeffs, steps = dict(f.coefficients), []
    while True:
        found = ((u, janet_like_divisors(leads, u, table)) for u in sorted(coeffs, reverse=True))
        u, divisors = next(((u, ds) for u, ds in found if ds), (None, ()))
        if u is None:
            return Polynomial(f.nvars, coeffs), steps
        steps.append(divisors)
        g = by_lead[divisors[0]]
        quotient, c = u / g.leading_term, coeffs[u] / g.coefficients[g.leading_term]
        for s, a in g.coefficients.items():
            v = s * quotient
            coeffs[v] = coeffs.get(v, 0) - c * a
            if not coeffs[v]:
                del coeffs[v]
