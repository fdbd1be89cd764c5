"""Janet and Janet-like division on finite term sets.

Every quantity here comes in two routes that the test suite holds against
each other: a definitional scan over the set (the reference), and a fast path
reading the answer off the bar code. Both are part of the library on purpose;
the scans are the ground truth the fast paths are checked against.

Janet: x_j is multiplicative for t in U when no term of U agrees with t on
all exponents above j and exceeds it at j. Janet-like: when x_i is
nonmultiplicative for t, the minimal positive gap k_i in the i-exponent among
the agreeing terms makes x_i^(k_i) a nonmultiplicative power of t; a
multiplier for t is any term divisible by none of t's nonmultiplicative
powers, and t Janet-like divides w when w/t is a multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .barcode import BarCode, star_positions
from .errors import (
    CompletionBoundError,
    EmptyInputError,
    InternalInvariantError,
    MembershipError,
)
from .terms import Term, TermSet


@dataclass(frozen=True)
class JanetAnnotation:
    """Per-term Janet data: multiplicative variables and the powers attached
    to the nonmultiplicative ones."""

    term: Term
    multiplicative: frozenset[int]
    nmp: dict[int, int] = field(default_factory=dict)

    @property
    def nonmultiplicative(self) -> frozenset[int]:
        return frozenset(range(1, self.term.nvars + 1)) - self.multiplicative

    def powers(self) -> tuple[Term, ...]:
        """Nonmultiplicative powers as terms, in variable order."""
        n = self.term.nvars
        return tuple(
            Term.variable(n, i, k) for i, k in sorted(self.nmp.items())
        )


@dataclass(frozen=True)
class Witness:
    """One completeness obligation: term * power, and who divides it."""

    term: Term
    power: Term
    divisor: Term | None


@dataclass(frozen=True)
class CompletionReport:
    complete: bool
    witnesses: tuple[Witness, ...]
    added: tuple[Term, ...] = ()

    def failing(self) -> tuple[Witness, ...]:
        return tuple(w for w in self.witnesses if w.divisor is None)


def _require_member(terms: TermSet, t: Term) -> None:
    if t not in terms:
        raise MembershipError(f"{t} does not belong to the given set")


def _agrees_above(u: Term, t: Term, i: int) -> bool:
    return u.exponents[i:] == t.exponents[i:]


def multiplicative_variables(terms: TermSet, t: Term) -> frozenset[int]:
    """Janet multiplicative variables of t, by the definitional scan."""
    _require_member(terms, t)
    out = set()
    for i in range(1, terms.nvars + 1):
        if not any(
            _agrees_above(u, t, i) and u.exponents[i - 1] > t.exponents[i - 1]
            for u in terms
        ):
            out.add(i)
    return frozenset(out)


def multiplicative_variables_from_stars(bc: BarCode, t: Term) -> frozenset[int]:
    """Star reading of the same data: x_i is multiplicative for t exactly
    when the row-i bar under t is followed by a star."""
    col = bc.column_of(t)
    stars = star_positions(bc)
    return frozenset(
        i
        for i in range(1, bc.nvars + 1)
        if stars.has(i, bc.bar_of_column(i, col))
    )


def janet_divisor(terms: TermSet, w: Term) -> Term | None:
    """The unique t in the set with w = t*v and v supported on t's
    multiplicative variables, or None."""
    found = []
    for t in terms:
        if not t.divides(w):
            continue
        mult = multiplicative_variables(terms, t)
        quotient = w / t
        if all(
            quotient.exponents[i - 1] == 0 or i in mult
            for i in range(1, terms.nvars + 1)
        ):
            found.append(t)
    if len(found) > 1:
        raise InternalInvariantError(
            f"{w} has {len(found)} Janet divisors; cones must be disjoint"
        )
    return found[0] if found else None


def nmp_table(terms: TermSet, bc: BarCode | None = None) -> dict[Term, JanetAnnotation]:
    """Annotations for every term, read off the bar code.

    A missing star after the row-i bar under t means x_i is
    nonmultiplicative, and then the gap to any label over the next i-bar
    (all share the i-exponent; the leftmost is used) is the power k_i.
    """
    if len(terms) == 0:
        raise EmptyInputError("cannot annotate an empty set")
    if bc is None:
        bc = BarCode.build(terms)
    stars = star_positions(bc)
    table: dict[Term, JanetAnnotation] = {}
    for col, t in enumerate(bc.labels, 1):
        mult = set()
        nmp: dict[int, int] = {}
        for i in range(1, bc.nvars + 1):
            j = bc.bar_of_column(i, col)
            if stars.has(i, j):
                mult.add(i)
            else:
                neighbor = bc.label_of_bar(i, j + 1)
                nmp[i] = neighbor.deg(i) - t.deg(i)
        table[t] = JanetAnnotation(t, frozenset(mult), nmp)
    return table


def nmp_table_bruteforce(terms: TermSet) -> dict[Term, JanetAnnotation]:
    """Annotations by the definitional max/min scans, no bar code."""
    if len(terms) == 0:
        raise EmptyInputError("cannot annotate an empty set")
    table: dict[Term, JanetAnnotation] = {}
    for t in terms:
        mult = set()
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
            else:
                mult.add(i)
        table[t] = JanetAnnotation(t, frozenset(mult), nmp)
    return table


def is_multiplier(
    terms: TermSet,
    t: Term,
    v: Term,
    table: dict[Term, JanetAnnotation] | None = None,
) -> bool:
    """True when no nonmultiplicative power of t divides v."""
    if table is None:
        table = nmp_table(terms)
    if t not in table:
        raise MembershipError(f"{t} does not belong to the given set")
    ann = table[t]
    return all(v.deg(i) < k for i, k in ann.nmp.items())


def janet_like_divisors(
    terms: TermSet,
    w: Term,
    table: dict[Term, JanetAnnotation] | None = None,
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


def divisors_for_nm_product(
    terms: TermSet,
    t: Term,
    p: Term,
    bc: BarCode | None = None,
    table: dict[Term, JanetAnnotation] | None = None,
) -> tuple[Term, ...]:
    """Janet-like divisors of w = t*p located through the bar code.

    For p = x_i^(k_i) a nonmultiplicative power of t, a divisor s agrees
    with w on x_i..x_n (else a term agreeing with s above some l carries w_l
    and s's power at x_l divides w/s), so it lies over the i-bar next to
    t's. At each lower row l, s's power at x_l is the gap to the next bar
    over the same parent, so s_l must be the largest bar exponent not above
    w_l. One descent finds this only candidate; the table confirms it.
    """
    if bc is None:
        bc = BarCode.build(terms)
    if table is None:
        table = nmp_table(terms, bc)
    if t not in table:
        raise MembershipError(f"{t} does not belong to the given set")
    i = p.min_variable()
    if i is None or len(p.exponents) != terms.nvars or any(p.exponents[i:]):
        raise ValueError(f"{p} is not a pure power")
    k = p.exponents[i - 1]
    if table[t].nmp.get(i) != k:
        raise ValueError(f"{p} is not a nonmultiplicative power of {t}")
    w = list(t.exponents)
    w[i - 1] += k
    col = bc.descend(i, bc.bar_of_column(i, bc.column_of(t)) + 1, w)
    if col is None:
        return ()
    s = bc.labels[col - 1]
    if all(a <= b for a, b in zip(s.exponents, w)) and all(
        w[v - 1] - s.exponents[v - 1] < gap for v, gap in table[s].nmp.items()
    ):
        return (s,)
    return ()


def is_complete(terms: TermSet) -> CompletionReport:
    """Check every (term, nonmultiplicative power) pair for a divisor of the
    product; the set is complete when all pairs have one."""
    if len(terms) == 0:
        raise EmptyInputError("completeness is defined for nonempty sets")
    bc = BarCode.build(terms)
    table = nmp_table(terms, bc)
    witnesses = []
    for t in terms:
        for p in table[t].powers():
            found = divisors_for_nm_product(terms, t, p, bc, table)
            witnesses.append(Witness(t, p, found[0] if found else None))
    return CompletionReport(
        complete=all(w.divisor is not None for w in witnesses),
        witnesses=tuple(witnesses),
    )


def complete(terms: TermSet) -> tuple[TermSet, CompletionReport]:
    """Smallest-step completion: while some term times one of its
    nonmultiplicative powers lacks a divisor, add the lex-least such product
    and rebuild.

    Every candidate u*x_i^(k_i) matches the i-exponent of an existing term
    and copies u elsewhere, so candidates stay inside the bounding box of the
    input; that keeps the loop finite and is asserted rather than assumed.
    """
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


def janet_implies_janet_like(terms: TermSet, w: Term) -> bool:
    """True when w's Janet divisor, if any, is also a Janet-like divisor."""
    t = janet_divisor(terms, w)
    if t is None:
        return True
    return t in janet_like_divisors(terms, w)
