"""Janet and Janet-like division on finite term sets.

Every quantity here is read off the bar code. The definitional scans the
test suite holds each one against are the reference, and they live outside
the package, in tests/oracles.py.

Janet: x_j is multiplicative for t in U when no term of U agrees with t on
all exponents above j and exceeds it at j. Janet-like: when x_i is
nonmultiplicative for t, the minimal positive gap k_i in the i-exponent among
the agreeing terms makes x_i^(k_i) a nonmultiplicative power of t; a
multiplier for t is any term divisible by none of t's nonmultiplicative
powers, and t Janet-like divides w when w/t is a multiplier. The divisor of
t*x_i^(k_i) is the candidate of one bar-code descent, a divisor by
construction (see divisors_for_nm_product), so no table confirms it;
TestOnePassCheck and TestDescentCandidate (tests/test_janet.py) hold it to
the definitional scan on every obligation.

complete() keeps one live state across its rounds and re-checks only the
obligations an added term can change; the round-by-round rebuild it replaces
is its oracle in tests/oracles.py (complete_by_rebuild).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial
from heapq import heappop, heappush
from typing import NamedTuple

from .barcode import BarCode, descend_columns, next_bars, next_powers, star_positions
from .errors import (
    CompletionBoundError,
    EmptyInputError,
    InternalInvariantError,
    MembershipError,
)
from .terms import Term, TermSet

_new_tuple = tuple.__new__  # _new_tuple(Witness, ...) skips its Python-level __new__


class Witness(NamedTuple):
    """One completeness obligation: term * power, and who divides it."""

    term: Term
    power: Term
    divisor: Term | None


@dataclass(frozen=True)
class CompletionReport:
    complete: bool
    witnesses: tuple[Witness, ...]
    added: tuple[Term, ...] = ()


def multiplicative_variables_from_stars(bc: BarCode, t: Term) -> frozenset[int]:
    """Janet multiplicative variables of t, read off the stars: x_i is
    multiplicative for t exactly when the row-i bar under t is followed by a
    star."""
    col = bc.column_of(t)
    stars = star_positions(bc)
    return frozenset(
        i
        for i in range(1, bc.nvars + 1)
        if stars.has(i, bc.bar_of_column(i, col))
    )


def nmp_table(terms: TermSet, bc: BarCode | None = None) -> dict[Term, dict[int, int]]:
    """The nonmultiplicative powers {i: k_i} of every term, read off the bar
    code; the variables without one are multiplicative (Gerdt and Blinkov,
    CASC 2005). Terms are keyed in lex order, each dict by increasing i, and
    no two terms share a dict (complete() updates them in place).

    The lex-last term has none. A term whose lex-next neighbour agrees with
    it above x_d and differs at x_d has the power x_d^(k_d), k_d the gap
    between their x_d-exponents, none below x_d, and the neighbour's powers
    above x_d (see next_powers).
    """
    if len(terms) == 0:
        raise EmptyInputError("cannot annotate an empty set")
    if bc is None:
        bc = BarCode.build(terms)
    return dict(zip(bc.labels, next_powers(bc)))


def divisors_for_nm_product(
    terms: TermSet,
    t: Term,
    p: Term,
    bc: BarCode | None = None,
    table: dict[Term, dict[int, int]] | None = None,
) -> tuple[Term, ...]:
    """Janet-like divisors of w = t*p located through the bar code.

    For p = x_i^(k_i) a nonmultiplicative power of t, a divisor s agrees
    with w on x_i..x_n (else a term agreeing with s above some l carries w_l
    and s's power at x_l divides w/s), so it lies over the i-bar next to
    t's. At each lower row l, s's power at x_l is the gap to the next bar
    over the same parent, so s_l must be the largest bar exponent not above
    w_l. One descent from that bar finds this only candidate (w agrees with
    t below x_i, so t's exponents bound it), and the candidate divides w
    Janet-like by construction, so no table confirms it:
    - the next i-bar holds the columns agreeing with w on x_i..x_n, so w/s
      has no x_i..x_n part;
    - below row i each pick is at most w_l, so s | w;
    - the next bar over the same parent sets s's x_l-power and its exponent
      exceeds w_l, so w_l - s_l is below that power (if x_l has one).
    """
    if bc is None:
        bc = BarCode.build(terms)
    if table is None:
        table = nmp_table(terms, bc)
    if t not in table:
        raise MembershipError(f"{t} does not belong to the given set")
    t._check_dim(p)
    i = p.min_variable()
    if i is None or any(p.exponents[i:]):
        raise ValueError(f"{p} is not a pure power")
    if table[t].get(i) != p.exponents[i - 1]:
        raise ValueError(f"{p} is not a nonmultiplicative power of {t}")
    # x_i is nonmultiplicative, so the row-i bar under t is not the last one
    first, last = bc.bar_span(i, bc.bar_of_column(i, bc.column_of(t)) + 1)
    c = descend_columns(bc.exponent_columns(), first - 1, last, i, t.exponents)
    return (bc.labels[c],) if c >= 0 else ()


def _powers(nvars: int):
    """power(i, k) = x_i^k, built once per (i, k) and shared by every witness."""
    return lru_cache(maxsize=None)(partial(Term.variable, nvars))


def is_complete(terms: TermSet) -> CompletionReport:
    """Check every (term, nonmultiplicative power) pair, in lex order and by
    variable, for a divisor of the product; complete when all have one."""
    if len(terms) == 0:
        raise EmptyInputError("completeness is defined for nonempty sets")
    bc = BarCode.build(terms)
    power = _powers(terms.nvars)
    labels, columns = bc.labels, bc.exponent_columns()
    witnesses, holds = [], True
    for t, bars in zip(labels, next_bars(bc)):
        exps = t.exponents
        for i, e, lo, hi in bars:  # divisors_for_nm_product's descent
            for low in range(i - 2, -1, -1):  # barcode.descend_columns, inline
                col = columns[low]
                if (c := bisect_right(col, exps[low], lo, hi) - 1) < lo:
                    s, holds = None, False
                    break
                lo, hi = bisect_left(col, col[c], lo, c), c + 1
            else:
                s = labels[lo]
            witnesses.append(_new_tuple(Witness, (t, power(i, e - exps[i - 1]), s)))
    return CompletionReport(holds, tuple(witnesses))


def complete(terms: TermSet) -> tuple[TermSet, CompletionReport]:
    """Smallest-step completion: while some term times one of its
    nonmultiplicative powers lacks a divisor, add the lex-least such product.

    Each added term updates one live state in place (_LiveCompletion), which
    re-checks only the obligations the term can change, so the added order
    and the result are those of rebuilding after every term. The report is a
    fresh is_complete of the result, and the live state must agree with it.

    Every candidate u*x_i^(k_i) matches the i-exponent of an existing term
    and copies u elsewhere, so candidates stay inside the bounding box of the
    input; that keeps the loop finite and is asserted rather than assumed.
    """
    if len(terms) == 0:
        raise EmptyInputError("completeness is defined for nonempty sets")
    box = terms.bounding_box()
    live = _LiveCompletion(terms)
    added: list[Term] = []
    while (candidate := live.next_failing()) is not None:
        if any(e > b for e, b in zip(candidate.exponents, box)):
            raise CompletionBoundError(
                f"completion candidate {candidate} escapes the bounding box {box}"
            )
        if candidate in live.nmp:
            raise InternalInvariantError(
                f"{candidate} is already present yet reported without a divisor"
            )
        added.append(candidate)
        live.add(candidate)
    current = TermSet(terms.nvars, live.columns)
    report = is_complete(current)
    if not report.complete or report.witnesses != live.witnesses():
        raise InternalInvariantError(
            "incremental completion disagrees with a fresh check of its result"
        )
    return current, CompletionReport(True, report.witnesses, tuple(added))


class _LiveCompletion:
    """A term set under completion, updated in place one term at a time.

    columns holds the set in lex order and exponents[v] each column's
    x_(v+1)-exponent, as a bar code does; nmp maps each term to its powers
    {i: k_i}. Obligation (t, i) keeps its product w = t*x_i^(k_i) as a
    tuple and its divisor s, the label its descent reaches, or None when it
    fails; paths keeps a column on that descent: s, or the first column of
    the bar it stopped on. Failing ones wait on a heap in lex order of w;
    entries whose obligation has changed since are skipped.

    The descent starts from row n+1 and picks w_l on rows n..i, as t and the
    term that sets k_i are columns; below, it is divisors_for_nm_product's
    descent, so s is a divisor. At row l it picks p_l, the largest
    x_l-exponent not above w_l among the columns agreeing with the picks
    above, or fails there (row f). The path column has every pick, so f is
    its highest row above w.

    Adding c changes the record of (t, i) only if it changes k_i or enters
    the descent. Entering, c agrees with w on x_i..x_n and, at the highest
    row l < i where it leaves the path, p_l < c_l <= w_l (the new pick), or
    l = f and c_f <= w_f (the first); otherwise every pick and s stay, and
    so does the path column. Those t agree with c above x_i and have the
    largest t_i below c_i = w_i: the run _insert bisects at row i, whose
    k_i changes exactly when c_i is new there. _insert returns these
    obligations, those of the run whose path c crosses, and c's own.
    """

    def __init__(self, terms: TermSet):
        bc = BarCode.build(terms)
        self.columns: list[Term] = list(bc.labels)
        self.exponents: list[list[int]] = list(map(list, bc.exponent_columns()))
        self.nmp: dict[Term, dict[int, int]] = nmp_table(terms, bc)
        self.checked: dict[tuple[Term, int], tuple[tuple[int, ...], Term | None]] = {}
        self.paths: dict[tuple[Term, int], Term] = {}
        self.failing: list = []
        for t in self.columns:
            for i in self.nmp[t]:
                self._check(t, i)

    def add(self, c: Term) -> None:
        for t, i in self._insert(c):
            self._check(t, i)

    def next_failing(self) -> Term | None:
        """The lex-least product of a failing obligation, None when all hold."""
        heap = self.failing
        while heap:
            rev, i, t = heap[0]
            w, s = self.checked[(t, i)]
            if s is None and w[::-1] == rev:
                return Term._valid(w)  # t.exponents with w_i another column's x_i-exponent
            heappop(heap)
        return None

    def witnesses(self) -> tuple[Witness, ...]:
        """The obligations in is_complete's order: terms in lex, powers by
        variable."""
        power, out = _powers(len(self.exponents)), []
        for t in self.columns:
            for i, k in sorted(self.nmp[t].items()):
                out.append(_new_tuple(Witness, (t, power(i, k), self.checked[(t, i)][1])))
        return tuple(out)

    def _insert(self, c: Term) -> list[tuple[Term, int]]:
        """Place c among the columns and set its powers; return the
        obligations whose record that changes (see the class docstring).

        Going down from x_n, [lo, hi) are the columns agreeing with c above
        x_i, sorted by x_i, and [a, b) those agreeing on x_i too. Left of a
        lies the run of the largest x_i-value below c_i. If c_i is present,
        i > 1 as c is new, and every descent of the run picks p_(i-1) in
        [a, b); both are sorted by x_(i-1). So c enters only those with
        c_(i-1) <= u_(i-1) < the next x_(i-1)-value of [a, b) above c_(i-1),
        and all of them unless p_(i-1) = c_(i-1).
        """
        dirty = []
        own = {}
        ce = c.exponents
        lo, hi = 0, len(self.columns)
        for v in range(len(ce) - 1, -1, -1):
            exps = self.exponents[v]
            e = ce[v]
            a = bisect_left(exps, e, lo, hi)
            b = bisect_right(exps, e, a, hi)
            if b < hi:
                own[v + 1] = exps[b] - e
            if a > lo:
                below = exps[a - 1]
                first = bisect_left(exps, below, lo, a)
                if a == b:
                    for u in self.columns[first:a]:
                        self.nmp[u][v + 1] = e - below
                        dirty.append((u, v + 1))
                else:
                    low, d = self.exponents[v - 1], ce[v - 1]
                    nxt = bisect_right(low, d, a, b)
                    last = a if nxt == b else bisect_left(low, low[nxt], first, a)
                    run = self.columns[bisect_left(low, d, first, last) : last]
                    if nxt > a and low[nxt - 1] == d:
                        dirty.extend((u, v + 1) for u in run if self._crosses(c, u, v + 1))
                    else:
                        dirty.extend((u, v + 1) for u in run)
            lo, hi = a, b
        self.columns.insert(lo, c)
        for exps, e in zip(self.exponents, ce):
            exps.insert(lo, e)
        self.nmp[c] = own
        dirty.extend((c, i) for i in own)
        return dirty

    def _crosses(self, c: Term, u: Term, i: int) -> bool:
        """The class docstring's rule for c entering the descent of (u, i),
        whose product agrees with c on x_i..x_n and with u below."""
        p, ce, ue = self.paths[(u, i)].exponents, c.exponents, u.exponents
        for v in range(i - 2, -1, -1):
            if p[v] > ue[v]:  # the row the descent failed at
                return ce[v] <= ue[v]
            if ce[v] != p[v]:
                return p[v] < ce[v] <= ue[v]
        return False  # unreachable: c would be the divisor p

    def _check(self, t: Term, i: int) -> None:
        """Descend for obligation (t, i) afresh and queue it if it newly
        fails; an unchanged failing record keeps its valid heap entry."""
        exps = list(t.exponents)
        exps[i - 1] += self.nmp[t][i]
        w = tuple(exps)
        col = descend_columns(self.exponents, 0, len(self.columns), len(w) + 1, w)
        path = self.columns[col if col >= 0 else ~col]
        record = (w, path if col >= 0 else None)
        if col < 0 and self.checked.get((t, i)) != record:
            heappush(self.failing, (w[::-1], i, t))
        self.checked[(t, i)] = record
        self.paths[(t, i)] = path
