"""From rational points to a reduced Janet-like basis, with no Groebner step.

Pipeline: the lex escalier of the vanishing ideal of the points is read off
the trie of their coordinates by a fibre-count rule, with no arithmetic
(Cerlienco and Mureddu, "From algebraic sets to monomial linear bases by means
of combinatorial algorithms", Discrete Math. 1995; Felszeghy, Rath and Ronyai,
"The lex game and some applications", J. Symbolic Comput. 2006). Its
complement's minimal generators are completed Janet-like, and each completed
generator t, a star of the escalier, yields the basis element t minus its
interpolant over the escalier, from one elimination of the escalier's vectors
on integers scaled per point (Buchberger and Moeller, EUROCAM 1982); Fractions
are made only for the basis coefficients. normal_form, over Fraction, is the
reference the tails are tested against.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise
from math import gcd, prod
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Sequence

from .barcode import BarCode, star_set
from .errors import (
    AdmissibilityError,
    DimensionError,
    EmptyInputError,
    InputError,
    InternalInvariantError,
    SingularMatrixError,
    TermSyntaxError,
)
from .janet import complete
from .terms import MAX_VARS, Term, TermSet, _file_lines, _unit_quotients, format_term

_rev = attrgetter("_rev")  # the lex order of terms of one ring, as a sort key


class PointSet:
    """Finitely many distinct points with exact rational coordinates."""

    __slots__ = ("nvars", "points")

    def __init__(self, points: Iterable[Sequence[Fraction]]):
        pts = [tuple(c if type(c) is Fraction else _exact(c) for c in p) for p in points]
        if not pts:
            raise EmptyInputError("at least one point is required")
        nvars = len(pts[0])
        if nvars < 1:
            raise DimensionError("points need at least one coordinate")
        for p in pts:
            if len(p) != nvars:
                raise DimensionError("all points must have the same dimension")
        if len(set(pts)) != len(pts):
            raise InputError("points must be pairwise distinct")
        self.nvars = nvars
        self.points = tuple(pts)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other) -> bool:
        return isinstance(other, PointSet) and self.points == other.points

    __hash__ = None

    def __repr__(self) -> str:
        return f"PointSet({len(self.points)} points in {self.nvars} vars)"


def _exact(c: int) -> Fraction:
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise TypeError(f"coordinates must be int or Fraction, got {c!r}")
    return Fraction(c)


_RATIONAL = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Exact rational literal: integer or p/q. Float syntax is rejected."""
    s = text.strip()
    if not (m := _RATIONAL.match(s)):
        raise TermSyntaxError(f"not an exact rational: {text!r}")
    try:
        return Fraction(int(m[1]), int(m[2] or 1))
    except ZeroDivisionError:
        raise TermSyntaxError(f"zero denominator: {s}") from None
    except ValueError:
        # int() refuses strings of more than sys.get_int_max_str_digits() digits
        raise TermSyntaxError("rational with too many digits") from None


def parse_points(text: str) -> PointSet:
    """Points file in _file_lines' layout, one comma-separated point a line."""
    nvars, content = _file_lines(text)
    rows = []
    for line_no, body in content:
        fields = body.split(",")
        if len(fields) > MAX_VARS:
            raise TermSyntaxError(f"more than {MAX_VARS} variables, the limit", line=line_no)
        try:
            coords = tuple(parse_rational(c) for c in fields)
        except TermSyntaxError as exc:
            raise TermSyntaxError(str(exc), line=line_no) from None
        rows.append(coords)
    if not rows:
        raise EmptyInputError("no points in input")
    if nvars is not None:
        for coords in rows:
            if len(coords) != nvars:
                raise DimensionError(f"point of dimension {len(coords)} under header vars: {nvars}")
    return PointSet(rows)


def eval_term(t: Term, point: Sequence[Fraction]) -> Fraction:
    if len(point) != t.nvars:
        raise DimensionError("point dimension does not match the term")
    return prod((Fraction(c) ** e for c, e in zip(point, t.exponents) if e), start=Fraction(1))


class Polynomial:
    """Finite rational combination of terms; zero coefficients never stored."""

    __slots__ = ("nvars", "coefficients")

    def __init__(self, nvars: int, coefficients: Mapping[Term, Fraction] = ()):
        if nvars < 1:
            raise DimensionError("at least one variable is required")
        coeffs: dict[Term, Fraction] = {}
        items = coefficients.items() if isinstance(coefficients, Mapping) else coefficients
        for t, c in items:
            if t.nvars != nvars:
                raise DimensionError(f"term {t} has {t.nvars} variables, expected {nvars}")
            c = c if type(c) is Fraction else Fraction(c)
            if t in coeffs:
                c += coeffs.pop(t)
            if c:
                coeffs[t] = c
        self.nvars = nvars
        self.coefficients = coeffs

    def __bool__(self) -> bool:
        return bool(self.coefficients)

    def __eq__(self, other) -> bool:
        same = isinstance(other, Polynomial) and self.nvars == other.nvars
        return same and self.coefficients == other.coefficients

    __hash__ = None

    def terms_desc(self) -> tuple[tuple[Term, Fraction], ...]:
        coeffs = self.coefficients
        return tuple((t, coeffs[t]) for t in sorted(coeffs, key=_rev, reverse=True))

    @property
    def leading_term(self) -> Term:
        if not self.coefficients:
            raise EmptyInputError("the zero polynomial has no leading term")
        return max(self.coefficients, key=_rev)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        pt = tuple(Fraction(c) for c in point)
        if len(pt) != self.nvars:
            raise DimensionError("point dimension does not match the polynomial")
        return sum((c * eval_term(t, pt) for t, c in self.coefficients.items()), Fraction(0))

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)!r})"


def format_polynomial(f: Polynomial) -> str:
    """Terms in decreasing lex, exact coefficients, e.g. 'x1^2 - 1/2*x1'."""
    if not f:
        return "0"
    pieces = []
    for t, c in f.terms_desc():
        p, q = c.numerator, c.denominator
        mag = str(abs(p)) if q == 1 else f"{abs(p)}/{q}"
        if t.is_one:
            body = mag
        elif mag == "1":
            body = format_term(t)
        else:
            body = f"{mag}*{format_term(t)}"
        pieces.append(f"{'-' if p < 0 else '+'} {body}")
    text = " ".join(pieces)  # the leading sign is "-" or none, with no space
    return text[2:] if text[0] == "+" else "-" + text[2:]


def polynomial_to_json(f: Polynomial) -> dict:
    return {format_term(t): str(c) for t, c in f.terms_desc()}


@dataclass(frozen=True)
class RationalMatrix:
    """Dense exact matrix; rows of equal length."""

    entries: tuple[tuple[Fraction, ...], ...]

    def solve(self, rhs: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Exact solution of self * x = rhs for a square invertible matrix."""
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise DimensionError("solve needs a square matrix")
        if len(rhs) != n:
            raise DimensionError("right-hand side has the wrong length")
        a = [[*row, Fraction(v)] for row, v in zip(self.entries, rhs)]
        _forward_eliminate(a)
        x = [Fraction(0)] * n
        for r in range(n - 1, -1, -1):
            acc = a[r][n]
            for c in range(r + 1, n):
                acc -= a[r][c] * x[c]
            x[r] = acc / a[r][r]
        return tuple(x)


def _forward_eliminate(a: list[list[Fraction]]) -> None:
    """Upper-triangular form, in place, of the n rows of a over their first n
    columns, pivoting on the first nonzero entry (exact, so any pivot does)."""
    n = len(a)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            raise SingularMatrixError("the matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                factor = a[r][col] * inv
                for c in range(col, len(a[r])):
                    a[r][c] -= factor * a[col][c]


def groebner_escalier(points: PointSet) -> TermSet:
    """Lex escalier of the vanishing ideal of the points, read off the trie of
    their coordinates by the fibre-count rule (Cerlienco and Mureddu 1995;
    Felszeghy, Rath and Ronyai 2006): grouped by x1 into fibres, x1^k*b is
    standard exactly when b is standard for more than k fibres, and each
    fibre's escalier in x2..xn is found the same way. The sorted points are
    the leaves; nodes merge bottom up, one branching level at a time, and a
    term is its nonzero (variable index, exponent) pairs until the end."""
    # shared[j]: how many leading coordinates sorted points j and j + 1 agree on;
    # (numerator, denominator) keys keep equal prefixes together, as the rule needs
    keys = sorted([(c.numerator, c.denominator) for c in p] for p in points)
    shared = [next(i for i, c in enumerate(p) if c != q[i]) for p, q in pairwise(keys)]
    nodes = [(s, [()]) for s in [*shared, -1]]  # (shared with the next, escalier)
    for depth in sorted(set(shared), reverse=True):
        merged, counts = [], Counter()
        for s, escalier in nodes:
            counts.update(escalier)  # a fibre of the node at this depth
            if s != depth:
                escalier = [(*b, (depth, k)) if k else b for b, c in counts.items() for k in range(c)]
                merged.append((s, escalier))
                counts = Counter()
        nodes = merged
    [(_, escalier)] = nodes
    if len(escalier) != len(points):
        raise InternalInvariantError("distinct points must admit one standard monomial each")
    n = points.nvars
    return TermSet(n, (Term(dict(b).get(i, 0) for i in range(n)) for b in escalier))


def _relations(points: PointSet) -> tuple[TermSet, Callable[[Term], tuple[list, int]]]:
    """The escalier N and, for each star t of N, the relation own*t + sum k_s*s
    = 0 on the points as (s, k_s) pairs, k_s nonzero, and own: one elimination
    (Buchberger-Moeller) over N in increasing lex. A point's entry for x^e is its
    value times prod_i b_i^(E_i), b_i its denominator in x_i and E_i one more
    than N's largest x_i-exponent; so x^e's vector is its parent's (x^e over its
    least variable x_i) times the numerator a_i divided exactly by b_i. A vector
    carries the combination of rows it equals (one entry per row met, its own
    term's apart), is reduced by v <- a*v - b*row and, if kept, by its content."""
    escalier = groebner_escalier(points)
    m = len(points)
    box = [e + 1 for e in escalier.bounding_box()]
    nums = [[c.numerator for c in p] for p in points]
    dens = [[c.denominator for c in p] for p in points]
    vectors = {escalier.terms[0].exponents: [prod(map(pow, b, box)) for b in dens]}  # N's
    echelon: list[tuple[int, list[int]]] = []  # (pivot column, row)

    def grown(e: tuple[int, ...]) -> list[int]:
        i, parent = next(i for i, x in enumerate(e) if x), vectors[next(_unit_quotients(e))]
        return [v * a[i] // b[i] for v, a, b in zip(parent, nums, dens)]

    def reduce(values: list[int]) -> tuple[list[int], int]:
        vec, own = [*values], 1
        for pivot, row in echelon:
            vec.append(0)
            if f := vec[pivot]:
                g = gcd(row[pivot], f)
                a, b = row[pivot] // g, f // g
                vec = [a * x - b * y for x, y in zip(vec, row)]
                own *= a
        return vec, own

    def relation(t: Term) -> tuple[list[tuple[Term, int]], int]:
        if (e := t.exponents) in vectors or next(_unit_quotients(e), None) not in vectors:
            raise InternalInvariantError(f"{t} is not a star of the escalier")
        vec, own = reduce(grown(e))
        if any(vec[:m]):
            raise InternalInvariantError(f"{t} is independent of a full escalier")
        return [(s, k) for s, k in zip(escalier, vec[m:]) if k], own

    for s in escalier:
        if (e := s.exponents) not in vectors:
            vectors[e] = grown(e)
        vec, own = reduce(vectors[e])
        pivot = next((c for c in range(m) if vec[c]), None)
        if pivot is None:
            raise InternalInvariantError(f"escalier term {s} depends on those below it")
        g = gcd(*vec, own)
        echelon.append((pivot, [x // g for x in vec] + [own // g]))
    return escalier, relation


def monomial_generators(ideal_complement: TermSet) -> TermSet:
    """Minimal generating set of the complement of an order ideal N: the stars
    s with s/x_v in N for each x_v dividing s, which makes s minimal since N
    is closed under division. Every minimal generator g is a star, as g/x_i
    is in N for x_i its least variable. Each test is a set lookup per x_v."""
    try:
        stars = star_set(BarCode.build(ideal_complement))
    except AdmissibilityError:
        raise InputError("the escalier must be an order ideal") from None
    inside = {t.exponents for t in ideal_complement}
    minimal = [s for s in stars if all(d in inside for d in _unit_quotients(s.exponents))]
    return TermSet(ideal_complement.nvars, minimal)


def normal_form(f: Polynomial, basis: TermSet, points: PointSet) -> Polynomial:
    """The unique polynomial supported on the basis agreeing with f at every
    point, by exactly solving the evaluation system."""
    if f.nvars != basis.nvars or basis.nvars != points.nvars:
        raise DimensionError("polynomial, basis and points must share variables")
    if len(basis) != len(points):
        raise DimensionError(f"basis size {len(basis)} must match point count {len(points)}")
    system = RationalMatrix(tuple(tuple(eval_term(s, p) for s in basis) for p in points))
    values = [f.evaluate(p) for p in points]
    coeffs = system.solve(values)
    return Polynomial(f.nvars, dict(zip(basis.terms, coeffs)))


def janet_like_basis(points: PointSet) -> tuple[Polynomial, ...]:
    """Reduced Janet-like basis of the vanishing ideal of the points.

    The completed minimal generators of the complement of the escalier N are the
    leading terms, each a star of N (outside N, inside once divided by its least
    variable); each basis element is its leading term minus its interpolant
    over N, so it vanishes on all points and its tail is supported on N.
    """
    escalier, relation = _relations(points)
    completed, _ = complete(monomial_generators(escalier))
    basis = []
    for t in completed.terms:
        pairs, own = relation(t)  # g = (own*t + sum k_s*s) / own
        g = Polynomial(t.nvars, [(t, 1), *((s, Fraction(k, own)) for s, k in pairs)])
        if g.leading_term != t:
            raise InternalInvariantError(f"interpolant of {t} reaches outside the terms below it")
        basis.append(g)
    return tuple(basis)
