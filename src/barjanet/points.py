"""From rational points to a reduced Janet-like basis, with no Groebner step.

Pipeline: the lex escalier of the vanishing ideal of the points is found by a
greedy scan keeping terms whose evaluation vectors are independent; its
complement's minimal generators are completed Janet-like; each completed
generator t yields the basis element t minus its interpolant over the
escalier. All arithmetic is exact over the rationals.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .barcode import BarCode, star_set
from .errors import (
    DimensionError,
    EmptyInputError,
    InputError,
    InternalInvariantError,
    SingularMatrixError,
    TermSyntaxError,
)
from .janet import complete
from .terms import Term, TermSet, format_term, parse_term, parse_vars_header

Point = tuple[Fraction, ...]


class PointSet:
    """Finitely many distinct points with exact rational coordinates."""

    __slots__ = ("nvars", "points")

    def __init__(self, points: Iterable[Sequence[Fraction]]):
        pts = [tuple(Fraction(c) for c in p) for p in points]
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


_RATIONAL = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Exact rational literal: integer or p/q. Float syntax is rejected."""
    s = text.strip()
    if not _RATIONAL.match(s):
        raise TermSyntaxError(f"not an exact rational: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise TermSyntaxError(f"zero denominator: {s}") from None
    except ValueError:
        # int() refuses strings of more than sys.get_int_max_str_digits() digits
        raise TermSyntaxError("rational with too many digits") from None


def parse_points(text: str) -> PointSet:
    """Points file: optional "vars: n" header, one comma-separated point per
    line, '#' comments."""
    rows = []
    nvars = None
    for line_no, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        if nvars is None and not rows:
            nvars = parse_vars_header(body, line_no)
            if nvars is not None:
                continue
        try:
            coords = tuple(parse_rational(c) for c in body.split(","))
        except TermSyntaxError as exc:
            raise TermSyntaxError(str(exc), line=line_no) from None
        rows.append(coords)
    if not rows:
        raise EmptyInputError("no points in input")
    if nvars is not None:
        for coords in rows:
            if len(coords) != nvars:
                raise DimensionError(
                    f"point of dimension {len(coords)} under header vars: {nvars}"
                )
    return PointSet(rows)


def eval_term(t: Term, point: Point) -> Fraction:
    if len(point) != t.nvars:
        raise DimensionError("point dimension does not match the term")
    value = Fraction(1)
    for c, e in zip(point, t.exponents):
        if e:
            value *= Fraction(c) ** e
    return value


class Polynomial:
    """Finite rational combination of terms; zero coefficients never stored."""

    __slots__ = ("nvars", "coefficients")

    def __init__(self, nvars: int, coefficients: Mapping[Term, Fraction] = ()):
        if nvars < 1:
            raise DimensionError("at least one variable is required")
        coeffs: dict[Term, Fraction] = {}
        items = (
            coefficients.items() if isinstance(coefficients, Mapping) else coefficients
        )
        for t, c in items:
            if t.nvars != nvars:
                raise DimensionError(f"term {t} has {t.nvars} variables, expected {nvars}")
            c = Fraction(c)
            if c:
                coeffs[t] = coeffs.get(t, Fraction(0)) + c
                if not coeffs[t]:
                    del coeffs[t]
        self.nvars = nvars
        self.coefficients = coeffs

    @classmethod
    def zero(cls, nvars: int) -> Polynomial:
        return cls(nvars)

    @classmethod
    def from_term(cls, t: Term, coeff: Fraction | int = 1) -> Polynomial:
        return cls(t.nvars, {t: Fraction(coeff)})

    def __bool__(self) -> bool:
        return bool(self.coefficients)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.coefficients == other.coefficients
        )

    __hash__ = None

    def terms_desc(self) -> tuple[tuple[Term, Fraction], ...]:
        return tuple(
            (t, self.coefficients[t])
            for t in sorted(self.coefficients, reverse=True)
        )

    @property
    def leading_term(self) -> Term:
        if not self.coefficients:
            raise EmptyInputError("the zero polynomial has no leading term")
        return max(self.coefficients)

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coefficients[self.leading_term]

    def support(self) -> tuple[Term, ...]:
        return tuple(sorted(self.coefficients))

    def __add__(self, other: Polynomial) -> Polynomial:
        if self.nvars != other.nvars:
            raise DimensionError("polynomials live in different rings")
        merged = dict(self.coefficients)
        for t, c in other.coefficients.items():
            merged[t] = merged.get(t, Fraction(0)) + c
        return Polynomial(self.nvars, merged)

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __neg__(self) -> Polynomial:
        return Polynomial(self.nvars, {t: -c for t, c in self.coefficients.items()})

    def scale(self, factor: Fraction | int) -> Polynomial:
        factor = Fraction(factor)
        return Polynomial(
            self.nvars, {t: c * factor for t, c in self.coefficients.items()}
        )

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
        mag = abs(c)
        if t.is_one:
            body = str(mag)
        elif mag == 1:
            body = format_term(t)
        else:
            body = f"{mag}*{format_term(t)}"
        if not pieces:
            pieces.append(f"-{body}" if c < 0 else body)
        else:
            pieces.append(f"{'-' if c < 0 else '+'} {body}")
    return " ".join(pieces)


def polynomial_to_json(f: Polynomial) -> dict:
    return {format_term(t): str(c) for t, c in f.terms_desc()}


def polynomial_from_json(doc: Mapping[str, str], nvars: int) -> Polynomial:
    return Polynomial(
        nvars,
        {parse_term(s, nvars): Fraction(c) for s, c in doc.items()},
    )


@dataclass(frozen=True)
class RationalMatrix:
    """Dense exact matrix; rows of equal length."""

    entries: tuple[tuple[Fraction, ...], ...]

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def transpose(self) -> RationalMatrix:
        return RationalMatrix(tuple(zip(*self.entries)))

    def determinant(self) -> Fraction:
        if self.rows != self.cols:
            raise DimensionError("determinant of a non-square matrix")
        a = [list(row) for row in self.entries]
        n = self.rows
        det = Fraction(1)
        for col in range(n):
            pivot = _pick_pivot(a, col, col)
            if pivot is None:
                return Fraction(0)
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                det = -det
            det *= a[col][col]
            inv = 1 / a[col][col]
            for r in range(col + 1, n):
                if a[r][col]:
                    factor = a[r][col] * inv
                    for c in range(col, n):
                        a[r][c] -= factor * a[col][c]
        return det

    def solve(self, rhs: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Exact solution of self * x = rhs for a square invertible matrix."""
        n = self.rows
        if self.cols != n:
            raise DimensionError("solve needs a square matrix")
        if len(rhs) != n:
            raise DimensionError("right-hand side has the wrong length")
        a = [list(row) + [Fraction(v)] for row, v in zip(self.entries, rhs)]
        for col in range(n):
            pivot = _pick_pivot(a, col, col)
            if pivot is None:
                raise SingularMatrixError("the matrix is singular")
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
            inv = 1 / a[col][col]
            for r in range(col + 1, n):
                if a[r][col]:
                    factor = a[r][col] * inv
                    for c in range(col, n + 1):
                        a[r][c] -= factor * a[col][c]
        x = [Fraction(0)] * n
        for r in range(n - 1, -1, -1):
            acc = a[r][n]
            for c in range(r + 1, n):
                acc -= a[r][c] * x[c]
            x[r] = acc / a[r][r]
        return tuple(x)


def _pick_pivot(a: list[list[Fraction]], col: int, start: int) -> int | None:
    """Simplest nonzero entry in the column: smallest numerator and
    denominator sizes, which keeps intermediate fractions small."""
    best = None
    best_key = None
    for r in range(start, len(a)):
        v = a[r][col]
        if v:
            key = (max(abs(v.numerator), v.denominator), abs(v.numerator))
            if best_key is None or key < best_key:
                best, best_key = r, key
    return best


def evaluation_matrix(terms: Sequence[Term], points: PointSet) -> RationalMatrix:
    """Row per term, column per point, entry term(point)."""
    return RationalMatrix(
        tuple(tuple(eval_term(t, p) for p in points) for t in terms)
    )


def groebner_escalier(points: PointSet) -> TermSet:
    """Lex escalier of the vanishing ideal of the points.

    Terms are visited in increasing lex along the divisor-closed frontier; a
    term is kept exactly when its evaluation vector is independent of those
    already kept, and the complement of the kept set is the leading-term
    ideal. Stops after one term per point.
    """
    n = points.nvars
    m = len(points)
    kept: list[Term] = []
    kept_set: set[Term] = set()
    echelon: list[tuple[int, list[Fraction]]] = []  # (pivot index, row with 1 there)

    def reduce(vec: list[Fraction]) -> list[Fraction]:
        for pivot, row in echelon:
            if vec[pivot]:
                factor = vec[pivot]
                for c in range(m):
                    vec[c] -= factor * row[c]
        return vec

    one = Term.one(n)
    heap: list[tuple[tuple[int, ...], Term]] = [(one._rev, one)]
    queued = {one}
    while heap and len(kept) < m:
        _, t = heapq.heappop(heap)
        vec = reduce([eval_term(t, p) for p in points])
        pivot = next((c for c in range(m) if vec[c]), None)
        if pivot is None:
            continue
        inv = 1 / vec[pivot]
        echelon.append((pivot, [v * inv for v in vec]))
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
                queued.add(u)
    if len(kept) != m:
        raise InternalInvariantError(
            "distinct points must admit one standard monomial per point"
        )
    return TermSet(n, kept)


def monomial_generators(ideal_complement: TermSet) -> TermSet:
    """Minimal generating set of the complement of an order ideal: the
    divisibility-minimal elements of its star set."""
    if not ideal_complement.is_order_ideal():
        raise InputError("the escalier must be an order ideal")
    stars = star_set(BarCode.build(ideal_complement))
    minimal = [
        s
        for s in stars
        if not any(u != s and u.divides(s) for u in stars)
    ]
    return TermSet(ideal_complement.nvars, minimal)


def normal_form(f: Polynomial, basis: TermSet, points: PointSet) -> Polynomial:
    """The unique polynomial supported on the basis agreeing with f at every
    point, by exactly solving the evaluation system."""
    if f.nvars != basis.nvars or basis.nvars != points.nvars:
        raise DimensionError("polynomial, basis and points must share variables")
    if len(basis) != len(points):
        raise DimensionError(
            f"basis size {len(basis)} must match point count {len(points)}"
        )
    system = evaluation_matrix(basis.terms, points).transpose()
    values = [f.evaluate(p) for p in points]
    coeffs = system.solve(values)
    return Polynomial(f.nvars, dict(zip(basis.terms, coeffs)))


def janet_like_basis(points: PointSet) -> tuple[Polynomial, ...]:
    """Reduced Janet-like basis of the vanishing ideal of the points.

    The completed minimal generators of the escalier's complement are the
    leading terms; each basis element is its leading term minus the
    interpolant of that term over the escalier, so it vanishes on all points
    and its tail is supported on the escalier.
    """
    escalier = groebner_escalier(points)
    generators = monomial_generators(escalier)
    completed, _ = complete(generators)
    basis = []
    for t in completed.terms:
        nf = normal_form(Polynomial.from_term(t), escalier, points)
        g = Polynomial.from_term(t) - nf
        if g.leading_term != t:
            raise InternalInvariantError(
                f"interpolant of {t} reaches outside the terms below it"
            )
        basis.append(g)
    return tuple(basis)
