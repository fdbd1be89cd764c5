"""Terms (monomials), the lexicographic order, projections, and parsing.

Conventions used throughout the package:

* variables are numbered 1..n with x_1 the lowest;
* a term is its exponent vector, position i holding the exponent of x_i;
* the order is lex induced by x_1 < x_2 < ... < x_n, i.e. the highest
  differing variable decides.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Iterator, Sequence

from .errors import DimensionError, EmptyInputError, TermSyntaxError

MAX_EXPONENT = 2**31 - 1
# Every term and every bar code holds one entry per variable, so an input
# file may declare or imply at most this many variables.
MAX_VARS = 1024


class Term:
    """A monomial x1^g1 * ... * xn^gn, immutable, ordered by lex."""

    __slots__ = ("exponents", "_rev")

    def __init__(self, exponents: Iterable[int]):
        exps = tuple(exponents)
        if not exps:
            raise DimensionError("a term needs at least one variable")
        for e in exps:
            if not isinstance(e, int) or isinstance(e, bool):
                raise TypeError(f"exponents must be integers, got {e!r}")
            if e < 0:
                raise ValueError(f"exponents must be nonnegative, got {e}")
            if e > MAX_EXPONENT:
                raise ValueError(f"exponent {e} exceeds the cap {MAX_EXPONENT}")
        self.exponents = exps
        self._rev = exps[::-1]

    @classmethod
    def one(cls, nvars: int) -> Term:
        return cls((0,) * nvars)

    @classmethod
    def variable(cls, nvars: int, index: int, power: int = 1) -> Term:
        """The term x_index^power in nvars variables."""
        if not 1 <= index <= nvars:
            raise DimensionError(f"variable index {index} outside 1..{nvars}")
        exps = [0] * nvars
        exps[index - 1] = power
        return cls(exps)

    @property
    def nvars(self) -> int:
        return len(self.exponents)

    def deg(self, i: int) -> int:
        """Exponent of x_i (1-based)."""
        if not 1 <= i <= self.nvars:
            raise DimensionError(f"variable index {i} outside 1..{self.nvars}")
        return self.exponents[i - 1]

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def is_one(self) -> bool:
        return not any(self.exponents)

    def pi(self, i: int) -> Term:
        """Projection keeping x_i..x_n and zeroing the variables below x_i."""
        if not 1 <= i <= self.nvars:
            raise DimensionError(f"variable index {i} outside 1..{self.nvars}")
        if i == 1:
            return self
        return Term((0,) * (i - 1) + self.exponents[i - 1 :])

    def min_variable(self) -> int | None:
        """Lowest variable index dividing the term, None for 1."""
        for i, e in enumerate(self.exponents, 1):
            if e:
                return i
        return None

    def divides(self, other: Term) -> bool:
        self._check_dim(other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __mul__(self, other: Term) -> Term:
        self._check_dim(other)
        return Term(a + b for a, b in zip(self.exponents, other.exponents))

    def __truediv__(self, other: Term) -> Term:
        """Exact quotient; raises ValueError when other does not divide self."""
        self._check_dim(other)
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return Term(a - b for a, b in zip(self.exponents, other.exponents))

    def _check_dim(self, other: Term) -> None:
        if self.nvars != other.nvars:
            raise DimensionError(
                f"terms live in different rings: {self.nvars} vs {other.nvars} variables"
            )

    def __eq__(self, other) -> bool:
        return isinstance(other, Term) and self.exponents == other.exponents

    def __hash__(self) -> int:
        return hash(self.exponents)

    def __lt__(self, other: Term) -> bool:
        return lex_compare(self, other) < 0

    def __le__(self, other: Term) -> bool:
        return lex_compare(self, other) <= 0

    def __gt__(self, other: Term) -> bool:
        return lex_compare(self, other) > 0

    def __ge__(self, other: Term) -> bool:
        return lex_compare(self, other) >= 0

    def __str__(self) -> str:
        return format_term(self)

    def __repr__(self) -> str:
        return f"Term({self.exponents!r})"


def lex_compare(a: Term, b: Term) -> int:
    """-1, 0 or 1 for a < b, a = b, a > b in lex with x_1 < ... < x_n.

    The highest-index differing exponent decides, so comparing the reversed
    exponent tuples componentwise is exactly the lex order.
    """
    a._check_dim(b)
    if a._rev < b._rev:
        return -1
    if a._rev > b._rev:
        return 1
    return 0


class TermSet:
    """A duplicate-free set of terms kept sorted lex-increasing."""

    __slots__ = ("nvars", "terms", "_members")

    def __init__(self, nvars: int, terms: Iterable[Term] = ()):
        if nvars < 1:
            raise DimensionError("at least one variable is required")
        self.nvars = nvars
        unique = set()
        for t in terms:
            if t.nvars != nvars:
                raise DimensionError(
                    f"term {t} has {t.nvars} variables, expected {nvars}"
                )
            unique.add(t)
        self.terms = tuple(sorted(unique))
        self._members = unique

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[Term]:
        return iter(self.terms)

    def __contains__(self, t) -> bool:
        return t in self._members

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TermSet)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self) -> str:
        inner = ", ".join(format_term(t) for t in self.terms)
        return f"TermSet({self.nvars}, {{{inner}}})"

    def with_terms(self, extra: Iterable[Term]) -> TermSet:
        return TermSet(self.nvars, self.terms + tuple(extra))

    def bounding_box(self) -> tuple[int, ...]:
        """Per-variable maximum exponent over the set."""
        if not self.terms:
            raise EmptyInputError("the term set is empty")
        return tuple(
            max(t.exponents[i] for t in self.terms) for i in range(self.nvars)
        )

    def is_order_ideal(self) -> bool:
        """True when the set is closed under divisibility.

        Closure under dividing out one variable at a time is equivalent to
        full divisor closure.
        """
        for t in self.terms:
            for i in range(self.nvars):
                if t.exponents[i]:
                    exps = list(t.exponents)
                    exps[i] -= 1
                    if Term(exps) not in self._members:
                        return False
        return True


def box_terms(bounds: Sequence[int]) -> Iterator[Term]:
    """All terms with deg_i <= bounds[i], yielded in lex-increasing order."""
    ranges = [range(b + 1) for b in reversed(bounds)]
    for rev in itertools.product(*ranges):
        yield Term(rev[::-1])


def format_term(t: Term) -> str:
    """Canonical text form: '1', or factors like x1^2*x3 in variable order."""
    parts = []
    for i, e in enumerate(t.exponents, 1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


def parse_term(text: str, nvars: int, line: int | None = None) -> Term:
    """Parse one term.

    Accepted forms: "1", a product of factors "x<i>" or "x<i>^<k>" joined by
    "*", or an exponent list "[g1,...,gn]". Whitespace is ignored and "#"
    starts a comment running to the end of the line.
    """
    src = text.split("#", 1)[0]
    n = len(src)
    pos = 0

    def err(message: str, at: int):
        raise TermSyntaxError(message, position=at, line=line)

    def skip_ws():
        nonlocal pos
        while pos < n and src[pos].isspace():
            pos += 1

    def read_nat(what: str) -> int:
        nonlocal pos
        skip_ws()
        start = pos
        while pos < n and src[pos].isdigit():
            pos += 1
        if start == pos:
            err(f"expected {what}", start)
        digits = src[start:pos]
        # the helper call is kept off the common path: parsing is hot
        value = int(digits) if len(digits) < 19 else _bounded_nat(digits, MAX_EXPONENT)
        if value > MAX_EXPONENT:
            err(f"{what} exceeds the cap {MAX_EXPONENT}", start)
        return value

    skip_ws()
    if pos >= n:
        err("empty term", pos)

    if src[pos] == "[":
        pos += 1
        exps = [read_nat("exponent")]
        skip_ws()
        while pos < n and src[pos] == ",":
            pos += 1
            exps.append(read_nat("exponent"))
            skip_ws()
        if pos >= n or src[pos] != "]":
            err("expected ',' or ']'", pos)
        pos += 1
        skip_ws()
        if pos < n:
            err("unexpected text after ']'", pos)
        if len(exps) != nvars:
            err(f"expected {nvars} exponents, got {len(exps)}", 0)
        return Term(exps)

    if src[pos] == "1":
        one_at = pos
        pos += 1
        skip_ws()
        if pos < n:
            err("unexpected text after '1'", pos)
        if src[one_at + 1 : one_at + 2].isdigit():
            err("invalid term", one_at)
        return Term.one(nvars)

    exps = [0] * nvars
    while True:
        skip_ws()
        if pos >= n or src[pos] != "x":
            err("expected a factor like x2 or x2^3", pos)
        pos += 1
        at = pos
        index = read_nat("variable index")
        if index < 1:
            err("variable indices start at 1", at)
        if index > nvars:
            err(f"variable index {index} exceeds {nvars} variables", at)
        power = 1
        skip_ws()
        if pos < n and src[pos] == "^":
            pos += 1
            power = read_nat("exponent")
        exps[index - 1] += power
        if exps[index - 1] > MAX_EXPONENT:
            err(f"exponent of x{index} exceeds the cap {MAX_EXPONENT}", at)
        skip_ws()
        if pos < n and src[pos] == "*":
            pos += 1
            continue
        break
    skip_ws()
    if pos < n:
        err("unexpected character", pos)
    return Term(exps)


_VARS_HEADER = re.compile(r"^vars\s*:\s*(\d+)\s*$")
_VAR_INDEX = re.compile(r"x\s*(\d+)")


def _bounded_nat(digits: str, cap: int) -> int:
    """Value of a digit string, or cap + 1 above cap. Over 18 significant
    digits exceed every cap, and int() is never given them: it refuses or
    slows on very long strings."""
    if len(digits) > 18:
        digits = digits.lstrip("0") or "0"
        if len(digits) > 18:
            return cap + 1
    return min(int(digits), cap + 1)


def parse_vars_header(body: str, line: int | None = None) -> int | None:
    """The n of a "vars: n" header line of a term-set or points file, or None
    when the line is not one; n must lie in 1..MAX_VARS."""
    m = _VARS_HEADER.match(body)
    if m is None:
        return None
    nvars = _bounded_nat(m.group(1), MAX_VARS)
    if not 1 <= nvars <= MAX_VARS:
        raise TermSyntaxError(f"vars must lie in 1..{MAX_VARS}", line=line)
    return nvars


def parse_term_set(text: str) -> TermSet:
    """Parse a term-set file: optional "vars: n" header, one term per line.

    Without a header the variable count is inferred from the largest variable
    index used; exponent-list lines fix it exactly and must agree. Either way
    it is at most MAX_VARS.
    """
    content: list[tuple[int, str]] = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            content.append((line_no, stripped))

    nvars = None
    if content:
        nvars = parse_vars_header(content[0][1], content[0][0])
        if nvars is not None:
            content = content[1:]

    if nvars is None:
        max_index = 0
        list_lengths: dict[int, int] = {}
        for line_no, body in content:
            if body.lstrip().startswith("["):
                list_lengths[line_no] = body.count(",") + 1
            else:
                for m in _VAR_INDEX.finditer(body):
                    max_index = max(max_index, _bounded_nat(m.group(1), MAX_VARS))
        lengths = set(list_lengths.values())
        if max(lengths | {max_index}) > MAX_VARS:
            raise TermSyntaxError(f"more than {MAX_VARS} variables, the limit")
        if len(lengths) > 1:
            raise TermSyntaxError(
                "exponent lists of different lengths; add a 'vars: n' header"
            )
        if lengths:
            nvars = lengths.pop()
            if max_index > nvars:
                raise TermSyntaxError(
                    f"variable index {max_index} exceeds exponent-list length {nvars}"
                )
        else:
            nvars = max(max_index, 1)

    terms = [parse_term(body, nvars, line=line_no) for line_no, body in content]
    return TermSet(nvars, terms)
