"""Terms (monomials), the lexicographic order, projections, and parsing.

Conventions used throughout the package:

* variables are numbered 1..n with x_1 the lowest;
* a term is its exponent vector, position i holding the exponent of x_i;
* the order is lex induced by x_1 < x_2 < ... < x_n, i.e. the highest
  differing variable decides.

_file_lines is the one reader of the layout that term-set and points files
share: an optional "vars: n" header, '#' comments and blank lines. Term-set
lines then take two routes: a product line such as x1^2*x3 is split on "*",
and each distinct piece of a file is matched once as one factor (_read_line, the
only writer of the file's piece memo); every other line, and any index out of
range, number over 18 digits or exponent over the cap, goes to parse_term, the
only source of TermSyntaxError and the oracle. Without a header, n is first read
off the largest "x<digits>" index of the distinct pieces, a bounded batch at a
time (_widest). Term._valid skips Term's checks: only parse_term and
janet._LiveCompletion call it, each saying why; _read_line is the one other
place that builds a term unchecked, filling its slots in place.

A term caches its text in _text, which format_term fills on first use, so no
term is formatted twice. Only _read_line sets it at parse time, to a canonical
line: each piece spelled as format_power spells it, every power in
1..MAX_EXPONENT and the indices strictly increasing. Such a line is what
format_term would return, and its exponents are capped without a check.
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Iterator

from .errors import DimensionError, EmptyInputError, TermSyntaxError

MAX_EXPONENT = 2**31 - 1
# Every term and every bar code holds one entry per variable, so an input
# file may declare or imply at most this many variables.
MAX_VARS = 1024


class Term:
    """A monomial x1^g1 * ... * xn^gn, immutable, ordered by lex."""

    __slots__ = ("exponents", "_rev", "_hash", "_text")

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
        self.exponents, self._rev, self._hash, self._text = exps, exps[::-1], hash(exps), None

    @classmethod
    def _valid(cls, exps: tuple[int, ...], text: str | None = None) -> Term:
        """Term(exps) unchecked, for a nonempty tuple of non-bool ints in 0..MAX_EXPONENT.
        _read_line builds its terms the same way, inline: each index it read
        lies in 1..n, and a line's sums are capped by the line being canonical
        or by a scan."""
        t = object.__new__(cls)
        t.exponents, t._rev, t._hash, t._text = exps, exps[::-1], hash(exps), text
        return t

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
        return self._hash

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
            if len(t.exponents) != nvars:
                raise DimensionError(
                    f"term {t} has {t.nvars} variables, expected {nvars}"
                )
            unique.add(t)
        # lex order on terms of one ring is the order of the reversed tuples
        self.terms = tuple(sorted(unique, key=attrgetter("_rev")))
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
        inside = {t.exponents for t in self.terms}
        return all(q in inside for t in self.terms for q in _unit_quotients(t.exponents))


def _unit_quotients(e: tuple[int, ...]):
    """The exponent vectors of t/x_v for each x_v dividing t = x^e, by increasing v."""
    return (e[:v] + (x - 1,) + e[v + 1 :] for v, x in enumerate(e) if x)


def format_term(t: Term) -> str:
    """Canonical text form: '1', or factors like x1^2*x3 in variable order."""
    if t._text is None:
        t._text = format_exponents(t.exponents)
    return t._text


def format_exponents(exponents: Iterable[int]) -> str:
    """format_term of the term with these exponents, without building it."""
    parts = [variable_text(i) + _exponent_text(e) for i, e in enumerate(exponents, 1) if e]
    return "*".join(parts) or "1"


def format_power(i: int, e: int) -> str:
    """Text form of x_i^e for e >= 1."""
    return variable_text(i) + _exponent_text(e)


# x_i and ^e are kept, up to fixed bounds, so that an output of many terms
# formats each variable and each distinct exponent about once
variable_text = lru_cache(maxsize=MAX_VARS)("x{}".format)
_exponent_text = lru_cache(maxsize=4096)(lambda e: "" if e == 1 else f"^{e}")


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
        while pos < n and src[pos].isdecimal():
            pos += 1
        if start == pos:
            err(f"expected {what}", start)
        value = _bounded_nat(src[start:pos], MAX_EXPONENT)
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
        return Term._valid(tuple(exps))  # at least one, each read_nat-capped

    if src[pos] == "1":
        pos += 1
        skip_ws()
        if pos < n:
            err("unexpected text after '1'", pos)
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
    return Term._valid(tuple(exps))  # an index in 1..nvars was read; sums capped


_VARS_HEADER = re.compile(r"^vars\s*:\s*(\d+)\s*$")
_VAR_INDEX = re.compile(r"x\s*(\d+)")
# parse_term's product grammar: on str, \d is isdecimal and \s is isspace
_PIECE = re.compile(r"\s*x\s*(\d{1,18})(?:\s*\^\s*(\d{1,18}))?\s*")  # one factor
_MAX_PIECES = 4096  # four powers of each of MAX_VARS variables, in about 0.7 MB
_new_object = object.__new__  # _read_line's Term(...) without its checks


def _read_line(text: str, nvars: int, line: int | None, pieces: dict) -> Term:
    """parse_term(text, nvars, line), reading a product line without it; pieces
    maps a piece read before to its (index - 1, power, rank)."""
    exps = [0] * nvars
    last = -1  # the last piece's rank while the line is canonical, nvars after
    for piece in text.split("*"):
        known = pieces.get(piece)
        if known is None:
            m = _PIECE.fullmatch(piece)
            i = int(m[1]) - 1 if m else -1
            if not 0 <= i < nvars:
                return parse_term(text, nvars, line)
            power = int(m[2] or 1)
            canonical = 0 < power <= MAX_EXPONENT and piece == format_power(i + 1, power)
            known = (i, power, i if canonical else -1)
            if len(pieces) < _MAX_PIECES:
                pieces[piece] = known
        i, power, rank = known
        exps[i] += power
        last = rank if rank > last else nvars
    # a canonical line holds each index once, each power capped: no sum exceeds the cap
    if last == nvars and max(exps) > MAX_EXPONENT:
        return parse_term(text, nvars, line)
    t, exps = _new_object(Term), tuple(exps)  # as Term._valid builds it, without the call
    t.exponents, t._rev, t._hash = exps, exps[::-1], hash(exps)
    t._text = text if last < nvars else None
    return t


def _bounded_nat(digits: str, cap: int) -> int:
    """Value of a digit string, or cap + 1 above cap. Over 18 significant
    digits exceed every cap, and int() is never given them: it refuses or
    slows on very long strings."""
    if len(digits) > 18:
        digits = digits.lstrip("0") or "0"
        if len(digits) > 18:
            return cap + 1
    return min(int(digits), cap + 1)


def _file_lines(text: str) -> tuple[int | None, list[tuple[int, str]]]:
    """The layout of a term-set or points file: the n of a "vars: n" header on
    the first line that holds more than a comment, or None, and every other
    nonblank line as (line number, body), '#' comments cut and stripped."""
    # only \r\n, \r and \n end a line (str.splitlines also ends one at \f, U+2028...);
    # comments are cut only from a file that holds a "#"
    raws = (text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text).split("\n")
    raws = (raw.split("#", 1)[0] for raw in raws) if "#" in text else raws
    content = [(k, body) for k, raw in enumerate(raws, 1) if (body := raw.strip())]
    m = _VARS_HEADER.match(content[0][1]) if content else None
    if m is None:
        return None, content
    nvars = _bounded_nat(m[1], MAX_VARS)
    if not 1 <= nvars <= MAX_VARS:
        raise TermSyntaxError(f"vars must lie in 1..{MAX_VARS}", line=content[0][0])
    return nvars, content[1:]


def parse_term_set(text: str) -> TermSet:
    """Parse a term-set file: optional "vars: n" header, one term per line.

    Without a header the variable count is inferred from the largest variable
    index used; exponent-list lines fix it exactly and must agree. Either way
    it is at most MAX_VARS.
    """
    nvars, content = _file_lines(text)
    if nvars is None:
        # n before any term is read: the exponent lists' length, or the largest
        # index among the product lines' distinct pieces (see _widest)
        lengths, batch, max_index = set(), set(), 0
        for _, body in content:
            if body[0] == "[":
                lengths.add(body.count(",") + 1)
            else:
                batch.update(body.split("*"))
                if len(batch) > _MAX_PIECES:
                    max_index = max(max_index, _widest(batch))
        max_index = max(max_index, _widest(batch))
        if max(lengths | {max_index}) > MAX_VARS:
            raise TermSyntaxError(f"more than {MAX_VARS} variables, the limit")
        if len(lengths) > 1:
            raise TermSyntaxError("exponent lists of different lengths; add a 'vars: n' header")
        nvars = lengths.pop() if lengths else max(max_index, 1)
        if max_index > nvars:
            raise TermSyntaxError(f"variable index {max_index} exceeds exponent-list length {nvars}")
    pieces: dict[str, tuple[int, int, int]] = {}
    terms = [_read_line(body, nvars, line_no, pieces) for line_no, body in content]
    return TermSet(nvars, terms)


def _widest(batch: set) -> int:
    """Largest "x<digits>" index among batch's pieces, MAX_VARS + 1 above
    MAX_VARS. No "x<digits>" spans a "*", so the pieces are searched joined
    by one. batch is emptied: a file's distinct pieces are held a batch at a
    time."""
    found = _VAR_INDEX.findall("*".join(batch))
    batch.clear()
    return max((_bounded_nat(d, MAX_VARS) for d in found), default=0)
