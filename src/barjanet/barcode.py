"""Bar codes: a layered encoding of a finite set of terms.

A bar code over n variables and m columns is a stack of n rows of horizontal
bars. Column j carries the j-th term of the lex-sorted input; the bars of
row i group consecutive columns whose terms share the projection pi^i (the
exponents of x_i..x_n). Row 1 therefore always consists of m unit bars, every
row's 1-lengths sum to m, and the bars of row i refine the bars of row i+1.

The geometry alone determines a canonical labeling (see canonical_labels):
the j-th bar of row n stands for x_n^(j-1) and, inside each block, the k-th
bar above a bar labeled t stands for t*x_(i)^(k-1). A bar code built from a
term set additionally remembers the actual input terms as its labels, which
is what decode returns; for codes built from raw row lengths the canonical
labeling is used. Structure queries (1-lengths, e-lists, stars) never look
at the labels.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    AdmissibilityError,
    DimensionError,
    EmptyInputError,
    InputError,
    MembershipError,
)
from .terms import Term, TermSet, box_terms, format_term, parse_term


@dataclass(frozen=True)
class EList:
    """Left-bar counts of one column, stored highest variable first.

    entries[0] counts the row-n bars left of the column's row-n bar; each
    further entry counts, inside the block of the row above, the bars left of
    the column's bar. Reversed, the tuple is an exponent vector.
    """

    entries: tuple[int, ...]

    def term(self) -> Term:
        return Term(self.entries[::-1])


@dataclass(frozen=True)
class StarPlacement:
    """Star marks on a bar code: (row i, bar j) means a star follows bar j."""

    stars: frozenset[tuple[int, int]]

    def has(self, row: int, bar: int) -> bool:
        return (row, bar) in self.stars

    def sorted(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.stars))

    def __iter__(self):
        return iter(self.sorted())

    def __len__(self) -> int:
        return len(self.stars)


class BarCode:
    """Immutable bar code; rows, bars and columns are indexed from 1."""

    __slots__ = ("_nvars", "_lengths", "_starts", "_colbar", "_labels", "_lookups")

    def __init__(self, lengths, labels, _internal=False):
        if not _internal:
            raise TypeError("use BarCode.build or BarCode.from_lengths")
        self._nvars = len(lengths)
        self._lengths = lengths
        starts = []
        colbar = []
        for row in lengths:
            row_starts = []
            row_colbar = []
            col = 1
            for j, ell in enumerate(row, 1):
                row_starts.append(col)
                row_colbar.extend([j] * ell)
                col += ell
            starts.append(tuple(row_starts))
            colbar.append(tuple(row_colbar))
        self._starts = tuple(starts)
        self._colbar = tuple(colbar)
        self._labels = labels
        self._lookups = None

    @classmethod
    def build(cls, terms: TermSet) -> BarCode:
        """Bar code of a finite term set.

        Row i's bars are the maximal runs of columns with equal pi^i over the
        lex-sorted terms; sorting makes such runs contiguous because pi^i is
        exactly the part of the exponent vector that lex compares first.
        """
        if len(terms) == 0:
            raise EmptyInputError("cannot build a bar code from an empty set")
        sorted_terms = terms.terms
        n = terms.nvars
        lengths = []
        for i in range(1, n + 1):
            row = []
            run = 1
            for prev, cur in zip(sorted_terms, sorted_terms[1:]):
                if prev.exponents[i - 1 :] == cur.exponents[i - 1 :]:
                    run += 1
                else:
                    row.append(run)
                    run = 1
            row.append(run)
            lengths.append(tuple(row))
        return cls(tuple(lengths), sorted_terms, _internal=True)

    @classmethod
    def from_lengths(
        cls,
        lengths: Sequence[Sequence[int]],
        labels: Sequence[Term] | None = None,
    ) -> BarCode:
        """Bar code from explicit per-row 1-lengths (row 1 first).

        Without labels the canonical labeling is attached. Explicit labels
        must reproduce the given structure when rebuilt, which pins them to
        the geometry.
        """
        rows = tuple(tuple(int(ell) for ell in row) for row in lengths)
        if not rows:
            raise EmptyInputError("a bar code needs at least one row")
        _check_structure(rows)
        bc = cls(rows, None, _internal=True)
        if labels is None:
            relabeled = cls(rows, canonical_labels(bc), _internal=True)
            return relabeled
        terms = TermSet(len(rows), labels)
        if len(terms) != len(labels) or len(terms) != len(rows[0]):
            raise InputError("labels must be distinct, one per column")
        rebuilt = cls.build(terms)
        if rebuilt._lengths != rows:
            raise InputError("labels are inconsistent with the bar structure")
        return rebuilt

    @property
    def nvars(self) -> int:
        return self._nvars

    @property
    def ncols(self) -> int:
        return len(self._colbar[0])

    @property
    def labels(self) -> tuple[Term, ...]:
        return self._labels

    def mu(self, row: int) -> int:
        """Number of bars in the given row."""
        self._check_row(row)
        return len(self._lengths[row - 1])

    def one_lengths(self, row: int) -> tuple[int, ...]:
        self._check_row(row)
        return self._lengths[row - 1]

    def bar_of_column(self, row: int, col: int) -> int:
        """Index of the bar of the given row lying under column col."""
        self._check_row(row)
        if not 1 <= col <= self.ncols:
            raise DimensionError(f"column {col} outside 1..{self.ncols}")
        return self._colbar[row - 1][col - 1]

    def bar_span(self, row: int, bar: int) -> tuple[int, int]:
        """First and last column covered by the given bar."""
        self._check_row(row)
        if not 1 <= bar <= self.mu(row):
            raise DimensionError(f"bar {bar} outside 1..{self.mu(row)}")
        first = self._starts[row - 1][bar - 1]
        return first, first + self._lengths[row - 1][bar - 1] - 1

    def label_of_bar(self, row: int, bar: int) -> Term:
        """Leftmost column label over the given bar."""
        first, _ = self.bar_span(row, bar)
        return self._labels[first - 1]

    def column_of(self, t: Term) -> int:
        """Column carrying the label t."""
        try:
            return self._lookup()[0][t]
        except KeyError:
            raise MembershipError(f"{t} is not a column label of the bar code") from None

    def descend(self, row: int, bar: int, bounds: Sequence[int]) -> int | None:
        """Column reached by walking down from the given bar to row 1, at each
        lower row l onto the bar over the current one whose x_l-exponent is
        the largest not above bounds[l-1]; None when no bar qualifies.

        The bars over a bar of row l+1 are the runs of equal x_l-exponent in
        its columns, which lex order sorts, so each step is two bisections.
        """
        first, last = self.bar_span(row, bar)
        lo, hi = first - 1, last
        exponents = self._lookup()[1]
        for low in range(row - 2, -1, -1):
            exps = exponents[low]
            c = bisect_right(exps, bounds[low], lo, hi) - 1
            if c < lo:
                return None
            lo, hi = bisect_left(exps, exps[c], lo, c), c + 1
        return lo + 1

    def _lookup(self):
        """Indexes built on first use, so building a bar code pays nothing for
        them: the column of each label, and per variable its exponent in
        every column."""
        if self._lookups is None:
            self._lookups = (
                {t: col for col, t in enumerate(self._labels, 1)},
                tuple(zip(*(t.exponents for t in self._labels))),
            )
        return self._lookups

    def _check_row(self, row: int) -> None:
        if not 1 <= row <= self._nvars:
            raise DimensionError(f"row {row} outside 1..{self._nvars}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BarCode)
            and self._lengths == other._lengths
            and self._labels == other._labels
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"BarCode(vars={self._nvars}, cols={self.ncols})"


def _check_structure(rows: tuple[tuple[int, ...], ...]) -> None:
    ncols = sum(rows[0])
    for row in rows:
        if any(ell < 1 for ell in row):
            raise InputError("bar 1-lengths must be positive")
        if sum(row) != ncols:
            raise InputError("all rows must sum to the same number of columns")
    if any(ell != 1 for ell in rows[0]):
        raise InputError("row 1 must consist of unit bars")

    def boundaries(row):
        acc = 0
        out = set()
        for ell in row[:-1]:
            acc += ell
            out.add(acc)
        return out

    for upper, lower in zip(rows, rows[1:]):
        if not boundaries(lower) <= boundaries(upper):
            raise InputError("every bar must lie inside a single bar of the row below")


def canonical_labels(bc: BarCode) -> tuple[Term, ...]:
    """Labels determined by the geometry alone.

    The j-th bar of row n is labeled x_n^(j-1); descending row by row, the
    k-th bar (k from 0) above a bar labeled t is labeled t*x_i^k. The result
    per column equals the e-list read as an exponent vector.
    """
    n = bc.nvars
    m = bc.ncols
    exps = [[0] * n for _ in range(m)]
    for j in range(1, bc.mu(n) + 1):
        first, last = bc.bar_span(n, j)
        for col in range(first, last + 1):
            exps[col - 1][n - 1] = j - 1
    for i in range(n - 1, 0, -1):
        for parent in range(1, bc.mu(i + 1) + 1):
            pfirst, plast = bc.bar_span(i + 1, parent)
            base = bc.bar_of_column(i, pfirst)
            for col in range(pfirst, plast + 1):
                exps[col - 1][i - 1] = bc.bar_of_column(i, col) - base
    return tuple(Term(e) for e in exps)


def e_list(bc: BarCode, col: int) -> EList:
    """e-list of the col-th column: nested left-bar counts, row n first."""
    if not 1 <= col <= bc.ncols:
        raise DimensionError(f"column {col} outside 1..{bc.ncols}")
    n = bc.nvars
    entries = [bc.bar_of_column(n, col) - 1]
    for i in range(n - 1, 0, -1):
        parent = bc.bar_of_column(i + 1, col)
        pfirst, _ = bc.bar_span(i + 1, parent)
        entries.append(bc.bar_of_column(i, col) - bc.bar_of_column(i, pfirst))
    return EList(tuple(entries))


def decode(bc: BarCode) -> TermSet:
    """The term set a bar code stands for: its column labels."""
    return TermSet(bc.nvars, bc.labels)


def is_admissible(bc: BarCode) -> bool:
    """True when the decoded set is an order ideal.

    Equivalently, for every column and every variable with positive exponent
    some other column carries the label with that exponent decremented.
    """
    return decode(bc).is_order_ideal()


def star_positions(bc: BarCode) -> StarPlacement:
    """Stars after bars: the last bar of every row, and between consecutive
    bars of a row that lie over different bars of the row below."""
    stars = set()
    n = bc.nvars
    for i in range(1, n + 1):
        stars.add((i, bc.mu(i)))
    for i in range(1, n):
        for j in range(1, bc.mu(i)):
            _, last = bc.bar_span(i, j)
            nxt_first, _ = bc.bar_span(i, j + 1)
            if bc.bar_of_column(i + 1, last) != bc.bar_of_column(i + 1, nxt_first):
                stars.add((i, j))
    return StarPlacement(frozenset(stars))


def star_set(bc: BarCode) -> TermSet:
    """Star set of an admissible bar code.

    Every star after the j-th bar of row i contributes x_i * pi^i(t) with t a
    column label over that bar; all labels over one bar share pi^i, and the
    leftmost is used for determinism.
    """
    if not is_admissible(bc):
        raise AdmissibilityError("the star set is defined for order ideals only")
    out = []
    for i, j in star_positions(bc):
        t = bc.label_of_bar(i, j)
        out.append(Term.variable(bc.nvars, i) * t.pi(i))
    return TermSet(bc.nvars, out)


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


def render_ascii(bc: BarCode, stars: StarPlacement | None = None) -> str:
    """Text picture: a header of labels, then one line of dashes per row.

    Every column is as wide as its label; a bar spans its columns and the
    gaps between them. Between two bars the single separator cell holds '*'
    when the left bar is starred; a star after the last bar is appended.
    """
    label_strs = [format_term(t) for t in bc.labels]
    widths = [len(s) for s in label_strs]
    lines = [" ".join(label_strs)]
    for i in range(1, bc.nvars + 1):
        pieces = []
        for j in range(1, bc.mu(i) + 1):
            first, last = bc.bar_span(i, j)
            width = sum(widths[first - 1 : last]) + (last - first)
            pieces.append("-" * width)
        line = pieces[0]
        for j in range(2, bc.mu(i) + 1):
            starred = stars is not None and stars.has(i, j - 1)
            line += ("*" if starred else " ") + pieces[j - 1]
        if stars is not None and stars.has(i, bc.mu(i)):
            line += " *"
        lines.append(line)
    return "\n".join(lines)


def to_json_dict(bc: BarCode, stars: StarPlacement | None = None) -> dict:
    doc = {
        "vars": bc.nvars,
        "columns": bc.ncols,
        "rows": [list(bc.one_lengths(i)) for i in range(1, bc.nvars + 1)],
        "labels": [format_term(t) for t in bc.labels],
    }
    if stars is not None:
        doc["stars"] = [list(pair) for pair in stars.sorted()]
    return doc


def barcode_from_json(doc: dict) -> tuple[BarCode, StarPlacement | None]:
    nvars = int(doc["vars"])
    labels = [parse_term(s, nvars) for s in doc["labels"]]
    bc = BarCode.from_lengths(doc["rows"], labels)
    stars = None
    if "stars" in doc:
        stars = StarPlacement(frozenset((int(i), int(j)) for i, j in doc["stars"]))
    return bc, stars
