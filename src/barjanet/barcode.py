"""Bar codes: a layered encoding of a finite set of terms.

A bar code over n variables and m columns is a stack of n rows of horizontal
bars. Column j carries the j-th term of the lex-sorted input; the bars of
row i group consecutive columns whose terms share the projection pi^i (the
exponents of x_i..x_n). Row 1 therefore always consists of m unit bars, every
row's 1-lengths sum to m, and the bars of row i refine the bars of row i+1.

A bar code stores one depth per pair of neighbouring columns: the highest
variable where their labels differ. Row i has a bar boundary there exactly
when the depth is at least i, starred exactly when it exceeds i (the last
bar of a row always is). Rows, stars and powers all read off the depths.

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
from itertools import accumulate
from operator import attrgetter, indexOf, itemgetter, ne, sub
from typing import Sequence

from .errors import (
    AdmissibilityError,
    DimensionError,
    EmptyInputError,
    InputError,
    MembershipError,
)
from .terms import Term, TermSet, format_power, format_term


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
    """Star marks on a bar code: rows[i - 1] lists, increasing, the bars j
    of row i that a star follows. Iterating yields (i, j) in that order."""

    rows: tuple[tuple[int, ...], ...]

    def has(self, row: int, bar: int) -> bool:
        if not 1 <= row <= len(self.rows):
            return False
        bars = self.rows[row - 1]
        k = bisect_left(bars, bar)
        return k < len(bars) and bars[k] == bar

    def __iter__(self):
        return ((i, j) for i, bars in enumerate(self.rows, 1) for j in bars)

    def __len__(self) -> int:
        return sum(map(len, self.rows))


class BarCode:
    """Immutable bar code; rows, bars and columns are indexed from 1."""

    __slots__ = ("_nvars", "_depths", "_labels", "_bounds", "_columns", "_stars")

    def __init__(self, nvars, depths, labels, _internal=False):
        if not _internal:
            raise TypeError("use BarCode.build or BarCode.from_lengths")
        self._nvars = nvars
        self._depths = depths
        self._labels = labels
        self._bounds = None
        self._columns = None
        self._stars = None

    @classmethod
    def build(cls, terms: TermSet) -> BarCode:
        """Bar code of a finite term set. Lex order compares exponents from
        x_n down, so the sorted terms of equal pi^i are contiguous (row i's
        bars), and the depth of two neighbours is n minus the first position
        where their reversed exponent tuples differ (one does)."""
        if len(terms) == 0:
            raise EmptyInputError("cannot build a bar code from an empty set")
        n = terms.nvars
        rev = [t._rev for t in terms.terms]
        depths = tuple([n - indexOf(map(ne, prev, cur), True) for prev, cur in zip(rev, rev[1:])])
        return cls(n, depths, terms.terms, _internal=True)

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
        depths = _depths_of_rows(rows)
        if labels is None:
            bc = cls(len(rows), depths, None, _internal=True)
            bc._labels = canonical_labels(bc)
            return bc
        terms = TermSet(len(rows), labels)
        if len(terms) != len(labels) or len(terms) != len(rows[0]):
            raise InputError("labels must be distinct, one per column")
        rebuilt = cls.build(terms)
        if rebuilt._depths != depths:
            raise InputError("labels are inconsistent with the bar structure")
        return rebuilt

    @property
    def nvars(self) -> int:
        return self._nvars

    @property
    def ncols(self) -> int:
        return len(self._depths) + 1

    @property
    def labels(self) -> tuple[Term, ...]:
        return self._labels

    def one_lengths(self, row: int) -> tuple[int, ...]:
        bounds = self._bar_bounds(row)
        return tuple(map(sub, bounds[1:], bounds))

    def bar_of_column(self, row: int, col: int) -> int:
        """Index of the bar of the given row lying under column col."""
        bounds = self._bar_bounds(row)
        if not 1 <= col <= self.ncols:
            raise DimensionError(f"column {col} outside 1..{self.ncols}")
        return bisect_right(bounds, col)

    def bar_span(self, row: int, bar: int) -> tuple[int, int]:
        """First and last column covered by the given bar."""
        bounds = self._bar_bounds(row)
        if not 1 <= bar < len(bounds):
            raise DimensionError(f"bar {bar} outside 1..{len(bounds) - 1}")
        return bounds[bar - 1], bounds[bar] - 1

    def label_of_bar(self, row: int, bar: int) -> Term:
        """Leftmost column label over the given bar."""
        first, _ = self.bar_span(row, bar)
        return self._labels[first - 1]

    def column_of(self, t: Term) -> int:
        """Column carrying the label t, bisected: the labels are sorted by _rev."""
        col = bisect_left(self._labels, t._rev, key=attrgetter("_rev"))
        if col == len(self._labels) or self._labels[col] != t:
            raise MembershipError(f"{t} is not a column label of the bar code")
        return col + 1

    def exponent_columns(self) -> tuple[tuple[int, ...], ...]:
        """Entry v: each column's x_(v+1)-exponent. Built on first use, so
        building a bar code pays nothing for it."""
        if self._columns is None:
            self._columns = tuple(zip(*(t.exponents for t in self._labels)))
        return self._columns

    def _bar_bounds(self, row: int) -> tuple[int, ...]:
        """First column of each bar of the row, then ncols + 1. Derived from
        the depths for every row on first use, like exponent_columns."""
        if not 1 <= row <= self._nvars:
            raise DimensionError(f"row {row} outside 1..{self._nvars}")
        if self._bounds is None:
            self._bounds = tuple(
                (1, *(c for c, d in enumerate(self._depths, 2) if d >= i), self.ncols + 1)
                for i in range(1, self._nvars + 1)
            )
        return self._bounds[row - 1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BarCode)
            and self._nvars == other._nvars
            and self._depths == other._depths
            and self._labels == other._labels
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"BarCode(vars={self._nvars}, cols={self.ncols})"


def next_powers(bc: BarCode) -> list[dict[int, int]]:
    """Entry c: the nonmultiplicative powers {i: k_i} of the 0-based column
    c, by increasing i, in a dict of its own. Columns c and c + 1 of depth d
    agree on x_(d+1)..x_n, so right to left column c shares column c + 1's
    powers above d, has the gap between their x_d-exponents at d and none
    below d (its bars there are starred). The last column has none."""
    exps = [t.exponents for t in bc.labels]
    out = [{}]
    kept: list[tuple[int, int]] = []  # column c + 1's (i, k_i), highest i first
    for d, left, right in zip(reversed(bc._depths), reversed(exps[:-1]), reversed(exps)):
        while kept and kept[-1][0] <= d:
            kept.pop()
        kept.append((d, right[d - 1] - left[d - 1]))
        out.append(dict(reversed(kept)))
    out.reverse()
    return out


def power_texts(bc: BarCode) -> list[str]:
    """Entry c: next_powers' entry c as text, each power as format_power
    spells it, joined by ", " ("" for none). By next_powers' rule, each line
    formats one power and shares the rest with its right neighbour's."""
    exps = [t.exponents for t in bc.labels]
    out = [""]
    kept: list[tuple[int, str]] = []  # column c + 1's (i, text from x_i^(k_i) on), highest i first
    for d, left, right in zip(reversed(bc._depths), reversed(exps[:-1]), reversed(exps)):
        while kept and kept[-1][0] <= d:
            kept.pop()
        power = format_power(d, right[d - 1] - left[d - 1])
        out.append(f"{power}, {kept[-1][1]}" if kept else power)
        kept.append((d, out[-1]))
    out.reverse()
    return out


def corner_texts(bc: BarCode) -> list[str]:
    """Entry c: CornerVector.format() of the 0-based column c's corner vector.
    By next_powers' rule, a column of depth d has its right neighbour's caps
    above x_d, its own at x_d and infinity below: each line formats one cap,
    shares the text above it and slices runs of infinities from one string."""
    n, exps = bc.nvars, [t.exponents for t in bc.labels]
    pieces = [f"x{i}^inf*" for i in range(1, n + 1)]
    full, at = "".join(pieces), [0, 0, *accumulate(map(len, pieces))]  # x_i starts at at[i]
    out = [full[:-1]]
    kept: list[tuple[int, str]] = []  # column c + 1's (i, its text from x_i on), highest i first
    for d, right in zip(reversed(bc._depths), reversed(exps)):
        while kept and kept[-1][0] <= d:
            kept.pop()
        above, rest = kept[-1] if kept else (n + 1, "")
        run = full[at[d + 1] : at[above] - 1]  # x_(d+1) up to column c + 1's cap, all infinite
        text = "*".join(filter(None, (f"x{d}^{right[d - 1] - 1}", run, rest)))
        out.append(full[: at[d]] + text)
        kept.append((d, text))
    out.reverse()
    return out


def next_bars(bc: BarCode) -> list[tuple[tuple[int, int, int, int], ...]]:
    """Entry c: one (i, e, lo, hi) per row i where the bar under the 0-based
    column c is unstarred, by increasing i; the next i-bar covers the columns
    [lo, hi), all of x_i-exponent e. The bar ends at the first boundary at
    or after c of depth d >= i, and it is unstarred exactly when d = i. So,
    right to left, the boundary right of c gives row d a record and the rows
    below d a star, while the rows above d keep column c + 1's records.
    is_complete reads the bounds for its descents; next_powers reads the
    powers alone.
    """
    labels, depths, m = bc.labels, bc._depths, bc.ncols
    out = [()] * m
    # the boundaries right of c with no deeper one nearer to c, nearest last;
    # past the shallower ones lies the first of depth >= d, where the d-bar ends
    ends: list[int] = []
    for c in range(m - 2, -1, -1):
        d = depths[c]
        while ends and depths[ends[-1]] < d:
            ends.pop()
        hi = ends[-1] + 1 if ends else m
        ends.append(c)
        own = (d, labels[c + 1].exponents[d - 1], c + 1, hi)
        kept = out[c + 1][bisect_right(out[c + 1], d, key=itemgetter(0)) :]
        out[c] = (own, *kept)
    return out


def descend_columns(exponents, lo: int, hi: int, row: int, bounds) -> int:
    """First 0-based column reached by walking down from the bar lo..hi-1 of
    the given row (row n+1 spans every column) to row 1, at each lower row l
    onto the bar over the current one whose x_l-exponent is the largest not
    above bounds[l-1]. When no bar qualifies at some row, ~c (negative) for
    the first column c of the bar the walk stopped on. exponents is
    BarCode.exponent_columns; the bars over a bar of row l+1 are the runs of
    equal x_l-exponent in its columns, which lex order sorts, so each step
    is two bisections. janet.is_complete runs this loop inline."""
    for low in range(row - 2, -1, -1):
        exps = exponents[low]
        c = bisect_right(exps, bounds[low], lo, hi) - 1
        if c < lo:
            return ~lo
        lo, hi = bisect_left(exps, exps[c], lo, c), c + 1
    return lo


def _depths_of_rows(rows: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Depths of valid rows' boundaries: row 1 has one of depth 1 between any
    two columns, and each row's must lie on the row below's, one deeper."""
    ncols = sum(rows[0])
    for row in rows:
        if any(ell < 1 for ell in row):
            raise InputError("bar 1-lengths must be positive")
        if sum(row) != ncols:
            raise InputError("all rows must sum to the same number of columns")
    if any(ell != 1 for ell in rows[0]):
        raise InputError("row 1 must consist of unit bars")
    if ncols == 0:
        raise EmptyInputError("a bar code needs at least one column")
    depths = [1] * (ncols - 1)
    for below, row in enumerate(rows[1:], 1):
        for col in accumulate(row[:-1]):  # the boundary right of column col
            if depths[col - 1] != below:
                raise InputError("every bar must lie inside a single bar of the row below")
            depths[col - 1] = below + 1
    return tuple(depths)


def canonical_labels(bc: BarCode) -> tuple[Term, ...]:
    """Labels determined by the geometry alone.

    The j-th bar of row n is labeled x_n^(j-1); descending row by row, the
    k-th bar (k from 0) above a bar labeled t is labeled t*x_i^k. The result
    per column equals the e-list read as an exponent vector.
    """
    return tuple(e_list(bc, col).term() for col in range(1, bc.ncols + 1))


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
    bars of a row that lie over different bars of the row below, where the
    boundary between them is deeper than the row. Built once per bar code,
    on first use, like exponent_columns."""
    if bc._stars is None:
        rows = []
        depths = bc._depths  # of row i's boundaries, the ones of depth >= i
        for i in range(1, bc.nvars + 1):
            rows.append((*(j for j, d in enumerate(depths, 1) if d > i), len(depths) + 1))
            depths = [d for d in depths if d > i]
        bc._stars = StarPlacement(tuple(rows))
    return bc._stars


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
        starred = frozenset() if stars is None else frozenset(stars.rows[i - 1])
        bounds = bc._bar_bounds(i)
        pieces = [
            "-" * (sum(widths[first - 1 : end - 1]) + end - first - 1)
            for first, end in zip(bounds, bounds[1:])
        ]
        line = pieces[0] + "".join(
            ("*" if j in starred else " ") + piece
            for j, piece in enumerate(pieces[1:], 1)
        )
        if len(pieces) in starred:
            line += " *"
        lines.append(line)
    return "\n".join(lines)


def to_json_dict(bc: BarCode, stars: StarPlacement | None = None) -> dict:
    """The render command's document: the shape, the labels and, when given,
    the stars."""
    doc = _shape_to_json(bc)
    doc["labels"] = [format_term(t) for t in bc.labels]
    if stars is not None:
        doc["stars"] = [[i, j] for i, j in stars]
    return doc


def stars_to_json(bc: BarCode, stars: StarPlacement) -> dict:
    """The stars command's document: to_json_dict's less the labels, which
    it never formats."""
    return {**_shape_to_json(bc), "stars": [[i, j] for i, j in stars]}


def _shape_to_json(bc: BarCode) -> dict:
    rows = [list(bc.one_lengths(i)) for i in range(1, bc.nvars + 1)]
    return {"vars": bc.nvars, "columns": bc.ncols, "rows": rows}
