"""Corner vectors: the cone of each term described over N plus infinity.

For a term t of a finite set U, the entry for x_i is infinite when x_i is
Janet multiplicative for t; otherwise the cone of t is cut off at exponent
deg_i(t) + k_i - 1, one below the nonmultiplicative power x_i^(k_i). This is
the unique bound admitting exactly the multiples of t whose extra i-degree
stays under k_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .janet import nmp_table
from .terms import Term, TermSet, variable_text


class Infinity:
    """Explicit unbounded corner entry; a single shared instance."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = Infinity()


_entry_text = lru_cache(maxsize=4096)("^{}".format)  # kept like terms.variable_text


@dataclass(frozen=True)
class CornerVector:
    """Per-variable cap of a cone; entries follow the variable order."""

    entries: tuple

    def is_infinite(self, i: int) -> bool:
        return self.entries[i - 1] is INF

    def format(self) -> str:
        return "*".join([variable_text(i) + _entry_text(e) for i, e in enumerate(self.entries, 1)])

    def __str__(self):
        return self.format()


def infinite_corners(
    terms: TermSet,
    table: dict[Term, dict[int, int]] | None = None,
) -> dict[Term, CornerVector]:
    """Corner vector for every term of the set, keyed in lex order."""
    if table is None:
        table = nmp_table(terms)
    out: dict[Term, CornerVector] = {}
    for t in terms:
        entries = [INF] * terms.nvars
        for i, k in table[t].items():
            entries[i - 1] = t.exponents[i - 1] + k - 1
        out[t] = CornerVector(tuple(entries))
    return out


def corner_to_json(vec: CornerVector) -> list:
    return ["inf" if e is INF else e for e in vec.entries]
