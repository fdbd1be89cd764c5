"""Corner vectors: the cone of each term described over N plus infinity.

For a term t of a finite set U, the entry for x_i is INF when x_i is Janet
multiplicative for t; otherwise the cone of t is cut off at exponent
deg_i(t) + k_i - 1, one below the nonmultiplicative power x_i^(k_i). This is
the unique bound admitting exactly the multiples of t whose extra i-degree
stays under k_i. INF is math.inf, so every entry compares with an exponent
directly, and it formats as "inf".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .janet import nmp_table
from .terms import Term, TermSet


INF = math.inf


@dataclass(frozen=True)
class CornerVector:
    """Per-variable cap of a cone; entries follow the variable order."""

    entries: tuple

    def format(self) -> str:
        return "*".join(f"x{i}^{e}" for i, e in enumerate(self.entries, 1))

    def __str__(self):
        return self.format()


def infinite_corners(
    terms: TermSet,
    table: dict[Term, dict[int, int]] | None = None,
) -> dict[Term, CornerVector]:
    """Corner vector for every term of the set, keyed in lex order; table is
    the set's nmp_table, built when not given. Each vector is the module
    docstring's: INF everywhere but t_i + k_i - 1 at each power x_i^(k_i).
    """
    if table is None:
        table = nmp_table(terms)
    out = {}
    for t in terms.terms:
        entries = [INF] * terms.nvars
        for i, k in table[t].items():
            entries[i - 1] = t.exponents[i - 1] + k - 1
        out[t] = CornerVector(tuple(entries))
    return out


def corner_to_json(vec: CornerVector) -> list:
    return ["inf" if e is INF else e for e in vec.entries]
