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
from functools import lru_cache
from operator import add

from .janet import nmp_table
from .terms import Term, TermSet, variable_text


INF = math.inf


_entry_text = lru_cache(maxsize=4096)("^{}".format)  # kept like terms.variable_text


@dataclass(frozen=True)
class CornerVector:
    """Per-variable cap of a cone; entries follow the variable order."""

    entries: tuple

    def format(self) -> str:
        variables = map(variable_text, range(1, len(self.entries) + 1))
        return "*".join(map(add, variables, map(_entry_text, self.entries)))

    def __str__(self):
        return self.format()


def infinite_corners(
    terms: TermSet,
    table: dict[Term, dict[int, int]] | None = None,
) -> dict[Term, CornerVector]:
    """Corner vector for every term of the set, keyed in lex order; table is
    the set's nmp_table, built when not given.

    Read in decreasing lex order: the last term is infinite everywhere. A
    term t whose lowest power is x_d^(k_d) agrees with the next term above
    x_d and has its powers there, so it takes the next term's entries above
    x_d, the cap t_d + k_d - 1 at x_d and infinity below x_d.
    """
    if table is None:
        table = nmp_table(terms)
    entries = infinite = (INF,) * terms.nvars
    vecs = []
    for t in reversed(terms.terms):
        for d, k in table[t].items():  # the lowest power comes first
            entries = (*infinite[: d - 1], t.exponents[d - 1] + k - 1, *entries[d:])
            break
        vecs.append(CornerVector(entries))
    vecs.reverse()
    return dict(zip(terms.terms, vecs))


def corner_to_json(vec: CornerVector) -> list:
    return ["inf" if e is INF else e for e in vec.entries]
