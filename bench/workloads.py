"""Seeded inputs of the benchmark's workloads.

A workload is a fixed list of CLI commands over input files generated here
from the seed; nothing here imports barjanet. Each input file has its own
random stream, seeded by (workload, seed, file index), so one file's content
does not depend on the sizes of the others. The "tiny" scale keeps every
kind of input and command at a size the self-test runs in seconds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from checker import format_term

# A points file whose second point has a zero denominator. Its documented
# outcome is exit 1 with a one-line message; it does not depend on the seed.
ZERO_DENOMINATOR = "vars: 2\n0,0\n1,1/0\n2,1\n"


@dataclass(frozen=True)
class Command:
    command: str  # CLI subcommand
    path: str  # input file, relative to the inputs directory
    kind: str  # "terms", "escalier", "basis" or "parse-error"


# Each row is (files, kind, variables, size, largest exponent, commands):
# that many seeded files, each run under each command. Term sets are
# "random" (exponents drawn from 0..largest) or "ideal" (order ideals).
# Point sets are "grid" (coordinates in 0..GRID_SIDE[n]-1, so points share
# coordinates) or "rational" (p/q with |p| <= 9, 1 <= q <= 9).
#
# latency_p50_ms is the median over every command of a run, so each
# workload has one kind of command that is more than half of all commands,
# and the median falls inside its spread rather than in a gap between kinds.
WORKLOADS = {
    "terms-check": {
        "full": [
            (3, "random", 4, 1000, 11, ("check-complete",)),
            (1, "ideal", 4, 1000, None, ("check-complete",)),
            (1, "random", 6, 1000, 5, ("check-complete",)),
        ],
        "tiny": [
            (1, "random", 4, 40, 4, ("check-complete",)),
            (1, "ideal", 5, 40, None, ("check-complete",)),
        ],
    },
    "terms-complete": {
        "full": [
            (1, "random", 3, 80, 12, ("complete",)),
            (36, "random", 3, 30, 7, ("complete",)),
            (4, "random", 4, 20, 3, ("complete",)),
        ],
        "tiny": [
            (1, "random", 3, 8, 4, ("complete",)),
            (1, "random", 4, 6, 3, ("complete",)),
        ],
    },
    "points-basis": {
        "full": [
            (1, "rational", 2, 20, None, ("escalier", "basis")),
            (4, "rational", 2, 20, None, ("basis",)),
            (1, "grid", 2, 20, None, ("escalier", "basis")),
            (4, "grid", 2, 20, None, ("basis",)),
            (1, "rational", 3, 20, None, ("escalier", "basis")),
            (1, "rational", 4, 20, None, ("escalier", "basis")),
            (1, "grid", 4, 24, None, ("escalier", "basis")),
            (1, "grid", 4, 24, None, ("basis",)),
            (1, "grid", 3, 24, None, ("escalier", "basis")),
            (1, "rational", 3, 30, None, ("basis",)),
        ],
        "tiny": [
            (1, "rational", 2, 5, None, ("escalier", "basis")),
            (1, "grid", 3, 6, None, ("basis",)),
        ],
    },
    "terms-annotate": {
        "full": [
            (1, "random", 4, 3000, 12, ("nmp", "corners", "stars", "render")),
            (1, "ideal", 5, 3000, None, ("nmp", "corners", "stars", "render")),
            (1, "random", 6, 3000, 6, ("nmp", "corners", "stars", "render")),
            (1, "random", 4, 3000, 12, ("nmp", "corners")),
            (1, "ideal", 5, 3000, None, ("nmp", "corners")),
            (1, "random", 6, 3000, 6, ("nmp", "corners")),
        ],
        "tiny": [
            (1, "random", 4, 30, 4, ("nmp", "corners", "stars", "render")),
            (1, "ideal", 3, 30, None, ("nmp", "corners", "stars", "render")),
        ],
    },
}

GRID_SIDE = {2: 10, 3: 6, 4: 4}


def random_terms(rng, n, size, top):
    """size distinct terms with every exponent in 0..top."""
    terms = set()
    while len(terms) < size:
        terms.add(tuple(rng.randint(0, top) for _ in range(n)))
    return terms


def _divisors_present(u, ideal):
    return all(
        not e or u[:i] + (e - 1,) + u[i + 1 :] in ideal for i, e in enumerate(u)
    )


def order_ideal(rng, n, size):
    """An order ideal of exactly size terms, grown from 1 by adding, at
    random, a term whose one-step divisors are all present, so the set
    stays divisor closed."""
    ideal = {(0,) * n}
    frontier = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    queued = set(frontier)
    while len(ideal) < size:
        k = rng.randrange(len(frontier))
        frontier[k], frontier[-1] = frontier[-1], frontier[k]
        t = frontier.pop()
        ideal.add(t)
        for i in range(n):
            u = t[:i] + (t[i] + 1,) + t[i + 1 :]
            if u not in queued and _divisors_present(u, ideal):
                queued.add(u)
                frontier.append(u)
    return ideal


def term_file(rng, terms, n):
    lines = [format_term(t) for t in sorted(terms)]
    rng.shuffle(lines)
    return f"vars: {n}\n" + "\n".join(lines) + "\n"


def points_file(rng, kind, n, size):
    points = set()
    order = []
    while len(points) < size:
        if kind == "grid":
            p = tuple(rng.randrange(GRID_SIDE[n]) for _ in range(n))
        else:
            p = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n))
        if p not in points:
            points.add(p)
            order.append(p)
    body = "\n".join(",".join(str(c) for c in p) for p in order)
    return f"vars: {n}\n{body}\n"


def build(workload, seed, scale):
    """({file name: text}, [Command]) of one workload at one seed."""
    files = {}
    commands = []
    rows = WORKLOADS[workload][scale]
    entries = [row[1:] for row in rows for _ in range(row[0])]
    for index, (kind, n, size, top, names) in enumerate(entries):
        rng = random.Random(f"{workload}/{seed}/{index}")
        name = f"{index:02d}-{kind}-{n}v-{size}.txt"
        if kind == "random":
            files[name] = term_file(rng, random_terms(rng, n, size, top), n)
        elif kind == "ideal":
            files[name] = term_file(rng, order_ideal(rng, n, size), n)
        else:
            files[name] = points_file(rng, kind, n, size)
        for command in names:
            kind_of = command if command in ("escalier", "basis") else "terms"
            commands.append(Command(command, name, kind_of))
    if workload == "points-basis":
        files["zero-denominator.txt"] = ZERO_DENOMINATOR
        commands.append(Command("basis", "zero-denominator.txt", "parse-error"))
    return files, commands
