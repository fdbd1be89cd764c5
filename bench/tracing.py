"""Per-layer tracing from outside the library.

Each traced function is replaced, in every namespace it is looked up from,
by a wrapper that records a span. A span's self time is its duration minus
the durations of the traced spans it encloses, so every second of a traced
command lands in exactly one name. Counters are read off arguments and
results at the same boundaries. install() returns a Tracer; its restore()
puts the original functions back.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

# (span name, function name, modules looking it up by that name)
FUNCTIONS = [
    ("terms.parse", "parse_term_set", ["cli"]),
    ("barcode.star_positions", "star_positions", ["cli", "janet", "barcode"]),
    ("janet.nmp_table", "nmp_table", ["cli", "janet", "corners"]),
    ("janet.divisor_search", "divisors_for_nm_product", ["janet"]),
    ("janet.is_complete", "is_complete", ["cli", "janet"]),
    ("janet.complete", "complete", ["cli", "points"]),
    ("corners.infinite_corners", "infinite_corners", ["cli"]),
    ("points.parse", "parse_points", ["cli"]),
    ("points.escalier", "groebner_escalier", ["cli", "points"]),
    ("points.generators", "monomial_generators", ["points"]),
    ("points.normal_form", "normal_form", ["points"]),
    ("cli.self", "main", ["cli"]),
]

# (span name, class, method name) for methods looked up on their class
METHODS = [
    ("barcode.build", ("barcode", "BarCode"), "build"),
    ("points.solve", ("points", "RationalMatrix"), "solve"),
]

TIME_NAMES = [
    "terms.parse",
    "barcode.build",
    "barcode.star_positions",
    "janet.divisor_search",
    "janet.is_complete",
    "janet.complete",
    "janet.nmp_table",
    "corners.infinite_corners",
    "points.parse",
    "points.escalier",
    "points.generators",
    "points.normal_form",
    "points.solve",
    "cli.self",
]

COUNT_NAMES = [
    "terms.terms_parsed",
    "barcode.build_calls",
    "barcode.columns_built",
    "barcode.star_positions_calls",
    "janet.obligations",
    "janet.is_complete_calls",
    "janet.rounds",
    "janet.terms_added",
    "janet.nmp_table_calls",
    "points.eval_term_calls",
    "points.normal_form_calls",
]


def _count_result(counts, name, result):
    if name == "terms.parse":
        counts["terms.terms_parsed"] += len(result)
    elif name == "barcode.build":
        counts["barcode.build_calls"] += 1
        counts["barcode.columns_built"] += result.ncols
    elif name == "barcode.star_positions":
        counts["barcode.star_positions_calls"] += 1
    elif name == "janet.nmp_table":
        counts["janet.nmp_table_calls"] += 1
    elif name == "janet.is_complete":
        counts["janet.is_complete_calls"] += 1
        counts["janet.obligations"] += len(result.witnesses)
    elif name == "janet.complete":
        added = len(result[1].added)
        counts["janet.terms_added"] += added
        counts["janet.rounds"] += added + 1
    elif name == "points.normal_form":
        counts["points.normal_form_calls"] += 1


class Tracer:
    def __init__(self):
        self.self_time = Counter()
        self.counts = Counter()
        self._stack = []  # [enclosed child time] per open span
        self._restore = []

    def wrap(self, name, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                self.self_time[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            _count_result(self.counts, name, result)
            return result

        return traced

    def count_calls(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def restore(self):
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore = []

    def _replace(self, target, attr, new):
        self._restore.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, new)


def install(package):
    """Wrap the traced functions of an imported barjanet package."""
    tracer = Tracer()
    for name, attr, modules in FUNCTIONS:
        for module_name in modules:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            tracer._replace(module, attr, tracer.wrap(name, original))
    for name, (module_name, class_name), attr in METHODS:
        cls = getattr(getattr(package, module_name), class_name)
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            new = classmethod(tracer.wrap(name, original.__func__))
        else:
            new = tracer.wrap(name, original)
        tracer._replace(cls, attr, new)
    points = package.points
    tracer._replace(
        points, "eval_term", tracer.count_calls("points.eval_term_calls", points.eval_term)
    )
    return tracer
