"""Definitional checks of barjanet's command outputs.

Nothing here imports barjanet. Every expected value is computed from the
definitions, with the variables x1 < ... < xn and lex order decided by the
highest differing variable:

* x_i is Janet multiplicative for t in U when no u in U agrees with t on
  x_(i+1)..x_n and has a larger x_i exponent; otherwise the minimal
  positive gap k among those u makes x_i^k a nonmultiplicative power;
* s in U is a Janet-like divisor of w when s divides w and no
  nonmultiplicative power of s divides w/s;
* U is Janet-like complete when every product t*x_i^k of a term with one of
  its nonmultiplicative powers has a Janet-like divisor in U;
* an order ideal is closed under dividing out one variable at a time.

Terms are exponent tuples. The scans are organised by hashing (terms grouped
by their exponents above x_i) and by bit sets (the terms with x_j exponent
at most e), which computes the same sets as a scan over all of U, only
faster. Each check raises CheckError with a one-line reason.
"""

from __future__ import annotations

from fractions import Fraction


class CheckError(Exception):
    """An output disagrees with the definitions."""


# -- terms -----------------------------------------------------------------


def lex_key(t):
    return t[::-1]


def lex_sorted(terms):
    return sorted(terms, key=lex_key)


def format_term(t):
    parts = []
    for i, e in enumerate(t, 1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


def parse_term(text, n):
    """Inverse of format_term; also reads the input files' term lines."""
    text = text.strip()
    exps = [0] * n
    if text == "1":
        return tuple(exps)
    for factor in text.split("*"):
        factor = factor.strip()
        if not factor.startswith("x"):
            raise CheckError(f"not a term: {text!r}")
        index, _, power = factor[1:].partition("^")
        i = int(index)
        if not 1 <= i <= n:
            raise CheckError(f"variable x{i} outside 1..{n} in {text!r}")
        exps[i - 1] += int(power) if power else 1
    return tuple(exps)


def parse_term_file(text):
    """(n, terms) of a term-set file with a 'vars: n' header."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    head, _, value = lines[0].partition(":")
    if head.strip() != "vars":
        raise CheckError("term files made by the benchmark carry a vars header")
    n = int(value)
    return n, [parse_term(ln, n) for ln in lines[1:]]


def divides(s, w):
    return all(a <= b for a, b in zip(s, w))


def is_order_ideal(terms):
    members = set(terms)
    for t in terms:
        for i, e in enumerate(t):
            if e and t[:i] + (e - 1,) + t[i + 1 :] not in members:
                return False
    return True


def bounding_box(terms):
    return tuple(max(col) for col in zip(*terms))


# -- Janet and Janet-like data -----------------------------------------------


class JanetData:
    """Nonmultiplicative powers of every term of U, and a divisor index."""

    def __init__(self, n, terms):
        self.n = n
        self.terms = lex_sorted(set(terms))
        self.nmp = {t: {} for t in self.terms}
        for i in range(n):
            groups = {}
            for t in self.terms:
                groups.setdefault(t[i + 1 :], set()).add(t[i])
            for t in self.terms:
                larger = [e for e in groups[t[i + 1 :]] if e > t[i]]
                if larger:
                    self.nmp[t][i + 1] = min(larger) - t[i]
        # at_most[j][e]: bit set of the terms whose x_(j+1) exponent is <= e
        self.at_most = []
        for j in range(n):
            top = max(t[j] for t in self.terms)
            exact = [0] * (top + 1)
            for bit, t in enumerate(self.terms):
                exact[t[j]] |= 1 << bit
            acc, prefix = 0, []
            for mask in exact:
                acc |= mask
                prefix.append(acc)
            self.at_most.append(prefix)

    def multiplicative(self, t):
        return frozenset(i for i in range(1, self.n + 1) if i not in self.nmp[t])

    def dividing(self, w):
        """Terms of U dividing w, as a bit set."""
        mask = -1
        for j, e in enumerate(w):
            prefix = self.at_most[j]
            mask &= prefix[min(e, len(prefix) - 1)]
        return mask

    def janet_like_divisors(self, w):
        out = []
        mask = self.dividing(w)
        while mask:
            low = mask & -mask
            s = self.terms[low.bit_length() - 1]
            mask ^= low
            if all(w[i - 1] - s[i - 1] < k for i, k in self.nmp[s].items()):
                out.append(s)
        return out

    def obligations(self):
        """(t, i, k) for every term and nonmultiplicative power, in witness
        order: terms lex-increasing, then variables."""
        for t in self.terms:
            for i, k in sorted(self.nmp[t].items()):
                yield t, i, k

    def missing(self):
        """Obligations whose product has no Janet-like divisor."""
        out = []
        for t, i, k in self.obligations():
            w = t[: i - 1] + (t[i - 1] + k,) + t[i:]
            if not self.janet_like_divisors(w):
                out.append((t, i, k, w))
        return out

    def bars(self, row):
        """Bars of a row: maximal runs of lex-sorted terms sharing the
        exponents of x_row..x_n."""
        runs = []
        for t in self.terms:
            if runs and runs[-1][-1][row - 1 :] == t[row - 1 :]:
                runs[-1].append(t)
            else:
                runs.append([t])
        return runs

    def starred(self, row):
        """Indices (from 1) of the row's bars followed by a star: those
        whose terms have x_row Janet multiplicative."""
        return [
            j
            for j, run in enumerate(self.bars(row), 1)
            if row in self.multiplicative(run[0])
        ]


def power_text(n, i, k):
    return format_term(tuple(k if j == i else 0 for j in range(1, n + 1)))


# -- expected text for the term commands -------------------------------------


def expected_nmp(data):
    lines = []
    for t in data.terms:
        powers = [power_text(data.n, i, k) for i, k in sorted(data.nmp[t].items())]
        lines.append(f"{format_term(t)}: {', '.join(powers) if powers else '-'}")
    return lines


def expected_corners(data):
    lines = []
    for t in data.terms:
        caps = []
        for i in range(1, data.n + 1):
            k = data.nmp[t].get(i)
            caps.append(f"x{i}^{'inf' if k is None else t[i - 1] + k - 1}")
        lines.append(f"{format_term(t)}: {'*'.join(caps)}")
    return lines


def expected_stars(data):
    return [
        f"row {i}: after bars {', '.join(map(str, data.starred(i)))}"
        for i in range(1, data.n + 1)
    ]


def expected_render(data):
    """The bar code drawn as documented: a header of labels, then per row
    one run of dashes per bar, each as wide as its columns and the gaps
    between them, separated by '*' after a starred bar and ' ' otherwise,
    and ' *' after a starred last bar."""
    labels = [format_term(t) for t in data.terms]
    width = dict(zip(data.terms, map(len, labels)))
    lines = [" ".join(labels)]
    for i in range(1, data.n + 1):
        starred = set(data.starred(i))
        runs = data.bars(i)
        line = ""
        for j, run in enumerate(runs, 1):
            line += "-" * (sum(width[t] for t in run) + len(run) - 1)
            if j < len(runs):
                line += "*" if j in starred else " "
            elif j in starred:
                line += " *"
        lines.append(line)
    return lines


def expected_check(data):
    """(exit code, lines) of check-complete."""
    missing = data.missing()
    lines = ["incomplete" if missing else "complete"]
    for t, i, k, w in missing:
        lines.append(
            f"missing divisor: {format_term(t)} * {power_text(data.n, i, k)}"
            f" = {format_term(w)}"
        )
    return (3 if missing else 0), lines


def _same(got, want, what):
    if got != want:
        for lineno, (a, b) in enumerate(zip(got, want), 1):
            if a != b:
                raise CheckError(f"{what} line {lineno}: got {a!r}, expected {b!r}")
        raise CheckError(f"{what}: got {len(got)} lines, expected {len(want)}")


def check_term_command(command, input_text, output_text, exit_code):
    """Check one term-set command's text output against the definitions."""
    n, terms = parse_term_file(input_text)
    lines = output_text.splitlines()
    if command == "complete":
        check_completion(n, terms, lines, exit_code)
        return
    data = JanetData(n, terms)
    if command == "check-complete":
        if is_order_ideal(terms) and exit_code != 0:
            raise CheckError(f"an order ideal must be complete, got exit {exit_code}")
        code, want = expected_check(data)
        if exit_code != code:
            raise CheckError(f"check-complete exit {exit_code}, expected {code}")
        _same(lines, want, command)
        return
    want = {
        "nmp": expected_nmp,
        "corners": expected_corners,
        "stars": expected_stars,
        "render": expected_render,
    }[command](data)
    if exit_code != 0:
        raise CheckError(f"{command} exit {exit_code}, expected 0")
    _same(lines, want, command)


def check_completion(n, terms, lines, exit_code):
    """The completed set contains the input, marks exactly the added terms,
    stays in the input's bounding box, and is Janet-like complete."""
    if exit_code != 0:
        raise CheckError(f"complete exit {exit_code}, expected 0")
    given = set(terms)
    kept, added = [], []
    for line in lines:
        mark, body = line[:2], line[2:]
        if mark not in ("  ", "+ "):
            raise CheckError(f"complete line without a '  ' or '+ ' mark: {line!r}")
        (added if mark == "+ " else kept).append(parse_term(body, n))
    if set(kept) != given or len(kept) != len(given):
        raise CheckError("complete: the unmarked lines are not the input set")
    if given & set(added):
        raise CheckError("complete: an input term is marked as added")
    result = [parse_term(line[2:], n) for line in lines]
    if result != lex_sorted(set(result)) or len(set(result)) != len(result):
        raise CheckError("complete: output not strictly lex-increasing")
    box = bounding_box(terms)
    for t in added:
        if any(e > b for e, b in zip(t, box)):
            raise CheckError(f"complete: {format_term(t)} leaves the box {box}")
    missing = JanetData(n, result).missing()
    if missing:
        t, i, k, w = missing[0]
        raise CheckError(f"complete: result still lacks a divisor of {format_term(w)}")


# -- points --------------------------------------------------------------------


def parse_points_file(text):
    points = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body and not body.startswith("vars"):
            points.append(tuple(Fraction(c.strip()) for c in body.split(",")))
    return points


def parse_polynomial(text, n):
    """{term: coefficient} of a line like 'x1^2 - 1/2*x1*x2 + 3'."""
    tokens = text.split(" ")
    pieces = [(1, tokens[0])]
    if tokens[0].startswith("-"):
        pieces = [(-1, tokens[0][1:])]
    if len(tokens) % 2 == 0:
        raise CheckError(f"malformed polynomial {text!r}")
    for sign, body in zip(tokens[1::2], tokens[2::2]):
        if sign not in "+-":
            raise CheckError(f"malformed polynomial {text!r}")
        pieces.append((1 if sign == "+" else -1, body))
    poly = {}
    for sign, body in pieces:
        head, star, rest = body.partition("*")
        if head[0].isdigit():
            coeff, term = Fraction(head), (parse_term(rest, n) if star else (0,) * n)
        else:
            coeff, term = Fraction(1), parse_term(body, n)
        if term in poly or coeff == 0:
            raise CheckError(f"repeated term or zero coefficient in {text!r}")
        poly[term] = sign * coeff
    return poly


def evaluate(poly, point):
    total = Fraction(0)
    for term, coeff in poly.items():
        value = coeff
        for c, e in zip(point, term):
            if e:
                value *= c**e
        total += value
    return total


def standard_terms(leads, n, limit):
    """Terms divisible by no leading term, found from 1 upwards; stops
    once more than limit are found."""
    start = (0,) * n
    if any(divides(s, start) for s in leads):
        return set()
    found, todo = {start}, [start]
    while todo and len(found) <= limit:
        t = todo.pop()
        for i in range(n):
            u = t[:i] + (t[i] + 1,) + t[i + 1 :]
            if u not in found and not any(divides(s, u) for s in leads):
                found.add(u)
                todo.append(u)
    return found


def check_basis(points_text, output_text, exit_code):
    """Every polynomial vanishes at every point and is monic; the terms
    its leading terms do not divide are one per point, and every tail lies
    on them; the leading terms are Janet-like complete. The polynomials lie
    in the vanishing ideal, so its standard terms are among those terms,
    and as many: the two sets are equal, and that set is the escalier.
    Returns the escalier."""
    if exit_code != 0:
        raise CheckError(f"basis exit {exit_code}, expected 0")
    points = parse_points_file(points_text)
    n = len(points[0])
    polys = [parse_polynomial(line, n) for line in output_text.splitlines()]
    leads = [max(poly, key=lex_key) for poly in polys]
    if len(set(leads)) != len(leads):
        raise CheckError("two basis elements share a leading term")
    escalier = standard_terms(leads, n, len(points))
    if len(escalier) != len(points):
        raise CheckError(
            f"the leading terms leave {len(escalier)} standard terms for {len(points)} points"
        )
    for poly, lead in zip(polys, leads):
        if poly[lead] != 1:
            raise CheckError(f"basis element with leading term {format_term(lead)} not monic")
        if not set(poly) - {lead} <= escalier:
            raise CheckError(f"tail of {format_term(lead)} leaves the escalier")
        for p in points:
            if evaluate(poly, p):
                raise CheckError(f"{format_term(lead)} element does not vanish at {p}")
    if JanetData(n, leads).missing():
        raise CheckError("leading terms are not Janet-like complete")
    return escalier


def check_escalier(points_text, output_text, exit_code, escalier=None):
    """One term per point, lex-increasing, divisor closed, and equal to the
    escalier the basis of the same points implies, when that is known."""
    if exit_code != 0:
        raise CheckError(f"escalier exit {exit_code}, expected 0")
    points = parse_points_file(points_text)
    n = len(points[0])
    esc = [parse_term(line, n) for line in output_text.splitlines()]
    if len(esc) != len(points) or len(set(esc)) != len(esc):
        raise CheckError(f"escalier has {len(esc)} terms for {len(points)} points")
    if esc != lex_sorted(esc):
        raise CheckError("escalier not lex-increasing")
    if not is_order_ideal(esc):
        raise CheckError("escalier is not an order ideal")
    if escalier is not None and set(esc) != escalier:
        raise CheckError("escalier differs from the standard terms of the basis")


def check_parse_error(output_text, stderr_text, exit_code):
    """A malformed points file ends in exit 1 with a one-line message."""
    if exit_code != 1:
        raise CheckError(f"malformed input exit {exit_code}, expected 1")
    if output_text or len(stderr_text.splitlines()) != 1:
        raise CheckError("malformed input should give one line on stderr only")
