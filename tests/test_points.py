import itertools
import random
from fractions import Fraction as F

import pytest

from barjanet import (
    BarCode,
    DimensionError,
    InputError,
    InternalInvariantError,
    PointSet,
    Polynomial,
    RationalMatrix,
    SingularMatrixError,
    Term,
    TermSet,
    TermSyntaxError,
    complete,
    format_polynomial,
    groebner_escalier,
    is_complete,
    janet_like_basis,
    monomial_generators,
    normal_form,
    parse_points,
    parse_rational,
    star_set,
)
import barjanet.points as points_module
from barjanet.cli import main
from barjanet.points import escalier_scan, eval_term
from barjanet.terms import MAX_VARS
from helpers import (
    random_point_set,
    random_polynomial,
    random_term,
)
from oracles import (
    combination,
    escalier_scan_by_fractions,
    janet_like_basis_by_fractions,
    janet_like_reduce,
    nmp_table_bruteforce,
)


def t(*exps):
    return Term(exps)


class TestPointSet:
    def test_duplicates_rejected(self):
        with pytest.raises(InputError):
            PointSet([(F(1), F(2)), (F(1), F(2))])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            PointSet([(F(1),), (F(1), F(2))])

    def test_parse(self):
        ps = parse_points("vars: 2\n# a comment\n0, 1/2\n-3, 4\n")
        assert ps.points == ((F(0), F(1, 2)), (F(-3), F(4)))

    def test_float_syntax_rejected(self):
        with pytest.raises(TermSyntaxError):
            parse_points("1.5, 2\n")
        with pytest.raises(TermSyntaxError):
            parse_rational("1e3")

    @pytest.mark.parametrize("literal", ["1/0", "-3/000", "9" * 5000])
    def test_unconvertible_literal_rejected(self, literal):
        with pytest.raises(TermSyntaxError):
            parse_rational(literal)

    def test_header_over_limit_rejected(self):
        with pytest.raises(TermSyntaxError):
            parse_points("vars: 1025\n1, 2\n")
        # without a header each point's length implies the variable count
        with pytest.raises(TermSyntaxError, match=r"\(line 2\)"):
            parse_points("# one point\n" + ",".join(["0"] * (MAX_VARS + 1)) + "\n")

    def test_header_mismatch(self):
        with pytest.raises(DimensionError):
            parse_points("vars: 3\n1, 2\n")


class TestEvaluate:
    def test_constant(self):
        f = Polynomial(2, {t(0, 0): F(1)})
        assert f.evaluate((F(7), F(-2))) == 1

    def test_product(self):
        f = Polynomial(2, {t(1, 1): F(1)})
        assert f.evaluate((F(2), F(3, 2))) == 3

    def test_root(self):
        f = Polynomial(1, {t(2): F(1), t(1): F(-1)})
        assert f.evaluate((F(1),)) == 0

    def test_dimension_check(self):
        with pytest.raises(DimensionError):
            Polynomial(2, {t(1, 0): F(1)}).evaluate((F(1),))


class TestEscalier:
    def test_three_points_plane(self):
        X = PointSet([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])
        assert groebner_escalier(X) == TermSet(2, [t(0, 0), t(1, 0), t(0, 1)])

    def test_single_point(self):
        X = PointSet([(F(5), F(1, 3))])
        assert groebner_escalier(X) == TermSet(2, [t(0, 0)])

    def test_univariate_interpolation_basis(self):
        X = PointSet([(F(0),), (F(1),), (F(2),)])
        assert groebner_escalier(X) == TermSet(1, [t(0), t(1), t(2)])

    def test_collinear_points_prefer_low_variable(self):
        # three points on the x2 axis: escalier climbs x1 only when forced
        X = PointSet([(F(0), F(0)), (F(0), F(1)), (F(0), F(2))])
        assert groebner_escalier(X) == TermSet(2, [t(0, 0), t(0, 1), t(0, 2)])

    def test_order_ideal_and_invertible(self):
        rng = random.Random(307)
        for _ in range(50):
            X = random_point_set(rng, max_points=8, max_vars=3, coord_bound=6)
            esc = groebner_escalier(X)
            assert len(esc) == len(X)
            assert esc.is_order_ideal()
            system = RationalMatrix(tuple(tuple(eval_term(s, p) for s in esc) for p in X))
            system.solve([F(0)] * len(X))  # raises SingularMatrixError if singular


class TestMonomialGenerators:
    def test_simplex(self):
        N = TermSet(3, [t(0, 0, 0), t(1, 0, 0), t(0, 1, 0), t(0, 0, 1)])
        expected = TermSet(
            3,
            [t(2, 0, 0), t(1, 1, 0), t(0, 2, 0), t(1, 0, 1), t(0, 1, 1), t(0, 0, 2)],
        )
        assert monomial_generators(N) == expected

    def test_unit_ideal(self):
        N = TermSet(3, [t(0, 0, 0)])
        assert monomial_generators(N) == TermSet(
            3, [t(1, 0, 0), t(0, 1, 0), t(0, 0, 1)]
        )

    def test_requires_order_ideal(self):
        with pytest.raises(InputError, match="the escalier must be an order ideal"):
            monomial_generators(TermSet(2, [t(1, 0)]))
        with pytest.raises(InputError, match="the escalier must be an order ideal"):
            monomial_generators(TermSet(3, [t(0, 0, 0), t(1, 0, 1), t(0, 0, 1)]))

    def test_order_ideal_checked_once(self, monkeypatch):
        calls = []
        original = TermSet.is_order_ideal
        monkeypatch.setattr(
            TermSet, "is_order_ideal", lambda self: calls.append(self) or original(self)
        )
        N = TermSet(2, [t(0, 0), t(1, 0), t(0, 1)])
        assert monomial_generators(N) == TermSet(2, [t(2, 0), t(1, 1), t(0, 2)])
        assert len(calls) == 1

    def test_generates_and_minimal(self):
        rng = random.Random(311)
        from helpers import (
            expanded_box,
            grown_order_ideal,
            in_semigroup_ideal,
            random_order_ideal,
        )

        def pairwise_minimal_stars(N):
            # the oracle: the divisibility-minimal elements of the star set
            stars = star_set(BarCode.build(N))
            return TermSet(
                N.nvars, [s for s in stars if not any(u != s and u.divides(s) for u in stars)]
            )

        for _ in range(60):
            N = random_order_ideal(rng, max_vars=3, max_exp=3)
            gens = monomial_generators(N)
            assert gens == pairwise_minimal_stars(N)
            for a in gens:
                assert not any(b != a and b.divides(a) for b in gens)
            for w in expanded_box(N, margin=1):
                assert in_semigroup_ideal(gens, w) == (w not in N)
        for nvars in (5, 6):
            for _ in range(20):
                N = grown_order_ideal(rng, nvars, rng.randint(1, 80))
                assert monomial_generators(N) == pairwise_minimal_stars(N)
        X = PointSet([tuple(F(rng.randint(-2, 2)) for _ in range(64)) for _ in range(3)])
        N = groebner_escalier(X)
        gens = monomial_generators(N)
        assert len(N) == 3 and len(gens) > 64
        assert gens == pairwise_minimal_stars(N)


class TestNormalForm:
    def test_basis_elements_are_fixed(self):
        X = PointSet([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])
        N = groebner_escalier(X)
        for term in N:
            f = Polynomial(term.nvars, {term: 1})
            assert normal_form(f, N, X) == f

    def test_square_reduces_to_line(self):
        X = PointSet([(F(0),), (F(1),)])
        N = TermSet(1, [t(0), t(1)])
        nf = normal_form(Polynomial(1, {t(2): 1}), N, X)
        assert nf == Polynomial(1, {t(1): 1})

    def test_vanishing_goes_to_zero(self):
        X = PointSet([(F(0),), (F(2),)])
        N = TermSet(1, [t(0), t(1)])
        f = Polynomial(1, {t(2): F(1), t(1): F(-2)})  # x^2 - 2x
        assert not normal_form(f, N, X)

    def test_singular_basis_detected(self):
        X = PointSet([(F(1), F(0)), (F(2), F(0))])
        N = TermSet(2, [t(0, 0), t(0, 1)])  # constant on both points
        with pytest.raises(SingularMatrixError):
            normal_form(Polynomial(2, {t(1, 0): 1}), N, X)

    def test_interpolation_linearity_idempotence(self):
        rng = random.Random(313)
        for _ in range(40):
            X = random_point_set(rng, max_points=8, max_vars=3, coord_bound=5)
            N = groebner_escalier(X)
            f = random_polynomial(rng, X.nvars)
            g = random_polynomial(rng, X.nvars)
            nf = normal_form(f, N, X)
            for p in X:
                assert nf.evaluate(p) == f.evaluate(p)
            assert set(nf.coefficients) <= set(N.terms)
            a = F(rng.randint(-5, 5), rng.randint(1, 5))
            b = F(rng.randint(-5, 5), rng.randint(1, 5))
            combo = normal_form(combination((a, f), (b, g)), N, X)
            assert combo == combination((a, nf), (b, normal_form(g, N, X)))
            assert normal_form(nf, N, X) == nf


def leibniz_determinant(a):
    """Sum over permutations p of sign(p) * a[0][p(0)] * ... * a[n-1][p(n-1)]."""
    n = len(a)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        product = F(-1) ** inversions
        for i, j in enumerate(perm):
            product *= a[i][j]
        total += product
    return total


def random_square_matrices(rng):
    """Square matrices of size 1-4 with small rational entries, many zeros;
    every third has a zero leading entry and every third a repeated row
    multiple, which makes it singular."""
    for n in range(1, 5):
        for k in range(30):
            a = [
                [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)
            ]
            if k % 3 == 1:
                a[0][0] = F(0)
            elif k % 3 == 2 and n > 1:
                c = F(rng.randint(-3, 3), rng.randint(1, 3))
                a[-1] = [c * v for v in a[0]]
            yield a


class TestRationalMatrix:
    """The reference elimination against the definitions."""

    def test_solve_satisfies_the_system(self):
        rng = random.Random(337)
        swapped = singular = 0
        for a in random_square_matrices(rng):
            m = RationalMatrix(tuple(map(tuple, a)))
            b = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in a]
            if leibniz_determinant(a) == 0:
                with pytest.raises(SingularMatrixError):
                    m.solve(b)
                singular += 1
                continue
            x = m.solve(b)
            assert [sum(r * v for r, v in zip(row, x)) for row in a] == b
            swapped += a[0][0] == 0
        assert swapped >= 10 and singular >= 10

    def test_shape_errors(self):
        wide = RationalMatrix(((F(1), F(2), F(3)), (F(4), F(5), F(6))))
        with pytest.raises(DimensionError):
            wide.solve([F(1), F(2)])
        ragged = RationalMatrix(((F(1), F(2)), (F(3),)))
        with pytest.raises(DimensionError):
            ragged.solve([F(1), F(2)])
        square = RationalMatrix(((F(1), F(2)), (F(3), F(4))))
        with pytest.raises(DimensionError):
            square.solve([F(1), F(2), F(3)])


class TestJanetLikeBasis:
    def test_two_points_line(self):
        X = PointSet([(F(0),), (F(1),)])
        (gpoly,) = janet_like_basis(X)
        assert gpoly == Polynomial(1, {t(2): F(1), t(1): F(-1)})

    def test_three_points_plane(self):
        X = PointSet([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])
        basis = janet_like_basis(X)
        leads = [g.leading_term for g in basis]
        assert leads == [t(2, 0), t(1, 1), t(0, 2)]
        for gpoly in basis:
            for p in X:
                assert gpoly.evaluate(p) == 0

    def test_single_point_maximal_ideal(self):
        X = PointSet([(F(2), F(-1, 3), F(5))])
        basis = janet_like_basis(X)
        assert [format_polynomial(b) for b in basis] == [
            "x1 - 2",
            "x2 + 1/3",
            "x3 - 5",
        ]

    def test_random_pipeline(self):
        rng = random.Random(317)
        for _ in range(25):
            X = random_point_set(rng, max_points=8, max_vars=3, coord_bound=5)
            N = groebner_escalier(X)
            basis = janet_like_basis(X)
            leads = TermSet(X.nvars, [g.leading_term for g in basis])
            assert is_complete(leads).complete
            for gpoly in basis:
                assert set(gpoly.coefficients) <= set(N.terms) | {gpoly.leading_term}
                for p in X:
                    assert gpoly.evaluate(p) == 0

    def test_non_star_leading_term_exits_internal(self, tmp_path, capsys, monkeypatch):
        # N = {1, x1, x2}; x1^2*x2 lies outside N, and so does x1*x2: no star
        completion = points_module.complete

        def with_non_star(generators):
            completed, report = completion(generators)
            return TermSet(2, [*completed, t(2, 1)]), report

        monkeypatch.setattr(points_module, "complete", with_non_star)
        X = PointSet([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])
        with pytest.raises(InternalInvariantError, match=r"^x1\^2\*x2 is not a star"):
            janet_like_basis(X)
        path = tmp_path / "plane.points"
        path.write_text("vars: 2\n0, 0\n1, 0\n0, 1\n")
        assert main(["basis", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: x1^2*x2 is not a star of the escalier\n"

    def test_star_rule_agrees_with_the_star_set(self):
        # the rule janet_like_basis checks: u outside N, u/x_v in N for x_v
        # the least variable of u; on every completed term and a box around N
        rng = random.Random(4404)
        for _ in range(400):
            X = random_point_set(rng, max_points=8, max_vars=4, coord_bound=4)
            N = groebner_escalier(X)
            stars = set(star_set(BarCode.build(N)))
            completed, _ = complete(monomial_generators(N))
            assert set(completed) <= stars
            sides = [range(b + 2) for b in N.bounding_box()]
            for u in [*completed, *map(Term, itertools.product(*sides))]:
                v = u.min_variable()
                rule = u not in N and v is not None and u / Term.variable(u.nvars, v) in N
                assert rule == (u in stars)


def interpolation_point_sets(rng):
    """Single points in 1-4 variables, grid sets (points share coordinates),
    rational sets and 1-variable sets, of at most 12 points."""
    sets = [
        PointSet([tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n))])
        for n in range(1, 5)
    ]
    for _ in range(8):
        n, side = rng.randint(2, 4), rng.randint(2, 4)
        grid = list(itertools.product(range(side), repeat=n))
        sets.append(PointSet(rng.sample(grid, rng.randint(2, min(12, len(grid))))))
    for _ in range(8):
        sets.append(random_point_set(rng, max_points=12, max_vars=4, coord_bound=6))
    for _ in range(4):
        sets.append(random_point_set(rng, max_points=12, max_vars=1, coord_bound=9))
    return sets


class TestEscalierInterpolation:
    """The interpolants of the escalier scan against the solve-based
    normal_form oracle."""

    def test_basis_tails_equal_normal_forms(self):
        rng = random.Random(4401)
        for X in interpolation_point_sets(rng):
            N = groebner_escalier(X)
            for g in janet_like_basis(X):
                lead = Polynomial(g.nvars, {g.leading_term: 1})
                assert g == combination((1, lead), (-1, normal_form(lead, N, X)))

    def test_random_terms_equal_normal_forms(self):
        rng = random.Random(4402)
        for X in interpolation_point_sets(rng):
            N, interpolant = escalier_scan(X)
            assert N == groebner_escalier(X)
            outside = {random_term(rng, X.nvars, 4) for _ in range(8)} - set(N)
            for u in outside:
                assert interpolant(u) == normal_form(Polynomial(u.nvars, {u: 1}), N, X)
            for u in N:
                assert interpolant(u) == Polynomial(u.nvars, {u: 1})


def assert_scan_equals_oracle(rng, X, max_exp=4, outside=8, oracle_nf=False):
    """Same escalier as the Fraction scan, and equal interpolants for every
    escalier term and for random terms outside it; with oracle_nf also equal
    to normal_form on those outside terms."""
    N, interpolant = escalier_scan(X)
    expected_N, expected = escalier_scan_by_fractions(X)
    assert N == expected_N
    assert N.terms == expected_N.terms
    for u in N:
        assert interpolant(u) == expected(u) == Polynomial(u.nvars, {u: 1})
    others = {random_term(rng, X.nvars, max_exp) for _ in range(outside)} - set(N)
    for u in others:
        got = interpolant(u)
        assert got == expected(u)
        if oracle_nf:
            assert got == normal_form(Polynomial(u.nvars, {u: 1}), N, X)


PRIMES_NEAR_10K = (9949, 9967, 9973, 10007, 10009, 10037)
MERSENNE_61 = 2**61 - 1


def rescaling_edge_cases():
    """Point sets whose column lcms are large, 1, or mixed, with their ids."""
    rng = random.Random(4411)
    big = set()
    while len(big) < 9:
        big.add(
            tuple(F(rng.randint(-60, 60), rng.choice(PRIMES_NEAR_10K)) for _ in range(2))
        )
    big = sorted(big) + [(F(1, MERSENNE_61), F(-3, MERSENNE_61))]
    mixed = sorted(
        {(F(rng.randint(-5, 5)), F(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(14)}
    )
    signs = [
        (F(0), F(0), F(0)),
        (F(-1), F(0), F(2)),
        (F(0), F(-3, 2), F(0)),
        (F(-4), F(-1), F(-7, 3)),
        (F(5, 2), F(0), F(-1)),
        (F(0), F(0), F(-9)),
    ]
    line = [(F(k) + F(k % 5, 7),) for k in range(-15, 15)]
    last = [(F(1, 3), F(-2, 7), F(k, 5)) for k in range(-4, 6)]
    first = [(F(k, 11), F(0), F(6, 13)) for k in range(-5, 4)]
    return [
        pytest.param(PointSet(big), id="primes near 10^4 and 2^61-1"),
        pytest.param(PointSet(mixed), id="integer column beside fractional"),
        pytest.param(PointSet(signs), id="zero and negative coordinates"),
        pytest.param(PointSet(line), id="30 points in 1 variable"),
        pytest.param(PointSet(last), id="differ in the last coordinate"),
        pytest.param(PointSet(first), id="differ in the first coordinate"),
    ]


def non_nested_fibre_sets():
    """Point sets with two x1-fibres whose escaliers in x2..xn are not
    nested: the x1 = 0 fibre {(0,0,0), (0,1,0)} beside the x1 = 1 fibre
    {(1,0,0), (1,0,1)}, then seeded sets in 3-4 variables of 2-4 fibres,
    each a sample of a 3-value grid in x2..xn, kept when two fibres'
    escaliers are not nested."""
    rng = random.Random(4441)
    sets = [PointSet([(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 0, 1)])]
    while len(sets) < 12:
        n = rng.randint(3, 4)
        grid = list(itertools.product(map(F, range(3)), repeat=n - 1))
        x1_values = [F(v, 2) for v in rng.sample(range(-4, 5), rng.randint(2, 4))]
        fibres = {x1: rng.sample(grid, rng.randint(2, 6)) for x1 in x1_values}
        escaliers = [set(groebner_escalier(PointSet(f))) for f in fibres.values()]
        if any(not (a <= b or b <= a) for a, b in itertools.combinations(escaliers, 2)):
            sets.append(PointSet([(x1, *q) for x1, f in fibres.items() for q in f]))
    return sets


def shared_coordinate_sets():
    """Seeded point sets in 2-4 variables of at most 35 points, each
    coordinate taking one of 3 rational values."""
    rng = random.Random(4442)
    sets = []
    for _ in range(12):
        n = rng.randint(2, 4)
        values = []
        for _ in range(n):
            d = rng.randint(1, 4)
            values.append([F(v, d) for v in rng.sample(range(-6, 7), 3)])
        cube = list(itertools.product(*values))
        most = min(35, len(cube))
        sets.append(PointSet(rng.sample(cube, rng.randint(most // 2, most))))
    return sets


class TestIntegerScan:
    """The integer escalier scan against the Fraction scan it replaced
    (escalier_scan_by_fractions in helpers) and the normal_form oracle."""

    def test_equals_fraction_oracle(self):
        rng = random.Random(4403)
        for X in interpolation_point_sets(rng):
            assert_scan_equals_oracle(rng, X)
        for _ in range(6):
            n = rng.randint(2, 4)
            grid = list(itertools.product(range(-2, 3), repeat=n))
            X = PointSet(rng.sample(grid, rng.randint(12, min(40, len(grid)))))
            assert_scan_equals_oracle(rng, X)
        for _ in range(6):
            X = random_point_set(rng, max_points=40, max_vars=3, coord_bound=9)
            assert_scan_equals_oracle(rng, X)
        for _ in range(4):
            X = random_point_set(rng, max_points=25, max_vars=1, coord_bound=20)
            assert_scan_equals_oracle(rng, X, max_exp=30)

    def test_interpolant_checks_dimension(self):
        _, interpolant = escalier_scan(PointSet([(F(1), F(2, 3))]))
        with pytest.raises(DimensionError):
            interpolant(t(1))

    def test_non_nested_fibres(self):
        rng = random.Random(4414)
        for X in non_nested_fibre_sets():
            assert_scan_equals_oracle(rng, X)

    def test_many_shared_coordinates(self):
        rng = random.Random(4415)
        for X in shared_coordinate_sets():
            assert_scan_equals_oracle(rng, X)

    @pytest.mark.parametrize("X", rescaling_edge_cases())
    def test_rescaling_edge_cases(self, X):
        rng = random.Random(4413)
        max_exp = 40 if X.nvars == 1 else 5
        assert_scan_equals_oracle(rng, X, max_exp=max_exp, oracle_nf=True)
        N = groebner_escalier(X)
        expected_N, expected_basis = janet_like_basis_by_fractions(X)
        assert N == expected_N
        basis = janet_like_basis(X)
        assert list(basis) == expected_basis
        for g in basis:
            lead = Polynomial(g.nvars, {g.leading_term: 1})
            assert g == combination((1, lead), (-1, normal_form(lead, N, X)))


def assert_involutive_certificate(rng, X):
    """janet_like_basis(X) through the division it is named for: x_i^(k_i)*g
    reduces to 0 for every basis element g and nonmultiplicative power of its
    leading term; every step finds one divisor; and random terms in a box
    around the escalier reduce to their interpolants, on the escalier."""
    basis = janet_like_basis(X)
    N, interpolant = escalier_scan(X)
    n = X.nvars
    leads = TermSet(n, [g.leading_term for g in basis])
    table = nmp_table_bruteforce(leads)
    for g in basis:
        for i, k in table[g.leading_term].items():
            power = Term.variable(n, i, k)
            multiple = Polynomial(n, {u * power: c for u, c in g.coefficients.items()})
            remainder, found = janet_like_reduce(multiple, basis)
            assert not remainder, (g.leading_term, i, k)
            assert all(len(divisors) == 1 for divisors in found)
    bounds = [b + 1 for b in N.bounding_box()]
    for _ in range(6):
        u = Term(rng.randint(0, b) for b in bounds)
        remainder, found = janet_like_reduce(Polynomial(n, {u: 1}), basis)
        assert all(len(divisors) == 1 for divisors in found)
        assert set(remainder.coefficients) <= set(N)
        assert remainder == interpolant(u)


class TestInvolutiveCertificate:
    """The basis as a whole, by Janet-like reduction (janet_like_reduce), an
    oracle for the tails that uses no elimination."""

    def test_seeded_grids(self):
        rng = random.Random(4431)
        for _ in range(8):
            n, side = rng.randint(1, 4), rng.randint(2, 4)
            grid = list(itertools.product(range(side), repeat=n))
            X = PointSet(rng.sample(grid, rng.randint(1, min(30, len(grid)))))
            assert_involutive_certificate(rng, X)

    def test_seeded_rational_sets(self):
        rng = random.Random(4432)
        for n in (1, 2, 3, 4, 2, 3):
            points = {
                tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n))
                for _ in range(rng.randint(1, 30))
            }
            assert_involutive_certificate(rng, PointSet(sorted(points)))

    @pytest.mark.parametrize("X", rescaling_edge_cases())
    def test_rescaling_edge_cases(self, X):
        assert_involutive_certificate(random.Random(4433), X)

    def test_non_nested_fibres(self):
        rng = random.Random(4434)
        for X in non_nested_fibre_sets():
            assert_involutive_certificate(rng, X)

    def test_many_shared_coordinates(self):
        rng = random.Random(4435)
        for X in shared_coordinate_sets():
            assert_involutive_certificate(rng, X)


def one_coordinate_set(n, size, position):
    """size points in n variables equal everywhere except at one position."""
    base = [F(k, 3) - 1 for k in range(n)]
    points = []
    for k in range(size):
        p = list(base)
        p[position] = F(k * k - 7, 5)
        points.append(tuple(p))
    return PointSet(points)


def assert_trie_equals_scan(X):
    assert groebner_escalier(X).terms == escalier_scan_by_fractions(X)[0].terms


class TestTrieEscalier:
    """groebner_escalier reads the escalier off the point trie by the
    fibre-count rule; the Fraction scan escalier_scan_by_fractions is its
    oracle."""

    def test_seeded_grids(self):
        rng = random.Random(4421)
        for _ in range(40):
            n, side = rng.randint(1, 4), rng.randint(2, 5)
            grid = list(itertools.product(range(side), repeat=n))
            X = PointSet(rng.sample(grid, rng.randint(1, min(40, len(grid)))))
            assert_trie_equals_scan(X)

    def test_many_shared_coordinates(self):
        rng = random.Random(4422)
        for _ in range(60):
            n = rng.randint(1, 5)
            values = [F(v, rng.randint(1, 4)) for v in rng.sample(range(-6, 7), 3)]
            values = values[: rng.randint(1, 3)]
            draws = {tuple(rng.choice(values) for _ in range(n)) for _ in range(30)}
            assert_trie_equals_scan(PointSet(sorted(draws)))

    def test_one_variable(self):
        rng = random.Random(4423)
        for _ in range(20):
            X = random_point_set(rng, max_points=30, max_vars=1, coord_bound=20)
            assert groebner_escalier(X) == TermSet(1, [t(k) for k in range(len(X))])
            assert_trie_equals_scan(X)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_points_differing_in_first_or_last_coordinate(self, n):
        for position, variable in ((0, 1), (n - 1, n)):
            X = one_coordinate_set(n, 9, position)
            powers = [Term.variable(n, variable, k) for k in range(9)]
            assert groebner_escalier(X) == TermSet(n, powers)
            assert_trie_equals_scan(X)

    @pytest.mark.parametrize("X", rescaling_edge_cases())
    def test_rescaling_edge_cases(self, X):
        assert_trie_equals_scan(X)

    def test_thousand_points_without_elimination(self, monkeypatch):
        # the escalier needs no arithmetic: every elimination entry point
        # and the integer kernels it calls fail if reached
        def fail(*args):
            raise AssertionError("groebner_escalier entered the elimination")

        for name in ("escalier_scan", "gcd", "lcm", "normal_form", "eval_term"):
            monkeypatch.setattr(points_module, name, fail)
        rng = random.Random(7)
        draws = set()
        while len(draws) < 1000:
            draws.add(tuple(F(rng.randint(-20, 20)) for _ in range(3)))
        X = PointSet(sorted(draws))
        N = groebner_escalier(X)
        assert len(N) == 1000
        assert N.is_order_ideal()
        # x1^k*b is standard for exactly the k below the number of x1-fibres
        # whose projections to x2, x3 admit b
        fibres = {}
        for p in X:
            fibres.setdefault(p[0], []).append(p[1:])
        assert sum(1 for s in N if s.exponents[1:] == (0, 0)) == len(fibres)

    def test_max_vars(self):
        n = MAX_VARS
        rng = random.Random(4424)
        X = PointSet([tuple(F(rng.randint(-2, 2)) for _ in range(n)) for _ in range(3)])
        N, interpolant = escalier_scan(X)
        assert N.terms == escalier_scan_by_fractions(X)[0].terms
        outside = [Term.variable(n, 1, 3), Term.variable(n, 2), Term.variable(n, n)]
        for u in outside:
            assert interpolant(u) == normal_form(Polynomial(u.nvars, {u: 1}), N, X)


class TestFormatting:
    def test_polynomial_text(self):
        f = Polynomial(2, {t(2, 0): F(1), t(1, 0): F(-1, 2)})
        assert format_polynomial(f) == "x1^2 - 1/2*x1"
        assert format_polynomial(Polynomial(2)) == "0"
        g = Polynomial(1, {t(0): F(-3), t(1): F(1, 3)})
        assert format_polynomial(g) == "1/3*x1 - 3"
