import random
from fractions import Fraction as F

import pytest

from barjanet import (
    DimensionError,
    InputError,
    PointSet,
    Polynomial,
    SingularMatrixError,
    Term,
    TermSet,
    TermSyntaxError,
    evaluation_matrix,
    format_polynomial,
    groebner_escalier,
    is_complete,
    janet_like_basis,
    monomial_generators,
    normal_form,
    parse_points,
    parse_rational,
)
from helpers import random_point_set, random_polynomial


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
            assert evaluation_matrix(esc.terms, X).determinant() != 0


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
        with pytest.raises(InputError):
            monomial_generators(TermSet(2, [t(1, 0)]))

    def test_generates_and_minimal(self):
        rng = random.Random(311)
        from helpers import expanded_box, in_semigroup_ideal, random_order_ideal

        for _ in range(60):
            N = random_order_ideal(rng, max_vars=3, max_exp=3)
            gens = monomial_generators(N)
            for a in gens:
                assert not any(b != a and b.divides(a) for b in gens)
            for w in expanded_box(N, margin=1):
                assert in_semigroup_ideal(gens, w) == (w not in N)


class TestNormalForm:
    def test_basis_elements_are_fixed(self):
        X = PointSet([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])
        N = groebner_escalier(X)
        for term in N:
            f = Polynomial.from_term(term)
            assert normal_form(f, N, X) == f

    def test_square_reduces_to_line(self):
        X = PointSet([(F(0),), (F(1),)])
        N = TermSet(1, [t(0), t(1)])
        nf = normal_form(Polynomial.from_term(t(2)), N, X)
        assert nf == Polynomial.from_term(t(1))

    def test_vanishing_goes_to_zero(self):
        X = PointSet([(F(0),), (F(2),)])
        N = TermSet(1, [t(0), t(1)])
        f = Polynomial(1, {t(2): F(1), t(1): F(-2)})  # x^2 - 2x
        assert not normal_form(f, N, X)

    def test_singular_basis_detected(self):
        X = PointSet([(F(1), F(0)), (F(2), F(0))])
        N = TermSet(2, [t(0, 0), t(0, 1)])  # constant on both points
        with pytest.raises(SingularMatrixError):
            normal_form(Polynomial.from_term(t(1, 0)), N, X)

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
            assert set(nf.support()) <= set(N.terms)
            a = F(rng.randint(-5, 5), rng.randint(1, 5))
            b = F(rng.randint(-5, 5), rng.randint(1, 5))
            combo = normal_form(f.scale(a) + g.scale(b), N, X)
            assert combo == nf.scale(a) + normal_form(g, N, X).scale(b)
            assert normal_form(nf, N, X) == nf


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
                assert set(gpoly.support()) <= set(N.terms) | {gpoly.leading_term}
                for p in X:
                    assert gpoly.evaluate(p) == 0


class TestFormatting:
    def test_polynomial_text(self):
        f = Polynomial(2, {t(2, 0): F(1), t(1, 0): F(-1, 2)})
        assert format_polynomial(f) == "x1^2 - 1/2*x1"
        assert format_polynomial(Polynomial.zero(2)) == "0"
        g = Polynomial(1, {t(0): F(-3), t(1): F(1, 3)})
        assert format_polynomial(g) == "1/3*x1 - 3"
