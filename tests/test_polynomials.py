from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hookshift.polynomials import (
    ExactPolynomial,
    ONE,
    product_of_linear_factors,
    serialize,
    times_linear_factors,
)
from oracles import X, difference, linear, mul, rising_binomial
from strategies import exact_coeffs, polynomials


def test_degree_and_zero():
    assert ExactPolynomial().coeffs == ()
    assert not ExactPolynomial()
    assert len(ONE.coeffs) == 1
    assert len(X.coeffs) == 2
    assert not X - X
    assert not ExactPolynomial((0, 0, 0))
    assert X


def test_trailing_zeros_stripped():
    p = ExactPolynomial((1, 2, 0, 0))
    assert p.coeffs == (1, 2)


def test_rejects_floats():
    with pytest.raises(TypeError):
        ExactPolynomial((1.5,))
    with pytest.raises(TypeError):
        X.shift(0.5)


def test_basic_arithmetic():
    assert linear(1) - X == ONE
    assert X + ONE == linear(1)
    assert linear(-1) - linear(1) == ExactPolynomial((-2,))
    assert 2 * X == ExactPolynomial((0, 2))
    assert X * Fraction(1, 2) == ExactPolynomial((0, Fraction(1, 2)))
    assert X * 0 == ExactPolynomial()
    assert (X * Fraction(0)).coeffs == ()
    # no general product: the tests build products with oracles.mul
    with pytest.raises(TypeError):
        X * X
    with pytest.raises(TypeError):
        X + 1


def test_worked_quotient_numerator():
    lhs = mul(linear(-4), linear(-1), linear(3), X)
    rhs = mul(linear(-5), linear(-3), linear(1), linear(5))
    assert lhs - rhs == ExactPolynomial((-75, -38, 17))
    assert str(lhs - rhs) == "17x^2-38x-75"
    assert lhs - rhs


def test_shift_examples():
    assert X.shift(1) == linear(1)
    assert ExactPolynomial((0, 0, 1)).shift(1) == ExactPolynomial((1, 2, 1))
    g = mul(linear(1), linear(-1), linear(-3))
    assert g.shift(1) == product_of_linear_factors([2, 0, -2])
    assert ExactPolynomial().shift(3).coeffs == ()


def test_eval():
    p = ExactPolynomial((-75, -38, 17))
    assert p(0) == -75
    assert p(Fraction(1, 2)) == Fraction(-75) - 19 + Fraction(17, 4)
    assert ExactPolynomial()(12345) == 0


def test_difference_examples():
    assert difference(X) == ONE
    assert difference(ExactPolynomial((7,))) == ExactPolynomial()
    assert difference(ExactPolynomial((0, 0, 1))) == ExactPolynomial((1, 2))


@given(polynomials())
def test_difference_drops_degree_by_one(p):
    d = difference(p)
    if len(p.coeffs) <= 1:
        assert not d
    else:
        assert len(d.coeffs) == len(p.coeffs) - 1


def test_rising_binomial_small():
    assert rising_binomial(0) == ONE
    assert rising_binomial(1) == X
    assert rising_binomial(2) == ExactPolynomial((0, Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        rising_binomial(-1)


def test_rising_binomial_pascal():
    # C(x+k-1, k) == C(x+k-2, k) + C(x+k-2, k-1), as polynomials
    for k in range(1, 9):
        assert rising_binomial(k) == rising_binomial(k).shift(-1) + rising_binomial(k - 1)


def test_rising_binomial_difference():
    for k in range(1, 9):
        assert difference(rising_binomial(k)) == rising_binomial(k - 1).shift(1)


def test_rising_binomial_integrality_at_integers():
    # despite Fraction coefficients, values at integers are integers
    for k in range(7):
        p = rising_binomial(k)
        for a in range(-10, 11):
            assert Fraction(p(a)).denominator == 1


@given(polynomials(), polynomials(), polynomials())
def test_addition_laws(p, q, r):
    zero = ExactPolynomial()
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p + zero == p
    assert (p - q) + q == p
    assert not p - p
    assert (p * 0).coeffs == ()


@given(polynomials(), polynomials(), exact_coeffs)
def test_shift_is_a_ring_homomorphism(p, q, a):
    assert mul(p, q).shift(a) == mul(p.shift(a), q.shift(a))
    assert (p + q).shift(a) == p.shift(a) + q.shift(a)


@given(polynomials(), exact_coeffs)
def test_shift_round_trip(p, a):
    assert p.shift(a).shift(-a) == p


@given(polynomials(), exact_coeffs, exact_coeffs)
def test_shift_agrees_with_evaluation(p, a, x):
    assert p.shift(a)(x) == p(x + a)


def test_serialization_format():
    p = ExactPolynomial((-75, -38, 17))
    assert serialize(p) == [[2, "17/1"], [1, "-38/1"], [0, "-75/1"]]
    assert serialize(ExactPolynomial()) == []
    assert serialize(rising_binomial(2)) == [[2, "1/2"], [1, "1/2"]]
    assert serialize(-3) == "-3/1"
    assert serialize(Fraction(6, -4)) == "-3/2"


def test_str_rendering():
    assert str(ExactPolynomial()) == "0"
    assert str(X) == "x"
    assert str(linear(-1)) == "x-1"
    assert str(ExactPolynomial((0, -1))) == "-x"
    assert str(mul(linear(1), linear(-1), linear(-3))) == "x^3-3x^2-x+3"
    assert str(rising_binomial(2)) == "(1/2)x^2+(1/2)x"


def test_product_of_linear_factors_empty():
    assert product_of_linear_factors([]) == ONE
    assert product_of_linear_factors([5]) == linear(5)


@given(
    polynomials(max_degree=8),
    st.lists(st.one_of(st.just(0), exact_coeffs), max_size=5),
)
def test_times_linear_factors_is_the_product(p, constants):
    # the schoolbook product over explicit (x + c) factors, so a wrong
    # kernel cannot agree with itself through product_of_linear_factors
    expected = mul(p, *map(linear, constants))
    got = times_linear_factors(p, constants)
    assert got == expected
    if p:
        assert got.coeffs[-1] != 0
        assert len(got.coeffs) == len(p.coeffs) + len(constants)
    else:
        assert got.coeffs == ()


def test_times_linear_factors_examples():
    assert times_linear_factors(ONE, [0, 0]).coeffs == (0, 0, 1)
    assert times_linear_factors(ExactPolynomial(), [1, 2]) == ExactPolynomial()
    half = Fraction(1, 2)
    assert times_linear_factors(ExactPolynomial((2,)), [half, -half]).coeffs == (
        Fraction(-1, 2), 0, 2,
    )
