"""Shared hypothesis strategies."""

from collections import Counter
from fractions import Fraction

from hypothesis import strategies as st

from hookshift import Partition


@st.composite
def partitions(draw, min_size=0, max_size=10):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    if n == 0:
        return Partition()
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    parts = sorted(Counter(bins).values(), reverse=True)
    return Partition(parts)


@st.composite
def integer_matrices(draw):
    """Square matrices of size 0 to 5 with entries in -2..2, small enough
    that zero pivots and singular matrices are common."""
    size = draw(st.integers(min_value=0, max_value=5))
    row = st.lists(st.integers(-2, 2), min_size=size, max_size=size)
    return draw(st.lists(row, min_size=size, max_size=size))


small_rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
).map(lambda f: f.numerator if f.denominator == 1 else Fraction(f))

exact_coeffs = st.one_of(st.integers(-9, 9), small_rationals)


@st.composite
def polynomials(draw, max_degree=6):
    from hookshift.polynomials import ExactPolynomial

    coeffs = draw(st.lists(exact_coeffs, min_size=0, max_size=max_degree + 1))
    return ExactPolynomial(coeffs)
