import json
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given

from hookshift import (
    Partition,
    corner_sets,
    enumerate_partitions,
    g_poly,
    hook_product,
    schur_lhs,
    schur_rhs,
    syt_count,
)
from hookshift.polynomials import ExactPolynomial
from hookshift.schur import (
    check_at_point,
    check_schur_recurrences,
    check_theorem_1_2,
    det_bareiss,
    p1_e_table,
    pieri_p1,
    schur_value,
    serialize_side,
    uncleared,
)
from oracles import (
    MonomialExpansion,
    det_leibniz,
    elementary_value,
    kostka,
    linear,
    monomial_times_p1,
    monomial_value,
    rising_binomial,
    schur_value_by_kostka,
    to_monomial,
)
from strategies import integer_matrices, partitions

P = Partition


def paper_sides(n):
    # the library clears both sides by n!; the tests that pin the paper's
    # values read them divided back
    return uncleared(schur_lhs(n), n), uncleared(schur_rhs(n), n)


def doubled(side):
    return {lam: 2 * c for lam, c in side.items()}


# --- sides as dicts ----------------------------------------------------------

def test_sides_are_keyed_by_the_partitions_of_n_with_no_zero_coefficient():
    # each side is homogeneous of degree n and holds every partition of n,
    # so dict equality is Schur-basis equality
    for n in range(11):
        shapes = set(enumerate_partitions(n))
        for side in (schur_lhs(n), schur_rhs(n)):
            assert set(side) == shapes, n
            assert all(side.values()), n


def test_serialization_sorted_reverse_lexicographically():
    serialized = serialize_side({P((1, 1)): 2, P((2,)): 3})
    assert [d["partition"] for d in serialized] == ["2", "1,1"]
    assert serialized[0]["coefficient"] == "3/1"


# --- Pieri multiplication ------------------------------------------------------

def test_pieri_small_cases():
    assert pieri_p1({P(): 1}) == {P((1,)): 1}
    assert pieri_p1({P((1,)): 1}) == {P((2,)): 1, P((1, 1)): 1}
    assert pieri_p1({P((2, 1)): 1}) == {
        P((3, 1)): 1,
        P((2, 2)): 1,
        P((2, 1, 1)): 1,
    }


def test_pieri_raises_degree_by_one_and_counts_terms():
    for n in range(0, 8):
        for mu in enumerate_partitions(n):
            image = pieri_p1({mu: 1})
            assert {lam.size for lam in image} == {n + 1}
            distinct_parts = len(set(mu))
            assert len(image) == distinct_parts + 1


@given(partitions(max_size=8))
def test_pieri_adjoint_to_corner_removal(mu):
    image = set(pieri_p1({mu: 1}))
    for lam in enumerate_partitions(mu.size + 1):
        assert (lam in image) == (mu in corner_sets(lam).removal_list)


def test_p1_e_table():
    # p1^n is the sum of f_lam s_lam, and e_n is s_(1^n); a table built on
    # the one a degree below equals one built from degree 0
    for n in range(9):
        table = p1_e_table(n)
        assert len(table) == n + 1
        assert table[0] == {P((1,) * n): 1}
        assert table[n] == {lam: syt_count(lam) for lam in enumerate_partitions(n)}
        assert table == p1_e_table(n, p1_e_table(n - 1) if n else ())
        assert schur_lhs(n, table) == schur_lhs(n)


# --- elementary symmetric functions ---------------------------------------------

def test_elementary_as_schur():
    # at x = 0 only the k = 0 term of schur_lhs survives: e_n = s_(1^n)
    for n, column in ((0, P()), (1, P((1,))), (3, P((1, 1, 1)))):
        at_zero = {lam: c(0) for lam, c in paper_sides(n)[0].items()}
        assert {lam: v for lam, v in at_zero.items() if v} == {column: 1}
    with pytest.raises(ValueError):
        schur_lhs(-1)


def test_elementary_matches_monomial_expansion():
    # the single-column Schur function expands to the single monomial m_(1^k)
    for k in range(0, 7):
        m = to_monomial({P((1,) * k): 1})
        assert m.terms == {P((1,) * k): 1}


# --- the two sides of the Schur identity ------------------------------------------

def test_sides_at_degree_zero_and_one():
    lhs, rhs = paper_sides(0)
    assert lhs == {P(): ExactPolynomial((1,))}
    assert rhs == {P(): ExactPolynomial((Fraction(1),))}
    assert lhs == rhs
    lhs, rhs = paper_sides(1)
    assert lhs == {P((1,)): linear(1)}
    assert rhs == lhs


def test_sides_at_degree_two_frozen():
    # worked out by hand: e2 + x p1 e1 + (x^2+x)/2 p1^2 e0
    half = Fraction(1, 2)
    expected = {
        P((2,)): ExactPolynomial((0, 3 * half, half)),
        P((1, 1)): ExactPolynomial((1, 3 * half, half)),
    }
    lhs, rhs = paper_sides(2)
    assert lhs == expected
    assert rhs == expected


def test_sides_agree_up_to_seven():
    for n in range(8):
        assert schur_lhs(n) == schur_rhs(n), n


def sides(n):
    return schur_lhs(n), schur_rhs(n)


def test_cleared_sides_are_n_factorial_times_the_kostka_route():
    # the paper's right side, built here from g and H alone, and taken to
    # the monomial basis through Kostka numbers; both cleared sides are n!
    # times it there, and the Kostka matrix is invertible
    for n in range(11):
        paper = {lam: g_poly(lam).shift(n) * Fraction(1, hook_product(lam))
                 for lam in enumerate_partitions(n)}
        expected = to_monomial({lam: c * factorial(n) for lam, c in paper.items()})
        assert to_monomial(schur_lhs(n)) == expected, n
        assert to_monomial(schur_rhs(n)) == expected, n


def test_check_theorem_1_2():
    for n in range(8):
        assert check_theorem_1_2(n, sides(n)) is None
    lhs, rhs = sides(2)
    witness = check_theorem_1_2(2, (lhs, doubled(rhs)))
    # a witness shows the sides divided by n!, as the paper states them
    assert witness == {"lhs": json.dumps(serialize_side(uncleared(lhs, 2))),
                       "rhs": json.dumps(serialize_side(uncleared(doubled(rhs), 2)))}


def test_recurrence_by_hand_at_degree_one():
    # (x+1) s_1 == x s_1 + p1 s_empty
    lhs = paper_sides(1)[1]
    step = pieri_p1(paper_sides(0)[1])
    assert step.keys() == lhs.keys() == {P((1,))}
    assert lhs == {lam: c.shift(-1) + step[lam] for lam, c in lhs.items()}


def test_check_schur_recurrences():
    for n in range(1, 7):
        assert check_schur_recurrences(n, sides(n), sides(n - 1)) is None
    # the previous degree's sides are read: a wrong one fails the check
    lhs, rhs = sides(2)
    witness = check_schur_recurrences(3, sides(3), (lhs, doubled(rhs)))
    assert json.loads(witness["lhs"])["side"] == json.loads(witness["rhs"])["side"] == "rhs"
    witness = check_schur_recurrences(3, sides(3), (doubled(lhs), rhs))
    assert json.loads(witness["lhs"])["side"] == "lhs"


def test_rhs_coefficients_specialize_at_zero():
    for n in range(7):
        for lam, coeff in paper_sides(n)[1].items():
            assert coeff(0) == Fraction(g_poly(lam)(n), hook_product(lam))


# --- Kostka numbers and the monomial oracle ------------------------------------------

def test_kostka_known_values():
    assert kostka(P((2, 1)), P((2, 1))) == 1
    assert kostka(P((3, 1)), P((3, 1))) == 1
    assert kostka(P((1, 1)), P((2,))) == 0
    assert kostka(P((2, 1)), P((1, 1, 1))) == 2
    assert kostka(P((2,)), P((1, 1))) == 1
    assert kostka(P(), P()) == 1


def test_kostka_against_tableau_counts():
    # content (1,...,1) makes semistandard fillings standard
    for n in range(1, 7):
        ones = P((1,) * n)
        for lam in enumerate_partitions(n):
            assert kostka(lam, ones) == syt_count(lam)


def test_kostka_validation():
    with pytest.raises(ValueError):
        kostka(P((2,)), P((1,)))


def test_kostka_upper_triangular():
    # K is 1 on the diagonal and 0 unless lam dominates mu; spot the zero side
    assert kostka(P((1, 1, 1)), P((3,))) == 0
    assert kostka(P((2, 2)), P((4,))) == 0


def test_to_monomial_examples():
    assert to_monomial({P((1,)): 1}).terms == {P((1,)): 1}
    assert to_monomial({P((2,)): 1}).terms == {P((2,)): 1, P((1, 1)): 1}
    assert to_monomial({P((1, 1)): 1}).terms == {P((1, 1)): 1}


def test_monomial_times_p1_small():
    m = MonomialExpansion({P((1,)): 1})
    assert monomial_times_p1(m).terms == {P((2,)): 1, P((1, 1)): 2}
    e = MonomialExpansion({P(): 1})
    assert monomial_times_p1(e).terms == {P((1,)): 1}


def test_pieri_consistent_with_monomial_convolution():
    for n in range(0, 7):
        for mu in enumerate_partitions(n):
            a = {mu: 1}
            assert to_monomial(pieri_p1(a)) == monomial_times_p1(to_monomial(a)), mu


def test_sides_agree_in_the_monomial_basis():
    for n in range(7):
        assert to_monomial(schur_lhs(n)) == to_monomial(schur_rhs(n)), n


def test_identity_at_integer_specializations():
    # evaluate both sides as honest numbers: Schur values through Kostka
    # numbers and monomials, elementary/power-sum values directly from the
    # variables, and the parameter x at integer points -- nothing here
    # shares code with the Pieri route or the library's determinants
    for xs in ((1, 2, 3, 5, 7, 11), (2, 3, 5, 8, 13, 21), (-3, -1, 1, 2, 4, 9)):
        p1 = sum(xs)
        for n in range(6):
            values = {lam: schur_value_by_kostka(lam, xs) for lam in enumerate_partitions(n)}
            for t in (-2, 0, 1, 3):
                direct = sum(
                    rising_binomial(k)(t) * p1 ** k * elementary_value(n - k, xs)
                    for k in range(n + 1)
                )
                for label, side in zip(("lhs", "rhs"), paper_sides(n)):
                    via_expansion = sum(
                        (coeff(t) * values[lam] for lam, coeff in side.items()),
                        start=Fraction(0),
                    )
                    assert via_expansion == direct, (xs, n, t, label)


# --- the evaluation check --------------------------------------------------------------

def test_det_bareiss():
    assert det_bareiss([]) == 1
    assert det_bareiss([[7]]) == 7
    assert det_bareiss([[1, 2], [3, 4]]) == -2
    # a zero pivot before the last two steps aborts the elimination
    with pytest.raises(ZeroDivisionError):
        det_bareiss([[0, 1, 2], [1, 0, 3], [4, -3, 8]])


def test_det_leibniz():
    # the reference takes a zero pivot and singular matrices
    assert det_leibniz([]) == 1
    assert det_leibniz([[1, 2], [3, 4]]) == -2
    assert det_leibniz([[0, 1, 2], [1, 0, 3], [4, -3, 8]]) == -2
    assert det_leibniz([[1, 2], [2, 4]]) == 0
    assert det_leibniz([[0, 0], [0, 5]]) == 0


@given(integer_matrices())
def test_det_bareiss_is_exact_or_raises(matrix):
    # without pivoting, a value returned is the exact determinant, and a
    # raise comes from a zero leading minor of size below n - 1
    try:
        value = det_bareiss(matrix)
    except ZeroDivisionError:
        assert any(det_leibniz([row[:k] for row in matrix[:k]]) == 0
                   for k in range(1, len(matrix) - 1))
    else:
        assert value == det_leibniz(matrix)


def test_det_bareiss_on_every_oracle_matrix_to_12():
    # x_i^(lam_j + n - j) at the variables 1..n: its leading minors are
    # generalized Vandermonde determinants, so no pivot is zero, and the
    # determinant has the sign of the Vandermonde product
    for n in range(13):
        sign = (-1) ** (n * (n - 1) // 2)
        for lam in enumerate_partitions(n):
            matrix = [[x ** (lam.part(j) + n - j) for j in range(1, n + 1)]
                      for x in range(1, n + 1)]
            assert sign * det_bareiss(matrix) > 0, lam


def test_schur_value_matches_kostka_route():
    # s_lam(xs) == sum_mu K(lam, mu) m_mu(xs), every lam of at most 7 rows
    xs = (1, 2, 3, 4, 5, 6, 7)
    for n in range(8):
        for lam in enumerate_partitions(n):
            assert schur_value(lam, xs) == schur_value_by_kostka(lam, xs), lam
    assert schur_value(P(), ()) == 1


def test_monomial_value_small():
    assert monomial_value(P((1,)), (2, 3)) == 5
    assert monomial_value(P((1, 1)), (2, 3, 5)) == 6 + 10 + 15
    assert monomial_value(P((1, 1, 1)), (2, 3)) == 0


def test_check_at_point():
    for n in range(10):
        assert check_at_point(n, sides(n)), n
    lhs, rhs = sides(4)
    assert not check_at_point(4, (lhs, doubled(rhs)))
    assert not check_at_point(4, (doubled(lhs), rhs))
    # an error that vanishes at x = 1/3 passes this spot check, unless it
    # takes a coefficient past degree n, which no true side has
    row = P((4,))
    vanishing = ExactPolynomial((-1, 3))
    assert check_at_point(4, ({**lhs, row: lhs[row] + vanishing}, rhs))
    vanishing = ExactPolynomial((0, 0, 0, 0, -1, 3))
    assert not check_at_point(4, ({**lhs, row: lhs[row] + vanishing}, rhs))
    with pytest.raises(ValueError):
        check_at_point(-1, ({}, {}))
