from fractions import Fraction

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
from hookshift.polynomials import ExactPolynomial, X, rising_binomial
from hookshift.schur import (
    MonomialExpansion,
    SchurExpansion,
    check_schur_recurrences,
    check_theorem_1_2,
    elementary_as_schur,
    kostka,
    pieri_p1,
    to_monomial,
)
from oracles import monomial_times_p1
from strategies import partitions

P = Partition


# --- expansion basics --------------------------------------------------------

def test_unit_and_pruning():
    a = SchurExpansion.unit(P())
    assert a.terms == {P(): 1}
    assert SchurExpansion({P((1,)): 0}).terms == {}
    assert (SchurExpansion({P((1,)): 1}) + SchurExpansion({P((1,)): -1})).terms == {}


def test_scale():
    a = SchurExpansion({P((1,)): 1}).scale(X)
    assert a.terms == {P((1,)): X}
    assert SchurExpansion({P((1,)): 1}).scale(0).terms == {}


def test_degree_and_homogeneity():
    assert SchurExpansion().degree is None
    assert SchurExpansion({P((2, 1)): 1}).degree == 3
    with pytest.raises(ValueError):
        SchurExpansion({P((1,)): 1, P((2,)): 1})
    with pytest.raises(ValueError):
        SchurExpansion({P((1,)): 1}) + SchurExpansion({P((2,)): 1})
    # adding the empty expansion is always fine
    a = SchurExpansion({P((2,)): 1})
    assert a + SchurExpansion() == a


def test_serialization_sorted_reverse_lexicographically():
    a = SchurExpansion({P((1, 1)): 2, P((2,)): 3})
    assert [d["partition"] for d in a.serialize()] == ["2", "1,1"]
    assert a.serialize()[0]["coefficient"] == "3/1"


# --- Pieri multiplication ------------------------------------------------------

def test_pieri_small_cases():
    assert pieri_p1(SchurExpansion.unit(P())).terms == {P((1,)): 1}
    assert pieri_p1(SchurExpansion.unit(P((1,)))).terms == {P((2,)): 1, P((1, 1)): 1}
    assert pieri_p1(SchurExpansion.unit(P((2, 1)))).terms == {
        P((3, 1)): 1,
        P((2, 2)): 1,
        P((2, 1, 1)): 1,
    }


def test_pieri_raises_degree_by_one_and_counts_terms():
    for n in range(0, 8):
        for mu in enumerate_partitions(n):
            image = pieri_p1(SchurExpansion.unit(mu))
            assert image.degree == n + 1
            distinct_parts = len(set(mu))
            assert len(image) == distinct_parts + 1


@given(partitions(max_size=8))
def test_pieri_adjoint_to_corner_removal(mu):
    image = set(pieri_p1(SchurExpansion.unit(mu)).terms)
    for lam in enumerate_partitions(mu.size + 1):
        assert (lam in image) == (mu in corner_sets(lam).removal_list)


# --- elementary symmetric functions ---------------------------------------------

def test_elementary_as_schur():
    assert elementary_as_schur(0).terms == {P(): 1}
    assert elementary_as_schur(1).terms == {P((1,)): 1}
    assert elementary_as_schur(3).terms == {P((1, 1, 1)): 1}
    with pytest.raises(ValueError):
        elementary_as_schur(-1)


def test_elementary_matches_monomial_expansion():
    # the single-column Schur function expands to the single monomial m_(1^k)
    for k in range(0, 7):
        m = to_monomial(elementary_as_schur(k))
        assert m.terms == {P((1,) * k): 1}


# --- the two sides of the Schur identity ------------------------------------------

def test_sides_at_degree_zero_and_one():
    assert schur_lhs(0).terms == {P(): ExactPolynomial((1,))}
    assert schur_rhs(0).terms == {P(): ExactPolynomial((Fraction(1),))}
    assert schur_lhs(0) == schur_rhs(0)
    assert schur_lhs(1).terms == {P((1,)): X + 1}
    assert schur_rhs(1) == schur_lhs(1)


def test_sides_at_degree_two_frozen():
    # worked out by hand: e2 + x p1 e1 + (x^2+x)/2 p1^2 e0
    half = Fraction(1, 2)
    expected = {
        P((2,)): ExactPolynomial((0, 3 * half, half)),
        P((1, 1)): ExactPolynomial((1, 3 * half, half)),
    }
    assert schur_lhs(2).terms == expected
    assert schur_rhs(2).terms == expected


def test_sides_agree_up_to_seven():
    for n in range(8):
        assert schur_lhs(n) == schur_rhs(n), n


def test_check_theorem_1_2():
    for n in range(8):
        assert check_theorem_1_2(n).passed
    with pytest.raises(ValueError):
        check_theorem_1_2(-1)


def test_recurrence_by_hand_at_degree_one():
    # (x+1) s_1 == x s_1 + p1 s_empty
    lhs = schur_rhs(1)
    rhs = schur_rhs(1).map_coefficients(lambda c: c.shift(-1)) + pieri_p1(schur_rhs(0))
    assert lhs == rhs


def test_check_schur_recurrences():
    for n in range(1, 7):
        assert check_schur_recurrences(n).passed
    with pytest.raises(ValueError):
        check_schur_recurrences(0)


def test_rhs_coefficients_specialize_at_zero():
    for n in range(7):
        for lam, coeff in schur_rhs(n).terms.items():
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
    assert to_monomial(SchurExpansion.unit(P((1,)))).terms == {P((1,)): 1}
    assert to_monomial(SchurExpansion.unit(P((2,)))).terms == {P((2,)): 1, P((1, 1)): 1}
    assert to_monomial(SchurExpansion.unit(P((1, 1)))).terms == {P((1, 1)): 1}


def test_monomial_times_p1_small():
    m = MonomialExpansion({P((1,)): 1})
    assert monomial_times_p1(m).terms == {P((2,)): 1, P((1, 1)): 2}
    e = MonomialExpansion({P(): 1})
    assert monomial_times_p1(e).terms == {P((1,)): 1}


def test_pieri_consistent_with_monomial_convolution():
    for n in range(0, 7):
        for mu in enumerate_partitions(n):
            a = SchurExpansion.unit(mu)
            assert to_monomial(pieri_p1(a)) == monomial_times_p1(to_monomial(a)), mu


def test_sides_agree_in_the_monomial_basis():
    for n in range(7):
        assert to_monomial(schur_lhs(n)) == to_monomial(schur_rhs(n)), n


def test_identity_at_integer_specializations():
    # evaluate both sides as honest numbers: Schur values through bialternant
    # determinants, elementary/power-sum values directly from the variables,
    # and the parameter x at integer points -- nothing here shares code with
    # the Pieri route
    from oracles import elementary_value, schur_value_bialternant

    for xs in ((1, 2, 3, 5, 7, 11), (2, 3, 5, 8, 13, 21), (-3, -1, 1, 2, 4, 9)):
        p1 = sum(xs)
        for n in range(6):
            for t in (-2, 0, 1, 3):
                direct = sum(
                    rising_binomial(k)(t) * p1 ** k * elementary_value(n - k, xs)
                    for k in range(n + 1)
                )
                via_expansion = sum(
                    (
                        coeff(t) * schur_value_bialternant(lam, xs)
                        for lam, coeff in schur_rhs(n).terms.items()
                    ),
                    start=Fraction(0),
                )
                assert via_expansion == direct, (xs, n, t)
                lhs_expansion = sum(
                    (
                        coeff(t) * schur_value_bialternant(lam, xs)
                        for lam, coeff in schur_lhs(n).terms.items()
                    ),
                    start=Fraction(0),
                )
                assert lhs_expansion == direct, (xs, n, t)
