from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given

from hookshift import (
    Fault,
    IdentityId,
    Partition,
    PartitionError,
    Workspace,
    check_identity,
    corner_sets,
    enumerate_partitions,
    g_poly,
    hook_product,
    syt_count,
)
from hookshift.identities import shifted_part_constants
from hookshift.polynomials import (
    ExactPolynomial,
    ONE,
    X,
    difference,
    linear,
    product_of_linear_factors,
)
from oracles import corner_quotient_factors, g_value_by_factors, iterated_difference_value
from strategies import partitions

LAM = Partition((5, 5, 3, 3, 1))


# --- the g-polynomial -------------------------------------------------------

def test_g_poly_small():
    assert g_poly(Partition()) == ONE
    assert g_poly(Partition((1,))) == X
    assert g_poly(Partition((2, 1))) == linear(1) * linear(-1) * linear(-3)


def test_g_poly_runs_over_n_not_length():
    # the product has one factor per unit of size, not per row
    lam = Partition((3,))
    assert shifted_part_constants(lam) == [2, -2, -3]
    assert g_poly(lam).degree == 3


@given(partitions(max_size=12))
def test_g_poly_monic_of_degree_n(lam):
    g = g_poly(lam)
    if lam.size == 0:
        assert g == ONE
    else:
        assert g.degree == lam.size
        assert g.coeffs[-1] == 1


# --- quotient factorizations -------------------------------------------------
# (x - n) g(x+1) / g(x) cancels to the context's out_prod / in_prod

def test_g_quotient_factors_worked_example():
    ctx = Workspace().context(LAM)
    assert ctx.out_prod == product_of_linear_factors([5, 1, -3, -5])
    assert ctx.in_prod == product_of_linear_factors([3, -1, -4])


def test_g_quotient_factors_single_box():
    ctx = Workspace().context(Partition((1,)))
    assert ctx.out_prod == linear(1) * linear(-1)
    assert ctx.in_prod == X


def test_g_quotient_factors_rejects_empty():
    with pytest.raises(PartitionError):
        Workspace().context(Partition())


def test_g_quotient_degrees():
    # numerator one factor longer than the denominator, always
    for n in range(1, 13):
        ws = Workspace()
        for lam in enumerate_partitions(n):
            ctx = ws.context(lam)
            assert ctx.out_prod.degree == ctx.in_prod.degree + 1
            assert ctx.in_prod.degree == len(corner_sets(lam).in_corners)


def test_g_quotient_is_the_cancelled_quotient():
    # (x - n) g(x+1) == g(x) * out_prod / in_prod, cleared
    for n in range(1, 13):
        ws = Workspace()
        for lam in enumerate_partitions(n):
            ctx = ws.context(lam)
            g = g_poly(lam)
            assert linear(-n) * g.shift(1) * ctx.in_prod == g * ctx.out_prod


def test_corner_quotient_worked_example():
    num, den = corner_quotient_factors(LAM, 4)
    assert num == [linear(5), linear(1), linear(-3), linear(-5)]
    assert den == [linear(3), linear(-2), linear(-4)]


def test_corner_quotient_rejects_non_corner_row():
    with pytest.raises(PartitionError):
        corner_quotient_factors(LAM, 3)


def test_corner_quotient_is_the_cancelled_quotient():
    # g_lam(x+1) * prod(den) == g_mu(x) * prod(num) for every corner
    for n in range(1, 12):
        for lam in enumerate_partitions(n):
            data = corner_sets(lam)
            for i in data.in_corners:
                num, den = corner_quotient_factors(lam, i)
                lhs = g_poly(lam).shift(1) * prod(den, start=ONE)
                assert lhs == g_poly(data.removals[i]) * prod(num, start=ONE)


def _thm_4_2_numerator(lam, ws):
    # the bare quotient numerator x * in_prod - out_prod, as THM_4_2's witness
    (outcome,) = check_identity(IdentityId.THM_4_2, lam, ws, capture=True)
    return outcome.rhs


def test_thm_4_2_numerator_degree_drops_twice():
    # both degree-(|T|+1) leading terms of x*prod_in and prod_out cancel,
    # leaving degree at most |T| - 1
    for n in range(1, 15):
        ws = Workspace()
        for lam in enumerate_partitions(n):
            t = len(corner_sets(lam).in_corners)
            numerator = _thm_4_2_numerator(lam, ws)
            assert numerator.degree is None or numerator.degree <= t - 1, lam


def test_route_bridge():
    # the g-route and the corner-factor route to the same cleared right side
    for n in range(1, 13):
        ws = Workspace()
        for lam in enumerate_partitions(n):
            data = corner_sets(lam)
            g = g_poly(lam)
            rest = product_of_linear_factors(
                lam.part(i) - i
                for i in range(1, n + 1)
                if i not in set(data.in_corners)
            )
            prod_in = product_of_linear_factors(lam.part(i) - i for i in data.in_corners)
            assert X * g - linear(-n) * g.shift(1) == _thm_4_2_numerator(lam, ws) * rest
            assert g == prod_in * rest


# --- check_identity ----------------------------------------------------------

def test_smallest_case_of_the_difference_identity():
    (outcome,) = check_identity(IdentityId.THM_1_1, Partition((1,)), capture=True)
    assert outcome.passed
    assert outcome.lhs == ONE
    assert outcome.rhs == ONE


def test_check_identity_rejects_empty_partition():
    with pytest.raises(PartitionError):
        check_identity(IdentityId.THM_1_1, Partition())


def test_check_identity_rejects_non_identity():
    with pytest.raises(TypeError):
        check_identity("THM_1_1", Partition((1,)))


def test_per_corner_identities_localize():
    for identity in (IdentityId.CORNER_RATIO_2_2, IdentityId.QUOTIENT_4_2):
        outcomes = check_identity(identity, LAM)
        assert [o.corner_index for o in outcomes] == [2, 4, 5]
        assert all(o.passed for o in outcomes)


def test_catalog_passes_exhaustively_up_to_10():
    ws = Workspace()
    for n in range(1, 11):
        for lam in enumerate_partitions(n):
            for identity in IdentityId:
                for outcome in check_identity(identity, lam, ws):
                    assert outcome.passed, (identity, lam, outcome.to_json())


def test_catalog_spot_check_above_default_bound():
    # nothing caps the checkers themselves; size 30 works fine
    lam = Partition((8, 7, 6, 5, 3, 1))
    assert lam.size == 30
    for identity in IdentityId:
        assert all(o.passed for o in check_identity(identity, lam))


def test_witness_capture_off_by_default_on_pass():
    (outcome,) = check_identity(IdentityId.COR_4_4, Partition((2, 1)))
    assert outcome.passed and outcome.lhs is None and outcome.rhs is None


def test_thm_4_2_witness_is_the_bare_numerator():
    (outcome,) = check_identity(IdentityId.THM_4_2, LAM, capture=True)
    assert outcome.passed
    assert outcome.rhs == ExactPolynomial((-75, -38, 17))
    assert outcome.to_json()["rhs"] == [[2, "17/1"], [1, "-38/1"], [0, "-75/1"]]
    assert outcome.lhs == outcome.rhs  # hook-cleared sum, divided back down


def test_corner_ratio_worked_example():
    outcomes = check_identity(IdentityId.CORNER_RATIO_2_2, LAM, capture=True)
    by_corner = {o.corner_index: o for o in outcomes}
    o = by_corner[4]
    assert o.passed
    mu = Partition((5, 5, 3, 2, 1))
    # both sides of the cleared integer equality, and the printed ratio
    assert o.lhs == hook_product(LAM) * g_poly(mu)(1)
    assert o.rhs == hook_product(mu) * g_poly(LAM)(2)
    assert Fraction(hook_product(LAM), hook_product(mu)) == Fraction(4 * 2 * 1 * 2 * 5 * 6, 3 * 1 * 1 * 4 * 5)
    assert Fraction(g_poly(LAM)(2), g_poly(mu)(1)) == Fraction(6 * 2 * (-2) * (-4), 4 * (-1) * (-3))


def test_quotient_4_2_single_box():
    (outcome,) = check_identity(IdentityId.QUOTIENT_4_2, Partition((1,)), capture=True)
    assert outcome.passed
    assert outcome.lhs == X * linear(-1)  # g_empty * (x+0) * (x-1)
    assert outcome.rhs == X * linear(-1)


def test_remark_dn_by_hand():
    # cleared by H: the single box has D(x) == 1 == f * H == 1 * 1
    (outcome,) = check_identity(IdentityId.REMARK_DN, Partition((1,)), capture=True)
    assert outcome.passed
    assert (outcome.lhs, outcome.rhs) == (1, 1)
    # (2,2): the fourth difference of a monic quartic is 4! == 24, and
    # f * H == 2 * 12
    (outcome,) = check_identity(IdentityId.REMARK_DN, Partition((2, 2)), capture=True)
    assert outcome.passed
    assert (outcome.lhs, outcome.rhs) == (24, 2 * 12)
    assert type(outcome.lhs) is int and type(outcome.rhs) is int
    assert outcome.to_json()["lhs"] == outcome.to_json()["rhs"] == "24/1"
    # f reads no hook length, so a hook 3 bumped to 4 shows: H = 16
    fault = Fault(kind="hook", partition=Partition((2, 2)), row=1, col=1, delta=1)
    (outcome,) = check_identity(IdentityId.REMARK_DN, Partition((2, 2)), Workspace(fault))
    assert not outcome.passed
    assert (outcome.lhs, outcome.rhs) == (24, 2 * 16)


def test_iterated_difference_matches_binomial_sum_to_8():
    # every m-fold difference of g, m <= n, against the binomial-sum oracle
    # on the factors of g; at m = n both give the constant n!
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            d = g_poly(lam)
            for m in range(n + 1):
                for x in range(-n, n + 1):
                    want = iterated_difference_value(lambda t: g_value_by_factors(lam, t), m, x)
                    assert d(x) == want, (lam, m, x)
                if m < n:
                    d = difference(d)
            assert d == factorial(n), lam


def test_cor_4_4_sum_is_exactly_n():
    for n in range(1, 15):
        for lam in enumerate_partitions(n):
            total = sum(
                Fraction(hook_product(lam), hook_product(mu))
                for mu in corner_sets(lam).removal_list
            )
            assert total == n


def test_cor_4_4_summands_need_not_be_integers():
    # the sum is n, but individual hook-product ratios can be proper fractions
    lam = Partition((2, 1))
    ratios = [
        Fraction(hook_product(lam), hook_product(mu)) for mu in corner_sets(lam).removal_list
    ]
    assert sorted(ratios) == [Fraction(3, 2), Fraction(3, 2)]
    assert sum(ratios) == 3


# --- structure of the difference identity, checked term by term -------------

def test_top_two_coefficients_vanish_term_by_term():
    # degree n and n-1 coefficients cancel before the corner sum is used
    for n in range(1, 11):
        for lam in enumerate_partitions(n):
            g = g_poly(lam)
            dg = g.shift(1) - g
            assert dg.degree == n - 1
            assert dg.coeffs[n - 1] == n
            mus = corner_sets(lam).removal_list
            assert Fraction(n, hook_product(lam)) == sum(
                Fraction(1, hook_product(mu)) for mu in mus
            )


def test_difference_identity_at_shifted_roots():
    # evaluate both sides at x = i - part(i), i = 1..n-1, as exact rationals
    for n in range(2, 10):
        for lam in enumerate_partitions(n):
            g = g_poly(lam)
            h = hook_product(lam)
            mus = corner_sets(lam).removal_list
            for i in range(1, n):
                a = i - lam.part(i)
                lhs = Fraction(g(a + 1) - g(a), h)
                rhs = sum(Fraction(g_poly(mu)(a), hook_product(mu)) for mu in mus)
                assert lhs == rhs, (lam, i)


# --- faults ------------------------------------------------------------------

def test_fault_validation():
    with pytest.raises(ValueError):
        Fault(kind="bogus", partition=Partition((2, 1)))
    with pytest.raises(ValueError):
        Fault(kind="hook", partition=Partition((2, 1)), row=2, col=2)
    with pytest.raises(ValueError):
        Fault(kind="g-factor", partition=Partition((2, 1)), index=4)
    # a zero delta tests nothing: the sweep would report green
    with pytest.raises(ValueError):
        Fault(kind="g-factor", partition=Partition((2, 1)), index=2, delta=0)
    with pytest.raises(ValueError):
        Fault(kind="hook", partition=Partition((2, 1)), row=1, col=1, delta=0)
    # a hook length of 0 or less would divide by zero in the checks
    with pytest.raises(ValueError):
        Fault(kind="hook", partition=Partition((1,)), row=1, col=1, delta=-1)
    with pytest.raises(ValueError):
        Fault(kind="hook", partition=Partition((2, 1)), row=1, col=1, delta=-3)
    assert Fault(kind="hook", partition=Partition((2, 1)), row=1, col=1, delta=-2).delta == -2
    assert Fault(kind="g-factor", partition=Partition((1,)), index=1, delta=-1).delta == -1


def test_hook_fault_changes_only_its_target():
    fault = Fault(kind="hook", partition=Partition((2, 1)), row=1, col=1, delta=1)
    ws = Workspace(fault)
    ctx = ws.context(Partition((2, 1)))
    assert ctx.h == 4  # 3 bumped to 4, times 1, 1
    assert ctx.g == g_poly(Partition((2, 1)))
    assert ws.context(Partition((2, 2))).h == hook_product(Partition((2, 2)))
    # the faulted value is what a larger partition reads for that removal
    ctx = ws.context(Partition((3, 1)))
    assert ctx.corners.removal_list == (Partition((2, 1)), Partition((3,)))
    assert ctx.mu_h == (4, hook_product(Partition((3,))))


def test_g_factor_fault_changes_only_its_target():
    fault = Fault(kind="g-factor", partition=Partition((1,)), index=1, delta=1)
    ws = Workspace(fault)
    assert ws.context(Partition((1,))).g == linear(1)
    assert ws.context(Partition((1,))).h == 1
    assert ws.context(Partition((2,))).g == g_poly(Partition((2,)))
    assert ws.context(Partition((2,))).mu_g == (linear(1),)


def test_hook_fault_breaks_the_difference_identity():
    fault = Fault(kind="hook", partition=Partition((3, 2)), row=1, col=1, delta=1)
    ws = Workspace(fault)
    (outcome,) = check_identity(IdentityId.THM_1_1, Partition((3, 2)), ws)
    assert not outcome.passed
    assert outcome.lhs is not None and outcome.rhs is not None


def test_unfaulted_workspace_matches_pure_functions():
    for n in range(1, 9):
        ws = Workspace()
        for lam in enumerate_partitions(n):
            ctx = ws.context(lam)
            assert ws.context(lam) is ctx
            assert ctx.corners == corner_sets(lam)
            g = g_poly(lam)
            assert (ctx.h, ctx.g, ctx.g_next) == (hook_product(lam), g, g.shift(1))
            mus = ctx.corners.removal_list
            assert ctx.mu_h == tuple(hook_product(mu) for mu in mus)
            assert ctx.mu_g == tuple(g_poly(mu) for mu in mus)
            assert Fraction(factorial(n), ctx.h) == syt_count(lam)
            assert ctx.mu_h_prod == prod(hook_product(mu) for mu in mus)
            den = [linear(lam.part(i) - i) for i in ctx.corners.in_corners]
            num = [linear(lam.part(i) - i + 1) for i in ctx.corners.out_corners]
            assert (ctx.in_prod, ctx.out_prod) == (prod(den, start=ONE), prod(num, start=ONE))
            # sum over in-corner rows of (H/H_mu) / (x + part(i) - i), cleared
            # by the product of those factors and by the product of the H_mu
            corner_sum = sum(
                (prod(den[:k] + den[k + 1:], start=ONE) * (ctx.h * ctx.mu_h_prod // h)
                 for k, h in enumerate(ctx.mu_h)),
                start=ExactPolynomial(),
            )
            assert ctx.corner_sum == corner_sum


@pytest.mark.parametrize(
    "parts, index",
    [((4, 1), 1), ((4, 1), 3), ((4, 1), 4), ((2, 1), 3)],
    ids=["row-index", "first-tail-index", "inner-tail-index", "last-tail-index"],
)
def test_g_factor_fault_reaches_g_and_g_next(parts, index):
    # index 1 is a row factor; index 3 and up lie beyond the length, among
    # the trailing factors (x - i) that every partition of that length shares
    lam = Partition(parts)
    ws = Workspace(Fault(kind="g-factor", partition=lam, index=index, delta=1))
    constants = shifted_part_constants(lam)
    constants[index - 1] += 1
    ctx = ws.context(lam)
    assert ctx.g == product_of_linear_factors(constants) != g_poly(lam)
    assert ctx.g_next == ctx.g.shift(1)
    # a partition one box larger reads the faulted g for that removal
    bigger = Partition((parts[0] + 1, *parts[1:]))
    assert ctx.g in ws.context(bigger).mu_g
