from fractions import Fraction
from itertools import chain
from math import factorial, prod
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hookshift import (
    Fault,
    IdentityId,
    Partition,
    PartitionError,
    check_identity,
    corner_sets,
    enumerate_partitions,
    g_poly,
    hook_product,
    syt_count,
)
from hookshift.identities import (
    _CHECKERS,
    VerificationOutcome,
    Workspace,
)
from hookshift.partitions import shifted_part_constants
from hookshift.polynomials import (
    ExactPolynomial,
    ONE,
    product_of_linear_factors,
    times_linear_factors,
)
from oracles import (
    X,
    binomial_difference,
    catalog_sides,
    cleared_corner_sum,
    corner_quotient_factors,
    difference,
    faulted_constants,
    full_corner_ratio_sides,
    full_polynomial_sides,
    g_value_by_factors,
    hook_by_box_count,
    hook_ratio_clearing,
    linear,
    mul,
)
from strategies import partitions

LAM = Partition((5, 5, 3, 3, 1))


def _full(ctx, value):
    """A reduced polynomial of the context, read back from its value,
    times the common factor F."""
    return times_linear_factors(ctx.decode(value), ctx.common)


# --- the g-polynomial -------------------------------------------------------

def test_g_poly_small():
    assert g_poly(Partition()) == ONE
    assert g_poly(Partition((1,))) == X
    assert g_poly(Partition((2, 1))) == mul(linear(1), linear(-1), linear(-3))


def test_g_poly_runs_over_n_not_length():
    # the product has one factor per unit of size, not per row
    lam = Partition((3,))
    assert shifted_part_constants(lam) == [2, -2, -3]
    assert len(g_poly(lam).coeffs) == 4  # degree 3


@given(partitions(max_size=12))
def test_g_poly_monic_of_degree_n(lam):
    g = g_poly(lam)
    if lam.size == 0:
        assert g == ONE
    else:
        assert len(g.coeffs) == lam.size + 1
        assert g.coeffs[-1] == 1


# --- quotient factorizations -------------------------------------------------
# (x - n) g(x+1) / g(x) cancels to the context's out_prod / in_prod

def test_g_quotient_factors_worked_example():
    ctx = Workspace().context(LAM)
    assert ctx.decode(ctx.out_prod) == product_of_linear_factors([5, 1, -3, -5])
    assert ctx.decode(ctx.in_prod) == product_of_linear_factors([3, -1, -4])


def test_g_quotient_factors_single_box():
    ctx = Workspace().context(Partition((1,)))
    assert ctx.decode(ctx.out_prod) == mul(linear(1), linear(-1))
    assert ctx.decode(ctx.in_prod) == X


def test_g_quotient_factors_rejects_empty():
    with pytest.raises(PartitionError):
        Workspace().context(Partition())


def test_g_quotient_degrees():
    # numerator one factor longer than the denominator, always
    for n in range(1, 13):
        ws = Workspace()
        for lam in enumerate_partitions(n):
            ctx = ws.context(lam)
            in_prod, out_prod = ctx.decode(ctx.in_prod), ctx.decode(ctx.out_prod)
            assert len(out_prod.coeffs) == len(in_prod.coeffs) + 1
            assert len(in_prod.coeffs) == len(corner_sets(lam).in_corners) + 1


def test_g_quotient_is_the_cancelled_quotient():
    # (x - n) g(x+1) == g(x) * out_prod / in_prod, cleared
    for n in range(1, 13):
        ws = Workspace()
        for lam in enumerate_partitions(n):
            ctx = ws.context(lam)
            g = g_poly(lam)
            lhs = mul(linear(-n), g.shift(1), ctx.decode(ctx.in_prod))
            assert lhs == mul(g, ctx.decode(ctx.out_prod))


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
                lhs = mul(g_poly(lam).shift(1), *den)
                assert lhs == mul(g_poly(data.removals[i]), *num)


def _thm_4_2_numerator(lam):
    # the bare quotient numerator x * in_prod - out_prod, as THM_4_2's witness
    (outcome,) = check_identity(IdentityId.THM_4_2, lam)
    return outcome.rhs


def test_thm_4_2_numerator_degree_drops_twice():
    # both degree-(|T|+1) leading terms of x*prod_in and prod_out cancel,
    # leaving degree at most |T| - 1
    for n in range(1, 15):
        for lam in enumerate_partitions(n):
            t = len(corner_sets(lam).in_corners)
            numerator = _thm_4_2_numerator(lam)
            assert len(numerator.coeffs) <= t, lam


def test_route_bridge():
    # the g-route and the corner-factor route to the same cleared right side
    for n in range(1, 13):
        for lam in enumerate_partitions(n):
            data = corner_sets(lam)
            g = g_poly(lam)
            rest = product_of_linear_factors(
                lam.part(i) - i
                for i in range(1, n + 1)
                if i not in set(data.in_corners)
            )
            prod_in = product_of_linear_factors(lam.part(i) - i for i in data.in_corners)
            lhs = mul(X, g) - mul(linear(-n), g.shift(1))
            assert lhs == mul(_thm_4_2_numerator(lam), rest)
            assert g == mul(prod_in, rest)


# --- check_identity ----------------------------------------------------------

def test_smallest_case_of_the_difference_identity():
    (outcome,) = check_identity(IdentityId.THM_1_1, Partition((1,)))
    assert outcome.passed
    assert outcome.lhs == ONE
    assert outcome.rhs == ONE


def test_check_identity_rejects_empty_partition():
    with pytest.raises(PartitionError):
        check_identity(IdentityId.THM_1_1, Partition())


def test_check_identity_rejects_non_identity():
    with pytest.raises(TypeError):
        check_identity("THM_1_1", Partition((1,)))


def test_check_identity_rejects_non_partition():
    with pytest.raises(TypeError, match=r"\(2, 1\)"):
        check_identity(IdentityId.THM_1_1, (2, 1))
    # nor a fault that is not a Fault: "x".partition is a str method, which
    # would never match the partition, so the check would run unfaulted
    for fault in ("x", SimpleNamespace(kind="hook", partition=Partition((2, 1)), row=1,
                                       col=1, index=0, delta=0)):
        with pytest.raises(TypeError, match="^expected Fault or None, got "):
            check_identity(IdentityId.THM_1_1, Partition((2, 1)), fault)


def test_per_corner_identities_localize():
    for identity in (IdentityId.CORNER_RATIO_2_2, IdentityId.QUOTIENT_4_2):
        outcomes = check_identity(identity, LAM)
        assert [o.corner_index for o in outcomes] == [2, 4, 5]
        assert all(o.passed for o in outcomes)


def test_catalog_passes_exhaustively_up_to_10():
    for n in range(1, 11):
        for lam in enumerate_partitions(n):
            for identity in IdentityId:
                for outcome in check_identity(identity, lam):
                    assert outcome.passed, (identity, lam, outcome.to_json())


def test_catalog_spot_check_above_default_bound():
    # nothing caps the checkers themselves; size 30 works fine
    lam = Partition((8, 7, 6, 5, 3, 1))
    assert lam.size == 30
    for identity in IdentityId:
        assert all(o.passed for o in check_identity(identity, lam))


def test_reported_sides_match_first_principles():
    # every row of the report table: at each partition of size <= 8, the
    # sides check_identity reports for each identity are the ones rebuilt
    # from g_poly, hook_product and corner_sets, with no context and no
    # cancelled tail, in value and in their JSON form
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            for identity in IdentityId:
                outcomes = check_identity(identity, lam)
                assert all(o.passed for o in outcomes), (identity, lam)
                expected = catalog_sides(identity, lam)
                assert [(o.corner_index, o.lhs, o.rhs) for o in outcomes] == expected
                assert [o.to_json() for o in outcomes] == [
                    VerificationOutcome(identity.value, lam, i, "pass", lhs, rhs).to_json()
                    for i, lhs, rhs in expected
                ], (identity, lam)


def test_every_outcome_carries_both_sides():
    # a pass reports its sides as a failure does
    for n in range(1, 7):
        for lam in enumerate_partitions(n):
            for identity in IdentityId:
                for outcome in check_identity(identity, lam):
                    assert outcome.lhs is not None and outcome.rhs is not None, (identity, lam)


def test_thm_4_2_witness_is_the_bare_numerator():
    (outcome,) = check_identity(IdentityId.THM_4_2, LAM)
    assert outcome.passed
    assert outcome.rhs == ExactPolynomial((-75, -38, 17))
    assert outcome.to_json()["rhs"] == [[2, "17/1"], [1, "-38/1"], [0, "-75/1"]]
    assert outcome.lhs == outcome.rhs  # hook-cleared sum, divided back down


def test_corner_ratio_worked_example():
    outcomes = check_identity(IdentityId.CORNER_RATIO_2_2, LAM)
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
    (outcome,) = check_identity(IdentityId.QUOTIENT_4_2, Partition((1,)))
    assert outcome.passed
    assert outcome.lhs == mul(X, linear(-1))  # g_empty * (x+0) * (x-1)
    assert outcome.rhs == mul(X, linear(-1))


def test_remark_dn_by_hand():
    # cleared by H: the single box has D(x) == 1 == f * H == 1 * 1
    (outcome,) = check_identity(IdentityId.REMARK_DN, Partition((1,)))
    assert outcome.passed
    assert (outcome.lhs, outcome.rhs) == (1, 1)
    # (2,2): the fourth difference of a monic quartic is 4! == 24, and
    # f * H == 2 * 12
    (outcome,) = check_identity(IdentityId.REMARK_DN, Partition((2, 2)))
    assert outcome.passed
    assert (outcome.lhs, outcome.rhs) == (24, 2 * 12)
    assert type(outcome.lhs) is int and type(outcome.rhs) is int
    assert outcome.to_json()["lhs"] == outcome.to_json()["rhs"] == "24/1"
    # f reads no hook length, so a hook 3 bumped to 4 shows: H = 16
    fault = Fault(kind="hook", partition=Partition((2, 2)), row=1, col=1, delta=1)
    (outcome,) = check_identity(IdentityId.REMARK_DN, Partition((2, 2)), fault)
    assert not outcome.passed
    assert (outcome.lhs, outcome.rhs) == (24, 2 * 16)


def test_iterated_difference_matches_binomial_sum_to_10():
    # REMARK_DN's left side is n!, the n-fold difference of the context's
    # monic degree-n g; the oracle applies the forward difference n times
    # to that g.  Every partition of size <= 10, then a hook-faulted and a
    # g-factor-faulted context, whose g is not g_poly's; an unfaulted g
    # also agrees with its factors taken one by one
    cases = [(lam, Workspace()) for n in range(1, 11) for lam in enumerate_partitions(n)]
    hook = Fault(kind="hook", partition=Partition((3, 2, 1)), row=1, col=2)
    gfac = Fault(kind="g-factor", partition=Partition((4, 1)), index=3)
    cases += [(f.partition, Workspace(f)) for f in (hook, gfac)]
    for lam, ws in cases:
        ctx = ws.context(lam)
        d = _full(ctx, ctx.g)
        if ws.fault is None:
            assert all(d(x) == g_value_by_factors(lam, x) for x in range(-9, 10)), lam
        for _ in range(lam.size):
            d = difference(d)
        (outcome,) = check_identity(IdentityId.REMARK_DN, lam, ws.fault)
        assert type(outcome.lhs) is int, lam
        assert d.coeffs == (outcome.lhs,) == (factorial(lam.size),), lam
        assert outcome.passed == (ws.fault is not hook), lam
    ctx = Workspace(gfac).context(gfac.partition)
    assert _full(ctx, ctx.g) != g_poly(gfac.partition)


@given(st.lists(st.one_of(st.integers(-3, 3), st.integers(-10**12, 10**12)), max_size=40))
def test_binomial_sum_of_monic_product_is_n_factorial(constants):
    # the theorem REMARK_DN's left side rests on: for any constants,
    # repeated or not, the n-fold difference of prod (x + c) is n!
    assert binomial_difference(constants) == factorial(len(constants))


def test_remark_dn_left_side_is_n_factorial_under_every_fault():
    # every hook fault (delta 1, 2) and g-factor fault (delta +1, -1) on
    # every partition of size <= 5: the left side is n!, as is the
    # binomial sum of the faulted context's own constants
    faults = []
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            faults += [Fault(kind="hook", partition=lam, row=cell.row, col=cell.col, delta=d)
                       for cell in lam.cells() for d in (1, 2)]
            faults += [Fault(kind="g-factor", partition=lam, index=i, delta=d)
                       for i in range(1, n + 1) for d in (1, -1)]
    assert len(faults) == 276
    for fault in faults:
        lam = fault.partition
        (outcome,) = check_identity(IdentityId.REMARK_DN, lam, fault)
        constants = Workspace(fault).context(lam).constants
        assert outcome.lhs == binomial_difference(constants) == factorial(lam.size), fault
        assert outcome.passed == (fault.kind == "g-factor"), fault


def test_cor_4_4_sum_is_exactly_n():
    for n in range(1, 15):
        for lam in enumerate_partitions(n):
            total = sum(
                Fraction(hook_product(lam), hook_product(mu))
                for mu in corner_sets(lam).removals.values()
            )
            assert total == n


def test_cor_4_4_summands_need_not_be_integers():
    # the sum is n, but individual hook-product ratios can be proper fractions
    lam = Partition((2, 1))
    ratios = [
        Fraction(hook_product(lam), hook_product(mu)) for mu in corner_sets(lam).removals.values()
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
            assert len(dg.coeffs) == n
            assert dg.coeffs[n - 1] == n
            mus = corner_sets(lam).removals.values()
            assert Fraction(n, hook_product(lam)) == sum(
                Fraction(1, hook_product(mu)) for mu in mus
            )


def test_difference_identity_at_shifted_roots():
    # evaluate both sides at x = i - part(i), i = 1..n-1, as exact rationals
    for n in range(2, 10):
        for lam in enumerate_partitions(n):
            g = g_poly(lam)
            h = hook_product(lam)
            mus = corner_sets(lam).removals.values()
            for i in range(1, n):
                a = i - lam.part(i)
                lhs = Fraction(g(a + 1) - g(a), h)
                rhs = sum(Fraction(g_poly(mu)(a), hook_product(mu)) for mu in mus)
                assert lhs == rhs, (lam, i)


# --- faults ------------------------------------------------------------------

def test_fault_validation():
    with pytest.raises(ValueError):
        Fault(kind="bogus", partition=Partition((2, 1)))
    # a hook cell outside 2,1: past each of its four edges, or in the gap
    # beside its second row
    for row, col in ((2, 2), (0, 1), (1, 0), (1, 3), (3, 1)):
        with pytest.raises(ValueError, match="outside"):
            Fault(kind="hook", partition=Partition((2, 1)), row=row, col=col)
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


@pytest.mark.parametrize(
    "fields, name",
    [
        # such fields used to pass validation and then fail deep in a sweep,
        # or fail without naming the field; delta=True was reported as true
        (dict(kind="g-factor", index=1, delta=0.5), "delta"),
        (dict(kind="hook", row=1, col=1, delta=0.5), "delta"),
        (dict(kind="g-factor", index=1, delta=True), "delta"),
        (dict(kind="hook", row=1.0, col=1), "row"),
        (dict(kind="hook", row=1, col=True), "col"),
        (dict(kind="g-factor", index=Fraction(1)), "index"),
        (dict(kind="g-factor", index="1"), "index"),
    ],
)
def test_fault_rejects_non_integer_fields(fields, name):
    with pytest.raises(ValueError, match=f"^fault {name} must be an integer, got "):
        Fault(partition=Partition((2, 1)), **fields)


def test_hook_fault_changes_only_its_target():
    fault = Fault(kind="hook", partition=Partition((2, 1)), row=1, col=1, delta=1)
    ws = Workspace(fault)
    ctx = ws.context(Partition((2, 1)))
    assert ctx.h == 4  # 3 bumped to 4, times 1, 1
    assert ctx.decode(ctx.g) == g_poly(Partition((2, 1)))
    assert ws.context(Partition((2, 2))).h == hook_product(Partition((2, 2)))
    # the faulted value is what a larger partition reads for that removal
    ctx = ws.context(Partition((3, 1)))
    assert tuple(ctx.corners.removals.values()) == (Partition((2, 1)), Partition((3,)))
    assert ctx.mu_h == (4, hook_product(Partition((3,))))


def test_g_factor_fault_changes_only_its_target():
    fault = Fault(kind="g-factor", partition=Partition((1,)), index=1, delta=1)
    ws = Workspace(fault)
    ctx = ws.context(Partition((1,)))
    assert ctx.decode(ctx.g) == linear(1)
    assert ctx.h == 1
    ctx = ws.context(Partition((2,)))
    assert ctx.decode(ctx.g) == g_poly(Partition((2,)))
    assert tuple(map(ctx.decode, ctx.mu_g)) == (linear(1),)


def test_hook_fault_breaks_the_difference_identity():
    fault = Fault(kind="hook", partition=Partition((3, 2)), row=1, col=1, delta=1)
    (outcome,) = check_identity(IdentityId.THM_1_1, Partition((3, 2)), fault)
    assert not outcome.passed
    assert outcome.lhs is not None and outcome.rhs is not None


def test_unfaulted_workspace_matches_pure_functions():
    for n in range(1, 9):
        ws = Workspace()
        for lam in enumerate_partitions(n):
            ctx = ws.context(lam)
            assert ctx.corners == corner_sets(lam)
            g = g_poly(lam)
            assert ctx.h == hook_product(lam)
            assert (_full(ctx, ctx.g), _full(ctx, ctx.g_next)) == (g, g.shift(1))
            mus = ctx.corners.removals.values()
            assert ctx.mu_h == tuple(hook_product(mu) for mu in mus)
            assert tuple(_full(ctx, p) for p in ctx.mu_g) == tuple(g_poly(mu) for mu in mus)
            assert Fraction(factorial(n), ctx.h) == syt_count(lam)
            d, weights = hook_ratio_clearing(hook_product(lam), [hook_product(mu) for mu in mus])
            assert ctx.den_lcm == d and prod(hook_product(mu) for mu in mus) % d == 0
            den = [linear(lam.part(i) - i) for i in ctx.corners.in_corners]
            num = [linear(lam.part(i) - i + 1) for i in ctx.corners.out_corners]
            assert (ctx.decode(ctx.in_prod), ctx.decode(ctx.out_prod)) == (mul(*den), mul(*num))
            assert ctx.decode(ctx.corner_sum) == cleared_corner_sum(den, weights)


def _hook_product_by_boxes(lam, fault):
    """The hook product from box-counted hooks, with a hook fault's delta
    added at its cell."""
    hit = fault is not None and fault.kind == "hook" and fault.partition == lam
    bump = {(fault.row, fault.col): fault.delta} if hit else {}
    return prod(hook_by_box_count(lam, c) + bump.get(c, 0) for c in lam.cells())


def _small_faults():
    """Every hook fault, delta 1, 2, 10**6 and 1 - hook where that is
    nonzero, and every g-factor fault, delta 1, -1 and 10**6, on the
    partitions of size <= 5, each with the two sizes it reaches."""
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            faults = [Fault(kind="hook", partition=lam, row=c.row, col=c.col, delta=d)
                      for c in lam.cells()
                      for d in (1, 2, 10**6, 1 - hook_by_box_count(lam, c)) if d]
            faults += [Fault(kind="g-factor", partition=lam, index=i, delta=d)
                       for i in range(1, n + 1) for d in (1, -1, 10**6)]
            for f in faults:
                where = f"{f.row},{f.col}" if f.kind == "hook" else f.index
                yield pytest.param(f, (n, n + 1), id=f"{f.kind}-{lam}-{where}-{f.delta}")


_REMOVAL_FAULT = Fault(kind="hook", partition=Partition((3, 2)), row=1, col=2, delta=2)


@pytest.mark.parametrize(
    "fault, sizes",
    [
        pytest.param(None, range(1, 11), id="clean"),
        pytest.param(_REMOVAL_FAULT, range(1, 11), id="hook-fault-on-a-removal"),
        *_small_faults(),
    ],
)
def test_weights_are_the_other_removals_hook_products(fault, sizes):
    # removal i's weight is H/H_mu_i times D, the lcm of the denominators of
    # every H/H_mu in lowest terms, which divides the product of the H_mu;
    # h, the mu_h and the constants are the clean values with the fault's
    # one bump
    reached = set()
    for n in sizes:
        ws = Workspace(fault)
        for lam in enumerate_partitions(n):
            ctx = ws.context(lam)
            mus = ctx.corners.removals.values()
            mu_h = [_hook_product_by_boxes(mu, fault) for mu in mus]
            h = _hook_product_by_boxes(lam, fault)
            assert (ctx.h, ctx.mu_h) == (h, tuple(mu_h)), lam
            assert ctx.constants == faulted_constants(lam, fault), lam
            # each removal's g is the product over its faulted constants
            assert tuple(_full(ctx, p) for p in ctx.mu_g) == tuple(
                _faulted_g(mu, fault) for mu in mus), lam
            d, weights = hook_ratio_clearing(h, mu_h)
            assert prod(mu_h) % d == 0 and all(w.denominator == 1 for w in weights), lam
            assert (ctx.den_lcm, ctx.weights) == (d, tuple(weights)), lam
            if fault is not None and fault.partition in mus:
                reached.add(lam)
    if fault is _REMOVAL_FAULT:
        assert reached == {Partition(p) for p in ((4, 2), (3, 3), (3, 2, 1))}
    elif fault is not None:
        # every fault is read at its own size and by a partition one larger
        assert reached


@pytest.mark.parametrize(
    "parts, index",
    [((4, 1), 1), ((4, 1), 3), ((4, 1), 4), ((2, 1), 3)],
    ids=["row-index", "first-tail-index", "inner-tail-index", "last-tail-index"],
)
def test_g_factor_fault_reaches_g_and_g_next(parts, index):
    # index 1 is a row factor; index 3 and up lie beyond the length, among
    # the trailing factors (x - i), where a fault unshares its index so
    # that the faulted factor stays out of the cancelled common factor
    lam = Partition(parts)
    ws = Workspace(Fault(kind="g-factor", partition=lam, index=index, delta=1))
    constants = shifted_part_constants(lam)
    constants[index - 1] += 1
    ctx = ws.context(lam)
    g = _full(ctx, ctx.g)
    assert g == product_of_linear_factors(constants) != g_poly(lam)
    assert _full(ctx, ctx.g_next) == g.shift(1)
    # a partition one box larger reads the faulted g for that removal
    bigger = ws.context(Partition((parts[0] + 1, *parts[1:])))
    assert g in (_full(bigger, p) for p in bigger.mu_g)


def _faulted_g(lam, fault):
    """g_poly(lam), or the product of its faulted factors if a g-factor
    fault targets lam."""
    return product_of_linear_factors(faulted_constants(lam, fault))


@pytest.mark.parametrize(
    "fault",
    [
        None,
        Fault(kind="hook", partition=Partition((3, 2, 1)), row=1, col=2),
        Fault(kind="g-factor", partition=Partition((3, 2, 1)), index=2),
        Fault(kind="g-factor", partition=Partition((4, 1)), index=3),
        Fault(kind="g-factor", partition=Partition((5,)), index=5),
        Fault(kind="g-factor", partition=Partition((3, 3, 1)), index=7, delta=-2),
        # in-corner row 2 of 3,2,1: its constant 0 becomes -1, which is row
        # 3's plus 1, so g and g(x+1) share the factor, but a removal does not
        Fault(kind="g-factor", partition=Partition((3, 2, 1)), index=2, delta=-1),
    ],
    ids=["clean", "hook", "head-index", "4,1-index-3", "5-index-5", "3,3,1-index-7",
         "in-corner-meets-next-row"],
)
def test_reduced_context_times_tail_is_the_full_g(fault):
    # the context holds g, g(x+1) and each g_mu divided by their common
    # factor F, which generalises the tail prod (x - j) past the last row;
    # multiplied back, each is the (faulted) product of its factors
    for n in range(1, 13):
        ws = Workspace(fault)
        for lam in enumerate_partitions(n):
            ctx = ws.context(lam)
            g = _faulted_g(lam, fault)
            assert _full(ctx, ctx.g) == g, lam
            assert _full(ctx, ctx.g_next) == g.shift(1), lam
            mus = ctx.corners.removals.values()
            assert tuple(_full(ctx, p) for p in ctx.mu_g) == tuple(_faulted_g(mu, fault) for mu in mus)
            assert len(ctx.common) + len(ctx.decode(ctx.g).coeffs) == n + 1, lam


def test_unfaulted_reduced_degrees():
    # unfaulted, F takes every index of 1..n-1 but the in-corner rows: k + 1
    # factors stay in g and in g(x+1), and k in each g_mu, for k in-corner
    # rows.  Row n of 1^n is its one in-corner but lies outside 1..n-1, so
    # there F takes all n-1 indices and leaves (x + 1 - n), x + 1 and 1.
    for n in range(1, 13):
        ws = Workspace()
        for lam in enumerate_partitions(n):
            ctx = ws.context(lam)
            k = len(ctx.corners.in_corners)
            g, g_next = ctx.decode(ctx.g), ctx.decode(ctx.g_next)
            mu_g = tuple(map(ctx.decode, ctx.mu_g))
            if lam == (1,) * n:
                assert (g, g_next) == (linear(1 - n), linear(1)), lam
                assert mu_g == (ONE,), lam
                continue
            assert (len(g.coeffs), len(g_next.coeffs)) == (k + 2, k + 2), lam
            assert [len(g_mu.coeffs) for g_mu in mu_g] == [k + 1] * k, lam
            in_rows = set(ctx.corners.in_corners)
            assert ctx.common == [lam.part(i) - i for i in range(1, n) if i not in in_rows], lam
    # one row: g = (x + 6)(x - 2)...(x - 7), and F = (x - 2)...(x - 6) leaves
    # (x + 6)(x - 7) of g, (x + 7)(x - 1) of g(x+1) and x + 5 of g_mu
    ctx = Workspace().context(Partition((7,)))
    assert ctx.common == [-2, -3, -4, -5, -6]
    assert ctx.decode(ctx.g) == mul(linear(6), linear(-7))
    assert ctx.decode(ctx.g_next) == mul(linear(7), linear(-1))
    assert tuple(map(ctx.decode, ctx.mu_g)) == (linear(5),)


# --- the polynomial identities, decided at one integer ---------------------

def _kronecker_cases():
    # every partition of size <= 10 unfaulted, then every fault on a
    # partition of size m <= 5, with small and large deltas, over the
    # partitions of sizes m and m + 1 (the two units that read it)
    for n in range(1, 11):
        ws = Workspace()
        for lam in enumerate_partitions(n):
            yield ws, lam
    for m in range(1, 6):
        for target in enumerate_partitions(m):
            faults = [Fault(kind="hook", partition=target, row=r, col=c, delta=d)
                      for r, length in enumerate(target, 1) for c in range(1, length + 1)
                      for d in (1, 5, 10**6)]
            faults += [Fault(kind="g-factor", partition=target, index=i, delta=d)
                       for i in range(1, m + 1) for d in (1, -1, -7, 10**6)]
            for fault in faults:
                ws = Workspace(fault)
                for lam in (*enumerate_partitions(m), *enumerate_partitions(m + 1)):
                    yield ws, lam


def _assert_values_decide(ws, lam):
    # each compared value, read back and multiplied by F where the side
    # carries g, is the side built in full by polynomial arithmetic, and
    # its l1 norm stays below x / 2, so equal values are equal sides
    carries_f = {IdentityId.THM_1_1: True, IdentityId.QUOTIENT_4_2: True,
                 IdentityId.THM_4_1: True, IdentityId.EQ_4_6: True, IdentityId.THM_4_2: False}
    ctx = ws.context(lam)
    # x also clears the bound the identities docstring proves for every
    # side such factors can build, which the sides met here need not reach
    k, u = len(ctx.mu_h), ctx.n - 1 - len(ctx.common)
    out_constants = [lam.part(i) - i + 1 for i in ctx.corners.out_corners]
    # the context sizes x without the corner constants, since n covers them
    assert all(-ctx.n <= a <= ctx.n for a in chain(ctx.in_constants, out_constants)), lam
    mu_constants = [faulted_constants(mu, ws.fault) for mu in ctx.corners.removals.values()]
    b = 2 + max(map(abs, chain(ctx.constants, *mu_constants, ctx.in_constants,
                               out_constants, (ctx.n,))))
    d, weights = hook_ratio_clearing(ctx.h, ctx.mu_h)
    assert prod(ctx.mu_h) % d == 0, lam
    assert ctx.x > 2 * max(k, 2) * max(d, *weights) * b ** (u + k + 2), (lam, ws.fault)
    for identity, full in carries_f.items():
        check, _ = _CHECKERS[identity]
        compared, expected = check(ctx), full_polynomial_sides(identity, ctx, ws.fault)
        assert [c[0] for c in compared] == [e[0] for e in expected], (identity, lam)
        for (_, *values), (corner, *sides) in zip(compared, expected):
            where = (identity, lam, corner, ws.fault)
            for value, side in zip(values, sides):
                p = ctx.decode(value)
                assert times_linear_factors(p, ctx.common if full else ()) == side, where
                assert 2 * sum(map(abs, p.coeffs)) < ctx.x, where
            assert (values[0] == values[1]) == (sides[0] == sides[1]), where


def test_values_at_x_decide_the_polynomial_identities():
    for ws, lam in _kronecker_cases():
        _assert_values_decide(ws, lam)


def test_reduced_corner_ratio_times_f_is_the_full_product():
    # CORNER_RATIO_2_2 compares its sides divided by F(a); at every in-corner
    # row, clean or under a fault, F(a) is nonzero and multiplied back gives
    # the products over every constant, so the two forms decide alike
    check, _ = _CHECKERS[IdentityId.CORNER_RATIO_2_2]
    for ws, lam in _kronecker_cases():
        ctx = ws.context(lam)
        compared, expected = check(ctx), full_corner_ratio_sides(ctx, ws.fault)
        assert [c[0] for c in compared] == [e[0] for e in expected], (lam, ws.fault)
        for (i, lhs, rhs), (_, full_lhs, full_rhs) in zip(compared, expected):
            where = (lam, i, ws.fault)
            f = prod(i - lam.part(i) + c for c in ctx.common)
            assert f != 0, where
            assert (lhs * f, rhs * f) == (full_lhs, full_rhs), where


@st.composite
def _large_cases(draw):
    """A partition of size 26 to 60 in a workspace that is clean or holds
    one fault, on the partition or on one of its corner removals."""
    lam = draw(partitions(min_size=26, max_size=60))
    kind = draw(st.sampled_from((None, "hook", "g-factor")))
    if kind is None:
        return Workspace(), lam
    target = draw(st.sampled_from((lam, *corner_sets(lam).removals.values())))
    if kind == "hook":
        row = draw(st.integers(1, len(target)))
        col = draw(st.integers(1, target[row - 1]))
        delta = draw(st.integers(1, 10**6))
        return Workspace(Fault(kind="hook", partition=target, row=row, col=col, delta=delta)), lam
    index = draw(st.integers(1, target.size))
    delta = draw(st.integers(-10**9, 10**9).filter(bool))
    return Workspace(Fault(kind="g-factor", partition=target, index=index, delta=delta)), lam


@settings(max_examples=50)
@given(_large_cases())
def test_values_at_x_decide_past_the_exhaustive_sizes(case):
    # X grows with the hook products; the exhaustive test above stops at
    # size 10, and faults at size 5
    _assert_values_decide(*case)


@given(partitions(min_size=1, max_size=12), st.data())
def test_decode_reads_back_every_polynomial_below_the_bound(lam, data):
    # random integer polynomials of l1 norm exactly x / 2 - 1
    ctx = Workspace().context(lam)
    norm = ctx.x // 2 - 1
    cuts = sorted(data.draw(st.lists(st.integers(0, norm), max_size=6)))
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, norm])]
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=len(sizes), max_size=len(sizes)))
    p = ExactPolynomial([sign * c for sign, c in zip(signs, sizes)])
    assert sum(map(abs, p.coeffs)) == norm
    assert ctx.decode(p(ctx.x)) == p


def test_decode_bound_is_tight():
    # at l1 norm x / 2 a balanced digit can no longer hold +x / 2
    for lam in (Partition((1,)), LAM):
        ctx = Workspace().context(lam)
        half = ExactPolynomial((ctx.x // 2,))
        assert ctx.decode(half(ctx.x)) != half
        assert ctx.decode(-ctx.x // 2) == ExactPolynomial((-ctx.x // 2,))
