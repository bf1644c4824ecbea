"""Acceptance suite.

Each test runs one acceptance check at its full stated bound, exactly (no
tolerances anywhere: every comparison is between exact integers, exact
rationals, or exact polynomials), and prints one pass line; a pytest
failure is the corresponding fail line.  Run with `pytest
tests/test_acceptance.py -v -s` to see the lines as they complete.
"""

from fractions import Fraction

from hookshift import (
    Fault,
    IdentityId,
    Partition,
    SweepConfig,
    check_identity,
    corner_sets,
    enumerate_partitions,
    g_poly,
    hook_product,
    run_sweep,
    schur_lhs,
    schur_rhs,
    syt_count,
)
from hookshift.partitions import partition_count
from hookshift.polynomials import ExactPolynomial
from hookshift.schur import (
    check_schur_recurrences,
    check_theorem_1_2,
    pieri_p1,
)
from oracles import corner_quotient_factors, linear, syt_count_bruteforce, to_monomial

LAM = Partition((5, 5, 3, 3, 1))


def test_a01_difference_identity_exhaustive_to_25():
    report = run_sweep(
        SweepConfig(
            max_n_identities=25,
            max_n_theorem_1_2=1,
            max_n_oracles=1,
            identities=(IdentityId.THM_1_1,),
            parallelism="auto",
        )
    )
    agg = report.per_identity()["THM_1_1"]
    assert agg["failures"] == []
    # one check per partition; the partition counts come from an
    # independent recurrence for p(n)
    expected = sum(map(partition_count, range(1, 26)))
    assert expected == 9295
    assert agg["checked"] == expected
    assert agg["passed"] == expected
    print(f"\n[A1] PASS difference identity, zero polynomial for all {expected} "
          "partitions of 1..25")


def test_a02_schur_identity_and_recurrences():
    prev = None
    for n in range(10):
        sides = schur_lhs(n), schur_rhs(n)
        assert check_theorem_1_2(n, sides) is None, n
        if prev is not None:
            assert check_schur_recurrences(n, sides, prev) is None, n
        prev = sides
    print("[A2] PASS Schur-basis identity and both recurrences for n <= 9")


def test_a03_corner_ratio_worked_example():
    mu = Partition((5, 5, 3, 2, 1))
    outcomes = {o.corner_index: o for o in check_identity(IdentityId.CORNER_RATIO_2_2, LAM)}
    assert outcomes[4].passed
    # hook-product ratio exactly as displayed, in both factored forms
    ratio = Fraction(hook_product(LAM), hook_product(mu))
    assert ratio == Fraction(4 * 2 * 1 * 2 * 5 * 6, 3 * 1 * 1 * 4 * 5)
    assert ratio == Fraction(4 * 2 * 2 * 6, 3 * 4)
    # cancelled quotient printed factor by factor
    num, den = corner_quotient_factors(LAM, 4)
    assert num == [linear(5), linear(1), linear(-3), linear(-5)]
    assert den == [linear(3), linear(-2), linear(-4)]
    # its value at x = 1
    assert [p(1) for p in num] == [6, 2, -2, -4]
    assert [p(1) for p in den] == [4, -1, -3]
    assert Fraction(g_poly(LAM)(2), g_poly(mu)(1)) == ratio
    print("[A3] PASS corner-ratio example at 5,5,3,3,1 row 4: ratio 8 with the "
          "printed factorizations, quotient value (6)(2)(-2)(-4)/((4)(-1)(-3))")


def test_a04_corner_set_worked_example():
    data = corner_sets(LAM)
    assert data.in_corners == (2, 4, 5)
    assert data.out_corners == (1, 3, 5, 6)
    (outcome,) = check_identity(IdentityId.THM_4_2, LAM)
    assert outcome.rhs == ExactPolynomial((-75, -38, 17))
    print("[A4] PASS corner sets T={2,4,5}, B={1,3,5,6} and cleared numerator "
          "17x^2-38x-75 at 5,5,3,3,1")


def test_a05_tableau_count_oracle_to_9():
    total = 0
    for n in range(10):
        for lam in enumerate_partitions(n):
            assert syt_count(lam) == syt_count_bruteforce(lam), lam
            total += 1
    print(f"[A5] PASS hook-formula tableau counts equal brute-force enumeration "
          f"for all {total} shapes of size <= 9")


def test_a06_iterated_difference_to_20():
    total = 0
    for n in range(1, 21):
        for lam in enumerate_partitions(n):
            (outcome,) = check_identity(IdentityId.REMARK_DN, lam)
            assert outcome.passed, lam
            total += 1
    print(f"[A6] PASS n-fold difference of g equals the tableau count times H for "
          f"all {total} partitions of 1..20")


def test_a07_hook_ratio_sum_to_20():
    total = 0
    for n in range(1, 21):
        for lam in enumerate_partitions(n):
            terms = [
                Fraction(hook_product(lam), hook_product(mu))
                for mu in corner_sets(lam).removals.values()
            ]
            assert sum(terms) == n, lam
            total += 1
    print(f"[A7] PASS corner sum of hook-product ratios equals n exactly for all "
          f"{total} partitions of 1..20")


def test_a08_corner_quotient_family_to_20():
    ids = (IdentityId.THM_4_1, IdentityId.THM_4_2, IdentityId.QUOTIENT_4_2, IdentityId.EQ_4_6)
    checked = 0
    for n in range(1, 21):
        for lam in enumerate_partitions(n):
            for identity in ids:
                for outcome in check_identity(identity, lam):
                    assert outcome.passed, (identity, lam)
                    checked += 1
    print(f"[A8] PASS cleared corner-quotient identities ({checked} checks, "
          "per corner where applicable) for all partitions of 1..20")


def test_a09_monomial_oracle_and_pieri_adjointness():
    for n in range(7):
        assert to_monomial(schur_lhs(n)) == to_monomial(schur_rhs(n)), n
    pairs = 0
    for m in range(9):
        partitions_above = list(enumerate_partitions(m + 1))
        for mu in enumerate_partitions(m):
            image = set(pieri_p1({mu: 1}))
            for lam in partitions_above:
                assert (lam in image) == (mu in corner_sets(lam).removals.values()), (mu, lam)
                pairs += 1
    print(f"[A9] PASS monomial-basis cross-check for n <= 6 and Pieri/corner "
          f"adjointness over {pairs} pairs with |mu| <= 8")


def _some_check_fails(fault: Fault) -> bool:
    scan = [fault.partition] + [
        lam
        for n in range(1, 9)
        for lam in enumerate_partitions(n)
        if lam != fault.partition
    ]
    for lam in scan:
        for identity in IdentityId:
            if any(not o.passed for o in check_identity(identity, lam, fault)):
                return True
    return False


def test_a10_fault_sensitivity():
    hook_faults = g_faults = 0
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            for cell in lam.cells():
                fault = Fault(kind="hook", partition=lam, row=cell.row, col=cell.col, delta=1)
                assert _some_check_fails(fault), fault
                hook_faults += 1
            for index in range(1, n + 1):
                fault = Fault(kind="g-factor", partition=lam, index=index, delta=1)
                assert _some_check_fails(fault), fault
                g_faults += 1
    print(f"[A10] PASS every single-value perturbation is detected "
          f"({hook_faults} hook faults, {g_faults} factor faults, sizes <= 8)")
