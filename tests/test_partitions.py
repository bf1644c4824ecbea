import pickle
from math import factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hookshift import (
    Fault,
    Partition,
    PartitionError,
    corner_sets,
    enumerate_partitions,
    hook_length,
    hook_lengths,
    hook_product,
    parse_partition,
    syt_count,
)
from hookshift.partitions import Cell, partition_count, single_box_additions
from oracles import (
    conjugate_by_cells,
    hook_by_box_count,
    partitions_bruteforce,
    syt_count_bruteforce,
)
from strategies import partitions


# --- construction and parsing --------------------------------------------

def test_partition_invariants():
    assert Partition() == ()
    assert Partition((5, 5, 3, 3, 1)).size == 17
    assert len(Partition((5, 5, 3, 3, 1))) == 5
    with pytest.raises(PartitionError):
        Partition((3, 5))
    with pytest.raises(PartitionError):
        Partition((3, 0))
    with pytest.raises(PartitionError):
        Partition((3, -1))
    with pytest.raises(PartitionError):
        Partition((True,))


def test_part_indexing_beyond_length_is_zero():
    lam = Partition((2, 1))
    assert [lam.part(i) for i in (1, 2, 3, 7)] == [2, 1, 0, 0]
    with pytest.raises(IndexError):
        lam.part(0)


def test_parse_comma_form():
    assert parse_partition("5,5,3,3,1") == (5, 5, 3, 3, 1)
    assert parse_partition("12,1") == (12, 1)


def test_parse_compact_form():
    assert parse_partition("55331") == (5, 5, 3, 3, 1)
    assert parse_partition("7") == (7,)
    assert parse_partition("11") == (1, 1)


def test_parse_single_part_fallback():
    # not valid compact readings, so single parts
    assert parse_partition("10") == (10,)
    assert parse_partition("35") == (35,)
    # trailing comma forces the single-part reading of a compact-looking string
    assert parse_partition("53,") == (53,)
    assert parse_partition("12,") == (12,)


def test_parse_empty_partition():
    assert parse_partition("0") == ()
    assert parse_partition("") == ()


@pytest.mark.parametrize("bad", ["3,5", "a", "1,b", "3,0", "-2", "2,-1", "1,,2", "1 2"])
def test_parse_rejects(bad):
    with pytest.raises(PartitionError):
        parse_partition(bad)


def test_str_canonical_forms():
    assert str(Partition()) == "0"
    assert str(Partition((1,))) == "1"
    assert str(Partition((10,))) == "10"
    assert str(Partition((53,))) == "53,"  # bare "53" would re-parse as (5,3)
    assert str(Partition((5, 5, 3, 3, 1))) == "5,5,3,3,1"


@given(partitions())
def test_parse_serialization_round_trip(lam):
    assert parse_partition(str(lam)) == lam


@given(st.integers(1, 500))
def test_single_part_round_trip(p):
    assert parse_partition(str(Partition((p,)))) == (p,)


def test_partition_pickles_to_an_equal_partition():
    # a sweep's worker processes receive partitions, inside faults too
    for lam in (Partition(), Partition((5, 5, 3, 3, 1))):
        copy = pickle.loads(pickle.dumps(lam))
        assert copy == lam and type(copy) is Partition
    fault = Fault(kind="hook", partition=Partition((3, 2, 1)), row=1, col=2)
    copy = pickle.loads(pickle.dumps(fault))
    assert copy == fault and type(copy.partition) is Partition


# --- enumeration ----------------------------------------------------------

def test_enumeration_counts():
    got = [sum(1 for _ in enumerate_partitions(n)) for n in range(11)]
    assert got == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_enumeration_matches_pentagonal_recurrence():
    for n in range(19):
        assert sum(1 for _ in enumerate_partitions(n)) == partition_count(n)


def test_partition_count():
    assert [partition_count(n) for n in range(11)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert [partition_count(n) for n in range(13)] == [
        sum(1 for _ in partitions_bruteforce(n)) for n in range(13)
    ]
    assert partition_count(25) == 1958
    assert partition_count(100) == 190569292


def test_enumeration_order_reverse_lexicographic():
    got = list(enumerate_partitions(4))
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for n in range(9):
        seq = list(enumerate_partitions(n))
        assert seq == sorted(seq, reverse=True)
    # the brute-force oracle yields reverse-lexicographic order by its
    # construction, so this pins the exact sequence, not only its sorting
    for n in range(31):
        assert list(enumerate_partitions(n)) == list(partitions_bruteforce(n)), n


def test_enumeration_complete_and_duplicate_free():
    for n in range(9):
        got = list(enumerate_partitions(n))
        assert len(set(got)) == len(got)
        assert set(map(tuple, got)) == set(partitions_bruteforce(n))


def test_enumerated_partitions_are_valid_to_12():
    # enumeration skips the validating constructor
    for n in range(13):
        for lam in enumerate_partitions(n):
            assert type(lam) is Partition
            assert Partition(tuple(lam)) == lam
            assert lam.size == n


def test_enumeration_rejects_negative():
    with pytest.raises(ValueError):
        list(enumerate_partitions(-1))


# --- hooks ----------------------------------------------------------------

def test_hook_length_examples():
    assert hook_length(Partition((1,)), Cell(1, 1)) == 1
    assert hook_length(Partition((2, 1)), Cell(1, 1)) == 3
    # a plain (row, col) tuple is a cell too
    assert hook_length(Partition((3, 1)), (1, 2)) == 2
    grid = hook_lengths(Partition((2, 2)))
    assert sorted(h for row in grid for h in row) == [1, 2, 2, 3]


def test_hook_length_outside_diagram():
    with pytest.raises(PartitionError):
        hook_length(Partition((2, 1)), Cell(2, 2))


def test_hook_grid_matches_box_counting():
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            grid = hook_lengths(lam)
            for cell in lam.cells():
                assert grid[cell.row - 1][cell.col - 1] == hook_by_box_count(lam, cell)
                assert hook_length(lam, cell) == hook_by_box_count(lam, cell)


def test_hook_product_examples():
    assert hook_product(Partition()) == 1
    assert hook_product(Partition((2, 1))) == 3
    ratio = (
        hook_product(Partition((5, 5, 3, 3, 1))),
        hook_product(Partition((5, 5, 3, 2, 1))),
    )
    assert ratio[0] * (3 * 1 * 1 * 4 * 5) == ratio[1] * (4 * 2 * 1 * 2 * 5 * 6)


def test_hook_product_matches_box_counting_to_12():
    for n in range(13):
        for lam in enumerate_partitions(n):
            assert hook_product(lam) == prod(hook_by_box_count(lam, c) for c in lam.cells())


# --- standard Young tableaux ----------------------------------------------

def test_syt_small_shapes():
    assert syt_count(Partition()) == 1
    assert syt_count(Partition((1,))) == 1
    assert syt_count(Partition((2, 1))) == 2
    assert syt_count_bruteforce(Partition((1, 1))) == 1
    assert syt_count_bruteforce(Partition((2, 1))) == 2
    assert syt_count_bruteforce(Partition((2, 2))) == 2


def test_syt_formula_agrees_with_bruteforce():
    for n in range(11):
        for lam in enumerate_partitions(n):
            assert syt_count(lam) == syt_count_bruteforce(lam)


def test_syt_bruteforce_bound():
    with pytest.raises(ValueError):
        syt_count_bruteforce(Partition((11,)))


def test_syt_squares_sum_to_factorial():
    for n in range(1, 9):
        assert sum(syt_count(lam) ** 2 for lam in enumerate_partitions(n)) == factorial(n)


def test_syt_corner_recurrence():
    # f_lam equals the sum of f over the one-box removals
    for n in range(1, 13):
        for lam in enumerate_partitions(n):
            assert syt_count(lam) == sum(
                syt_count(mu) for mu in corner_sets(lam).removals.values()
            )


# --- corners ----------------------------------------------------------------

def test_corner_sets_worked_example():
    data = corner_sets(Partition((5, 5, 3, 3, 1)))
    assert data.in_corners == (2, 4, 5)
    assert data.out_corners == (1, 3, 5, 6)
    assert data.removals[2] == (5, 4, 3, 3, 1)
    assert data.removals[4] == (5, 5, 3, 2, 1)
    assert data.removals[5] == (5, 5, 3, 3)


def test_corner_sets_single_box():
    data = corner_sets(Partition((1,)))
    assert data.in_corners == (1,)
    assert data.out_corners == (1, 2)
    assert data.removals[1] == ()


def test_corner_sets_rejects_empty():
    with pytest.raises(PartitionError):
        corner_sets(Partition())


def test_corner_removals_examples():
    # removals.values() lists the removed partitions in in-corner row order
    assert tuple(corner_sets(Partition((1,))).removals.values()) == ((),)
    assert tuple(corner_sets(Partition((2, 2))).removals.values()) == ((2, 1),)
    assert tuple(corner_sets(Partition((3, 1))).removals.values()) == ((2, 1), (3,))
    assert set(corner_sets(Partition((5, 5, 3, 3, 1))).removals.values()) == {
        (5, 4, 3, 3, 1),
        (5, 5, 3, 2, 1),
        (5, 5, 3, 3),
    }


def test_corner_removals_are_valid_partitions_to_12():
    # removals skip validation, yet key the Workspace memo: each must be
    # the Partition the validated constructor builds, hash and str included
    for n in range(1, 13):
        for lam in enumerate_partitions(n):
            for mu in corner_sets(lam).removals.values():
                valid = Partition(list(mu))
                assert type(mu) is Partition, lam
                assert mu == valid and hash(mu) == hash(valid), lam
                assert str(mu) == str(valid), lam


def test_corner_counts_up_to_20():
    for n in range(1, 21):
        for lam in enumerate_partitions(n):
            data = corner_sets(lam)
            assert len(data.out_corners) == len(data.in_corners) + 1
            removals = data.removals.values()
            assert len(removals) == len(data.in_corners)
            assert all(mu.size == n - 1 for mu in removals)
            assert len(set(removals)) == len(removals)


@given(partitions(min_size=1))
def test_removal_then_addition_round_trip(lam):
    for mu in corner_sets(lam).removals.values():
        assert lam in single_box_additions(mu)
    for big in single_box_additions(lam):
        assert lam in corner_sets(big).removals.values()


# --- conjugation ------------------------------------------------------------

def test_conjugate_examples():
    assert conjugate_by_cells(Partition()) == ()
    assert conjugate_by_cells(Partition((2, 1))) == (2, 1)
    assert conjugate_by_cells(Partition((5, 5, 3, 3, 1))) == (5, 4, 4, 2, 2)


@given(partitions())
def test_conjugate_involution(lam):
    conj = conjugate_by_cells(lam)
    assert conjugate_by_cells(conj) == lam
    # box (i, j) has arm part(i) - j and leg conj(j) - i
    for i, row in enumerate(hook_lengths(lam), 1):
        assert row == [lam.part(i) - j + conj.part(j) - i + 1 for j in range(1, len(row) + 1)]


@given(partitions())
def test_conjugate_preserves_hook_multiset(lam):
    conj = conjugate_by_cells(lam)
    mine = sorted(h for row in hook_lengths(lam) for h in row)
    theirs = sorted(h for row in hook_lengths(conj) for h in row)
    assert mine == theirs
    assert hook_product(lam) == hook_product(conj)


# --- the cleared reciprocal-hook recurrence ---------------------------------

def test_reciprocal_hook_recurrence_cleared_up_to_20():
    # n * prod of corner hook products == H_lam * sum of partial products
    for n in range(1, 21):
        for lam in enumerate_partitions(n):
            hooks = [hook_product(mu) for mu in corner_sets(lam).removals.values()]
            big = prod(hooks)
            assert n * big == hook_product(lam) * sum(big // h for h in hooks)
