"""Integer partitions, Ferrers diagrams, hook lengths, shifted parts, and
corner data: every per-partition input the identity checks read.

The shifted parts of a partition of n are part(i) - i for i = 1..n, with
parts read as 0 beyond the last row; they strictly decrease, and they are
the constants of the g-polynomial's linear factors.

Diagrams are stored in English orientation: row 1 is the longest row and
legs point downward.  Hook lengths, their products, and everything built
from them are invariant under flipping the diagram, so all quantities
match the usual French-orientation pictures as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod
from typing import Iterator, NamedTuple


class PartitionError(ValueError):
    """Raised for input that does not describe a partition."""


class Cell(NamedTuple):
    """1-based (row, col) position of a box in a Ferrers diagram."""

    row: int
    col: int


class Partition(tuple):
    """A weakly decreasing tuple of positive integers.

    The empty partition is the unique partition of 0.  ``part(i)`` uses
    1-based indexing and returns 0 beyond the last row, the convention
    under which every formula in this package is stated.
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        parts = tuple(parts)
        prev = None
        for p in parts:
            if isinstance(p, bool) or not isinstance(p, int) or p <= 0:
                raise PartitionError(f"parts must be positive integers, got {p!r}")
            if prev is not None and p > prev:
                raise PartitionError(f"parts not weakly decreasing: {parts}")
            prev = p
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    def part(self, i: int) -> int:
        """The i-th part (1-based); zero for i beyond the length."""
        if i < 1:
            raise IndexError("part index is 1-based")
        return self[i - 1] if i <= len(self) else 0

    def cells(self) -> Iterator[Cell]:
        for i, p in enumerate(self, start=1):
            for j in range(1, p + 1):
                yield Cell(i, j)

    def contains_cell(self, cell: Cell) -> bool:
        return 1 <= cell.row <= len(self) and 1 <= cell.col <= self[cell.row - 1]

    def __str__(self) -> str:
        if not self:
            return "0"
        if len(self) == 1:
            s = str(self[0])
            # a bare "53" would re-parse in compact notation as (5,3); mark
            # such single parts with a trailing comma so parsing round-trips
            return s + "," if _reads_as_compact(s) else s
        return ",".join(map(str, self))

    def __repr__(self) -> str:
        return f"Partition({str(self)!r})"


@dataclass(frozen=True)
class CornerData:
    """Corner index sets of a partition.

    ``in_corners`` lists the rows whose rightmost box can be removed
    (every row i with part(i) > part(i+1)); ``out_corners`` is
    {1} union {i+1 : i in in_corners}, one element longer.  ``removals``
    maps each in-corner row to the partition left after removing that
    box; dicts keep insertion order, so ``removals.values()`` lists the
    removed partitions in in-corner row order.
    """

    in_corners: tuple[int, ...]
    out_corners: tuple[int, ...]
    removals: dict


def _reads_as_compact(digits: str) -> bool:
    return len(digits) > 1 and "0" not in digits and all(map(str.__ge__, digits, digits[1:]))


def parse_partition(text: str) -> Partition:
    """Parse "5,5,3,3,1", compact "55331", or "0"/"" for the empty partition.

    A bare digit string is read in compact notation (one part per digit)
    when that gives a valid partition with parts 1-9, and as a single part
    otherwise; so "55331" is (5,5,3,3,1) while "10" is (10).  A trailing
    comma forces the single-part reading ("53," is (53), not (5,3)).
    """
    text = text.strip()
    if text in ("", "0"):
        return Partition()
    if "," in text:
        tokens = text.split(",")
        if tokens[-1] == "":
            tokens.pop()  # trailing comma: single-part form like "53,"
        for tok in tokens:
            if not tok.isdigit():
                raise PartitionError(f"non-numeric part {tok!r} in {text!r}")
        return Partition(map(int, tokens))
    if not text.isdigit():
        raise PartitionError(f"not a partition string: {text!r}")
    if _reads_as_compact(text):
        return Partition(int(ch) for ch in text)
    return Partition((int(text),))


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, exactly once, in reverse-lexicographic order.

    The first partition is (n) and the last is (1,...,1); the count is
    the partition number p(n).  Each step drops the trailing 1s, takes
    one unit from the last part, and refills the freed units greedily
    with parts no larger than that part's new value.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    cur = [n] if n else []
    while True:
        # trusted constructor: every tuple built here is a partition
        yield tuple.__new__(Partition, cur)
        ones = 0
        while cur and cur[-1] == 1:
            cur.pop()
            ones += 1
        if not cur:
            return
        cur[-1] = m = cur[-1] - 1
        q, r = divmod(ones + 1, m)
        cur += [m] * q
        if r:
            cur.append(r)


def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence, which enumerates
    nothing: p(m) = sum over k >= 1 of (-1)^(k+1) (p(m - k(3k-1)/2) +
    p(m - k(3k+1)/2))."""
    p = [1]
    for m in range(1, n + 1):
        p.append(sum((-1) ** (k + 1) * (p[m - j] + (p[m - j - k] if j + k <= m else 0))
                     for k in range(1, m + 1) if (j := k * (3 * k - 1) // 2) <= m))
    return p[n]


def hook_length(lam: Partition, cell: tuple[int, int]) -> int:
    """Hook length of a box, given as a Cell or a plain (row, col) tuple:
    itself, the boxes to its right, and the boxes in its column on the leg
    side.  A cell outside the diagram raises PartitionError."""
    cell = Cell(*cell)
    if not lam.contains_cell(cell):
        raise PartitionError(f"cell {tuple(cell)} outside the diagram of {lam}")
    return hook_lengths(lam)[cell.row - 1][cell.col - 1]


def _hook_rows(lam: Partition) -> Iterator[Iterator[int]]:
    """Each row's hook lengths, lazily.  Box (i, j) has hook
    (part(i) - j) + (lam'_j - i) + 1 = (part(i) - i) + (lam'_j - j + 1),
    with lam'_j the length of column j."""
    cols = []  # lam'_j - j + 1 for j = 1..part(1)
    k = len(lam)
    for j in range(lam[0] if lam else 0):
        while lam[k - 1] <= j:
            k -= 1
        cols.append(k - j)
    return (map((p - i).__add__, cols[:p]) for i, p in enumerate(lam, 1))


def hook_lengths(lam: Partition) -> list[list[int]]:
    """Hook lengths of every box, as rows matching the diagram."""
    return [list(row) for row in _hook_rows(lam)]


def hook_product(lam: Partition) -> int:
    """Product of all hook lengths; 1 for the empty partition."""
    return prod(map(prod, _hook_rows(lam)))


def shifted_part_constants(lam: Partition) -> list[int]:
    """The shifted parts part(i) - i for i = 1..n, parts read as 0 past
    the last row: the constants of the g-polynomial's factors."""
    return [p - i for i, p in enumerate(lam, 1)] + [-i for i in range(len(lam) + 1, lam.size + 1)]


def syt_count(lam: Partition) -> int:
    """Number of standard Young tableaux of the shape, by Frobenius's
    determinantal formula n! * prod_{i<j} (l_i - l_j) / prod_i l_i!, where
    l_i = part(i) + k - i over the k rows.

    It reads no hook length, so it is an independent value against which
    the hook-length formula n!/H can be checked.  The division is asserted
    exact; a remainder would mean the formula was applied wrongly.
    """
    k = len(lam)
    ls = [p + k - i for i, p in enumerate(lam, 1)]
    num = factorial(lam.size) * prod(a - b for i, a in enumerate(ls) for b in ls[i + 1:])
    q, r = divmod(num, prod(factorial(a) for a in ls))
    if r:
        raise ArithmeticError(f"Frobenius formula for {lam} is not an integer")
    return q


def corner_sets(lam: Partition) -> CornerData:
    """In-corner rows, out-corner rows, and the corner-removed partitions."""
    if not lam:
        raise PartitionError("the empty partition has no corners")
    in_corners = tuple(i for i, (p, q) in enumerate(zip(lam, (*lam[1:], 0)), 1) if p > q)
    out_corners = (1,) + tuple(i + 1 for i in in_corners)
    removals = {i: _remove_corner(lam, i) for i in in_corners}
    return CornerData(in_corners, out_corners, removals)


def _remove_corner(lam: Partition, i: int) -> Partition:
    # trusted constructor: a partition less a corner box is a partition
    parts = list(lam)
    parts[i - 1] -= 1
    if parts[-1] == 0:
        parts.pop()
    return tuple.__new__(Partition, parts)


def single_box_additions(lam: Partition) -> tuple[Partition, ...]:
    """The partitions obtained by adding one box; adjoint to corner removal."""
    # trusted constructor: a box at the end of the first row, of a row
    # shorter than the one above, or in a new row leaves a partition
    out = []
    for i in range(1, len(lam) + 1):
        if i == 1 or lam[i - 2] > lam[i - 1]:
            parts = list(lam)
            parts[i - 1] += 1
            out.append(tuple.__new__(Partition, parts))
    out.append(tuple.__new__(Partition, (*lam, 1)))
    return tuple(out)
