"""Schur-basis symmetric function arithmetic with exact coefficients.

Expansions are finite maps from partitions to coefficients in any exact
commutative ring: int, Fraction, or ExactPolynomial all work.  The only
product ever needed is multiplication by the first power sum, which the
Pieri rule turns into pure bookkeeping on partitions, so Schur-basis
equality of the two sides of the main symmetric-function identity is a
dictionary comparison.  A monomial-basis expansion through semistandard
tableau counts cross-checks the Kostka arithmetic.  It reads only the two
Schur term maps, so it is not an independent route to the identity.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping

from .identities import VerificationOutcome, _serialize_witness, g_poly
from .partitions import (
    Partition,
    enumerate_partitions,
    hook_product,
    single_box_additions,
)
from .polynomials import rising_binomial


class SchurExpansion:
    """Homogeneous linear combination of Schur functions.

    Zero coefficients are pruned on construction; all index partitions
    must have one common size (the degree).  The empty expansion has
    degree ``None``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Partition, object] = {}):
        self.terms = {Partition(lam): c for lam, c in terms.items() if c}
        degrees = {lam.size for lam in self.terms}
        if len(degrees) > 1:
            raise ValueError(f"mixed degrees {sorted(degrees)} in one expansion")

    @classmethod
    def unit(cls, lam: Partition) -> "SchurExpansion":
        return cls({Partition(lam): 1})

    @property
    def degree(self) -> int | None:
        for lam in self.terms:
            return lam.size
        return None

    def items(self):
        """Terms in reverse-lexicographic partition order."""
        return [(lam, self.terms[lam]) for lam in sorted(self.terms, reverse=True)]

    def __add__(self, other: "SchurExpansion") -> "SchurExpansion":
        if not isinstance(other, SchurExpansion):
            return NotImplemented
        a, b = self.degree, other.degree
        if a is not None and b is not None and a != b:
            raise ValueError(f"cannot add expansions of degrees {a} and {b}")
        out = dict(self.terms)
        for lam, c in other.terms.items():
            out[lam] = out[lam] + c if lam in out else c
        return SchurExpansion(out)

    def scale(self, c) -> "SchurExpansion":
        if not c:
            return SchurExpansion()
        return SchurExpansion({lam: v * c for lam, v in self.terms.items()})

    def map_coefficients(self, fn) -> "SchurExpansion":
        return SchurExpansion({lam: fn(c) for lam, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, SchurExpansion):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def serialize(self) -> list[dict]:
        return [
            {"partition": str(lam), "coefficient": _serialize_witness(c)}
            for lam, c in self.items()
        ]

    def __repr__(self) -> str:
        body = ", ".join(f"s[{lam}]*({c})" for lam, c in self.items())
        return f"SchurExpansion({body or '0'})"


class MonomialExpansion:
    """Linear combination of monomial symmetric functions, same contract as
    SchurExpansion but in the monomial basis."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Partition, object] = {}):
        self.terms = {Partition(mu): c for mu, c in terms.items() if c}

    def items(self):
        return [(mu, self.terms[mu]) for mu in sorted(self.terms, reverse=True)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialExpansion):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        body = ", ".join(f"m[{mu}]*({c})" for mu, c in self.items())
        return f"MonomialExpansion({body or '0'})"


def pieri_p1(a: SchurExpansion) -> SchurExpansion:
    """Multiply by the first power sum: each s_mu maps to the sum of s_lam
    over the partitions lam that add one box to mu.  Raises the degree by
    exactly one."""
    out: dict[Partition, object] = {}
    for mu, c in a.terms.items():
        for lam in single_box_additions(mu):
            out[lam] = out[lam] + c if lam in out else c
    return SchurExpansion(out)


def elementary_as_schur(k: int) -> SchurExpansion:
    """The k-th elementary symmetric function, i.e. the single-column Schur
    function s_(1^k)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return SchurExpansion.unit(Partition((1,) * k))


def schur_lhs(n: int) -> SchurExpansion:
    """Sum over k of rising_binomial(k) * p1^k e_(n-k), in the Schur basis.

    Homogeneous of degree n with polynomial coefficients.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = SchurExpansion()
    for k in range(n + 1):
        term = elementary_as_schur(n - k)
        for _ in range(k):
            term = pieri_p1(term)
        total = total + term.scale(rising_binomial(k))
    return total


def schur_rhs(n: int) -> SchurExpansion:
    """Sum over partitions of n of g(x+n) / (hook product) times s_lam."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return SchurExpansion(
        {
            lam: g_poly(lam).shift(n) * Fraction(1, hook_product(lam))
            for lam in enumerate_partitions(n)
        }
    )


def _schur_outcome(identity: str, *witness) -> VerificationOutcome:
    """A whole-degree outcome: a pass, or a failure with both sides."""
    lhs, rhs = (json.dumps(w) for w in witness) if witness else (None, None)
    return VerificationOutcome(
        identity=identity,
        partition=None,
        corner_index=None,
        status="fail" if witness else "pass",
        lhs=lhs,
        rhs=rhs,
    )


def check_theorem_1_2(n: int) -> VerificationOutcome:
    """Structural Schur-basis equality of the two sides at degree n.

    Schur functions are linearly independent, so coefficient-map equality
    is the correct notion of symmetric-function equality here.
    """
    if n < 0:
        raise ValueError(f"n = {n} is negative")
    lhs, rhs = schur_lhs(n), schur_rhs(n)
    if lhs == rhs:
        return _schur_outcome("THM_1_2")
    return _schur_outcome("THM_1_2", lhs.serialize(), rhs.serialize())


def check_schur_recurrences(n: int) -> VerificationOutcome:
    """Both one-step recurrences at degree n: each side of the main identity
    equals its own x -> x-1 substitution plus p1 times the previous degree.

    Substitution acts coefficient-wise through polynomial shift by -1.  A
    failure's witness is the first failing side, rhs before lhs.
    """
    if n < 1:
        raise ValueError(f"n = {n}: the recurrences start at degree 1")
    for label, side in (("rhs", schur_rhs), ("lhs", schur_lhs)):
        cur = side(n)
        expect = cur.map_coefficients(lambda c: c.shift(-1)) + pieri_p1(side(n - 1))
        if cur != expect:
            return _schur_outcome(
                "REC_3",
                {"side": label, "value": cur.serialize()},
                {"side": label, "value": expect.serialize()},
            )
    return _schur_outcome("REC_3")


def kostka(lam: Partition, mu: Partition) -> int:
    """Number of semistandard tableaux of shape lam and content mu, by
    exhaustive row-by-row enumeration, whose cost grows with the count."""
    lam, mu = Partition(lam), Partition(mu)
    if lam.size != mu.size:
        raise ValueError(f"|{lam}| = {lam.size} but |{mu}| = {mu.size}")
    if not lam:
        return 1
    rows = list(lam)
    values = len(mu)
    remaining = list(mu)  # how many of each value 1..values are left to place

    def fill(r: int, prev_row: list[int] | None) -> int:
        if r == len(rows):
            return 1
        row = [0] * rows[r]

        def place(col: int, left_min: int) -> int:
            if col == rows[r]:
                return fill(r + 1, row)
            lo = left_min if prev_row is None else max(left_min, prev_row[col] + 1)
            total = 0
            for v in range(lo, values + 1):
                if remaining[v - 1]:
                    remaining[v - 1] -= 1
                    row[col] = v
                    total += place(col + 1, v)  # rows weakly increase
                    remaining[v - 1] += 1
            return total

        return place(0, 1)

    return fill(0, None)


def to_monomial(a: SchurExpansion) -> MonomialExpansion:
    """Expand Schur terms into the monomial basis through Kostka numbers.

    Equal Schur expansions have equal images, so comparing two images
    cross-checks the Kostka arithmetic, not the Schur coefficients.
    """
    degree = a.degree
    out: dict[Partition, object] = {}
    if degree is None:
        return MonomialExpansion()
    shapes = list(enumerate_partitions(degree))
    for lam, c in a.terms.items():
        for mu in shapes:
            k = kostka(lam, mu)
            if k:
                add = c * k
                out[mu] = out[mu] + add if mu in out else add
    return MonomialExpansion(out)

