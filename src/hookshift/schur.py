"""Schur-basis symmetric function arithmetic with exact coefficients.

Expansions are finite maps from partitions to exact coefficients that
add, and scale by a number: int, Fraction, or ExactPolynomial all work.
``scale`` multiplies integer coefficients by any of those.  The only
product ever needed is multiplication by the first power sum, which the
Pieri rule turns into pure bookkeeping on partitions, so Schur-basis
equality of the two sides of the main symmetric-function identity is a
dictionary comparison.  A second, independent check evaluates the
identity at one point: the parameter x at 1/3 and n variables at
1, ..., n, with the left side computed from power sums and elementary
values directly and each Schur function as a ratio of fraction-free
determinants (the bialternant formula).  One point is a spot check, not
a proof.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping

from .identities import _serialize_witness, shifted_part_constants
from .partitions import (
    Partition,
    enumerate_partitions,
    hook_product,
    single_box_additions,
)
from .polynomials import product_of_linear_factors, rising_binomial

# The parameter x at the oracle's evaluation point: not an integer, so no
# rising binomial vanishes there.  The variables there are 1, ..., n,
# distinct so that the Vandermonde determinant is nonzero.
ORACLE_X0 = Fraction(1, 3)


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
        return SchurExpansion({lam: v * c for lam, v in self.terms.items()})

    def map_coefficients(self, fn) -> "SchurExpansion":
        return SchurExpansion({lam: fn(c) for lam, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, SchurExpansion):
            return NotImplemented
        return self.terms == other.terms

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


def pieri_p1(a: SchurExpansion) -> SchurExpansion:
    """Multiply by the first power sum: each s_mu maps to the sum of s_lam
    over the partitions lam that add one box to mu.  Raises the degree by
    exactly one."""
    out: dict[Partition, object] = {}
    for mu, c in a.terms.items():
        for lam in single_box_additions(mu):
            out[lam] = out[lam] + c if lam in out else c
    return SchurExpansion(out)


def schur_lhs(n: int) -> SchurExpansion:
    """Sum over k of rising_binomial(k) * p1^k e_(n-k), in the Schur basis.

    Homogeneous of degree n with polynomial coefficients.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = SchurExpansion()
    for k in range(n + 1):
        term = SchurExpansion.unit(Partition((1,) * (n - k)))  # e_(n-k)
        for _ in range(k):
            term = pieri_p1(term)
        total = total + term.scale(rising_binomial(k))
    return total


def schur_rhs(n: int) -> SchurExpansion:
    """Sum over partitions of n of g(x+n) / (hook product) times s_lam.

    g(x+n) is built from its factors (x + c + n), one per constant c of g.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return SchurExpansion(
        {
            lam: product_of_linear_factors(c + n for c in shifted_part_constants(lam))
            * Fraction(1, hook_product(lam))
            for lam in enumerate_partitions(n)
        }
    )


def check_theorem_1_2(n: int, sides: tuple) -> dict | None:
    """Structural Schur-basis equality of the two sides of degree n, left
    first: None, or a failure's witness, both sides as JSON text under
    "lhs" and "rhs".  n is read only as the sides' degree; it stays first
    in all three Schur checks so that a call can be keyed by it.

    Schur functions are linearly independent, so coefficient-map equality
    is the correct notion of symmetric-function equality here.
    """
    if n < 0:
        raise ValueError(f"n = {n} is negative")
    lhs, rhs = sides
    if lhs == rhs:
        return None
    return {"lhs": json.dumps(lhs.serialize()), "rhs": json.dumps(rhs.serialize())}


def check_schur_recurrences(n: int, sides: tuple, prev: tuple) -> dict | None:
    """Both one-step recurrences at degree n: each side of the main identity
    equals its own x -> x-1 substitution plus p1 times that side in prev.

    Substitution acts coefficient-wise through polynomial shift by -1.  A
    failure's witness, shaped as check_theorem_1_2's, is the first failing
    side, rhs before lhs.
    """
    if n < 1:
        raise ValueError(f"n = {n}: the recurrences start at degree 1")
    (lhs, rhs), (prev_lhs, prev_rhs) = sides, prev
    for label, cur, before in (("rhs", rhs, prev_rhs), ("lhs", lhs, prev_lhs)):
        expect = cur.map_coefficients(lambda c: c.shift(-1)) + pieri_p1(before)
        if cur != expect:
            return {
                "lhs": json.dumps({"side": label, "value": cur.serialize()}),
                "rhs": json.dumps({"side": label, "value": expect.serialize()}),
            }
    return None


def det_bareiss(matrix: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free Bareiss (1968)
    elimination: every division is exact.  The 0x0 determinant is 1."""
    m = [list(row) for row in matrix]
    size = len(m)
    sign, prev = 1, 1
    for k in range(size):
        pivot = next((r for r in range(k, size) if m[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * prev


def schur_value(lam: Partition, xs: tuple[int, ...]) -> int:
    """s_lam at the distinct integers xs by the bialternant formula
    (Macdonald I.3): det(x_i^(lam_j + k - j)) / det(x_i^(k - j)) with k
    variables, an exact integer quotient.  Zero when lam has more than k
    rows."""
    k = len(xs)
    if len(lam) > k:
        return 0
    num = det_bareiss([[x ** (lam.part(j) + k - j) for j in range(1, k + 1)] for x in xs])
    vandermonde = det_bareiss([[x ** (k - j) for j in range(1, k + 1)] for x in xs])
    return num // vandermonde


def check_at_point(n: int, sides: tuple) -> bool:
    """Evaluate the main identity at x = ORACLE_X0 and the variables
    1, ..., n, and report whether both Schur sides equal the direct value.

    The direct value sum_k rising_binomial(k)(x) p1^k e_(n-k) reads no
    Schur basis: p1 is the sum of the variables and e_m are the
    coefficients of prod (x + x_i).  Each side is sum_lam c_lam(x) s_lam
    with s_lam from determinants, so this reads the term maps only
    through their values, and a wrong map fails it unless its error
    vanishes at this one point.
    """
    if n < 0:
        raise ValueError(f"n = {n} is negative")
    xs = tuple(range(1, n + 1))
    p1 = sum(xs)
    e = product_of_linear_factors(xs).coeffs  # e_(n-k) is the coefficient of x^k
    direct = sum(rising_binomial(k)(ORACLE_X0) * p1**k * e[k] for k in range(n + 1))
    return all(
        sum(c(ORACLE_X0) * schur_value(lam, xs) for lam, c in side.terms.items()) == direct
        for side in sides
    )
