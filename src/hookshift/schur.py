"""Schur-basis symmetric function arithmetic with exact coefficients.

Expansions are finite maps from partitions to exact coefficients that
add, and scale by a number: int, Fraction, or ExactPolynomial all work.
``scale`` multiplies integer coefficients by any of those.  The only
product ever needed is multiplication by the first power sum, which the
Pieri rule turns into pure bookkeeping on partitions, so Schur-basis
equality of the two sides of the main symmetric-function identity is a
dictionary comparison.

The identity is decided multiplied through by n!, the fraction-free idea
of Bareiss (1968) that the oracle's determinants follow too: at degree n
both sides are n! times the paper's, so every coefficient is a
polynomial with integer coefficients.  The right side's coefficient of
s_lam is f_lam g(x+n), with f_lam = n!/H_lam, and the left side is the
sum over k of (n!/k!) x(x+1)...(x+k-1) times the integer Schur counts of
p1^k e_(n-k).  A hook product that did not divide n! would leave the
exact Fraction n!/H there instead.  ``uncleared`` divides a side by n!
again, which is how witnesses and the command line show it.

A second, independent check evaluates the identity at one point: the
parameter x at 1/3 and n variables at 1, ..., n, with the left side
computed from power sums and elementary values directly and each Schur
function as a ratio of fraction-free determinants (the bialternant
formula).  Both are scaled by 3^n n!, so the comparison is of integers.
One point is a spot check, not a proof.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial, prod
from typing import Mapping

from .identities import _serialize_witness, shifted_part_constants
from .partitions import (
    Partition,
    enumerate_partitions,
    hook_product,
    single_box_additions,
)
from .polynomials import ExactPolynomial, product_of_linear_factors, times_linear_factors

# The parameter x at the oracle's evaluation point: not an integer, so no
# rising factor x + j vanishes there.  The variables there are 1, ..., n,
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


def _pieri_terms(terms: Mapping) -> dict:
    out: dict[Partition, object] = {}
    for mu, c in terms.items():
        for lam in single_box_additions(mu):
            out[lam] = out[lam] + c if lam in out else c
    return out


def pieri_p1(a: SchurExpansion) -> SchurExpansion:
    """Multiply by the first power sum: each s_mu maps to the sum of s_lam
    over the partitions lam that add one box to mu.  Raises the degree by
    exactly one."""
    return SchurExpansion(_pieri_terms(a.terms))


def p1_e_table(n: int, below: tuple[dict, ...] = ()) -> tuple[dict, ...]:
    """The Schur terms of p1^k e_(n-k) for k = 0..n, integer counts.

    Degree m's table is s_(1^m) = e_m followed by p1 times each entry of
    degree m-1's, since p1^k e_(m-k) = p1 * p1^(k-1) e_((m-1)-(k-1)).
    ``below`` is the table of a lower degree to build on, such as degree
    n-1's in a pass over successive degrees; by default the build starts
    from degree 0.
    """
    table = below
    for m in range(len(table), n + 1):
        table = ({Partition((1,) * m): 1}, *map(_pieri_terms, table))
    return table


def schur_lhs(n: int, table: tuple[dict, ...] | None = None) -> SchurExpansion:
    """n! times the sum over k of x(x+1)...(x+k-1)/k! * p1^k e_(n-k), in
    the Schur basis: the sum over k of (n!/k!) x(x+1)...(x+k-1) times the
    integer counts of p1^k e_(n-k), read from ``table``, degree n's
    ``p1_e_table``, which is built here when not given.

    Homogeneous of degree n, with integer polynomial coefficients.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if table is None:
        table = p1_e_table(n)
    nf = factorial(n)
    coeffs: dict[Partition, list[int]] = {}
    for k, term in enumerate(table):
        rising = times_linear_factors(ExactPolynomial((nf // factorial(k),)), range(k)).coeffs
        for lam, count in term.items():
            acc = coeffs.get(lam)
            if acc is None:
                acc = coeffs[lam] = [0] * (n + 1)
            for j, c in enumerate(rising):
                acc[j] += count * c
    return SchurExpansion({lam: ExactPolynomial(cs) for lam, cs in coeffs.items()})


def schur_rhs(n: int) -> SchurExpansion:
    """n! times the sum over partitions of n of g(x+n) / (hook product)
    times s_lam: the coefficient of s_lam is f_lam g(x+n), f_lam = n!/H.

    g(x+n) is built from its factors (x + c + n), one per constant c of g,
    onto the constant f_lam.  A hook product that does not divide n!
    leaves the Fraction n!/H in its place.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    nf = factorial(n)
    terms = {}
    for lam in enumerate_partitions(n):
        h = hook_product(lam)
        f = nf // h if nf % h == 0 else Fraction(nf, h)
        terms[lam] = times_linear_factors(ExactPolynomial((f,)),
                                          [c + n for c in shifted_part_constants(lam)])
    return SchurExpansion(terms)


def uncleared(side: SchurExpansion, n: int) -> SchurExpansion:
    """A side of degree n divided by n!: the identity as the paper states
    it, the form in which witnesses and the command line show a side."""
    return side.scale(Fraction(1, factorial(n)))


def check_theorem_1_2(n: int, sides: tuple) -> dict | None:
    """Structural Schur-basis equality of the two cleared sides of degree n,
    left first: None, or a failure's witness, both sides divided by n! as
    JSON text under "lhs" and "rhs".  n stays first in all three Schur
    checks so that a call can be keyed by it.

    Schur functions are linearly independent, so coefficient-map equality
    is the correct notion of symmetric-function equality here.
    """
    if n < 0:
        raise ValueError(f"n = {n} is negative")
    lhs, rhs = sides
    if lhs == rhs:
        return None
    return {"lhs": json.dumps(uncleared(lhs, n).serialize()),
            "rhs": json.dumps(uncleared(rhs, n).serialize())}


def check_schur_recurrences(n: int, sides: tuple, prev: tuple) -> dict | None:
    """Both one-step recurrences at degree n: each cleared side T_n of the
    main identity equals T_n(x-1) + n p1 T_(n-1)(x), with T_(n-1) that
    side in prev.  Divided by n!, this is the paper's recurrence: each
    side equals its own x -> x-1 substitution plus p1 times the side one
    degree lower.

    Substitution acts coefficient-wise through polynomial shift by -1.  A
    failure's witness, shaped as check_theorem_1_2's and divided by n!
    the same way, is the first failing side, rhs before lhs.
    """
    if n < 1:
        raise ValueError(f"n = {n}: the recurrences start at degree 1")
    (lhs, rhs), (prev_lhs, prev_rhs) = sides, prev
    for label, cur, before in (("rhs", rhs, prev_rhs), ("lhs", lhs, prev_lhs)):
        expect = cur.map_coefficients(lambda c: c.shift(-1)) + pieri_p1(before).scale(n)
        if cur != expect:
            return {
                "lhs": json.dumps({"side": label, "value": uncleared(cur, n).serialize()}),
                "rhs": json.dumps({"side": label, "value": uncleared(expect, n).serialize()}),
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
    variables, an exact integer quotient.  The denominator is the
    Vandermonde determinant, the product of x_i - x_j over i < j.  Zero
    when lam has more than k rows."""
    k = len(xs)
    if len(lam) > k:
        return 0
    num = det_bareiss([[x ** (lam.part(j) + k - j) for j in range(1, k + 1)] for x in xs])
    return num // prod(a - b for i, a in enumerate(xs) for b in xs[i + 1:])


def check_at_point(n: int, sides: tuple) -> bool:
    """Evaluate the cleared identity at x = ORACLE_X0 = a/b and the
    variables 1, ..., n, scaled by b^n, and report whether both Schur
    sides equal the direct value.

    The direct value, n! b^n times sum_k x(x+1)...(x+k-1)/k! p1^k e_(n-k),
    is sum_k (n!/k!) prod_(j<k) (a + j b) b^(n-k) p1^k e_(n-k), and reads
    no Schur basis: p1 is the sum of the variables and e_m are the
    coefficients of prod (x + x_i).  Each side is sum_lam c_lam(x) s_lam,
    and b^n c_lam(a/b) is sum_j c_j a^j b^(n-j), with s_lam from
    determinants, computed once per lam for both sides.  So this reads
    the term maps only through their values, and a wrong map fails it
    unless its error vanishes at this one point.  No true side has a
    coefficient of degree above n, so such a side fails too.
    """
    if n < 0:
        raise ValueError(f"n = {n} is negative")
    a, b = ORACLE_X0.numerator, ORACLE_X0.denominator
    xs = tuple(range(1, n + 1))
    p1 = sum(xs)
    e = product_of_linear_factors(xs).coeffs  # e_(n-k) is the coefficient of x^k
    nf = factorial(n)
    direct = sum(nf // factorial(k) * prod(range(a, a + k * b, b)) * b ** (n - k) * p1**k * e[k]
                 for k in range(n + 1))
    powers = [a**j * b ** (n - j) for j in range(n + 1)]
    lhs, rhs = sides
    values = {lam: schur_value(lam, xs) for lam in lhs.terms.keys() | rhs.terms.keys()}
    for side in sides:
        total = 0
        for lam, c in side.terms.items():
            if len(c.coeffs) > n + 1:
                return False
            total += sum(cj * pj for cj, pj in zip(c.coeffs, powers)) * values[lam]
        if total != direct:
            return False
    return True
