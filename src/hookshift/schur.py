"""Schur-basis symmetric function arithmetic with exact coefficients.

Each side of the main symmetric-function identity is a plain dict from
the partitions of its degree to their nonzero Schur coefficients.  The
only product ever needed is multiplication by the first power sum, which
the Pieri rule turns into pure bookkeeping on partitions, so Schur-basis
equality of the two sides is a dictionary comparison.

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
formula), which need no pivoting (see ``det_bareiss``).  Both are scaled
by 3^n n!, so the comparison is of integers.  One point is a spot check,
not a proof.

The pass needs no rule against zero sides: the right side must have
p(n) terms, `equality` ties the left side to it, and the oracle's direct
value is a sum of positive terms.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial, prod
from typing import Mapping

from .partitions import (
    Partition,
    enumerate_partitions,
    hook_product,
    shifted_part_constants,
    single_box_additions,
)
from .polynomials import ExactPolynomial, product_of_linear_factors, serialize, times_linear_factors

# The parameter x at the oracle's evaluation point: not an integer, so no
# rising factor x + j vanishes there.  The variables there are 1, ..., n,
# distinct so that the Vandermonde determinant is nonzero.
ORACLE_X0 = Fraction(1, 3)


def serialize_side(side: Mapping) -> list[dict]:
    """A side's terms as JSON-ready dicts, partitions in reverse-lexicographic
    order: the form of witnesses and of ``hookshift schur-lhs``/``schur-rhs``."""
    return [{"partition": str(lam), "coefficient": serialize(side[lam])}
            for lam in sorted(side, reverse=True)]


def pieri_p1(terms: Mapping) -> dict:
    """Multiply a dict of Schur terms by the first power sum: each s_mu
    maps to the sum of s_lam over the partitions lam that add one box to
    mu.  Raises the degree by exactly one."""
    out: dict[Partition, object] = {}
    for mu, c in terms.items():
        for lam in single_box_additions(mu):
            out[lam] = out[lam] + c if lam in out else c
    return out


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
        table = ({Partition((1,) * m): 1}, *map(pieri_p1, table))
    return table


def schur_lhs(n: int, table: tuple[dict, ...] | None = None) -> dict:
    """n! times the sum over k of x(x+1)...(x+k-1)/k! * p1^k e_(n-k), in
    the Schur basis: the sum over k of (n!/k!) x(x+1)...(x+k-1) times the
    integer counts of p1^k e_(n-k), read from ``table``, degree n's
    ``p1_e_table``, which is built here when not given.

    A dict from each partition of n to its coefficient, an integer
    polynomial, none of them zero.
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
    return {lam: ExactPolynomial(cs) for lam, cs in coeffs.items()}


def schur_rhs(n: int) -> dict:
    """n! times the sum over partitions of n of g(x+n) / (hook product)
    times s_lam, as a dict from each partition lam of n to its coefficient
    f_lam g(x+n), f_lam = n!/H.

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
    return terms


def uncleared(side: Mapping, n: int) -> dict:
    """A side of degree n divided by n!: the identity as the paper states
    it, the form in which witnesses and the command line show a side."""
    inverse = Fraction(1, factorial(n))
    return {lam: c * inverse for lam, c in side.items()}


def check_theorem_1_2(n: int, sides: tuple) -> dict | None:
    """Structural Schur-basis equality of the two cleared sides of degree n,
    left first: None, or a failure's witness, both sides divided by n! as
    JSON text under "lhs" and "rhs".  n stays first in all three Schur
    checks so that a call can be keyed by it.

    Schur functions are linearly independent, so coefficient-map equality
    is the correct notion of symmetric-function equality here.
    """
    lhs, rhs = sides
    if lhs == rhs:
        return None
    return {"lhs": json.dumps(serialize_side(uncleared(lhs, n))),
            "rhs": json.dumps(serialize_side(uncleared(rhs, n)))}


def check_schur_recurrences(n: int, sides: tuple, prev: tuple) -> dict | None:
    """Both one-step recurrences at degree n >= 1: each cleared side T_n of the
    main identity equals T_n(x-1) + n p1 T_(n-1)(x), with T_(n-1) that
    side in prev.  Divided by n!, this is the paper's recurrence: each
    side equals its own x -> x-1 substitution plus p1 times the side one
    degree lower.

    An error in T_n constant in x cancels in T_n(x) - T_n(x-1): only the
    degree n+1 recurrences see it, so at a pass's top degree only
    `equality` and the oracle, where it runs, can.

    Substitution acts coefficient-wise through polynomial shift by -1.
    The expected side drops its zero coefficients, so that dict equality
    is Schur-basis equality.  A failure's witness, shaped as
    check_theorem_1_2's and divided by n! the same way, is the first
    failing side, rhs before lhs.
    """
    (lhs, rhs), (prev_lhs, prev_rhs) = sides, prev
    for label, cur, before in (("rhs", rhs, prev_rhs), ("lhs", lhs, prev_lhs)):
        expect = {lam: c.shift(-1) for lam, c in cur.items()}
        for lam, c in pieri_p1(before).items():
            expect[lam] = expect[lam] + c * n if lam in expect else c * n
        expect = {lam: c for lam, c in expect.items() if c}
        if cur != expect:
            return {
                "lhs": json.dumps({"side": label, "value": serialize_side(uncleared(cur, n))}),
                "rhs": json.dumps({"side": label, "value": serialize_side(uncleared(expect, n))}),
            }
    return None


def det_bareiss(matrix: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free Bareiss (1968)
    elimination without pivoting; the 0x0 determinant is 1.  The k-th
    pivot is the k-th leading minor.  On the oracle's matrices
    (x_i^(a_j)), with 0 < x_1 < ... < x_k and distinct a_j, every leading
    minor is a generalized Vandermonde determinant, nonzero by Descartes'
    rule of signs.  Elsewhere a zero pivot before the last two steps
    makes the next exact division raise ZeroDivisionError, and a later
    one leaves the determinant as the value: no value returned is wrong."""
    m = [list(row) for row in matrix]
    prev = 1
    for k in range(len(m)):
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return prev


def schur_value(lam: Partition, xs: tuple[int, ...]) -> int:
    """s_lam at the integers 0 < x_1 < ... < x_k, for lam of at most k
    rows (a partition of n has at most n), by the bialternant formula
    (Macdonald I.3): det(x_i^(lam_j + k - j)) over the Vandermonde
    determinant det(x_i^(k - j)) = prod over i < j of (x_i - x_j)."""
    k = len(xs)
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
    a, b = ORACLE_X0.numerator, ORACLE_X0.denominator
    xs = tuple(range(1, n + 1))
    p1 = sum(xs)
    e = product_of_linear_factors(xs).coeffs  # e_(n-k) is the coefficient of x^k
    nf = factorial(n)
    direct = sum(nf // factorial(k) * prod(range(a, a + k * b, b)) * b ** (n - k) * p1**k * e[k]
                 for k in range(n + 1))
    powers = [a**j * b ** (n - j) for j in range(n + 1)]
    lhs, rhs = sides
    values = {lam: schur_value(lam, xs) for lam in lhs.keys() | rhs.keys()}
    for side in sides:
        total = 0
        for lam, c in side.items():
            if len(c.coeffs) > n + 1:
                return False
            total += sum(cj * pj for cj, pj in zip(c.coeffs, powers)) * values[lam]
        if total != direct:
            return False
    return True
