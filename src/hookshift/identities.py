"""Shifted-parts g-polynomials and the checkable identity catalog.

The g-polynomial of a partition of n is the monic degree-n product of
(x + part(i) - i) over i = 1..n, with parts read as 0 beyond the last
row.  The product runs to n, not to the number of rows; the extra
factors (x - i) are what make the difference recurrence close up.

Every identity in the catalog is decided in fully cleared polynomial or
integer form: denominators in x are multiplied out and hook products are
cleared to integers, so no rational-function arithmetic (and none of its
spurious poles) ever occurs.  The polynomial identities are compared
after cancelling the monic common factor of g, g(x+1) and every corner
removal's g, which each term of each side carries, so the comparison
decides the same equality.  Each check returns the two sides it
compares, and one table says how each identity reports them.  One
generator, ``outcomes``, runs the checks and decides every comparison,
for a sweep's work unit and for ``check_identity`` alike.

The six identities that weigh by hook ratios, THM_1_1, REC_1_2, REC_1_3,
THM_4_1, THM_4_2 and COR_4_4, clear the H/H_mu by D, the lcm of their
denominators in lowest terms, d_j = H_mu_j / gcd(H, H_mu_j).  For each
prime p, the power of p in D is the largest of v_p(H_mu_j) - v_p(H) and
0, so D = L / gcd(H, L) with L the lcm of the H_mu; the context computes
it so, with one lcm and one gcd.  Each weight
w_j = H * D / H_mu_j = (H / gcd(H, H_mu_j)) * (D / d_j) is then an
integer.  Each d_j divides H_mu_j, so D divides prod H_mu, and clearing
by prod H_mu instead would multiply every term of both sides by the same
positive integer prod H_mu / D.  So the two clearings decide the same
equality, clean or under a fault.  A report shows the sides cleared by
prod H_mu, multiplying that integer back in, or with the clearing
divided out (THM_4_2).

The five polynomial identities compare their sides as integers: each
side is held as its value at one power of two X (Kronecker
substitution), and X is large enough that equal values mean equal
polynomials.  With k in-corner rows, u unshared indices, and B at least
2 plus the largest absolute constant of any factor involved, every side
is a sum of at most max(k, 2) terms, each an integer of absolute value
at most M = max(D, w_j) times at most u + k + 2 monic linear factors:

    identity        terms per side    linear factors per term
    THM_1_1         2 | k             u + 1
    QUOTIENT_4_2    1 | 1             u + 2
    THM_4_1         k | 2             u + k | u + k + 2
    EQ_4_6          1 | 1             u + k + 2
    THM_4_2         k | 2             k - 1 | k + 1

A factor (x + a) has coefficients of absolute values summing to
1 + |a| <= B, that sum (the l1 norm) is submultiplicative, and X is
chosen above twice max(k, 2) * M * B**(u + k + 2), so each side's l1
norm is below X / 2.  If two sides P != Q had P(X) == Q(X), the lowest
nonzero coefficient d of P - Q, at x**j, would give
0 == (P - Q)(X) == X**j * (d + X * r) for an integer r, so X would
divide d; but 0 < |d| <= ||P - Q||_1 < X.  So comparing the two values
decides the polynomial identity exactly; a report reads a side back as
a polynomial from its balanced base-X digits, and only then multiplies
it by prod H_mu / D, since that multiple of the value at X can lie past
the bound that reading back needs.

CORNER_RATIO_2_2 compares, at a = i - part(i) for in-corner row i,
H * g_mu(a) with H_mu * g(a+1), both divided by F(a), and its report
multiplies F(a) back in.  F(a) is nonzero under any single fault, which
changes at most one value of each column of constants that decides
whether an index is shared (g's, g(x+1)'s next and each removal's).
Clean, the column of a row that is not in-corner holds one value, g's
constant, so F keeps such an index only when the fault missed its
column, and then with its clean constant.  The column of an in-corner
row i < n holds part(i) - i (g, and each removal at another row),
part(i+1) - i (g(x+1)) and part(i) - 1 - i (the removal at row i); two
distinct values stay when any one of them goes (with no other removal,
lam is a rectangle of width at least 2, and part(i+1) = 0), so that
index is never shared, and row n lies past the indices F ranges over.
F's constants are therefore clean constants of
rows other than i, and differ from c_i = part(i) - i, as the shifted
parts part(j) - j strictly decrease.

No check passes on two zero sides: a comparison passes only when its
sides are equal and nonzero, so a bug that zeroes a side fails the sweep
by itself.  No context, clean or under one fault, has two zero sides.
Every hook product, f = syt_count and hook weight is positive, D >= 1
and every w_j >= 1, so n * D (REC_1_2, REC_1_3, COR_4_4) and f * H
(REMARK_DN) are positive.  g stays monic of degree n, so g(x+1) - g(x)
has leading coefficient n (THM_1_1), and its n-fold difference is n!
(REMARK_DN), which that check takes by proof instead of from g's values.
At x = -(part(i) - i) the corner sum is row i's weight times nonzero
factors, as those constants are distinct (THM_4_1, THM_4_2).
QUOTIENT_4_2 and EQ_4_6 compare products of monic linear factors.
CORNER_RATIO_2_2's g-values sit off every root, as the shifted parts
part(j) - j strictly decrease and row i is a corner, and a fault touches
one of its sides only; dividing both by the nonzero F(a) keeps them off
zero.  A nonzero polynomial's value at X is nonzero, as X cannot divide
its lowest nonzero coefficient.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import factorial, gcd, lcm, prod
from typing import Iterable, Optional, Union

from .partitions import (
    CornerData,
    Partition,
    PartitionError,
    corner_sets,
    hook_length,
    hook_product,
    shifted_part_constants,
    syt_count,
)
from .polynomials import ExactPolynomial, product_of_linear_factors, serialize, times_linear_factors


class IdentityId(enum.Enum):
    """Identifiers of the checkable identities.

    THM_1_1           difference of g over the hook product equals the
                      corner sum of g over hook products
    REC_1_2           tableau-count recurrence over corner removals
    REC_1_3           n over the hook product equals the corner sum of
                      hook-product reciprocals
    REMARK_DN         n-fold difference of g/H is the tableau count,
                      cleared: the n-fold difference of g, n! as g is
                      monic of degree n, equals f * H, with f from
                      Frobenius's formula (no hook lengths)
    CORNER_RATIO_2_2  per corner: hook-product ratio equals the g-value
                      ratio at the corner's shifted index
    QUOTIENT_4_2      per corner: the removed partition's g-polynomial as
                      a cleared quotient of the original's
    THM_4_1           corner sum with 1/(x + part(i) - i) weights against
                      the g-quotient, cleared
    EQ_4_6            (x - n) g(x+1) / g(x) as the out/in corner factor
                      quotient, cleared
    THM_4_2           same corner sum against the corner factor quotient,
                      cleared
    COR_4_4           hook-product ratios over corner removals sum to n
    """

    THM_1_1 = "THM_1_1"
    REC_1_2 = "REC_1_2"
    REC_1_3 = "REC_1_3"
    REMARK_DN = "REMARK_DN"
    CORNER_RATIO_2_2 = "CORNER_RATIO_2_2"
    QUOTIENT_4_2 = "QUOTIENT_4_2"
    THM_4_1 = "THM_4_1"
    EQ_4_6 = "EQ_4_6"
    THM_4_2 = "THM_4_2"
    COR_4_4 = "COR_4_4"


# a reported side: a polynomial or an exact number
Witness = Union[ExactPolynomial, int, Fraction]


@dataclass
class VerificationOutcome:
    """Result of one identity check at one partition (and corner, if
    any), with its two sides as a report shows them."""

    identity: str
    partition: Partition
    corner_index: Optional[int]
    status: str  # "pass" | "fail"
    lhs: Witness
    rhs: Witness

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "partition": str(self.partition),
            "corner_index": self.corner_index,
            "status": self.status,
            "lhs": serialize(self.lhs),
            "rhs": serialize(self.rhs),
        }


@dataclass(frozen=True)
class Fault:
    """Single deliberate perturbation, used to prove the checks can fail.

    kind "hook" bumps the hook length of one cell of one partition in its
    hook product; kind "g-factor" bumps the constant of one linear factor
    of one partition's g-polynomial.  ``row``, ``col``, ``index`` and
    ``delta`` must be ints (not bools), ``delta`` must be nonzero, and a
    hook fault's cell must lie in the diagram (``hook_length`` rejects
    it otherwise) with its hook length left positive.
    """

    kind: str
    partition: Partition
    row: int = 0
    col: int = 0
    index: int = 0
    delta: int = 1

    def __post_init__(self):
        object.__setattr__(self, "partition", Partition(self.partition))
        if self.kind not in ("hook", "g-factor"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        for name in ("row", "col", "index", "delta"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"fault {name} must be an integer, got {v!r}")
        if self.delta == 0:
            raise ValueError("a fault with delta 0 perturbs nothing")
        if self.kind == "hook":
            if hook_length(self.partition, (self.row, self.col)) + self.delta <= 0:
                raise ValueError(
                    f"delta {self.delta} makes the hook length of ({self.row},{self.col}) "
                    "nonpositive"
                )
        if self.kind == "g-factor" and not 1 <= self.index <= self.partition.size:
            raise ValueError(f"factor index {self.index} outside 1..{self.partition.size}")

    def to_json(self) -> dict:
        out = {"kind": self.kind, "partition": str(self.partition), "delta": self.delta}
        if self.kind == "hook":
            out["cell"] = [self.row, self.col]
        else:
            out["index"] = self.index
        return out


def g_poly(lam: Partition) -> ExactPolynomial:
    """Monic degree-n product of (x + part(i) - i), i = 1..n; 1 for n = 0."""
    return product_of_linear_factors(shifted_part_constants(lam))


@dataclass(frozen=True)
class PartitionContext:
    """Everything the identity checks read about one nonempty partition.

    ``n`` is the size of ``lam``.  ``constants`` holds the constants c_i
    of g's factors (x + c_i), fault substituted, ``mu_h`` holds the hook
    products of the corner removals, in in-corner row order, and ``h`` is
    the hook product of ``lam``.
    ``den_lcm`` is D, the lcm of the denominators of the H/H_mu in lowest
    terms.  The polynomials are held as their values at the power of two
    ``x`` (the X of the module docstring), from which ``decode`` reads
    them back.  ``g``, ``g_next`` (g(x+1)) and ``mu_g`` are held divided
    by their common factor F, the product of (x + c_i) over ``common``:
    the c_i of each index i < n where g's i-th factor is also g(x+1)'s
    (i+1)-th and every removal's i-th.  Unfaulted, that is every row but
    the k in-corner rows, so about k + 1 factors stay in g and g(x+1), and
    k in each removal's g; ``next_constants`` and ``mu_unshared`` hold the
    constants of those left in g(x+1) and in each removal's g, which
    CORNER_RATIO_2_2 reads.  ``weights`` holds each removal's hook
    weight, H/H_mu cleared by D, which THM_1_1, the hook sum and
    ``corner_sum`` read.
    ``in_prod`` and ``out_prod`` are the products of (x + part(i) - i)
    over the in-corner rows, whose constants are ``in_constants``, and of
    (x + part(i) - i + 1) over the out-corner rows; ``corner_sum`` is the
    THM_4_1 / THM_4_2 left side, the sum over in-corner rows of
    H/H_mu / (x + part(i) - i), cleared by ``in_prod`` and D.
    ``x`` is chosen so that every side the checks build from these
    values has an l1 norm below x / 2, so equal values there are equal
    polynomials.
    """

    lam: Partition
    n: int
    corners: CornerData
    constants: list[int]
    in_constants: tuple[int, ...]
    common: list[int]
    h: int
    x: int
    g: int
    g_next: int
    next_constants: list[int]
    mu_h: tuple[int, ...]
    mu_unshared: list[list[int]]
    mu_g: tuple[int, ...]
    den_lcm: int
    weights: tuple[int, ...]
    in_prod: int
    out_prod: int
    corner_sum: int

    def decode(self, value: int) -> ExactPolynomial:
        """The polynomial whose value at ``x`` is ``value``, read off as
        balanced base-``x`` digits, lowest first.  Exact for every value
        whose polynomial has an l1 norm below x / 2."""
        x = self.x
        shift, half = x.bit_length() - 1, x >> 1
        coeffs = []
        while value:
            digit = value & (x - 1)
            if digit >= half:
                digit -= x
            coeffs.append(digit)
            value = (value - digit) >> shift
        return ExactPolynomial(coeffs)


class Workspace:
    """Memo of hook products and g-factor constants for one unit of work.

    Every value the checks read is computed once here, on first use, and
    that is the one place a fault substitutes its perturbed value: each
    partition's clean hook product and g-factor constants are built
    first, and a fault on that partition then swaps one of them, so a
    whole sweep can be rerun against a single wrong input.  Each
    context's common factor is read off those substituted constants, so
    a fault can only shrink it.  Drop the workspace to drop its memo.
    """

    def __init__(self, fault: Fault | None = None):
        self.fault = fault
        self._inputs_of: dict[Partition, tuple[int, list[int]]] = {}

    def _inputs(self, lam: Partition) -> tuple[int, list[int]]:
        """The hook product and the g-factor constants, fault substituted."""
        h, constants = hook_product(lam), shifted_part_constants(lam)
        f = self.fault
        if f is not None and f.partition == lam:
            if f.kind == "hook":
                # the faulted cell's hook divides H, so this swap is exact
                hook = hook_length(lam, (f.row, f.col))
                h = h // hook * (hook + f.delta)
            else:
                constants[f.index - 1] += f.delta
        return h, constants

    def _removal(self, mu: Partition) -> tuple[int, list[int]]:
        hit = self._inputs_of.get(mu)
        if hit is None:
            hit = self._inputs_of[mu] = self._inputs(mu)
        return hit

    def context(self, lam: Partition) -> PartitionContext:
        """The context of a nonempty partition."""
        n = lam.size
        corners = corner_sets(lam)
        in_constants = tuple(lam[i - 1] - i for i in corners.in_corners)
        out_constants = [lam.part(i) - i + 1 for i in corners.out_corners]
        h, c = self._inputs(lam)
        mu_h, mu_c = zip(*map(self._removal, corners.removals.values()))
        # index k + 1 is shared when its column, g's k-th constant (0-based),
        # g(x+1)'s next one and each removal's k-th, holds a single value
        m = len(mu_c) + 2
        unshared = [k for k, col in enumerate(zip(c, [b + 1 for b in c[1:]], *mu_c))
                if col.count(col[0]) < m]
        # D, the lcm of the reduced denominators of the H/H_mu, clears every
        # hook weight to the integer h * D / H_mu; prime by prime, it is the
        # lcm of the H_mu over its gcd with h
        d = lcm(*mu_h)
        d //= gcd(h, d)
        hd = h * d
        weights = tuple(map(hd.__floordiv__, mu_h))
        k = len(mu_h)
        # X > 2 * max(k, 2) * max(D, w) * B**(u + k + 2), the bound of the
        # module docstring; B covers every constant compared, shifted by 1.
        # The corner constants part(i) - i and part(j) - j + 1 are read
        # from lam's parts, which no fault touches, and lie in [-n, n], so
        # n covers them
        bound = 2 + max(map(abs, chain(c, *mu_c, (n,))))
        x = 1 << ((max(k, 2) * max(d, *weights)).bit_length()
                  + (len(unshared) + k + 3) * bound.bit_length() + 2)
        # corner_sum gains one term per in-corner row while in_prod gains
        # that row's factor (x + a), which every earlier term also takes
        p, s = 1, 0
        for a, w in zip(in_constants, weights):
            s = s * (x + a) + w * p
            p *= x + a
        # g keeps its unshared factors and its last, (x + c_n); g(x+1)
        # keeps its first and the one after each unshared index; each
        # removal's g keeps its unshared factors
        next_c = [c[0] + 1] + [c[k + 1] + 1 for k in unshared]
        mu_u = [[c_mu[k] for k in unshared] for c_mu in mu_c]
        return PartitionContext(
            lam,
            n,
            corners,
            c,
            in_constants,
            [c[k] for k in range(n - 1) if k not in unshared],
            h,
            x,
            prod(map(x.__add__, [c[k] for k in unshared] + [c[-1]])),
            prod(map(x.__add__, next_c)),
            next_c,
            mu_h,
            mu_u,
            tuple([prod(map(x.__add__, c_mu)) for c_mu in mu_u]),
            d,
            weights,
            p,
            prod(map(x.__add__, out_constants)),
            s,
        )


def _check_thm_1_1(ctx: PartitionContext):
    rhs = sum(w * g_mu for w, g_mu in zip(ctx.weights, ctx.mu_g))
    return [(None, (ctx.g_next - ctx.g) * ctx.den_lcm, rhs)]


def _cleared_hook_sum(ctx: PartitionContext):
    """n / H == sum of 1 / H_mu, cleared by H and D.  Every hook product is
    positive, so REC_1_2 (divided by (n-1)!) and COR_4_4 (divided by H)
    hold exactly when these two are equal."""
    return [(None, ctx.n * ctx.den_lcm, sum(ctx.weights))]


def _check_remark_dn(ctx: PartitionContext):
    """Cleared by H: the n-fold difference of g against f * H, with f from
    Frobenius's formula, which reads no hook length.

    With m = len(constants), g is the monic degree-m product of the
    (x + c_i), and its n-fold difference at 0 is the binomial sum of its
    values, sum over k = 0..n of (-1)^(n-k) C(n,k) g(k).  When m == n
    that is n! for every value of the c_i: the n-th difference of x^n is
    n! and every lower power's vanishes.  A hook fault leaves the c_i
    alone and a g-factor fault changes one of them, never m, so on every
    context the workspace builds that sum is n!.  A context with m != n
    takes 0, which fails against f * H > 0, where the sum could happen to
    equal f * H; so this form fails wherever the sum does.
    """
    return [(None, factorial(ctx.n) if len(ctx.constants) == ctx.n else 0,
             syt_count(ctx.lam) * ctx.h)]


def _check_corner_ratio_2_2(ctx: PartitionContext):
    # at a = i - part(i), H * g_mu(a) against H_mu * g(a+1), both divided
    # by F(a)
    h, nxt = ctx.h, ctx.next_constants
    out = []
    for i, c_i, h_mu, c_mu in zip(ctx.corners.in_corners, ctx.in_constants, ctx.mu_h,
                                  ctx.mu_unshared):
        a = -c_i
        out.append((i, h * prod(map(a.__add__, c_mu)), h_mu * prod(map(a.__add__, nxt))))
    return out


def _check_quotient_4_2(ctx: PartitionContext):
    x, n = ctx.x, ctx.n
    return [(i, g_mu * (x + c) * (x - n), ctx.g * (x + c - 1))
            for i, c, g_mu in zip(ctx.corners.in_corners, ctx.in_constants, ctx.mu_g)]


def _check_thm_4_1(ctx: PartitionContext):
    x = ctx.x
    rhs = (ctx.g * x - ctx.g_next * (x - ctx.n)) * ctx.in_prod * ctx.den_lcm
    return [(None, ctx.corner_sum * ctx.g, rhs)]


def _check_eq_4_6(ctx: PartitionContext):
    return [(None, ctx.g_next * (ctx.x - ctx.n) * ctx.in_prod, ctx.g * ctx.out_prod)]


def _check_thm_4_2(ctx: PartitionContext):
    return [(None, ctx.corner_sum, (ctx.x * ctx.in_prod - ctx.out_prod) * ctx.den_lcm)]


def _as_compared(ctx: PartitionContext, corner, lhs, rhs):
    return lhs, rhs


def _times_hook_scale(ctx: PartitionContext, corner, lhs, rhs):
    # cleared by prod H_mu: each side cleared by D times prod H_mu / D.  A
    # zero D, which only a bug makes, is read as 1, so that the failure is
    # reported, not raised
    s = prod(ctx.mu_h) // (ctx.den_lcm or 1)
    return lhs * s, rhs * s


def _times_f_at_corner(ctx: PartitionContext, corner, lhs, rhs):
    # both sides times F(a), the products over every constant
    a = corner - ctx.lam[corner - 1]
    f = prod(map(a.__add__, ctx.common))
    return lhs * f, rhs * f


def _times_common(ctx: PartitionContext, corner, lhs, rhs):
    # read back and multiplied by F, each side takes its full form
    return (times_linear_factors(ctx.decode(lhs), ctx.common),
            times_linear_factors(ctx.decode(rhs), ctx.common))


def _times_common_and_hook_scale(ctx: PartitionContext, corner, lhs, rhs):
    # scaled after decoding: the scaled value at x could exceed the bound
    # that decoding needs
    return tuple(times_linear_factors(p, ctx.common)
                 for p in _times_hook_scale(ctx, corner, ctx.decode(lhs), ctx.decode(rhs)))


def _tableau_counts(ctx: PartitionContext, corner, lhs, rhs):
    # n!/H against the sum of (n-1)!/H_mu, Fractions under a hook fault
    n = ctx.n
    return (Fraction(factorial(n), ctx.h),
            sum(Fraction(factorial(n - 1), h) for h in ctx.mu_h))


def _hook_ratio_sum(ctx: PartitionContext, corner, lhs, rhs):
    return sum((Fraction(ctx.h, h) for h in ctx.mu_h), start=Fraction(0)), ctx.n


def _hooks_divided_out(ctx: PartitionContext, corner, lhs, rhs):
    # the right side becomes the bare quotient numerator; a zero D, which
    # only a bug makes, stays in, so that the failure is reported
    return tuple(ctx.decode(v) * Fraction(1, ctx.den_lcm or 1) for v in (lhs, rhs))


# each identity's check, returning (corner, lhs, rhs) with the sides as
# compared, and how a report shows those sides
_CHECKERS = {
    IdentityId.THM_1_1: (_check_thm_1_1, _times_common_and_hook_scale),
    IdentityId.REC_1_2: (_cleared_hook_sum, _tableau_counts),
    IdentityId.REC_1_3: (_cleared_hook_sum, _times_hook_scale),
    IdentityId.REMARK_DN: (_check_remark_dn, _as_compared),
    IdentityId.CORNER_RATIO_2_2: (_check_corner_ratio_2_2, _times_f_at_corner),
    IdentityId.QUOTIENT_4_2: (_check_quotient_4_2, _times_common),
    IdentityId.THM_4_1: (_check_thm_4_1, _times_common_and_hook_scale),
    IdentityId.EQ_4_6: (_check_eq_4_6, _times_common),
    IdentityId.THM_4_2: (_check_thm_4_2, _hooks_divided_out),
    IdentityId.COR_4_4: (_cleared_hook_sum, _hook_ratio_sum),
}


def outcomes(identities: tuple[IdentityId, ...], contexts: Iterable[PartitionContext],
             counts: list[int], capture: bool):
    """Run the check of each of ``identities`` on each of ``contexts``, the
    one place where a comparison is decided: its two sides pass only when
    they are equal and nonzero (see the module docstring).  The k-th
    identity's comparisons are added to ``counts[k]``.  Yields (k,
    outcome) for each failure, and for each pass too when ``capture`` is
    set, with the sides as the identity's report shows them."""
    checks = [(k, identity.value, *_CHECKERS[identity])
              for k, identity in enumerate(identities)]
    for ctx in contexts:
        for k, name, check, report in checks:
            results = check(ctx)
            counts[k] += len(results)
            for corner, lhs, rhs in results:
                if (ok := lhs == rhs != 0) and not capture:
                    continue
                yield k, VerificationOutcome(name, ctx.lam, corner, "pass" if ok else "fail",
                                             *report(ctx, corner, lhs, rhs))


def check_identity(identity: IdentityId, lam: Partition,
                   fault: Fault | None = None) -> list[VerificationOutcome]:
    """Check one identity at one partition, with ``fault`` injected if
    given: one outcome, or one per corner row for the per-corner
    identities, each with both of its reported sides."""
    if not isinstance(identity, IdentityId):
        raise TypeError(f"expected IdentityId, got {identity!r}")
    if not isinstance(lam, Partition):
        raise TypeError(f"expected Partition, got {lam!r}")
    if fault is not None and not isinstance(fault, Fault):
        raise TypeError(f"expected Fault or None, got {fault!r}")
    if not lam:
        raise PartitionError(f"{identity.value} needs a nonempty partition")
    contexts = [Workspace(fault).context(lam)]
    return [outcome for _, outcome in outcomes((identity,), contexts, [0], True)]
