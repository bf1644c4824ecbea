"""Shifted-parts g-polynomials and the checkable identity catalog.

The g-polynomial of a partition of n is the monic degree-n product of
(x + part(i) - i) over i = 1..n, with parts read as 0 beyond the last
row.  The product runs to n, not to the number of rows; the extra
factors (x - i) are what make the difference recurrence close up.

Every identity in the catalog is decided in fully cleared polynomial or
integer form: denominators in x are multiplied out and hook products are
cleared to integers, so no rational-function arithmetic (and none of its
spurious poles) ever occurs.  Witnesses are captured for failures, and
for passes on request.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Optional, Union

from .partitions import (
    Cell,
    CornerData,
    Partition,
    PartitionError,
    corner_sets,
    hook_length,
    hook_lengths,
    hook_product,
    syt_count,
)
from .polynomials import (
    ExactPolynomial,
    ONE,
    X,
    difference,
    linear,
    product_of_linear_factors,
    times_linear_factors,
)


class IdentityId(enum.Enum):
    """Identifiers of the checkable identities.

    THM_1_1           difference of g over the hook product equals the
                      corner sum of g over hook products
    REC_1_2           tableau-count recurrence over corner removals
    REC_1_3           n over the hook product equals the corner sum of
                      hook-product reciprocals
    REMARK_DN         n-fold difference of g/H is the tableau count,
                      cleared: the n-fold difference of g equals f * H,
                      with f from Frobenius's formula (no hook lengths)
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


# a captured side: a polynomial, an exact number, pre-rendered text, or absent
Witness = Union["ExactPolynomial", int, Fraction, str, None]


def _serialize_witness(v: Witness):
    if v is None or isinstance(v, str):
        return v
    if isinstance(v, ExactPolynomial):
        return [[k, s] for k, s in v.serialize()]
    f = Fraction(v)
    return f"{f.numerator}/{f.denominator}"


@dataclass
class VerificationOutcome:
    """Result of one identity check at one partition (and corner, if any).

    ``lhs``/``rhs`` hold the compared sides: always for failures, for
    passes only when witness capture was requested.
    """

    identity: str
    partition: Optional[Partition]
    corner_index: Optional[int]
    status: str  # "pass" | "fail"
    lhs: Witness = None
    rhs: Witness = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "partition": str(self.partition) if self.partition is not None else None,
            "corner_index": self.corner_index,
            "status": self.status,
            "lhs": _serialize_witness(self.lhs),
            "rhs": _serialize_witness(self.rhs),
        }


@dataclass(frozen=True)
class Fault:
    """Single deliberate perturbation, used to prove the checks can fail.

    kind "hook" bumps the hook length of one cell of one partition before
    the hook product is taken; kind "g-factor" bumps the constant of one
    linear factor of one partition's g-polynomial.  ``delta`` must be
    nonzero, and a hook fault must leave the hook length positive.
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
        if self.delta == 0:
            raise ValueError("a fault with delta 0 perturbs nothing")
        if self.kind == "hook":
            cell = Cell(self.row, self.col)
            if not self.partition.contains_cell(cell):
                raise ValueError(f"cell ({self.row},{self.col}) outside {self.partition}")
            if hook_length(self.partition, cell) + self.delta <= 0:
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


def shifted_part_constants(lam: Partition) -> list[int]:
    """The constants part(i) - i for i = 1..n of the g-polynomial factors."""
    n = lam.size
    return [lam.part(i) - i for i in range(1, n + 1)]


def g_poly(lam: Partition) -> ExactPolynomial:
    """Monic degree-n product of (x + part(i) - i), i = 1..n; 1 for n = 0."""
    return product_of_linear_factors(shifted_part_constants(lam))


@dataclass(frozen=True)
class PartitionContext:
    """Everything the identity checks read about one nonempty partition.

    ``h`` and ``g`` are the hook product and g-polynomial of ``lam``,
    ``g_next`` is g(x+1), and ``mu_h``/``mu_g`` hold the same two values
    for each corner removal, in in-corner row order.  ``mu_h_prod`` is the
    product of ``mu_h``; ``in_prod`` and ``out_prod`` are the products of
    (x + part(i) - i) over the in-corner rows and of (x + part(i) - i + 1)
    over the out-corner rows; ``corner_sum`` is the THM_4_1 / THM_4_2 left
    side, the sum over in-corner rows of H/H_mu / (x + part(i) - i),
    cleared by ``in_prod`` and ``mu_h_prod``.
    """

    lam: Partition
    corners: CornerData
    h: int
    g: ExactPolynomial
    g_next: ExactPolynomial
    mu_h: tuple[int, ...]
    mu_g: tuple[ExactPolynomial, ...]
    mu_h_prod: int
    in_prod: ExactPolynomial
    out_prod: ExactPolynomial
    corner_sum: ExactPolynomial


class Workspace:
    """Memo of hook products, g-polynomials and tail products for one
    unit of work.

    Every value the checks read is computed once here, on first use, and
    that is the one place a fault substitutes its perturbed value (into
    the hook lengths or g-factor constants, before anything is built), so
    a whole sweep can be rerun against a single wrong input.  Drop the
    workspace to drop its memo.
    """

    def __init__(self, fault: Fault | None = None):
        self.fault = fault
        self._values: dict[Partition, tuple[int, ExactPolynomial]] = {}
        self._tails: dict[tuple[int, int], ExactPolynomial] = {}
        self._context: PartitionContext | None = None

    def _inputs(self, lam: Partition) -> tuple[int, list[int]]:
        """The hook product and the g-factor constants, fault substituted."""
        f = self.fault
        constants = shifted_part_constants(lam)
        if f is None or f.partition != lam:
            return hook_product(lam), constants
        hooks = hook_lengths(lam)
        if f.kind == "hook":
            hooks[f.row - 1][f.col - 1] += f.delta
        else:
            constants[f.index - 1] += f.delta
        return prod(h for row in hooks for h in row), constants

    def _g(self, constants: list[int], shift: int) -> ExactPolynomial:
        """prod (x + c_i + shift) over the constants c_1..c_n.  The longest
        trailing run with c_i = -i, shared by every partition of the same
        length and size, comes from a memo of tail products prod (x - j),
        j = a..b; a faulted constant ends the run, so the fault still
        reaches the product."""
        a = len(constants)
        while a and constants[a - 1] == -a:
            a -= 1
        key = (a + 1 - shift, len(constants) - shift)
        tail = self._tails.get(key)
        if tail is None:
            tail = self._tails[key] = product_of_linear_factors(range(-key[0], -key[1] - 1, -1))
        return times_linear_factors(tail, [c + shift for c in constants[:a]])

    def _hook_and_g(self, lam: Partition) -> tuple[int, ExactPolynomial]:
        hit = self._values.get(lam)
        if hit is None:
            h, constants = self._inputs(lam)
            hit = self._values[lam] = h, self._g(constants, 0)
        return hit

    def context(self, lam: Partition) -> PartitionContext:
        """The context of a nonempty partition; consecutive calls for the
        same partition share one instance."""
        if self._context is None or self._context.lam != lam:
            corners = corner_sets(lam)
            h, constants = self._inputs(lam)
            removed = [self._hook_and_g(mu) for mu in corners.removal_list]
            mu_h = tuple(h_mu for h_mu, _ in removed)
            big = prod(mu_h)
            # corner_sum gains one term per in-corner row while in_prod
            # gains that row's factor, which every earlier term also takes
            in_prod, corner_sum = ONE, ExactPolynomial()
            for i, h_mu in zip(corners.in_corners, mu_h):
                factor = linear(lam.part(i) - i)
                corner_sum = corner_sum * factor + in_prod * (h * (big // h_mu))
                in_prod = in_prod * factor
            self._context = PartitionContext(
                lam,
                corners,
                h,
                self._g(constants, 0),
                self._g(constants, 1),
                mu_h,
                tuple(g_mu for _, g_mu in removed),
                big,
                in_prod,
                product_of_linear_factors(lam.part(i) - i + 1 for i in corners.out_corners),
                corner_sum,
            )
        return self._context


def _sides(passed: bool, capture: bool, lhs, rhs) -> tuple[Witness, Witness]:
    if passed and not capture:
        return None, None
    return lhs, rhs


def _check_thm_1_1(ctx: PartitionContext, capture: bool):
    big = ctx.mu_h_prod
    lhs = (ctx.g_next - ctx.g) * big
    rhs = ExactPolynomial()
    for g_mu, h in zip(ctx.mu_g, ctx.mu_h):
        rhs = rhs + g_mu * (ctx.h * (big // h))
    passed = lhs == rhs
    return [(None, passed, *_sides(passed, capture, lhs, rhs))]


def _check_rec_1_2(ctx: PartitionContext, capture: bool):
    # tableau counts n!/H; Fractions if a fault breaks divisibility
    n = ctx.lam.size
    lhs = Fraction(factorial(n), ctx.h)
    rhs = sum(Fraction(factorial(n - 1), h) for h in ctx.mu_h)
    passed = lhs == rhs
    return [(None, passed, *_sides(passed, capture, lhs, rhs))]


def _check_rec_1_3(ctx: PartitionContext, capture: bool):
    big = ctx.mu_h_prod
    lhs = ctx.lam.size * big
    rhs = ctx.h * sum(big // h for h in ctx.mu_h)
    passed = lhs == rhs
    return [(None, passed, *_sides(passed, capture, lhs, rhs))]


def _check_remark_dn(ctx: PartitionContext, capture: bool):
    # cleared by H: the n-fold difference of g against f * H, with f from
    # a formula that reads no hook length.  g is monic of degree n even
    # under a fault, so the difference is a single constant.
    d = ctx.g
    for _ in range(ctx.lam.size):
        d = difference(d)
    (lhs,) = d.coeffs
    rhs = syt_count(ctx.lam) * ctx.h
    passed = lhs == rhs
    return [(None, passed, *_sides(passed, capture, lhs, rhs))]


def _check_corner_ratio_2_2(ctx: PartitionContext, capture: bool):
    lam = ctx.lam
    out = []
    for i, h_mu, g_mu in zip(ctx.corners.in_corners, ctx.mu_h, ctx.mu_g):
        a = i - lam.part(i)
        lhs = ctx.h * g_mu(a)
        rhs = h_mu * ctx.g(a + 1)
        passed = lhs == rhs
        out.append((i, passed, *_sides(passed, capture, lhs, rhs)))
    return out


def _check_quotient_4_2(ctx: PartitionContext, capture: bool):
    lam = ctx.lam
    out = []
    for i, g_mu in zip(ctx.corners.in_corners, ctx.mu_g):
        c = lam.part(i) - i
        lhs = times_linear_factors(g_mu, (c, -lam.size))
        rhs = times_linear_factors(ctx.g, (c - 1,))
        passed = lhs == rhs
        out.append((i, passed, *_sides(passed, capture, lhs, rhs)))
    return out


def _check_thm_4_1(ctx: PartitionContext, capture: bool):
    lhs = ctx.corner_sum * ctx.g
    rhs = (X * ctx.g - linear(-ctx.lam.size) * ctx.g_next) * ctx.in_prod * ctx.mu_h_prod
    passed = lhs == rhs
    return [(None, passed, *_sides(passed, capture, lhs, rhs))]


def _check_eq_4_6(ctx: PartitionContext, capture: bool):
    lhs = linear(-ctx.lam.size) * ctx.g_next * ctx.in_prod
    rhs = ctx.g * ctx.out_prod
    passed = lhs == rhs
    return [(None, passed, *_sides(passed, capture, lhs, rhs))]


def _check_thm_4_2(ctx: PartitionContext, capture: bool):
    numerator = X * ctx.in_prod - ctx.out_prod
    passed = ctx.corner_sum == numerator * ctx.mu_h_prod
    if passed and not capture:
        return [(None, True, None, None)]
    # witnesses with the hook clearing divided back out, so the right side
    # is the bare quotient numerator
    return [(None, passed, ctx.corner_sum * Fraction(1, ctx.mu_h_prod), numerator)]


def _check_cor_4_4(ctx: PartitionContext, capture: bool):
    total = sum((Fraction(ctx.h, h) for h in ctx.mu_h), start=Fraction(0))
    passed = total == ctx.lam.size
    return [(None, passed, *_sides(passed, capture, total, ctx.lam.size))]


_CHECKERS = {
    IdentityId.THM_1_1: _check_thm_1_1,
    IdentityId.REC_1_2: _check_rec_1_2,
    IdentityId.REC_1_3: _check_rec_1_3,
    IdentityId.REMARK_DN: _check_remark_dn,
    IdentityId.CORNER_RATIO_2_2: _check_corner_ratio_2_2,
    IdentityId.QUOTIENT_4_2: _check_quotient_4_2,
    IdentityId.THM_4_1: _check_thm_4_1,
    IdentityId.EQ_4_6: _check_eq_4_6,
    IdentityId.THM_4_2: _check_thm_4_2,
    IdentityId.COR_4_4: _check_cor_4_4,
}


def check_identity(
    identity: IdentityId,
    lam: Partition,
    workspace: Workspace | None = None,
    capture: bool = False,
) -> list[VerificationOutcome]:
    """Check one identity at one partition.

    Returns one outcome, or one per corner row for the per-corner
    identities.  The compared left/right sides are attached to failures
    always, and to passes when ``capture`` is set.
    """
    if not isinstance(identity, IdentityId):
        raise TypeError(f"expected IdentityId, got {identity!r}")
    if not lam:
        raise PartitionError(f"{identity.value} needs a nonempty partition")
    ws = workspace if workspace is not None else Workspace()
    return [
        VerificationOutcome(
            identity=identity.value,
            partition=lam,
            corner_index=corner,
            status="pass" if ok else "fail",
            lhs=lhs,
            rhs=rhs,
        )
        for corner, ok, lhs, rhs in _CHECKERS[identity](ws.context(lam), capture)
    ]
