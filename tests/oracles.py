"""Independent oracles used by the test suite.

Everything here recomputes quantities from first principles, by routes
different from the library's, so tests compare two genuinely separate
derivations.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import comb, factorial, lcm, prod

from hookshift.identities import IdentityId, g_poly
from hookshift.partitions import (
    Partition,
    PartitionError,
    corner_sets,
    enumerate_partitions,
    hook_product,
    shifted_part_constants,
)
from hookshift.polynomials import ExactPolynomial


def linear(c):
    """The monic linear polynomial x + c."""
    return ExactPolynomial((c, 1))


X = linear(0)  # the polynomial x


def mul(*factors):
    """The product of polynomials by schoolbook convolution, the tests'
    reference product: it shares no code with the library's linear-factor
    kernel.  The empty product is 1."""
    coeffs = [1]
    for f in factors:
        short, long = sorted((f.coeffs, coeffs), key=len)
        out = [0] * (len(short) + len(long) - 1)
        for j, b in enumerate(short):
            for i, a in enumerate(long, j):
                out[i] += a * b
        coeffs = out
    return ExactPolynomial(coeffs)


def rising_binomial(k):
    """The degree-k polynomial x(x+1)...(x+k-1) / k!, the coefficient of
    p1^k e_(n-k) in the Schur identity as the paper states it."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return mul(*map(linear, range(k))) * Fraction(1, factorial(k))


def hook_by_box_count(lam, cell):
    """Count the boxes of the hook one by one: the box itself, the boxes to
    its right in the same row, and the boxes in its column on the leg side."""
    r, c = cell
    right = sum(1 for j in range(c + 1, lam[r - 1] + 1))
    leg = sum(1 for i in range(r + 1, len(lam) + 1) if lam[i - 1] >= c)
    return 1 + right + leg


def partitions_bruteforce(n, max_part=None):
    """All weakly decreasing positive tuples summing to n."""
    max_part = n if max_part is None else max_part
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_bruteforce(n - first, first):
            yield (first,) + rest


def syt_count_bruteforce(lam, limit=10):
    """Count standard Young tableaux by exhaustive corner-removal recursion.

    Every filling is traced once (no memoization), so this is an oracle
    independent of the hook formula.  Guarded by ``limit`` because the
    count itself is the amount of work.
    """
    if lam.size > limit:
        raise ValueError(f"|{lam}| = {lam.size} exceeds the brute-force limit {limit}")

    def count(shape):
        if not shape:
            return 1
        total = 0
        for i in range(len(shape)):
            nxt = shape[i + 1] if i + 1 < len(shape) else 0
            if shape[i] > nxt:
                smaller = shape[:i] + ((shape[i] - 1,) if shape[i] > 1 else ()) + shape[i + 1:]
                total += count(smaller)
        return total

    return count(tuple(lam))


def corner_quotient_factors(lam, i):
    """Linear factors of g_lam(x+1) / g_mu(x) after cancellation, where mu
    removes the corner in row i.

    Numerator factors are (x + part(j) - j + 1) over the out-corner rows
    of lam that stay at or below index n; denominator factors are
    (x + mu_j - j) over the in-corner rows below n.  Increasing row order.
    """
    n = lam.size
    corners = corner_sets(lam)
    if i not in corners.in_corners:
        raise PartitionError(f"row {i} is not a corner row of {lam}")
    mu = corners.removals[i]
    num = [linear(lam.part(j) - j + 1) for j in corners.out_corners if j <= n]
    den = [linear(mu.part(j) - j) for j in corners.in_corners if j <= n - 1]
    return num, den


def conjugate_by_cells(lam):
    """Transpose the diagram as a literal set of cells."""
    cells = {(r, c) for r, p in enumerate(lam, 1) for c in range(1, p + 1)}
    flipped = {(c, r) for r, c in cells}
    rows = {}
    for r, _ in flipped:
        rows[r] = rows.get(r, 0) + 1
    return Partition(sorted(rows.values(), reverse=True))


def g_value_by_factors(lam, x):
    """g_lam(x) as the product of its n factors (x + part(i) - i), taken
    one by one at the point x."""
    return prod(x + lam.part(i) - i for i in range(1, lam.size + 1))


def difference(p):
    """Forward difference p(x+1) - p(x) by a polynomial shift; drops the
    degree by one.  Applied n times to a context's g it is the oracle for
    REMARK_DN's left side."""
    return p.shift(1) - p


def binomial_difference(constants):
    """The n-fold difference at 0 of the product of (x + c) over the n
    ``constants``, as the binomial sum of its values at 0..n (Boole's
    finite-difference identity): sum over k of (-1)^(n-k) C(n,k) g(k)."""
    n = len(constants)
    return sum((-1) ** (n - k) * comb(n, k) * prod(k + c for c in constants)
               for k in range(n + 1))


def cleared_corner_sum(den, weights):
    """The sum over in-corner rows of weight / (x + part(i) - i), cleared
    by the product of the factors ``den``, built term by term."""
    return sum(
        (mul(*den[:k], *den[k + 1:]) * w for k, w in enumerate(weights)),
        start=ExactPolynomial(),
    )


def hook_ratio_clearing(h, mu_h):
    """D, the lcm of the denominators of the H/H_mu in lowest terms, and
    the hook weights H * D / H_mu, through Fraction."""
    ratios = [Fraction(h, hm) for hm in mu_h]
    d = lcm(*(r.denominator for r in ratios))
    return d, [r * d for r in ratios]


def catalog_sides(identity, lam):
    """(corner, lhs, rhs) for each check of one identity at lam, with the
    sides in the form the library reports them, rebuilt from g_poly,
    hook_product and corner_sets alone: full polynomials with no tail
    cancelled, and exact numbers."""
    n = lam.size
    g, h = g_poly(lam), hook_product(lam)
    corners = corner_sets(lam)
    mus = corners.removals.values()
    mu_h = [hook_product(mu) for mu in mus]
    big = prod(mu_h)
    den = [linear(lam.part(i) - i) for i in corners.in_corners]
    in_prod = mul(*den)
    out_prod = mul(*(linear(lam.part(i) - i + 1) for i in corners.out_corners))
    corner_sum = cleared_corner_sum(den, [h * big // hm for hm in mu_h])
    if identity is IdentityId.THM_1_1:
        rhs = sum((g_poly(mu) * (h * big // hm) for mu, hm in zip(mus, mu_h)), start=ExactPolynomial())
        return [(None, difference(g) * big, rhs)]
    if identity is IdentityId.REC_1_2:
        # tableau counts: n!/H against the sum of (n-1)!/H_mu
        return [(None, Fraction(factorial(n), h),
                 sum(Fraction(factorial(n - 1), hm) for hm in mu_h))]
    if identity is IdentityId.REC_1_3:
        return [(None, n * big, h * sum(big // hm for hm in mu_h))]
    if identity is IdentityId.REMARK_DN:
        d = g
        for _ in range(n):
            d = difference(d)
        return [(None, d(0), syt_count_bruteforce(lam) * h)]
    if identity is IdentityId.CORNER_RATIO_2_2:
        return [
            (i, h * g_poly(mu)(i - lam.part(i)), hm * g(i - lam.part(i) + 1))
            for i, mu, hm in zip(corners.in_corners, mus, mu_h)
        ]
    if identity is IdentityId.QUOTIENT_4_2:
        return [
            (i, mul(g_poly(mu), linear(lam.part(i) - i), linear(-n)),
             mul(g, linear(lam.part(i) - i - 1)))
            for i, mu in zip(corners.in_corners, mus)
        ]
    if identity is IdentityId.THM_4_1:
        rhs = mul(mul(X, g) - mul(linear(-n), g.shift(1)), in_prod) * big
        return [(None, mul(corner_sum, g), rhs)]
    if identity is IdentityId.EQ_4_6:
        return [(None, mul(linear(-n), g.shift(1), in_prod), mul(g, out_prod))]
    if identity is IdentityId.THM_4_2:
        # the hook clearing divided back out
        return [(None, corner_sum * Fraction(1, big), mul(X, in_prod) - out_prod)]
    assert identity is IdentityId.COR_4_4
    return [(None, sum(Fraction(h, hm) for hm in mu_h), n)]


def det_leibniz(matrix):
    """The determinant as the sum over permutations p of sign(p) times
    prod_i m[i][p(i)], the sign from p's inversions: no elimination, so
    no pivot can be zero.  The 0x0 determinant is 1."""
    n = len(matrix)
    total = 0
    for p in permutations(range(n)):
        inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(row[c] for row, c in zip(matrix, p))
    return total


def elementary_value(m, xs):
    """e_m at the values xs, summed over m-subsets directly."""
    from itertools import combinations

    return sum(prod(c) for c in combinations(xs, m)) if m <= len(xs) else 0


class MonomialExpansion:
    """Linear combination of monomial symmetric functions: a map from
    partitions to coefficients, zeros pruned, compared by that map."""

    __slots__ = ("terms",)

    def __init__(self, terms={}):
        self.terms = {Partition(mu): c for mu, c in terms.items() if c}

    def items(self):
        return [(mu, self.terms[mu]) for mu in sorted(self.terms, reverse=True)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialExpansion):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        body = ", ".join(f"m[{mu}]*({c})" for mu, c in self.items())
        return f"MonomialExpansion({body or '0'})"


@cache
def kostka(lam: Partition, mu: Partition) -> int:
    """Number of semistandard tableaux of shape lam and content mu, by
    exhaustive row-by-row enumeration, whose cost grows with the count;
    each pair is counted once per test session."""
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


def to_monomial(side: dict) -> MonomialExpansion:
    """Expand a side, a dict from partitions of one size to Schur
    coefficients, into the monomial basis through Kostka numbers.

    Equal Schur expansions have equal images, so comparing two images
    cross-checks the Kostka arithmetic, not the Schur coefficients.
    """
    if not side:
        return MonomialExpansion()
    shapes = list(enumerate_partitions(next(iter(side)).size))
    out: dict[Partition, object] = {}
    for lam, c in side.items():
        for mu in shapes:
            if k := kostka(lam, mu):
                out[mu] = out[mu] + c * k if mu in out else c * k
    return MonomialExpansion(out)


def monomial_value(mu, xs):
    """m_mu at the values xs: x^alpha summed over the distinct
    rearrangements alpha of mu padded with zeros to len(xs)."""
    if len(mu) > len(xs):
        return 0
    padded = tuple(mu) + (0,) * (len(xs) - len(mu))
    return sum(prod(x**a for x, a in zip(xs, alpha)) for alpha in set(permutations(padded)))


def schur_value_by_kostka(lam, xs):
    """s_lam at the values xs as sum_mu K(lam, mu) m_mu(xs): tableau
    counting, with no determinant."""
    image = to_monomial({lam: 1})
    return sum(k * monomial_value(mu, xs) for mu, k in image.terms.items())


def monomial_times_p1(a: MonomialExpansion) -> MonomialExpansion:
    """Multiply a monomial expansion by the first power sum directly, by
    convolving exponent vectors; independent of the Pieri route."""
    out: dict[Partition, object] = {}
    for mu, c in a.terms.items():
        for nu, mult in _monomial_p1_row(tuple(mu)).items():
            add = c * mult
            out[nu] = out[nu] + add if nu in out else add
    return MonomialExpansion(out)


def _monomial_p1_row(mu: tuple[int, ...]) -> dict[Partition, int]:
    # one extra variable is enough: the result has at most len(mu)+1 parts
    nvars = len(mu) + 1
    padded = mu + (0,) * (nvars - len(mu))
    counts: Counter = Counter()
    for alpha in set(permutations(padded)):
        for i in range(nvars):
            counts[alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]] += 1
    out = {}
    for beta, c in counts.items():
        if all(beta[i] >= beta[i + 1] for i in range(nvars - 1)):
            out[Partition(p for p in beta if p)] = c
    return out


def faulted_constants(lam, fault):
    """shifted_part_constants(lam), with a g-factor fault's delta added at
    its index."""
    constants = shifted_part_constants(lam)
    if fault is not None and fault.kind == "g-factor" and fault.partition == lam:
        constants[fault.index - 1] += fault.delta
    return constants


def full_polynomial_sides(identity, ctx, fault):
    """(corner, lhs, rhs) for each check of one of the five polynomial
    identities at a context built under ``fault``, as polynomials with no
    common factor cancelled: built by plain polynomial multiplication from
    the context's fault-substituted constants and hook products and each
    removal's ``faulted_constants``, with g(x+1) by a shift, and hook
    ratios cleared by ``hook_ratio_clearing``'s D.  THM_4_2 reads no g, so
    its sides are the hook-cleared corner sum and quotient numerator."""
    n = ctx.n
    d, weights = hook_ratio_clearing(ctx.h, ctx.mu_h)
    g = mul(*map(linear, ctx.constants))
    mu_g = [mul(*map(linear, faulted_constants(mu, fault)))
            for mu in ctx.corners.removals.values()]
    den = [linear(c) for c in ctx.in_constants]
    in_prod = mul(*den)
    out_prod = mul(*(linear(ctx.lam.part(i) - i + 1) for i in ctx.corners.out_corners))
    corner_sum = cleared_corner_sum(den, weights)
    if identity is IdentityId.THM_1_1:
        rhs = sum((g_mu * w for g_mu, w in zip(mu_g, weights)), start=ExactPolynomial())
        return [(None, difference(g) * d, rhs)]
    if identity is IdentityId.QUOTIENT_4_2:
        return [
            (i, mul(g_mu, linear(c), linear(-n)), mul(g, linear(c - 1)))
            for i, c, g_mu in zip(ctx.corners.in_corners, ctx.in_constants, mu_g)
        ]
    if identity is IdentityId.THM_4_1:
        rhs = mul(mul(X, g) - mul(linear(-n), g.shift(1)), in_prod) * d
        return [(None, mul(corner_sum, g), rhs)]
    if identity is IdentityId.EQ_4_6:
        return [(None, mul(linear(-n), g.shift(1), in_prod), mul(g, out_prod))]
    assert identity is IdentityId.THM_4_2
    return [(None, corner_sum, (mul(X, in_prod) - out_prod) * d)]


def full_corner_ratio_sides(ctx, fault):
    """CORNER_RATIO_2_2's (corner, lhs, rhs) at a context built under
    ``fault``, with no common factor cancelled: H * g_mu(a) against
    H_mu * g(a+1) at a = i - part(i), each a product over every
    fault-substituted constant, the context's for g and
    ``faulted_constants`` for each removal."""
    out = []
    for i, mu, h_mu in zip(ctx.corners.in_corners, ctx.corners.removals.values(), ctx.mu_h):
        a = i - ctx.lam.part(i)
        c_mu = faulted_constants(mu, fault)
        out.append((i, ctx.h * prod(a + c for c in c_mu),
                    h_mu * prod(a + 1 + c for c in ctx.constants)))
    return out
