"""Independent oracles used by the test suite.

Everything here recomputes quantities from first principles, by routes
different from the library's, so tests compare two genuinely separate
derivations.
"""

from collections import Counter
from itertools import permutations
from math import comb, prod

from hookshift.partitions import Partition, PartitionError, corner_sets
from hookshift.polynomials import linear
from hookshift.schur import MonomialExpansion


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


def pentagonal_counts(limit):
    """Partition numbers p(0..limit) by Euler's pentagonal recurrence."""
    p = [1] + [0] * limit
    for n in range(1, limit + 1):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            total += sign * p[n - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= n:
                total += sign * p[n - k * (3 * k + 1) // 2]
            k += 1
        p[n] = total
    return p


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


def det_bareiss(matrix):
    """Exact integer determinant by fraction-free Bareiss elimination."""
    m = [row[:] for row in matrix]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def schur_value_bialternant(lam, xs):
    """s_lam evaluated at distinct integers xs, as a ratio of alternants.

    Completely independent of tableau or Pieri combinatorics: the value is
    det(x_i^(lam_j + k - j)) / det(x_i^(k - j)), an exact integer ratio.
    """
    k = len(xs)
    if len(lam) > k:
        raise ValueError("need at least as many variables as rows")
    exps = [lam.part(j) + k - j for j in range(1, k + 1)]
    num = det_bareiss([[x ** e for e in exps] for x in xs])
    den = det_bareiss([[x ** (k - j) for j in range(1, k + 1)] for x in xs])
    q, r = divmod(num, den)
    assert r == 0
    return q


def g_value_by_factors(lam, x):
    """g_lam(x) as the product of its n factors (x + part(i) - i), taken
    one by one at the point x."""
    return prod(x + lam.part(i) - i for i in range(1, lam.size + 1))


def iterated_difference_value(f, m, x):
    """The m-fold forward difference of f at x, by the binomial sum
    sum over k of (-1)^(m-k) C(m,k) f(x + k); no polynomial shifts."""
    return sum((-1) ** (m - k) * comb(m, k) * f(x + k) for k in range(m + 1))


def elementary_value(m, xs):
    """e_m at the values xs, summed over m-subsets directly."""
    from itertools import combinations

    return sum(prod(c) for c in combinations(xs, m)) if m <= len(xs) else 0


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
