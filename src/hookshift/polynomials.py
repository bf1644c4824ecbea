"""Dense univariate polynomials with exact rational coefficients.

Coefficients are plain ``int`` or ``fractions.Fraction`` and never leave
exact types; the two mix freely under Python arithmetic, so integer-only
polynomials (the common case here) pay no normalization cost.  Floats are
rejected outright.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable, Union

Coeff = Union[int, Fraction]


def _make(coeffs: list) -> "ExactPolynomial":
    # trusted constructor: coeffs already exact, list ownership transfers
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    p = ExactPolynomial.__new__(ExactPolynomial)
    p.coeffs = tuple(coeffs)
    return p


class ExactPolynomial:
    """Immutable polynomial; ``coeffs[k]`` is the coefficient of x**k.

    The zero polynomial stores no coefficients and has degree ``None``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coeff] = ()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"exact coefficient required, got {type(c).__name__}")
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, ExactPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self.coeffs
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        # constants hash like the number they equal
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __neg__(self) -> "ExactPolynomial":
        return _make([-c for c in self.coeffs])

    def __add__(self, other) -> "ExactPolynomial":
        if isinstance(other, (int, Fraction)):
            other = ExactPolynomial((other,))
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _make(out)

    __radd__ = __add__

    def __sub__(self, other) -> "ExactPolynomial":
        if isinstance(other, (int, Fraction)):
            other = ExactPolynomial((other,))
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        out = list(self.coeffs)
        b = other.coeffs
        if len(b) > len(out):
            out.extend([0] * (len(b) - len(out)))
        for i, c in enumerate(b):
            out[i] -= c
        return _make(out)

    def __rsub__(self, other) -> "ExactPolynomial":
        return (-self) + other

    def __mul__(self, other) -> "ExactPolynomial":
        if not isinstance(other, ExactPolynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return _make([c * other for c in self.coeffs] if other else [])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _make([])
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 2:
            # times a linear factor: one pass over the longer operand
            b0, b1 = b
            return _make([a[0] * b0, *[p * b1 + q * b0 for p, q in zip(a, a[1:])], a[-1] * b1])
        out = [0] * (len(a) + len(b) - 1)
        for j, y in enumerate(b):
            if y:
                for i, x in enumerate(a, j):
                    out[i] += x * y
        return _make(out)

    __rmul__ = __mul__

    def __call__(self, a: Coeff) -> Coeff:
        """Exact evaluation at a (Horner)."""
        acc: Coeff = 0
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def shift(self, a: Coeff) -> "ExactPolynomial":
        """Return q with q(x) = p(x + a).

        Computed by repeated synthetic re-rooting, which stays exact and
        avoids binomial tables.
        """
        if not isinstance(a, (int, Fraction)):
            raise TypeError(f"exact shift required, got {type(a).__name__}")
        cs = list(self.coeffs)
        n = len(cs)
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                cs[j] += a * cs[j + 1]
        return _make(cs)

    def serialize(self) -> list[tuple[int, str]]:
        """(power, "num/den") pairs, highest power first, zeros skipped."""
        out = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            f = Fraction(c)
            out.append((k, f"{f.numerator}/{f.denominator}"))
        return out

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = -c if c < 0 else c
            if isinstance(mag, Fraction) and mag.denominator != 1:
                coeff = f"({mag})"
            else:
                coeff = str(int(mag))
            if k == 0:
                term = coeff
            else:
                power = "x" if k == 1 else f"x^{k}"
                term = power if mag == 1 else coeff + power
            parts.append(sign + term)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"ExactPolynomial({str(self)})"


ONE = ExactPolynomial((1,))
X = ExactPolynomial((0, 1))


def linear(c: Coeff) -> ExactPolynomial:
    """The monic linear polynomial x + c."""
    return ExactPolynomial((c, 1))


def product_of_linear_factors(constants: Iterable[Coeff]) -> ExactPolynomial:
    """prod (x + c) over the given constants; the empty product is 1."""
    return times_linear_factors(ONE, constants)


def times_linear_factors(p: ExactPolynomial, constants: Iterable[Coeff]) -> ExactPolynomial:
    """p * prod (x + c) over the given constants, one pass per factor."""
    coeffs = list(p.coeffs)
    if not coeffs:
        return p
    for c in constants:
        coeffs = [c * coeffs[0], *[q + c * r for q, r in zip(coeffs, coeffs[1:])], coeffs[-1]]
    return _make(coeffs)


def difference(p: ExactPolynomial) -> ExactPolynomial:
    """Forward difference p(x+1) - p(x); drops the degree by one."""
    return p.shift(1) - p


def rising_binomial(k: int) -> ExactPolynomial:
    """The degree-k polynomial x(x+1)...(x+k-1) / k!."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return product_of_linear_factors(range(k)) * Fraction(1, factorial(k))
