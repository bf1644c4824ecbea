"""Dense univariate polynomials with exact rational coefficients.

Coefficients are plain ``int`` or ``fractions.Fraction`` and never leave
exact types; the two mix freely under Python arithmetic, so integer-only
polynomials (the common case here) pay no normalization cost.  Floats are
rejected outright.

``ExactPolynomial`` offers what the library runs: polynomial ``+`` and
``-``, ``*`` by a scalar, ``shift`` and exact evaluation.  There is no
general product of two polynomials; the test suite keeps a schoolbook
one as its reference, apart from the library's kernels.

``serialize`` writes every value a report carries, a polynomial or an
exact number, in its one JSON form: identity witnesses and Schur sides
alike go through it.

Every result goes through the one constructor, which trims trailing
zeros, so equal polynomials always have equal coefficient tuples.

Products of monic linear factors (x + c) are built by
``times_linear_factors``, which updates one coefficient list in place,
one pass per factor.  It builds ``g_poly``, the full sides that identity
reports carry, and the Schur layer's coefficients; the identity checks
themselves compare their sides as integer values (see
``hookshift.identities``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Coeff = Union[int, Fraction]


class ExactPolynomial:
    """Immutable polynomial; ``coeffs[k]`` is the coefficient of x**k.

    The zero polynomial stores no coefficients.  Equal polynomials have
    equal coefficient tuples; a polynomial never equals a number.
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

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        short, long = sorted((self.coeffs, other.coeffs), key=len)
        out = list(long)
        for i, c in enumerate(short):
            out[i] += c
        return ExactPolynomial(out)

    def __sub__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        return self + other * -1

    def __mul__(self, other: Coeff) -> "ExactPolynomial":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return ExactPolynomial([c * other for c in self.coeffs])

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
        return ExactPolynomial(cs)

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


def serialize(v: Union[ExactPolynomial, Coeff]):
    """A reported value as JSON: a polynomial as [power, "num/den"] pairs,
    highest power first, zeros skipped; a number as "num/den"."""
    if isinstance(v, ExactPolynomial):
        return [[k, serialize(c)] for k, c in reversed(list(enumerate(v.coeffs))) if c]
    return f"{v.numerator}/{v.denominator}"


def product_of_linear_factors(constants: Iterable[Coeff]) -> ExactPolynomial:
    """prod (x + c) over the given constants; the empty product is 1."""
    return times_linear_factors(ONE, constants)


def times_linear_factors(p: ExactPolynomial, constants: Iterable[Coeff]) -> ExactPolynomial:
    """p * prod (x + c) over the given constants.

    One coefficient list is updated in place, one pass per factor: the
    coefficient of x**k becomes c times itself plus the old coefficient
    of x**(k-1), and the old leading coefficient moves up one degree.
    The result goes through the constructor, which trims, so a zero p
    gives the zero polynomial.
    """
    coeffs = list(p.coeffs)
    for c in constants:
        prev = 0
        for k, q in enumerate(coeffs):
            coeffs[k] = prev + c * q
            prev = q
        coeffs.append(prev)
    return ExactPolynomial(coeffs)
