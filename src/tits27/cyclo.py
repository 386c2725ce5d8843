"""Exact arithmetic in the cyclotomic field Q(zeta20).

An element is stored as eight integer coefficients c0..c7 over one positive
denominator, representing (c0 + c1*zeta + ... + c7*zeta^7) / den with
zeta = exp(2*pi*i/20).  Products are reduced with the minimal polynomial
Phi20(x) = x^8 - x^6 + x^4 - x^2 + 1, i.e. the rewrite

    zeta^8  = zeta^6 - zeta^4 + zeta^2 - 1     (and hence zeta^10 = -1).

The coefficient vector and denominator are kept coprime with den >= 1, so
two elements are equal iff their stored data are equal, and the zero element
is all-zero coefficients over denominator 1.  Values are immutable.

The constants used throughout the package live here:

    I     = zeta^5            the imaginary unit
    Z     = zeta^4            a primitive fifth root of unity, e^{2 pi i/5}
    SIGMA = -Z - Z^4          (1 - sqrt5)/2
    TAU   = -Z^2 - Z^3        (1 + sqrt5)/2
    FIFTH = 1/5

The text form of an element is eight rationals "p/q" (or "p" when q = 1)
separated by single spaces, coefficients c0..c7 in order.  Matrix files use
this form, one element per line.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import mul

_ZERO8 = (0, 0, 0, 0, 0, 0, 0, 0)

# zeta^8 and zeta^9 rewritten into the power basis.
_ZETA8 = (-1, 0, 1, 0, -1, 0, 1, 0)
_ZETA9 = (0, -1, 0, 1, 0, -1, 0, 1)


class CycNum:
    """One element of Q(zeta20) in canonical reduced form."""

    __slots__ = ("num", "den")

    def __init__(self, num=_ZERO8, den=1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        num = tuple(num)
        if len(num) != 8:
            raise ValueError("need exactly 8 coefficients")
        if den < 0:
            num = tuple(-n for n in num)
            den = -den
        g = gcd(den, *num)
        if g > 1:
            num = tuple(n // g for n in num)
            den //= g
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, n):
        return cls((n, 0, 0, 0, 0, 0, 0, 0))

    @classmethod
    def rational(cls, p, q=1):
        return cls((p, 0, 0, 0, 0, 0, 0, 0), q)

    @classmethod
    def from_coeffs(cls, coeffs):
        """Build from 8 Fraction (or int) coefficients c0..c7."""
        fracs = [Fraction(c) for c in coeffs]
        den = 1
        for f in fracs:
            den = den * f.denominator // gcd(den, f.denominator)
        return cls(tuple(f.numerator * (den // f.denominator) for f in fracs), den)

    @classmethod
    def zeta(cls, k):
        """The reduced power zeta^k."""
        k %= 20
        if k >= 10:
            return -cls.zeta(k - 10)
        if k < 8:
            num = [0] * 8
            num[k] = 1
            return cls(tuple(num))
        return cls(_ZETA8 if k == 8 else _ZETA9)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if self.den == other.den:
            return CycNum(tuple(a + b for a, b in zip(self.num, other.num)), self.den)
        da, db = self.den, other.den
        return CycNum(tuple(a * db + b * da for a, b in zip(self.num, other.num)), da * db)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return CycNum(tuple(-n for n in self.num), self.den)

    def __mul__(self, other):
        a, b = self.num, other.num
        c = [0] * 15
        for p, ap in enumerate(a):
            if ap:
                for q, bq in enumerate(b):
                    if bq:
                        c[p + q] += ap * bq
        # zeta^10 = -1 folds degrees 10..14 down; then rewrite 9 and 8.
        for k in (14, 13, 12, 11, 10):
            v = c[k]
            if v:
                c[k - 10] -= v
        for k in (9, 8):
            v = c[k]
            if v:
                c[k - 2] += v
                c[k - 4] -= v
                c[k - 6] += v
                c[k - 8] -= v
        return CycNum(tuple(c[:8]), self.den * other.den)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        """The exact multiplicative inverse, by the field norm.

        The automorphisms of Q(zeta20) are zeta -> zeta^k for the eight k
        prime to 20.  The norm N(x), the product of the images of x under
        all eight, is fixed by every automorphism, which only permutes its
        factors, so it lies in the fixed field Q; and for x != 0 it is
        nonzero, as each automorphism is injective and a field has no zero
        divisors.  So x^-1 is the product of the seven images other than x
        itself, divided by the rational N(x).
        """
        if self.is_zero():
            raise ZeroDivisionError("0 has no inverse in Q(zeta20)")
        others = reduce(mul, map(self._galois, _GALOIS_K))
        norm = self * others
        return CycNum(tuple(n * norm.den for n in others.num), others.den * norm.num[0])

    def conj(self):
        """Complex conjugation, the field automorphism zeta -> zeta^19."""
        return self._galois(19)

    def _galois(self, k):
        """The image under the automorphism zeta -> zeta^k."""
        acc = [0] * 8
        for n, img in zip(self.num, _GALOIS[k]):
            if n:
                for j in range(8):
                    acc[j] += n * img[j]
        return CycNum(tuple(acc), self.den)

    # -- predicates and views ----------------------------------------------

    def is_zero(self):
        return self.num == _ZERO8

    def is_rational(self):
        return self.num[1:] == (0,) * 7

    @property
    def coeffs(self):
        """The coefficients c0..c7 as Fractions."""
        return tuple(Fraction(n, self.den) for n in self.num)

    def approx(self):
        """Float embedding zeta -> exp(2 pi i/20); diagnostics only."""
        z = cmath.exp(2j * cmath.pi / 20)
        return sum(n * z ** k for k, n in enumerate(self.num)) / self.den

    # -- text form -----------------------------------------------------------

    def to_text(self):
        return " ".join(str(Fraction(n, self.den)) for n in self.num)

    @classmethod
    def from_text(cls, text):
        parts = text.split()
        if len(parts) != 8:
            raise ValueError(f"expected 8 coefficients, got {len(parts)}")
        return cls.from_coeffs(Fraction(p) for p in parts)

    # -- object protocol -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, CycNum):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"CycNum({self.to_text()!r})"

    def __str__(self):
        return self.to_text()


# -- constants ----------------------------------------------------------------

ZERO = CycNum()
ONE = CycNum.from_int(1)
MINUS_ONE = CycNum.from_int(-1)
FIFTH = CycNum.rational(1, 5)

I = CycNum.zeta(5)
Z = CycNum.zeta(4)
SIGMA = -Z - Z ** 4
TAU = -(Z ** 2) - Z ** 3

#: The k other than 1 that are prime to 20, and for each the images of
#: zeta^0..zeta^7 under zeta -> zeta^k in the power basis.
_GALOIS_K = (3, 7, 9, 11, 13, 17, 19)
_GALOIS = {k: tuple(CycNum.zeta(k * j).num for j in range(8)) for k in _GALOIS_K}
