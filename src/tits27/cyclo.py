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
from math import gcd

_ZERO8 = (0, 0, 0, 0, 0, 0, 0, 0)

# zeta^8 and zeta^9 rewritten into the power basis.
_ZETA8 = (-1, 0, 1, 0, -1, 0, 1, 0)
_ZETA9 = (0, -1, 0, 1, 0, -1, 0, 1)

# Phi20 coefficients, constant term first (used by the inverse).
_PHI20 = (1, 0, -1, 0, 1, 0, -1, 0, 1)


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
        """The exact multiplicative inverse, via extended gcd against Phi20."""
        if self.is_zero():
            raise ZeroDivisionError("0 has no inverse in Q(zeta20)")
        r0 = [Fraction(c) for c in _PHI20]
        r1 = [Fraction(n, self.den) for n in self.num]
        while r1 and r1[-1] == 0:
            r1.pop()
        t0, t1 = [], [Fraction(1)]
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1))
        # r0 is a nonzero constant (Phi20 is irreducible), t0 its cofactor.
        c = r0[0]
        inv = [t / c for t in t0]
        inv += [Fraction(0)] * (8 - len(inv))
        return CycNum.from_coeffs(inv[:8])

    def conj(self):
        """Complex conjugation, the field automorphism zeta -> zeta^19."""
        acc = [0] * 8
        for k, n in enumerate(self.num):
            if n:
                img = _CONJ_BASIS[k]
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


# -- polynomial helpers over Fraction (for the inverse) ----------------------

def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    for k in range(len(a) - len(b), -1, -1):
        coef = a[k + len(b) - 1] * inv_lead
        q[k] = coef
        if coef:
            for j, bj in enumerate(b):
                a[k + j] -= coef * bj
    while a and a[-1] == 0:
        a.pop()
    while q and q[-1] == 0:
        q.pop()
    return q, a


def _poly_mul(a, b):
    if not a or not b:
        return []
    c = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                c[i + j] += ai * bj
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_sub(a, b):
    n = max(len(a), len(b))
    c = [Fraction(0)] * n
    for i, ai in enumerate(a):
        c[i] += ai
    for i, bi in enumerate(b):
        c[i] -= bi
    while c and c[-1] == 0:
        c.pop()
    return c


# -- constants ----------------------------------------------------------------

ZERO = CycNum()
ONE = CycNum.from_int(1)
MINUS_ONE = CycNum.from_int(-1)
FIFTH = CycNum.rational(1, 5)

I = CycNum.zeta(5)
Z = CycNum.zeta(4)
SIGMA = -Z - Z ** 4
TAU = -(Z ** 2) - Z ** 3

_CONJ_BASIS = tuple(CycNum.zeta((20 - k) % 20).num for k in range(8))
