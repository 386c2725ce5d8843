"""Arithmetic modulo 41 and the reduction from Q(zeta20).

41 is the smallest prime p such that GF(p) contains 4th and 5th roots of
unity but no cube roots (4 | 40 and 5 | 40, 3 does not divide 40).  The
residue OMEGA = 39 plays the role of zeta: it is the only residue with
omega^4 = 16 and omega^5 = 9, so the evaluation zeta -> 39 is a ring
homomorphism Z[zeta20, 1/5] -> GF(41).  Under it

    i = zeta^5   -> 9          sigma -> 7
    z = zeta^4   -> 16         tau   -> 35
    z^2, z^3, z^4 -> 10, 37, 18
    1/5          -> 33  (= -8)

OMEGA is recomputed by brute force at import time and asserted equal to the
value forced by 9 * 16^-1, so the constant verifies itself.
"""

from __future__ import annotations

from . import cyclo
from .cyclo import CycNum

P = 41


class Gf41:
    """A residue in GF(41)."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value % P

    def __add__(self, other):
        return _T[(self.value + other.value) % P]

    def __sub__(self, other):
        return _T[(self.value - other.value) % P]

    def __neg__(self):
        return _T[-self.value % P]

    def __mul__(self, other):
        return _T[(self.value * other.value) % P]

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n):
        if self.value == 0 and n < 0:
            raise ZeroDivisionError("0 has no inverse mod 41")
        return _T[pow(self.value, n, P)]

    def inverse(self):
        if self.value == 0:
            raise ZeroDivisionError("0 has no inverse mod 41")
        return _T[pow(self.value, -1, P)]

    def is_zero(self):
        return self.value == 0

    def __eq__(self, other):
        if not isinstance(other, Gf41):
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash(("gf41", self.value))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"gf({self.value})"

    def __str__(self):
        return str(self.value)


_T = tuple(Gf41(v) for v in range(P))

ZERO = _T[0]
ONE = _T[1]


def gf(v):
    """The canonical residue object for the integer v."""
    return _T[v % P]


def _find_omega():
    hits = [w for w in range(1, P) if pow(w, 4, P) == 16 and pow(w, 5, P) == 9]
    assert hits == [9 * pow(16, -1, P) % P] == [39]
    return hits[0]


OMEGA = _find_omega()
OMEGA_INV = pow(OMEGA, -1, P)

# The primitive 5th roots of unity, normalized to canonical residues and
# ordered as z, z^2, z^3, z^4 (37 is the residue class of -4).
PRIMITIVE_FIFTH_ROOTS = (gf(16), gf(10), gf(37), gf(18))


def evaluate_at(a: CycNum, w: int) -> Gf41:
    """Evaluate a's coefficient polynomial at the residue w (Horner)."""
    if a.den % P == 0:
        raise ZeroDivisionError("denominator divisible by 41")
    acc = 0
    for n in reversed(a.num):
        acc = (acc * w + n) % P
    return gf(acc * pow(a.den, -1, P))


def reduce_cyc(a: CycNum) -> Gf41:
    """The ring homomorphism Q(zeta20) -> GF(41) sending zeta to OMEGA.

    Defined exactly on elements whose denominator is coprime to 41; raises
    ZeroDivisionError otherwise.
    """
    return evaluate_at(a, OMEGA)


def lift_table() -> dict:
    """The designated lifts of distinguished residues back to Q(zeta20).

    A general inverse of reduce_cyc does not exist: reduction is 8-to-1 even
    on the monomials z^k, and distinct constants can share a residue (for
    example tau/5 and sigma both reduce to 7, and -4 shares 37 with z^3).
    The table fixes one lift for each residue that the construction actually
    uses, plus the small integers 0, 1, -1, 2.
    """
    return {
        gf(0): cyclo.ZERO,
        gf(1): cyclo.ONE,
        gf(2): CycNum.from_int(2),
        gf(40): cyclo.MINUS_ONE,
        gf(16): cyclo.Z,
        gf(10): cyclo.Z ** 2,
        gf(37): cyclo.Z ** 3,
        gf(18): cyclo.Z ** 4,
        gf(9): cyclo.I,
        gf(7): cyclo.SIGMA,
        gf(35): cyclo.TAU,
        gf(33): cyclo.FIFTH,
    }
