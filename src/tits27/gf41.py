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

Matrices over GF(41) as residue arrays
    `matmul`, `rref`, `rank`, `nullspace` and `inverse` reduce their input
    mod 41 and return int64 residues.  They compute in float32 under one
    bound: every value they form is an integer of absolute value at most
    2^24 - 16, where `_mod(x) = x - 41 * floor(x / 41)` is exact (an
    exhaustive check puts its first failure at -(2^24 - 15), where 41 * q
    rounds), and so is every partial sum of a BLAS product in any summation
    order, as for the products of `zkernel` (its "Exactness guards").  An
    input with an entry outside 0..40 is reduced by int64 % first.  Each
    function checks its shape against the bound before it allocates
    anything, and raises KernelOverflowError naming 2^24 if it fails.
    `matmul` centres residues to -20..20, so an entry of a product sums n
    terms of absolute value at most 20^2: it checks n * 20^2 < 2^24 (10,800
    for n = 27; inner sizes up to 41,943 pass).  `rref` eliminates with
    delayed reduction (Dumas, Giorgi and Pernet, ACM TOMS 2008): at each
    pivot it reduces only the pivot column, to choose the pivot and as the
    multipliers, and the pivot row, to scale it to 1, and subtracts one
    outer product of residues (each entry at most 40^2) from the rest.  After
    k pivots every entry lies below 40 + 1600 k, so it checks
    1600 (min(rows, cols) + 1) < 2^24 (up to 10,484 pivots) and reduces the
    whole matrix once, at the end.  `reduce_rows` reduces vectors in the
    Z^216 layout of `zkernel` with one int64 contraction.
"""

from __future__ import annotations

import numpy as np

from . import cyclo
from .cyclo import CycNum

P = 41
_P = np.float32(P)  # for the float32 kernel, without a cast on every call


class KernelOverflowError(ValueError):
    """A product of an integer kernel could leave the range it is exact in."""


class SingularMatrixError(ValueError):
    pass


def check_range(inner, max_b, max_v, bits=63):
    """Refuse a product of `inner`-term sums whose partial sums could reach
    2^bits: 2^63 for int64 arithmetic, 2^24 for float32 (the matrix kernel
    below and `zkernel`)."""
    if inner * max_b * max_v >= 2 ** bits:
        raise KernelOverflowError(
            f"{inner} * {max_b} * {max_v} reaches 2^{bits}; the kernel "
            "cannot form this product exactly")


def max_abs(a) -> int:
    """The largest absolute value in an integer array, 0 if it is empty."""
    # no |a| temporary: the cubic-form tensors are 1.3 MB each
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


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


_OMEGA_POWERS = np.array([pow(OMEGA, k, P) for k in range(8)], dtype=np.int64)


def reduce_rows(rows, scale):
    """reduce_cyc on every entry of n x 8k integer rows: n x k residues.

    A row holds `scale` times the power-basis coefficients of k scalars, 8
    per scalar (the layout of `zkernel`); one contraction with the powers
    of OMEGA evaluates every block, and 1/scale is a residue.
    """
    rows = np.asarray(rows, dtype=np.int64)
    check_range(8, P - 1, max_abs(rows))
    return rows.reshape(len(rows), -1, 8) @ _OMEGA_POWERS % P * pow(scale, -1, P) % P


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
        gf(10): CycNum.zeta(8),
        gf(37): CycNum.zeta(12),
        gf(18): CycNum.zeta(16),
        gf(9): cyclo.I,
        gf(7): cyclo.SIGMA,
        gf(35): cyclo.TAU,
        gf(33): cyclo.FIFTH,
    }


# -- matrices over GF(41) as residue arrays --------------------------------------

def _mod(x):
    """x mod 41 for a float32 array of integers with |x| <= 2^24 - 16, exactly."""
    return x - _P * np.floor(x / _P)


def _centred(a):
    """The residues of an integer array as float32 in -20..20; int64 % runs
    only on an array with an entry outside 0..40."""
    a = np.asarray(a, dtype=np.int64)
    a = a % P if a.min(initial=0) < 0 or a.max(initial=0) >= P else a
    return a.astype(np.float32, copy=False) - _P * (a > P // 2)


def matmul(a, b):
    """a @ b over GF(41); either operand may be a stack or a vector."""
    check_range(np.shape(a)[-1], P // 2, P // 2, bits=24)  # exact in float32 (module docstring)
    return _mod(_centred(a) @ _centred(b)).astype(np.int64)


def rref(a):
    """Reduced row echelon form of a 2-D array: (array, pivot column list).

    Delayed reduction (module docstring): k pivots leave every entry below
    40 + 1600 k, and there are at most min(rows, cols) of them.  Columns
    left of the pivot column are 0 mod 41 in the pivot row, so the update
    skips them.
    """
    check_range(min(np.shape(a)) + 1, P - 1, P - 1, bits=24)
    t = _centred(a).T.copy()  # row j of t is column j of a
    pivots = []
    for col in range(len(t)):
        column, r = _mod(t[col]), len(pivots)
        nonzero = column[r:].nonzero()[0]
        if nonzero.size:
            p = r + int(nonzero[0])
            pivot = _mod(_mod(t[col:, p]) * pow(int(column[p]), -1, P))
            t[col:] -= pivot[:, None] * column  # clears column col mod 41, row p included
            t[:, p] = t[:, r]  # row p is now 0 mod 41: move row r there, and the pivot row to r
            t[col:, r] = pivot
            pivots.append(col)
            if r + 1 == t.shape[1]:
                break
    return _mod(t).T.astype(np.int64, order="C"), pivots


def rank(a) -> int:
    return len(rref(a)[1])


def nullspace(a):
    """Right nullspace basis, one vector per row.

    Pivot columns ascend, and each vector sets one free variable to 1 in
    column order; a matrix of full column rank gives zero rows.
    """
    red, pivots = rref(a)
    free = [c for c in range(red.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), red.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -red[:len(pivots)][:, free].T % P
    return basis


def inverse(a):
    """The inverse of a square matrix, by elimination on [a | 1]."""
    n = len(a)
    if np.shape(a) != (n, n):
        raise ValueError("inverse of a non-square matrix")
    check_range(n + 1, P - 1, P - 1, bits=24)  # as in rref, before [a | 1] is built
    red, pivots = rref(np.hstack([a, np.eye(n, dtype=np.int64)]))
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return red[:, n:]
