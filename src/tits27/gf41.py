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

Matrices over GF(41) as int64 arrays
    `matmul`, `rref`, `rank`, `nullspace` and `inverse` reduce their input
    mod 41 and return int64 residues.  An entry of a product sums n terms,
    each a product of two residues, below 40^2.  `matmul` forms it in
    float64 by BLAS after checking n * 40^2 < 2^53 (43,200 for n = 27),
    or raises KernelOverflowError; every partial sum is then an integer
    below 2^53, so the product is exact in any summation order, as for the
    products of `zkernel` (its "Exactness guards"), and is cast back to
    int64 before it is reduced.  `rref` eliminates in int64: per pivot it
    scales the pivot row to 1, subtracts one outer product (each entry
    below 40^2) from the whole matrix and reduces once, after checking
    n * 40^2 < 2^63 for n columns.  `reduce_rows` reduces vectors in the
    Z^216 layout of `zkernel` with one contraction.
"""

from __future__ import annotations

import numpy as np

from . import cyclo
from .cyclo import CycNum

P = 41


class KernelOverflowError(ValueError):
    """A product of an integer kernel could leave the range it is exact in."""


class SingularMatrixError(ValueError):
    pass


def check_range(inner, max_b, max_v, bits=63):
    """Refuse a product of `inner`-term sums whose partial sums could reach
    2^bits: 2^63 for int64 arithmetic, 2^53 for float64 (see `zkernel`)."""
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
    check_range(8, P - 1, int(np.abs(rows).max(initial=0)))
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


# -- matrices over GF(41) as int64 residue arrays --------------------------------

def matmul(a, b):
    """a @ b over GF(41); either operand may be a stack or a vector."""
    a = np.asarray(a, dtype=np.int64) % P
    check_range(a.shape[-1], P - 1, P - 1, bits=53)  # exact in float64 (module docstring)
    b = np.asarray(b, dtype=np.int64) % P
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % P


def rref(a):
    """Reduced row echelon form of a 2-D array: (array, pivot column list)."""
    a = np.asarray(a, dtype=np.int64) % P
    check_range(a.shape[1], P - 1, P - 1)
    pivots = []
    r = 0
    for col in range(a.shape[1]):
        nonzero = a[r:, col].nonzero()[0]
        if not nonzero.size:
            continue
        p = r + int(nonzero[0])
        pivot = a[p] * pow(int(a[p, col]), -1, P) % P
        # clears column col in every row, row p included, since pivot[col] == 1
        a -= a[:, col, None] * pivot
        a %= P
        a[p] = a[r]  # row p is now zero: move row r there, and the pivot row to r
        a[r] = pivot
        pivots.append(col)
        r += 1
        if r == a.shape[0]:
            break
    return a, pivots


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
    red, pivots = rref(np.hstack([a, np.eye(n, dtype=np.int64)]))
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return red[:, n:]
