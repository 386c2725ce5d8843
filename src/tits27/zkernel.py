"""An exact int64 kernel for 27x27 matrices over Q(zeta20) acting on Z^216.

Q(zeta20)^27 is Q^216 as a vector space: entry j of a 27-vector is the
coefficient block 8j..8j+7 in the power basis 1, zeta, ..., zeta^7.
Multiplication by an element of Q(zeta20) is an 8x8 rational matrix on a
block, so a 27x27 matrix m is a 216x216 rational matrix.  IntegerAction
scales m by D, the lcm of its denominators, and applies D * m to n x 216
int64 rows, one vector v per row, giving the rows of D * (m v).

It never forms the 216x216 matrix.  Write D * m = sum_k zeta^k M_k with
M_k the 27x27 integer matrix of the coefficients of zeta^k (k < 8).  With
V the n x 27 x 8 blocks of the rows and ROT[k] the 8x8 matrix of
multiplication by zeta^k on a block, the image is sum_k M_k (V ROT[k]):
one 27x27 product per power k that occurs (eprime uses k = 0, 4, 6).  On
n x 27 rows of rational integers, coefficient k of the image is M_k v.  A
block-monomial matrix (one nonzero entry per row, like f1, f2, d and ac)
is applied as a gather of blocks and 27 8x8 products instead.

There are two ways to apply it:

  * ``act(rows)`` divides the product by D and requires every entry to be
    divisible (ScaleError otherwise), so integral rows stay integral at
    the same scale; orbit enumeration works this way;
  * ``act.raw(rows)`` returns the product D * (m v) itself and leaves the
    denominator to the caller, which can apply k matrices in a row and
    compare against D^k once; the cubic-form check works this way.

Relations and unitarity
    `generators.verify_relations` applies both sides of each relation to
    the 27 unit vectors with `raw`, on 27-column rows first and on 216-column
    rows after.  Applying matrices with denominators D_1, ..., D_k gives the
    rows of D_1 ... D_k * (w e_j) exactly, and no division is made: two sides
    with denominator products D and D' are equal iff D' times the rows of one
    equals D times the rows of the other, and `check_range` guards those two
    products like every application.  The conjugate transpose m* needs no
    other arithmetic.  Row j of `raw` on the unit vectors holds the blocks of
    column j of D * m, so conjugating every block gives the coefficients of
    row j of D * m*, ready for `IntegerAction.from_coeffs`.  Conjugation is
    the automorphism zeta -> zeta^19, Q-linear on the power basis, so on a
    block it is the fixed matrix CONJ whose row j holds the coefficients of
    zeta^-j, all 0 or +-1: the conjugate of an integer block is an integer
    block, computed without rounding.

Exactness guards
    The kernel never rounds and has no other arithmetic path.  Before each
    application it checks 216 * max|B| * max|V| < 2^63 and raises
    KernelOverflowError otherwise.  For a block-monomial matrix B is its
    8x8 blocks, whose int64 partial sums have at most 8 terms.  Otherwise
    max|B| is the sum over k of max|M_k|: an entry of V ROT[k] sums at most
    8 terms of size max|V|, an entry of M_k (V ROT[k]) at most 27 of size
    max|M_k| * 8 * max|V|, and the image adds those over k, so every
    partial sum stays below 216 * max|B| * max|V|.  When the matrix is
    compiled, 216 * 8 * c < 2^63 is checked, with c the largest coefficient
    of D * m; both kinds of max|B| are at most 8 * c.
"""

from __future__ import annotations

import math

import numpy as np

from . import cyclo
from .exactlinalg import ExactMatrix, RING_CYC
# The range guard and its error are shared with the GF(p) kernel in gf41.
from .gf41 import KernelOverflowError, check_range  # noqa: F401

#: Integer coordinates of a 27-vector: 8 power-basis coefficients per entry.
DIM = 27 * 8

# ROT[k] right-multiplies an 8-coefficient block a (as a row) to give the
# block of zeta^k * a; its entries are 0 and +-1.
_ZETA_POW = np.array([cyclo.CycNum.zeta(k).num for k in range(20)], dtype=np.int64)
ROT = _ZETA_POW[(np.arange(20)[:, None] + np.arange(8)) % 20]
# CONJ right-multiplies a block into the block of its complex conjugate: row j
# is zeta^-j, the image of zeta^j under the automorphism zeta -> zeta^19.
CONJ = _ZETA_POW[-np.arange(8) % 20]


class ScaleError(ValueError):
    """A value is not integral at the scale the kernel works at."""


def max_abs(a) -> int:
    # no |a| temporary: the cubic-form tensors are 1.3 MB each
    return max(int(a.max()), -int(a.min()))


def conj(rows):
    """The entrywise complex conjugates of n x 216 rows."""
    check_range(8, 1, max_abs(rows))  # CONJ has entries 0 and +-1
    return (rows.reshape(-1, 27, 8) @ CONJ).reshape(rows.shape)


class IntegerAction:
    """A 27x27 cyclotomic matrix as an exact integer map on n x 216 rows.

    A block-monomial matrix (one nonzero entry per row, like f1, f2, d and
    ac) is applied as a gather of 8-coefficient blocks and 27 8x8 products;
    any other matrix as one 27x27 product per power of zeta.  Both are
    int64 with the same guards.
    """

    def __init__(self, m: ExactMatrix):
        if m.ring != RING_CYC or m.rows != 27 or m.cols != 27:
            raise ValueError("the integer kernel needs a 27x27 cyclotomic matrix")
        den = math.lcm(*(e.den for row in m.data for e in row))
        coeffs = [[[n * (den // e.den) for n in e.num] for e in row] for row in m.data]
        # A block entry sums at most 8 coefficients times +-1, and the slice
        # maxima sum to at most 8 coefficients, so this keeps both below 2^63.
        check_range(DIM, 8 * max(abs(c) for row in coeffs for e in row for c in e), 1)
        self._compile(np.array(coeffs, dtype=np.int64), den)

    @classmethod
    def from_coeffs(cls, coeffs, den):
        """The matrix whose entry (i, j) is coeffs[i, j] / den, coeffs a 27 x 27 x 8 int64 array."""
        check_range(DIM, 8 * max_abs(coeffs), 1)  # as in __init__
        act = cls.__new__(cls)
        act._compile(coeffs, den)
        return act

    def _compile(self, coeffs, den):
        self.den = den
        nonzero = coeffs.any(axis=2)
        if (nonzero.sum(axis=1) == 1).all():
            self.src = nonzero.argmax(axis=1)
            # blocks[i] right-multiplies block src[i] of a row into block i
            self.blocks = np.tensordot(coeffs[np.arange(27), self.src], ROT[:8], axes=(1, 0))
            self.max_b = max_abs(self.blocks)
        else:
            self.src = None
            self.powers = np.flatnonzero(coeffs.any(axis=(0, 1)))
            self.slices = coeffs[:, :, self.powers].transpose(2, 0, 1)
            self.max_b = sum(max_abs(mk) for mk in self.slices)

    def raw(self, rows):
        """The rows of D * (m v), with no division.

        `rows` is n x 216, or n x 27 for vectors whose entries are rational
        integers (coefficient 0 of each block only); the result is n x 216.
        """
        check_range(DIM, self.max_b, max_abs(rows))
        scalar = rows.shape[1] == 27
        if self.src is None:  # sum over k of M_k (V ROT[k]); on rational v, slot k is M_k v
            out = np.zeros((len(rows), 27, 8), dtype=np.int64)
            for k, mk in zip(self.powers, self.slices):
                if scalar:
                    out[:, :, k] = rows @ mk.T
                else:
                    out += np.matmul(mk, rows.reshape(-1, 27, 8) @ ROT[k])
        elif scalar:
            out = rows[:, self.src, None] * self.blocks[:, 0]
        else:
            # one 8x8 product per target block, batched over the 27 blocks
            gathered = rows.reshape(-1, 27, 8)[:, self.src].transpose(1, 0, 2)
            out = np.matmul(gathered, self.blocks).transpose(1, 0, 2)
        return out.reshape(-1, DIM)

    def __call__(self, rows):
        """The rows of m v; the division by D must be exact."""
        quot, rem = np.divmod(self.raw(rows), self.den)
        if rem.any():
            raise ScaleError("an image is not integral at the scale of its preimage")
        return quot
