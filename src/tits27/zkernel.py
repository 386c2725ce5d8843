"""An exact int64 kernel for 27x27 matrices over Q(zeta20) acting on Z^216.

Q(zeta20)^27 is Q^216 as a vector space: entry j of a 27-vector is the
coefficient block 8j..8j+7 in the power basis 1, zeta, ..., zeta^7.
Multiplication by an element of Q(zeta20) is an 8x8 rational matrix on a
block, so a 27x27 matrix m is a 216x216 rational matrix.  IntegerAction
stores it once as the integer matrix B = D * (that matrix), where D is the
lcm of the denominators of m, and applies it to n x 216 int64 rows, one
vector v per row, giving the rows of D * (m v).

There are two ways to apply it:

  * ``act(rows)`` divides the product by D and requires every entry to be
    divisible (ScaleError otherwise), so integral rows stay integral at
    the same scale; orbit enumeration works this way;
  * ``act.raw(rows)`` returns the product D * (m v) itself and leaves the
    denominator to the caller, which can apply k matrices in a row and
    compare against D^k once; the cubic-form check works this way.

Exactness guards
    The kernel never rounds and has no other arithmetic path.  Before each
    product it checks 216 * max|B| * max|V| < 2^63, which bounds every
    int64 partial sum, and raises KernelOverflowError otherwise; the same
    bound is checked when B is built.
"""

from __future__ import annotations

import math

import numpy as np

from . import cyclo
from .exactlinalg import ExactMatrix, RING_CYC

#: Integer coordinates of a 27-vector: 8 power-basis coefficients per entry.
DIM = 27 * 8
_INT64_LIMIT = 2 ** 63

# ROT[k] right-multiplies an 8-coefficient block a (as a row) to give the
# block of zeta^k * a; its entries are 0 and +-1.
_ZETA_POW = np.array([cyclo.CycNum.zeta(k).num for k in range(20)], dtype=np.int64)
ROT = _ZETA_POW[(np.arange(20)[:, None] + np.arange(8)) % 20]


class KernelOverflowError(ValueError):
    """A product of the int64 kernel could leave the int64 range."""


class ScaleError(ValueError):
    """A value is not integral at the scale the kernel works at."""


def check_range(inner, max_b, max_v):
    """Refuse a product of `inner`-term sums whose partial sums could reach 2^63."""
    if inner * max_b * max_v >= _INT64_LIMIT:
        raise KernelOverflowError(
            f"{inner} * {max_b} * {max_v} reaches 2^63; the int64 kernel "
            "cannot form this product exactly")


def max_abs(a) -> int:
    # no |a| temporary: the cubic-form tensors are 1.3 MB each
    return max(int(a.max()), -int(a.min()))


class IntegerAction:
    """A 27x27 cyclotomic matrix as an exact integer map on n x 216 rows.

    A block-monomial matrix (one nonzero entry per row, like f1, f2, d and
    ac) is applied as a gather of 8-coefficient blocks and 27 8x8 products;
    any other matrix as one dense 216x216 product.  Both are int64 with the
    same guards.
    """

    def __init__(self, m: ExactMatrix):
        if m.ring != RING_CYC or m.rows != 27 or m.cols != 27:
            raise ValueError("the integer kernel needs a 27x27 cyclotomic matrix")
        self.den = math.lcm(*(e.den for row in m.data for e in row))
        coeffs = [[[n * (self.den // e.den) for n in e.num] for e in row]
                  for row in m.data]
        # A block entry sums at most 8 coefficients times +-1, so this also
        # keeps every entry of B below 2^63.
        check_range(DIM, 8 * max(abs(c) for row in coeffs for e in row for c in e), 1)
        # blocks[i, j] right-multiplies block j of a row into block i.
        blocks = np.tensordot(np.array(coeffs, dtype=np.int64), ROT[:8], axes=(2, 0))
        self.max_b = max_abs(blocks)
        nonzero = blocks.any(axis=(2, 3))
        if (nonzero.sum(axis=1) == 1).all():
            self.src = nonzero.argmax(axis=1)
            self.blocks = blocks[np.arange(27), self.src]
        else:
            self.src = None
            self.dense = blocks.transpose(1, 2, 0, 3).reshape(DIM, DIM)

    def raw(self, rows):
        """The rows of D * (m v), with no division.

        `rows` is n x 216, or n x 27 for vectors whose entries are rational
        integers (coefficient 0 of each block only); the result is n x 216.
        """
        check_range(DIM, self.max_b, max_abs(rows))
        scalar = rows.shape[1] == 27
        if self.src is None:
            return rows @ (self.dense[0::8] if scalar else self.dense)
        if scalar:
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
