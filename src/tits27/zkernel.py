"""An exact kernel for 27x27 matrices over Q(zeta20) acting on Z^216.

Q(zeta20)^27 is Q^216 as a vector space: entry j of a 27-vector is the
coefficient block 8j..8j+7 in the power basis 1, zeta, ..., zeta^7.
Multiplication by c in Q(zeta20) right-multiplies a block by the 8x8
rational matrix sum_k c_k ROT[k], ROT[k] the matrix of multiplication by
zeta^k, so a 27x27 matrix m is a 216x216 rational matrix.  IntegerAction
reads m as the int64 coefficients of D * m, D its common denominator
(`ExactMatrix.coeffs` and `.den`: the array every matrix holds from the
moment it is built, in lowest terms), and compiles them
once into the 216x216 integer matrix B whose block (j, i) right-multiplies
block j of a row into block i; nothing compiles a matrix before its action
is first asked for.  It applies B to n x 216 integer rows, one vector v per
row, as the single product rows @ B, giving the rows of D * (m v); the rows
are integers or floats that hold integers, and the product is a float array
of exact integers (see Exactness guards).  On
n x 27 rows of rational integers (coefficient 0 of each block only) it uses
the 27 rows B[0::8].  The action of m^T is B with its 8x8 blocks transposed
as blocks, so it needs no second compile.

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
    products like every application.  Conjugation is the automorphism
    zeta -> zeta^19, Q-linear on the power basis, so on a block of
    coefficients it is the fixed matrix CONJ whose row j holds the
    coefficients of zeta^-j, all 0 or +-1.  D m* e_i, the image of a unit
    vector under D m*, is the conjugate of row i of D m: its coefficient
    array times CONJ, blockwise, with no compile.  `raw` of m on those 27
    rows gives D^2 m m*, which is D^2 iff m is unitary, and whose diagonal
    holds the row norms of m (`generators.row_norms_are_one`).

Exactness guards
    The kernel never rounds and has no other arithmetic path.  The product
    is formed by BLAS in a float type, and it is exact: every integer of
    magnitude at most 2^53 is a float64, and every one at most 2^24 a
    float32.  When the matrix is compiled, 216 * 8 * c < 2^53 is checked,
    with c the largest coefficient of D * m.  The coefficients arrive as
    int64, and none has wrapped: a matrix built from scalars forms them as
    Python integers and holds them as int64 only if all fit;
    `ExactMatrix.coeffs` refuses the rest.  B is one float64 product, the
    coefficients as a 729 x 8 matrix times ROT[0..7] as an 8 x 64 one, with
    its axes then permuted: an entry sums 8 coefficients times 0 or +-1, so
    B is exact and max|B| <= 8c.  B is then held once, in float32 when
    max|B| < 2^24 (every paper generator: max|B| is 1 or 2) and in float64
    otherwise.  D < 2^53 is checked too.  Before each application `raw`
    checks 216 * max|B| * max|V| < 2^53 and raises KernelOverflowError
    otherwise.  Then every entry of B and of the rows, and every product of
    one entry of each, is such an integer.  An entry of the result is a sum
    of at most 216 of those products; in any summation order, and with or
    without fused multiply-add, each partial sum is an integer bounded by
    the sum of the absolute values of its terms, below 2^53, so no operation
    rounds.  The same argument with 24 bits makes a float32 product exact
    when 216 * max|B| * max|V| < 2^24 (with max|B| and max|V| at least 1, so
    that B and the rows are float32 exactly too).  Rows of either kind,
    integers or floats that hold integers (the kernel's own images), are
    multiplied in float32 when that bound and D < 2^24 hold, and in float64
    otherwise, with B cast up for that product if it is held in float32; a
    float32 product needs max|B| < 2^24, so B is then float32 already.  The
    result stays in the type of the product, each entry an exact integer
    below 2^53, for the caller to key or compare; a caller that scales it
    casts it to int64 first, which is exact (`generators._same`).
    ``act(rows)`` divides in that type, in place, and skips the division
    when D = 1.  A stack (`IntegerAction.stack`) places the B of k actions
    side by side, one 216 x 216k matrix, held in float64 if any of them is,
    so `raw` applies them all to the same rows as one product.  Each entry
    of that product is the entry of one block's product, a sum of 216
    products of an entry of that B and one of the rows, so the guards above
    hold with max|B| taken over the stack, and the float32 test takes the
    largest D among the blocks.  A call divides only the blocks whose D
    exceeds 1, each by its own D, with the exactness test below and
    ScaleError; the blocks with D = 1 are left as they are.  With t = 53 for
    float64 and t = 24 for float32, where |p| < 2^t and 1 < D < 2^t: p / D
    rounded to the type is an integer iff D divides p, since it is then
    exact, and otherwise it lies within 2^(e-t) < 1/D of p / D, with 2^e <=
    |p / D| < 2^t / D, while every integer is at least 1/D away.  A kernel
    of this kind, exact floating-point products under a bound on their sums,
    is the approach of Dumas, Gautier and Pernet, "Finite field linear
    algebra subroutines" (ISSAC 2002).
"""

from __future__ import annotations

import numpy as np

from . import cyclo
from .exactlinalg import ExactMatrix, RING_CYC
# The range guard, its error and max_abs are shared with the GF(p) kernel in gf41.
from .gf41 import KernelOverflowError, check_range, max_abs  # noqa: F401

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


class IntegerAction:
    """A 27x27 cyclotomic matrix as an exact integer map on n x 216 rows:
    D times its 216x216 rational matrix, applied as one float product."""

    #: The denominators of a stack's blocks (see `stack`); None for one matrix.
    dens = None

    def __init__(self, m: ExactMatrix):
        if m.ring != RING_CYC or m.rows != 27 or m.cols != 27:
            raise ValueError("the integer kernel needs a 27x27 cyclotomic matrix")
        self._compile(m.coeffs, m.den)

    @classmethod
    def of(cls, m: ExactMatrix):
        """The action of m, compiled on first use and kept on the matrix,
        which is never changed in place."""
        if m.action is None:
            m.action = cls(m)
        return m.action

    def _compile(self, coeffs, den):
        """Check the bounds of the module docstring, then form B as one float64
        product: block (j, i) is sum_k coeffs[i, j, k] ROT[k], exact sums of 8 terms."""
        check_range(DIM, 8 * max_abs(coeffs), 1, bits=53)
        check_range(1, den, 1, bits=53)
        # row (i, j) of the product holds the 8 x 8 block of m_ij
        blocks = coeffs.reshape(27 * 27, 8).astype(np.float64) @ ROT[:8].reshape(8, 64)
        dense = blocks.reshape(27, 27, 8, 8).transpose(1, 2, 0, 3).reshape(DIM, DIM)
        self.den, self.max_b = den, max_abs(dense)
        self.dense = dense.astype(exact_float(1, 1, self.max_b))  # held once (see Exactness guards)

    @classmethod
    def stack(cls, actions):
        """The actions side by side, one 216-column block each: `raw` gives
        every block's product at once, and a call divides each block by its
        own D (see Exactness guards)."""
        act = cls.__new__(cls)
        act.dens = tuple(a.den for a in actions)
        act.den = max(act.dens)  # bounds every block's D for the float32 test
        act.max_b = max(a.max_b for a in actions)
        act.dense = np.hstack([a.dense for a in actions])
        return act

    def transposed(self):
        """The action of m^T: every block moved to its mirror position."""
        act = IntegerAction.__new__(IntegerAction)
        act.den, act.max_b = self.den, self.max_b
        act.dense = self.dense.reshape(27, 8, 27, 8).transpose(2, 1, 0, 3).reshape(DIM, DIM)
        return act

    def raw(self, rows):
        """The rows of D * (m v), with no division.

        `rows` is n x 216, or n x 27 for vectors whose entries are rational
        integers (coefficient 0 of each block only); the result is n x 216.
        Rows of integers, or of floats that hold integers, give the narrowest
        float type the product is exact in (see Exactness guards): float32
        when it fits 2^24, else float64.
        """
        ftype = exact_float(DIM, self.max_b, max_abs(rows), narrow=self.den < 2 ** 24)
        dense = self.dense if rows.shape[1] == DIM else self.dense[0::8]
        return rows.astype(ftype, copy=False) @ dense.astype(ftype, copy=False)

    def __call__(self, rows):
        """The rows of m v, in the type `raw` gives; the division by D must be
        exact, and a stack divides only its blocks whose D is above 1."""
        out = self.raw(rows)
        for k, den in enumerate(self.dens or (self.den,)):
            if den == 1:
                continue
            block = out[:, k * DIM:(k + 1) * DIM]
            np.divide(block, den, out=block)
            if (block != np.trunc(block)).any():  # exact when D divides, never integral otherwise
                raise ScaleError("an image is not integral at the scale of its preimage")
        return out


def exact_float(inner, max_b, max_v, narrow=True):
    """The float type that forms sums of `inner` products of integers bounded
    by max_b and max_v exactly: float32 if `narrow` and every operand and
    partial sum stays below 2^24, else float64, refused past 2^53."""
    if narrow and inner * max(max_b, 1) * max(max_v, 1) < 2 ** 24:
        return np.float32
    check_range(inner, max_b, max_v, bits=53)
    return np.float64

