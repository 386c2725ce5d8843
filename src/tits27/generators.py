"""The five 27x27 unitary generators f1, f2, d, ac, eprime.

Coordinates are labelled (-3, -2, -1; 1..24): three corner coordinates
followed by six 4-blocks B1..B6 covering labels 1-4, 5-8, ..., 21-24.  The
blocks are the fixed spaces of the six cyclic subgroups of the diagonal 5^2
generated by f1 and f2, which act diagonally by powers of z = e^{2 pi i/5}
according to the exponent tables below.

d and ac permute the six blocks through the 4x4 patterns I, J, K, L (K and L
are mutually inverse 4-cycles, J a double transposition).  eprime is the
dense symmetric involution assembled from the 4x4 blocks A..G with entries
in {0, +-1, sigma, tau}, all scaled by 1/5.  A scalar printed where a 1x4 or
4x1 block belongs in the eprime layout denotes that scalar times the
all-ones row/column, which is the unique reading giving every row norm
exactly 1.

Every table here is a small integer array, and the generators are built
from them as 27 x 27 x 8 int64 arrays of power-basis coefficients over one
denominator (1 for f1, f2, d and ac; 5 for eprime), the one array an
`ExactMatrix` holds and the form the kernel in `zkernel` compiles.  A 4x4
block is an array of indices into the coefficient rows of 0, +-1, sigma and
tau, and a scalar zeta^k on a block is one product with `zkernel.ROT[k]`.
`build_all` and `build_all_gf41` both return a `GeneratorSet`, the five
matrices by name.  The reductions mod 41 are one `gf41.reduce_rows` per
generator (`exactlinalg.reduce_matrix_mod41`), kept as residue arrays that
`basisfinder` and the GF(41) matrix files read as they are.  Printing a
generator reads its array too, so no scalar object is made on the way.
Unitarity is decided as D^2 m m* = D^2 (`verify_relations`), with the
rows of D m* read off the coefficient array: m m* = 1 iff m* m = 1 for a
square matrix, so no adjoint is compiled.
Per-scalar `CycNum`s stay where single cyclotomic values are read or
computed: parsing cyc matrix files, the cyclotomic products and inverses of
`eval`, and `gf41.lift_table`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import exactlinalg as la
from . import zkernel
from .exactlinalg import ExactMatrix

#: Coordinate labels in storage order; index 0..26.
LABELS = (-3, -2, -1) + tuple(range(1, 25))
LABEL_INDEX = {lab: i for i, lab in enumerate(LABELS)}

#: z-power exponent of f1 / f2 on each coordinate, in label order.
F1_EXP = (0, 0, 0,
          1, 2, 3, 4,
          0, 0, 0, 0,
          3, 1, 4, 2,
          3, 1, 4, 2,
          1, 2, 3, 4,
          2, 4, 1, 3)
F2_EXP = (0, 0, 0,
          4, 3, 2, 1,
          4, 3, 2, 1,
          3, 1, 4, 2,
          1, 2, 3, 4,
          3, 1, 4, 2,
          0, 0, 0, 0)

#: Row k: the power-basis coefficients of zeta^k; z = zeta^4.
_ZETA = zkernel.ROT[:, 0]

#: The entries of the 4x4 blocks by code: 0, 1, -1, sigma = -z - z^4 and
#: tau = -z^2 - z^3, as rows of power-basis coefficients.
_CODES = "01-st"
_ENTRY = np.stack([np.zeros_like(_ZETA[0]), _ZETA[0], -_ZETA[0],
                   -_ZETA[4] - _ZETA[16], -_ZETA[8] - _ZETA[12]])

_PATTERNS = {
    "I": ("1000", "0100", "0010", "0001"),
    "J": ("0001", "0010", "0100", "1000"),
    "K": ("0100", "0001", "1000", "0010"),
    "L": ("0010", "1000", "0001", "0100"),
    "A": ("0ts0", "t00s", "s00t", "0st0"),
    "B": ("-ts-", "t--s", "s--t", "-st-"),
    "C": ("1st1", "s11t", "t11s", "1ts1"),
    "D": ("1001", "0110", "0110", "1001"),
    "E": ("t11s", "1st1", "1ts1", "s11t"),
    "F": ("-st-", "s--t", "t--s", "-ts-"),
    "G": ("t00s", "0st0", "0ts0", "s00t"),
}
#: The 4x4 blocks as 4 x 4 x 8 coefficient arrays.
_BLOCKS = {name: _ENTRY[[[_CODES.index(ch) for ch in row] for row in rows]]
          for name, rows in _PATTERNS.items()}


def _assemble(corner, blocks):
    """27 x 27 x 8 coefficients: the 3x3 `corner` of rational integers, and
    zeta^k times block `letter` at each (brow, bcol, letter, k) of `blocks`,
    block rows and columns numbered 1..6."""
    out = np.zeros((27, 27, 8), dtype=np.int64)
    out[:3, :3, 0] = corner
    for brow, bcol, letter, k in blocks:
        r, c = 4 * brow - 1, 4 * bcol - 1
        out[r:r + 4, c:c + 4] = _BLOCKS[letter] @ zkernel.ROT[k]
    return out


def _diagonal(exponents):
    """The diagonal matrix of the powers z^e."""
    out = np.zeros((27, 27, 8), dtype=np.int64)
    out[range(27), range(27)] = _ZETA[4 * np.array(exponents)]
    return out


# d and ac: the 3x3 corner, and the blocks with -1 = zeta^10, i = zeta^5,
# -i = zeta^15.
_D_CORNER = ((1, 0, 0), (0, -1, 0), (0, 0, -1))
_AC_CORNER = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
_D_BLOCKS = ((1, 1, "I", 10), (2, 2, "J", 10), (3, 4, "I", 15),
             (4, 3, "I", 5), (5, 6, "L", 5), (6, 5, "K", 15))
_AC_BLOCKS = tuple((brow, bcol, "K", 0)
                   for brow, bcol in ((1, 5), (2, 6), (3, 1), (4, 2), (5, 3), (6, 4)))

# eprime layout: 3x3 corner, per-block scalars for the mixed 3x24 part, and
# the 6x6 grid of A..G blocks (all then scaled by 1/5).
_CORNER = ((2, 2, 1), (2, 1, 2), (1, 2, 2))
_MIXED = ((0, -1, 1, 1, -1, 0),
          (-1, 0, 0, -1, 1, 1),
          (1, 1, -1, 0, 0, -1))
_GRID = ("ABADEF", "BCDGFG", "ADEFAB", "DGFGBC", "EFABAD", "FGBCDG")


def _eprime():
    """5 eprime: entries in {0, +-1, +-2, sigma, tau}."""
    out = _assemble(_CORNER, [(br + 1, bc + 1, letter, 0)
                              for br, letters in enumerate(_GRID)
                              for bc, letter in enumerate(letters)])
    mixed = np.repeat(_MIXED, 4, axis=1)
    out[:3, 3:, 0], out[3:, :3, 0] = mixed, mixed.T
    return out


class GeneratorSet(NamedTuple):
    """The five generators by name, in standard order, over either ring."""
    f1: ExactMatrix
    f2: ExactMatrix
    d: ExactMatrix
    ac: ExactMatrix
    eprime: ExactMatrix


NAMES = GeneratorSet._fields


@lru_cache(maxsize=1)
def build_all() -> GeneratorSet:
    m = ExactMatrix.from_coeffs
    return GeneratorSet(m(_diagonal(F1_EXP), 1), m(_diagonal(F2_EXP), 1),
                        m(_assemble(_D_CORNER, _D_BLOCKS), 1),
                        m(_assemble(_AC_CORNER, _AC_BLOCKS), 1), m(_eprime(), 5))


@lru_cache(maxsize=1)
def build_all_gf41() -> GeneratorSet:
    """The five generators reduced entrywise modulo 41."""
    return GeneratorSet(*map(la.reduce_matrix_mod41, build_all()))


def verify_relations(g: GeneratorSet) -> tuple:
    """Check the defining relations and unitarity of a generator set.

    Returns a tuple of 13 `(name, ok)` pairs: eight relations, then one
    unitarity check per generator in standard order.

    Every row is decided on the exact integer kernel of `zkernel`, which
    has no other arithmetic path.  A word w, a list of matrices as
    `orbits.scalar_character` takes, is applied rightmost factor first to
    the 27 unit vectors, through each matrix's `IntegerAction.of`, giving
    the rows of D * (w e_j) with D the product of the factors'
    denominators; two words are equal iff the rows of each times the
    other's D agree, compared in int64 (`_same`).  `check_range` guards
    every application and both multiplications, so an unsafe generator set
    raises KernelOverflowError and gets no verdict; the `zkernel` docstring
    gives the argument.  For square matrices X ac = 1 makes X the inverse of ac,
    so "eprime inverts ac" is decided as eprime ac eprime ac = 1, and "f1
    conjugated by ac is f2" as f1 ac = ac f2, the same relation for an
    invertible ac (a singular ac fails both rows about ac before it).  ac
    has order 12 iff (ac)^12 = 1 and no smaller power is 1.  Unitarity is
    decided as D^2 m m* = D^2 (`_times_adjoint`): for a square matrix a
    one-sided inverse is two-sided, so m m* = 1 iff m* m = 1.
    """
    f1, f2, d, ac, eprime = g

    def images(word):
        """(rows, D) after each matrix of `word`, applied right to left."""
        rows, den = np.eye(27, dtype=np.int64), 1
        for act in map(zkernel.IntegerAction.of, reversed(word)):
            rows, den = act.raw(rows), den * act.den
            yield rows, den

    def image(word):
        *_, last = images(word)
        return last

    def is_one(word):
        return _same(image(word), _ONE)

    def has_order(m, n):
        ones = [_same(x, _ONE) for x in images([m] * n)]
        return ones[-1] and not any(ones[:-1])

    checks = [
        ("f1^5 = 1", is_one([f1] * 5)),
        ("f2^5 = 1", is_one([f2] * 5)),
        ("f1 f2 = f2 f1", _same(image([f1, f2]), image([f2, f1]))),
        ("d^2 = 1", is_one([d, d])),
        ("(ac)^12 = 1 and no smaller power", has_order(ac, 12)),
        ("eprime^2 = 1", is_one([eprime, eprime])),
        ("eprime inverts ac", is_one([eprime, ac, eprime, ac])),
        ("f1 conjugated by ac is f2", _same(image([f1, ac]), image([ac, f2]))),
    ]
    for name, m in g._asdict().items():
        checks.append((f"{name} unitary", _same(_times_adjoint(m), _ONE)))
    return tuple(checks)


# The identity as an image: the unit vectors in the 216-column layout.
_ONE = (np.kron(np.eye(27, dtype=np.int64), np.eye(1, 8, dtype=np.int64)), 1)


def _same(a, b):
    """Whether the images (rows, D) and (rows', D') agree: D' rows = D rows'.

    The rows hold integers below 2^24, kernel products being float32
    arrays, so both sides are scaled in int64, after an exact cast: scaling
    float32 rows by D could round.
    """
    (rows_a, den_a), (rows_b, den_b) = a, b
    # each D must itself be an int64, even against a zero image
    zkernel.check_range(1, den_b, max(1, zkernel.max_abs(rows_a)))
    zkernel.check_range(1, den_a, max(1, zkernel.max_abs(rows_b)))
    return np.array_equal(den_b * rows_a.astype(np.int64), den_a * rows_b.astype(np.int64))


def _times_adjoint(m: ExactMatrix):
    """D^2 m m* as an image (rows, D^2): row i is D^2 m m* e_i.

    D m* e_i is the conjugate of row i of D m, read off the coefficient
    array as each block times CONJ, so no adjoint is compiled.  Its entries
    are 8-term sums of +-1 times a coefficient, exact in int64: the compile
    of m has already refused any m with 8 * max|coefficient| >= 2^24.
    The action of D m on those rows gives the rest, guarded like any `raw`.
    """
    act = zkernel.IntegerAction.of(m)
    star = (m.coeffs @ zkernel.CONJ).reshape(27, zkernel.DIM)
    return act.raw(star), act.den ** 2


def row_norms_are_one(m: ExactMatrix) -> bool:
    """Whether every row of m has norm sum_j m_ij conj(m_ij) = 1: the
    diagonal of m m*, block i of row i of `_times_adjoint`, must be 1."""
    rows, den2 = _times_adjoint(m)
    diag = rows.reshape(27, 27, 8)[np.arange(27), np.arange(27)]
    return _same((diag, den2), (np.tile(np.eye(1, 8, dtype=np.int64), (27, 1)), 1))
