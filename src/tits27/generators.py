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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import cyclo
from .cyclo import CycNum
from . import exactlinalg as la
from . import zkernel
from .exactlinalg import ExactMatrix, RING_CYC

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

_O = cyclo.ZERO
_1 = cyclo.ONE
_S = cyclo.SIGMA
_T = cyclo.TAU


def _cyc(entries):
    """4x4 cyclotomic matrix from a nested literal of CycNum values."""
    return ExactMatrix(RING_CYC, entries)


@dataclass(frozen=True)
class BlockConstants:
    """The 4x4 building blocks of d, ac and eprime."""

    I: ExactMatrix
    J: ExactMatrix
    K: ExactMatrix
    L: ExactMatrix
    A: ExactMatrix
    B: ExactMatrix
    C: ExactMatrix
    D: ExactMatrix
    E: ExactMatrix
    F: ExactMatrix
    G: ExactMatrix


@lru_cache(maxsize=1)
def block_constants() -> BlockConstants:
    I4 = ExactMatrix.identity(4, RING_CYC)
    J = _cyc([[_O, _O, _O, _1],
              [_O, _O, _1, _O],
              [_O, _1, _O, _O],
              [_1, _O, _O, _O]])
    K = _cyc([[_O, _1, _O, _O],
              [_O, _O, _O, _1],
              [_1, _O, _O, _O],
              [_O, _O, _1, _O]])
    L = _cyc([[_O, _O, _1, _O],
              [_1, _O, _O, _O],
              [_O, _O, _O, _1],
              [_O, _1, _O, _O]])
    A = _cyc([[_O, _T, _S, _O],
              [_T, _O, _O, _S],
              [_S, _O, _O, _T],
              [_O, _S, _T, _O]])
    B = _cyc([[-_1, _T, _S, -_1],
              [_T, -_1, -_1, _S],
              [_S, -_1, -_1, _T],
              [-_1, _S, _T, -_1]])
    C = _cyc([[_1, _S, _T, _1],
              [_S, _1, _1, _T],
              [_T, _1, _1, _S],
              [_1, _T, _S, _1]])
    D = _cyc([[_1, _O, _O, _1],
              [_O, _1, _1, _O],
              [_O, _1, _1, _O],
              [_1, _O, _O, _1]])
    E = _cyc([[_T, _1, _1, _S],
              [_1, _S, _T, _1],
              [_1, _T, _S, _1],
              [_S, _1, _1, _T]])
    F = _cyc([[-_1, _S, _T, -_1],
              [_S, -_1, -_1, _T],
              [_T, -_1, -_1, _S],
              [-_1, _T, _S, -_1]])
    G = _cyc([[_T, _O, _O, _S],
              [_O, _S, _T, _O],
              [_O, _T, _S, _O],
              [_S, _O, _O, _T]])
    return BlockConstants(I4, J, K, L, A, B, C, D, E, F, G)


def _place(data, brow, bcol, block, scalar=_1):
    """Write scalar*block into the 4x4 slot (brow, bcol), blocks numbered 1..6."""
    r0, c0 = 3 + 4 * (brow - 1), 3 + 4 * (bcol - 1)
    for r in range(4):
        for c in range(4):
            e = block.data[r][c]
            if not e.is_zero():
                data[r0 + r][c0 + c] = scalar * e


def build_f1f2():
    """The two diagonal generators of order 5."""
    z = cyclo.Z
    f1 = ExactMatrix(RING_CYC, [[z ** F1_EXP[i] if i == j else _O for j in range(27)]
                                for i in range(27)])
    f2 = ExactMatrix(RING_CYC, [[z ** F2_EXP[i] if i == j else _O for j in range(27)]
                                for i in range(27)])
    return f1, f2


def build_d_ac():
    """The signed-monomial generators: the involution d and the order-12 ac."""
    bc = block_constants()
    i = cyclo.I

    d = [[_O] * 27 for _ in range(27)]
    d[0][0] = _1
    d[1][1] = -_1
    d[2][2] = -_1
    _place(d, 1, 1, bc.I, -_1)
    _place(d, 2, 2, bc.J, -_1)
    _place(d, 3, 4, bc.I, -i)
    _place(d, 4, 3, bc.I, i)
    _place(d, 5, 6, bc.L, i)
    _place(d, 6, 5, bc.K, -i)

    ac = [[_O] * 27 for _ in range(27)]
    ac[0][1] = _1
    ac[1][2] = _1
    ac[2][0] = _1
    for brow, bcol in ((1, 5), (2, 6), (3, 1), (4, 2), (5, 3), (6, 4)):
        _place(ac, brow, bcol, bc.K)

    return ExactMatrix(RING_CYC, d), ExactMatrix(RING_CYC, ac)


# eprime layout: 3x3 corner, per-block scalars for the mixed 3x24 part, and
# the 6x6 grid of A..G blocks (all then scaled by 1/5).
_CORNER = ((2, 2, 1), (2, 1, 2), (1, 2, 2))
_MIXED = ((0, -1, 1, 1, -1, 0),
          (-1, 0, 0, -1, 1, 1),
          (1, 1, -1, 0, 0, -1))
_GRID = ("ABADEF", "BCDGFG", "ADEFAB", "DGFGBC", "EFABAD", "FGBCDG")


def build_eprime() -> ExactMatrix:
    """The dense symmetric involution, entries in (1/5)*{0, +-1, +-2, sigma, tau}."""
    bc = block_constants()
    n = [[_O] * 27 for _ in range(27)]
    for r in range(3):
        for c in range(3):
            n[r][c] = CycNum.from_int(_CORNER[r][c])
    for r in range(3):
        for b in range(6):
            s = _MIXED[r][b]
            if s:
                sc = CycNum.from_int(s)
                for k in range(4):
                    n[r][3 + 4 * b + k] = sc
                    n[3 + 4 * b + k][r] = sc
    for br, letters in enumerate(_GRID):
        for bcidx, letter in enumerate(letters):
            _place(n, br + 1, bcidx + 1, getattr(bc, letter))
    return la.scale_matrix(ExactMatrix(RING_CYC, n), cyclo.FIFTH)


@dataclass(frozen=True)
class GeneratorSet:
    f1: ExactMatrix
    f2: ExactMatrix
    d: ExactMatrix
    ac: ExactMatrix
    eprime: ExactMatrix

    def as_dict(self):
        return {"f1": self.f1, "f2": self.f2, "d": self.d,
                "ac": self.ac, "eprime": self.eprime}

    def in_order(self):
        return (self.f1, self.f2, self.d, self.ac, self.eprime)


NAMES = ("f1", "f2", "d", "ac", "eprime")


@lru_cache(maxsize=1)
def build_all() -> GeneratorSet:
    f1, f2 = build_f1f2()
    d, ac = build_d_ac()
    return GeneratorSet(f1, f2, d, ac, build_eprime())


@lru_cache(maxsize=1)
def build_all_gf41():
    """The five generators reduced entrywise modulo 41, in standard order."""
    g = build_all()
    return tuple(la.reduce_matrix_mod41(m) for m in g.in_order())


def verify_relations(g: GeneratorSet) -> tuple:
    """Check the defining relations and unitarity of a generator set.

    Returns a tuple of 13 `(name, ok)` pairs: eight relations, then one
    unitarity check per generator in standard order.

    Every row is decided on the exact integer kernel of `zkernel`, which
    has no other arithmetic path.  A word w, rightmost factor first, is applied to
    the 27 unit vectors, giving the rows of D * (w e_j) with D the product
    of the factors' denominators; two words are equal iff the rows of each
    times the other's D agree.  `check_range` guards every application and
    both multiplications, so an unsafe generator set raises
    KernelOverflowError and gets no verdict; the `zkernel` docstring gives
    the argument.  For square matrices X ac = 1 makes X the inverse of ac,
    so "eprime inverts ac" is decided as eprime ac eprime ac = 1, and "f1
    conjugated by ac is f2" as f1 ac = ac f2, the same relation for an
    invertible ac (a singular ac fails both rows about ac before it).  ac
    has order 12 iff (ac)^12 = 1 and no smaller power is 1.  Unitarity is
    m* m = 1, with D m* read off the conjugated images of m.
    """
    acts = dict(zip(NAMES, map(zkernel.IntegerAction.of, g.in_order())))

    def images(word):
        """(rows, D) after each factor of `word`, applied right to left."""
        rows, den = np.eye(27, dtype=np.int64), 1
        for name in reversed(word.split()):
            rows, den = acts[name].raw(rows), den * acts[name].den
            yield rows, den

    def image(word):
        *_, last = images(word)
        return last

    def is_one(word):
        return _same(image(word), _ONE)

    def has_order(name, n):
        ones = [_same(x, _ONE) for x in images(f"{name} " * n)]
        return ones[-1] and not any(ones[:-1])

    checks = [
        ("f1^5 = 1", is_one("f1 " * 5)),
        ("f2^5 = 1", is_one("f2 " * 5)),
        ("f1 f2 = f2 f1", _same(image("f1 f2"), image("f2 f1"))),
        ("d^2 = 1", is_one("d d")),
        ("(ac)^12 = 1 and no smaller power", has_order("ac", 12)),
        ("eprime^2 = 1", is_one("eprime eprime")),
        ("eprime inverts ac", is_one("eprime ac eprime ac")),
        ("f1 conjugated by ac is f2", _same(image("f1 ac"), image("ac f2"))),
    ]
    for name in NAMES:
        rows, den = image(name)
        adjoint = zkernel.IntegerAction.from_coeffs(zkernel.conj(rows).reshape(27, 27, 8), den)
        checks.append((f"{name} unitary", _same((adjoint.raw(rows), den * den), _ONE)))
    return tuple(checks)


# The identity as an image: the unit vectors in the 216-column layout.
_ONE = (np.kron(np.eye(27, dtype=np.int64), np.eye(1, 8, dtype=np.int64)), 1)


def _same(a, b):
    """Whether the images (rows, D) and (rows', D') agree: D' rows = D rows'."""
    (rows_a, den_a), (rows_b, den_b) = a, b
    # each D must itself be an int64, even against a zero image
    zkernel.check_range(1, den_b, max(1, zkernel.max_abs(rows_a)))
    zkernel.check_range(1, den_a, max(1, zkernel.max_abs(rows_b)))
    return np.array_equal(den_b * rows_a, den_a * rows_b)


def row_norms_are_one(m: ExactMatrix) -> bool:
    """Whether every row of m has norm sum_j m_ij conj(m_ij) = 1.

    The norms are the diagonal of m m*, decided on the kernel from the
    images of the unit vectors that the unitarity rows of `verify_relations`
    build: row j of those images is column j of D m, so conjugating every
    block and transposing the blocks gives the columns of D m*, and row i
    of the image of D m on them is D^2 m m* e_i, whose block i must be D^2.
    """
    act = zkernel.IntegerAction.of(m)
    rows = act.raw(np.eye(27, dtype=np.int64))
    star = zkernel.conj(rows).reshape(27, 27, 8).transpose(1, 0, 2).reshape(27, zkernel.DIM)
    diag = act.raw(star).reshape(27, 27, 8)[np.arange(27), np.arange(27)]
    return _same((diag, act.den ** 2), (np.tile(np.eye(1, 8, dtype=np.int64), (27, 1)), 1))
