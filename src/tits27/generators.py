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

from . import cyclo
from .cyclo import CycNum
from . import exactlinalg as la
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
    """
    ident = ExactMatrix.identity(27, RING_CYC)
    ac_inv = la.mat_inv(g.ac)
    checks = [
        ("f1^5 = 1", g.f1 ** 5 == ident),
        ("f2^5 = 1", g.f2 ** 5 == ident),
        ("f1 f2 = f2 f1", g.f1 * g.f2 == g.f2 * g.f1),
        ("d^2 = 1", g.d * g.d == ident),
        ("(ac)^12 = 1 and no smaller power", _order_is(g.ac, 12)),
        ("eprime^2 = 1", g.eprime * g.eprime == ident),
        ("eprime inverts ac", g.eprime * g.ac * g.eprime == ac_inv),
        ("f1 conjugated by ac is f2", ac_inv * g.f1 * g.ac == g.f2),
    ]
    checks.extend((f"{name} unitary", la.is_unitary(m))
                  for name, m in zip(NAMES, g.in_order()))
    return tuple(checks)


def _order_is(m, n):
    try:
        return la.mat_order(m, cap=60) == n
    except la.OrderExceedsCapError:
        return False


def row_norm(m: ExactMatrix, i: int) -> CycNum:
    """Sum of entry * conj(entry) across row i."""
    acc = cyclo.ZERO
    for e in m.data[i]:
        if not e.is_zero():
            acc = acc + e * e.conj()
    return acc
