"""The five generators built entry by entry in CycNum arithmetic.

An independent reference for `generators.build_all`, which builds them as
integer coefficient arrays: here every entry is a `CycNum`, each 4x4 block
is a literal of the constants 0, +-1, sigma and tau of `cyclo`, and each
block is placed with its scalar by one `CycNum` product per entry.  The
exponent tables are `generators.F1_EXP` and `F2_EXP`; the eprime layout is
restated here.  Also `scale_matrix`, the scalar multiple of a matrix entry
by entry, and `conj_transpose`, the conjugate transpose entry by entry;
and the test-side views `point`, `terms`, `with_flipped`, `is_diagonal` and
`approx`, which no program code reads.
"""

import cmath
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from tits27 import cyclo, generators
from tits27.cubicform import CubicForm
from tits27.cyclo import CycNum
from tits27.exactlinalg import ExactMatrix, RING_CYC
from tits27.orbits import SCALE

_O = cyclo.ZERO
_1 = cyclo.ONE
_S = cyclo.SIGMA
_T = cyclo.TAU


def scale_matrix(m: ExactMatrix, s: CycNum) -> ExactMatrix:
    """s * m, entry by entry."""
    return ExactMatrix(m.ring, [[s * e for e in row] for row in m.data])


def conj_transpose(m: ExactMatrix) -> ExactMatrix:
    """The entrywise conjugate of the transpose, one CycNum at a time."""
    return ExactMatrix(RING_CYC, [[m.data[i][j].conj() for i in range(m.rows)]
                                  for j in range(m.cols)])


def point(row) -> tuple:
    """27 exact scalars from a 216-coefficient orbit row at SCALE, held as
    integers or as floats that hold integers (the stored float32 rows)."""
    ints = np.asarray(row).ravel().astype(np.int64)
    assert np.array_equal(ints, np.asarray(row).ravel()), "not an integer row"
    row = ints.tolist()
    return tuple(CycNum(row[8 * j:8 * j + 8], SCALE) for j in range(27))


def terms(form: CubicForm) -> list:
    """The (labels, sign) pairs of the form, in form order."""
    return [(tuple(generators.LABELS[i] for i in row), int(s))
            for row, s in zip(form.idx, form.signs)]


def with_flipped(form: CubicForm, coords) -> CubicForm:
    """The form with the sign of its term on `coords` flipped."""
    return CubicForm((labels, -s if set(labels) == set(coords) else s)
                     for labels, s in terms(form))


def is_diagonal(m: ExactMatrix) -> bool:
    """Whether every nonzero entry of m is on its diagonal, read off its array."""
    return not (m._nonzero() & ~np.eye(m.rows, m.cols, dtype=bool)).any()


def approx(c: CycNum) -> complex:
    """The complex value of c under zeta -> exp(2 pi i / 20)."""
    z = cmath.exp(2j * cmath.pi / 20)
    return sum(n * z ** k for k, n in enumerate(c.num)) / c.den


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
    f1 = ExactMatrix(RING_CYC, [[z ** generators.F1_EXP[i] if i == j else _O
                                 for j in range(27)] for i in range(27)])
    f2 = ExactMatrix(RING_CYC, [[z ** generators.F2_EXP[i] if i == j else _O
                                 for j in range(27)] for i in range(27)])
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
# the 6x6 grid of A..G blocks (all then scaled by 1/5), as printed in the paper.
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
    return scale_matrix(ExactMatrix(RING_CYC, n), cyclo.FIFTH)


@lru_cache(maxsize=1)
def build_all() -> generators.GeneratorSet:
    f1, f2 = build_f1f2()
    d, ac = build_d_ac()
    return generators.GeneratorSet(f1, f2, d, ac, build_eprime())
