"""Dense exact matrices over Q(zeta20) or GF(41).

A matrix carries a ring tag ("cyc" or "gf41").  A cyclotomic matrix holds
`CycNum` entries from :mod:`tits27.cyclo`, or integer power-basis
coefficients over one denominator, the form the kernel in `zkernel`
compiles, or both.  A GF(41) matrix holds one read-only int64 array of
residues mod 41 (`residues`, made by `from_residues`), and its products,
inverses, powers, equality, hashing and file form all read that array;
`Gf41` objects are decoded only when `data` is read.  Either form of a
matrix is derived from the other on first use and kept.  All arithmetic is
exact; elimination pivots on the first nonzero entry in column order, so
every result is deterministic.

File formats
    cyc R C     header, then R*C lines, one cyclotomic element per line
                (eight space-separated rationals)
    gf41 R C    header, then R lines of C decimal residues

Readers skip blank lines and lines starting with '#'.
"""

from __future__ import annotations

import math

import numpy as np

from . import cyclo, gf41
from .gf41 import SingularMatrixError

RING_CYC = "cyc"
RING_GF41 = "gf41"
_RINGS = (RING_CYC, RING_GF41)


class DimensionMismatchError(ValueError):
    pass


class RingMismatchError(ValueError):
    pass


class CheckFailed(ValueError):
    """The input is well formed, but a mathematical check found it wrong."""


class CapExceededError(ValueError):
    """An orbit or a subgroup closure outgrew the cap it was given."""


class ExactMatrix:
    """A rows x cols matrix with entries in one exact scalar ring.

    A cyclotomic matrix is held as scalar entries (`data`), as integer
    coefficients over one denominator (`coeffs`, `den`), or both; a GF(41)
    matrix as scalar entries, as its residue array (`residues`), or both.
    Each form is derived from the other on first read and kept.
    """

    __slots__ = ("ring", "rows", "cols", "_data", "_array", "_den", "action")

    def __init__(self, ring, data):
        if ring not in _RINGS:
            raise RingMismatchError(f"unknown ring {ring!r}")
        data = [list(row) for row in data]
        if not data or not data[0]:
            raise DimensionMismatchError("dimensions must be at least 1x1")
        cols = len(data[0])
        if any(len(row) != cols for row in data):
            raise DimensionMismatchError("ragged rows")
        self.ring = ring
        self.rows = len(data)
        self.cols = cols
        self._data = data
        self._array = self._den = None
        self.action = None  # the compiled zkernel.IntegerAction, set on first use

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n, ring):
        return _of_integers(np.eye(n, dtype=np.int64), ring)

    @classmethod
    def zeros(cls, rows, cols, ring):
        return _of_integers(np.zeros((rows, cols), dtype=np.int64), ring)

    @classmethod
    def from_coeffs(cls, coeffs, den):
        """The cyclotomic matrix with entry (i, j) = coeffs[i, j] / den, coeffs
        a rows x cols x 8 int64 array of power-basis coefficients, den >= 1."""
        return cls._held(RING_CYC, coeffs, den)

    @classmethod
    def _held(cls, ring, array, den=None):
        """The matrix held as `array` alone: coefficients or residues."""
        m = cls.__new__(cls)
        m.ring, m.rows, m.cols = ring, *array.shape[:2]
        m._data, m._array, m._den, m.action = None, array, den, None
        return m

    # -- the two forms -----------------------------------------------------

    @property
    def data(self):
        """The entries as lists of scalars."""
        if self._data is None:
            scalar = gf41.gf if self.ring == RING_GF41 else lambda c: cyclo.CycNum(c, self._den)
            self._data = [[scalar(v) for v in row] for row in self._array.tolist()]
        return self._data

    @property
    def coeffs(self):
        """A cyclotomic matrix as a rows x cols x 8 int64 array of power-basis
        coefficients over the denominator `den`."""
        return self._scaled()[0]

    @property
    def den(self):
        """The positive common denominator of `coeffs`."""
        return self._scaled()[1]

    def _scaled(self):
        """(coeffs, den), derived from `data` on first use with den the lcm
        of the entries' denominators.  The coefficients are formed as Python
        integers and refused with KernelOverflowError unless they fit in
        int64, so none wraps."""
        if self.ring != RING_CYC:
            raise RingMismatchError(f"expected a cyc matrix, got {self.ring}")
        if self._array is None:
            entries = [e for row in self.data for e in row]
            den = math.lcm(*(e.den for e in entries))
            nums = [n * (den // e.den) for e in entries for n in e.num]
            gf41.check_range(1, max(map(abs, nums)), 1)
            self._array = np.array(nums, dtype=np.int64).reshape(self.rows, self.cols, 8)
            self._den = den
        return self._array, self._den

    # -- basic protocol -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.ring, self.rows, self.cols) != (other.ring, other.rows, other.cols):
            return False
        if self.ring == RING_GF41:
            return np.array_equal(residues(self), residues(other))
        return self.data == other.data

    def __hash__(self):
        if self.ring == RING_GF41:
            return hash((self.rows, self.cols, residues(self).tobytes()))
        return hash((self.rows, self.cols, tuple(map(tuple, self.data))))

    def __repr__(self):
        return f"<ExactMatrix {self.ring} {self.rows}x{self.cols}>"

    def __mul__(self, other):
        return mat_mul(self, other)

    def __pow__(self, n):
        return mat_pow(self, n)

    def is_square(self):
        return self.rows == self.cols

    def is_diagonal(self):
        return all(self.data[i][j].is_zero()
                   for i in range(self.rows) for j in range(self.cols) if i != j)

    def is_monomial(self):
        """Exactly one nonzero entry in every row and every column."""
        if not self.is_square():
            return False
        col_hits = [0] * self.cols
        for row in self.data:
            nz = [j for j, e in enumerate(row) if not e.is_zero()]
            if len(nz) != 1:
                return False
            col_hits[nz[0]] += 1
        return all(h == 1 for h in col_hits)

    def diagonal(self):
        return tuple(self.data[i][i] for i in range(min(self.rows, self.cols)))


def _check_ring(a, b):
    if a.ring != b.ring:
        raise RingMismatchError(f"{a.ring} vs {b.ring}")


def residues(m: ExactMatrix) -> np.ndarray:
    """A gf41 matrix as its read-only rows x cols int64 array of residues."""
    if m.ring != RING_GF41:
        raise RingMismatchError(f"expected a gf41 matrix, got {m.ring}")
    if m._array is None:
        m._array = from_residues([[e.value for e in row] for row in m.data])._array
    return m._array


def from_residues(a) -> ExactMatrix:
    """The gf41 matrix of a 2-D array of integers, held as a read-only copy
    of their residues; no scalar object is made."""
    a = np.asarray(a, dtype=np.int64) % gf41.P
    if a.ndim != 2 or not a.size:
        raise DimensionMismatchError("dimensions must be at least 1x1")
    a.flags.writeable = False
    return ExactMatrix._held(RING_GF41, a)


def _of_integers(a, ring) -> ExactMatrix:
    """The matrix of a 2-D array of integers in `ring`."""
    if ring == RING_CYC:
        return ExactMatrix.from_coeffs(a[:, :, None] * np.eye(1, 8, dtype=np.int64), 1)
    if ring != RING_GF41:
        raise RingMismatchError(f"unknown ring {ring!r}")
    return from_residues(a)


def mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact matrix product."""
    _check_ring(a, b)
    if a.cols != b.rows:
        raise DimensionMismatchError(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    if a.ring == RING_GF41:
        return from_residues(gf41.matmul(residues(a), residues(b)))
    zero = cyclo.ZERO
    bdata = b.data
    out = []
    for arow in a.data:
        acc = [zero] * b.cols
        for k, aik in enumerate(arow):
            if aik.is_zero():
                continue
            brow = bdata[k]
            for j, bkj in enumerate(brow):
                if not bkj.is_zero():
                    acc[j] = acc[j] + aik * bkj
        out.append(acc)
    return ExactMatrix(a.ring, out)


def matvec(m: ExactMatrix, v) -> tuple:
    """Apply m to a sequence of scalars, returning a tuple."""
    if m.cols != len(v):
        raise DimensionMismatchError(f"{m.rows}x{m.cols} applied to length {len(v)}")
    if m.ring == RING_GF41:
        return tuple(map(gf41.gf, gf41.matmul(residues(m), [e.value for e in v]).tolist()))
    zero = cyclo.ZERO
    out = []
    for row in m.data:
        acc = zero
        for j, e in enumerate(row):
            if not e.is_zero():
                vj = v[j]
                if not vj.is_zero():
                    acc = acc + e * vj
        out.append(acc)
    return tuple(out)


def transpose(m: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(m.ring, [[m.data[i][j] for i in range(m.rows)]
                                for j in range(m.cols)])


def mat_inv(a: ExactMatrix) -> ExactMatrix:
    """Exact inverse by Gauss-Jordan elimination, first-nonzero pivoting."""
    if not a.is_square():
        raise DimensionMismatchError("inverse of a non-square matrix")
    if a.ring == RING_GF41:
        return from_residues(gf41.inverse(residues(a)))
    n = a.rows
    zero, one = cyclo.ZERO, cyclo.ONE
    aug = [list(row) + [one if i == j else zero for j in range(n)]
           for i, row in enumerate(a.data)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [inv * e for e in aug[col]]
        prow = aug[col]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [e - f * p for e, p in zip(aug[r], prow)]
    return ExactMatrix(a.ring, [row[n:] for row in aug])


def mat_pow(m: ExactMatrix, n: int) -> ExactMatrix:
    if not m.is_square():
        raise DimensionMismatchError("power of a non-square matrix")
    if n < 0:
        return mat_pow(mat_inv(m), -n)
    result = ExactMatrix.identity(m.rows, m.ring)
    base = m
    while n:
        if n & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base) if n > 1 else base
        n >>= 1
    return result


# -- elimination over GF(41) ---------------------------------------------------

def rref(m: ExactMatrix):
    """Reduced row echelon form of a gf41 matrix; returns (rows, pivot column list)."""
    red, pivots = gf41.rref(residues(m))
    return [[gf41.gf(v) for v in row] for row in red.tolist()], pivots


# -- file format ---------------------------------------------------------------

def format_matrix(m: ExactMatrix) -> str:
    lines = [f"{m.ring} {m.rows} {m.cols}"]
    if m.ring == RING_CYC:
        lines.extend(e.to_text() for row in m.data for e in row)
    else:
        lines.extend(" ".join(map(str, row)) for row in residues(m).tolist())
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> ExactMatrix:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty matrix file")
    header = lines[0].split()
    if len(header) != 3 or header[0] not in _RINGS:
        raise ValueError(f"bad matrix header {lines[0]!r}")
    ring, rows, cols = header[0], int(header[1]), int(header[2])
    body = lines[1:]
    if ring == RING_CYC:
        if len(body) != rows * cols:
            raise ValueError(f"expected {rows * cols} entry lines, got {len(body)}")
        try:
            entries = [cyclo.CycNum.from_text(ln) for ln in body]
        except ZeroDivisionError:
            raise ValueError("zero denominator in a cyc entry") from None
        return ExactMatrix(ring, [entries[r * cols:(r + 1) * cols] for r in range(rows)])
    if len(body) != rows:
        raise ValueError(f"expected {rows} rows, got {len(body)}")
    data = []
    for ln in body:
        parts = ln.split()
        if len(parts) != cols:
            raise ValueError(f"expected {cols} residues per row")
        data.append([int(p) % gf41.P for p in parts])
    return from_residues(data)


def save_matrix(m: ExactMatrix, path):
    with open(path, "w") as fh:
        fh.write(format_matrix(m))


def load_matrix(path) -> ExactMatrix:
    with open(path) as fh:
        return parse_matrix(fh.read())


def reduce_matrix_mod41(m: ExactMatrix) -> ExactMatrix:
    """Entrywise reduction of a cyclotomic matrix modulo 41."""
    if m.ring != RING_CYC:
        raise RingMismatchError("already a gf41 matrix")
    try:
        return from_residues([[gf41.reduce_cyc(e).value for e in row] for row in m.data])
    except ZeroDivisionError:
        raise ValueError("an entry has a denominator divisible by 41") from None
