"""Dense exact matrices over Q(zeta20) or GF(41).

A matrix carries a ring tag ("cyc" or "gf41") and holds one read-only
integer array, set when it is built.  A cyclotomic matrix holds integer
power-basis coefficients over one denominator in lowest terms, the form the
kernel in `zkernel` compiles: int64 when every coefficient fits, Python
integers otherwise.  A GF(41) matrix holds its residues mod 41.  Equality,
hashing, transposition, the shape tests, the file form and the reduction mod
41 read the array, and so do GF(41) products, inverses and powers.  The
scalar entries (`CycNum` from :mod:`tits27.cyclo`, or `Gf41`) are only a
view, decoded on first read of `data`; the cyclotomic products, inverses
and powers of `eval` work on them entry by entry and build their results
from scalars, which are converted once.  All arithmetic is exact;
elimination pivots on the first nonzero entry in column order, so every
result is deterministic.

File formats
    cyc R C     header, then R*C lines, one cyclotomic element per line
                (eight space-separated rationals)
    gf41 R C    header, then R lines of C decimal residues

Readers skip blank lines and lines starting with '#'.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

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
    """A rows x cols matrix with entries in one exact scalar ring, held as one
    read-only integer array set when it is built.

    A cyclotomic matrix holds rows x cols x 8 power-basis coefficients over
    one positive denominator in lowest terms (`coeffs`, `den`); a GF(41)
    matrix holds its residues (`residues`), over the denominator 1.  The
    scalar entries (`data`) are decoded from the array on first read and
    kept; a matrix built from scalars keeps those.
    """

    __slots__ = ("ring", "rows", "cols", "_data", "_array", "_den", "action")

    def __init__(self, ring, data):
        if ring not in _RINGS:
            raise RingMismatchError(f"unknown ring {ring!r}")
        data = [list(row) for row in data]
        if not data or not data[0]:
            raise DimensionMismatchError("dimensions must be at least 1x1")
        if any(len(row) != len(data[0]) for row in data):
            raise DimensionMismatchError("ragged rows")
        if ring == RING_CYC:
            entries = [e for row in data for e in row]
            den = math.lcm(*(e.den for e in entries))
            nums = [n * (den // e.den) for e in entries for n in e.num]
            held = ExactMatrix.from_coeffs(
                np.array(nums, dtype=object).reshape(len(data), -1, 8), den)
        else:
            held = from_residues([[e.value for e in row] for row in data])
        self._hold(ring, held._array, held._den)
        self._data = data

    def _hold(self, ring, array, den):
        array.flags.writeable = False
        self.ring, self.rows, self.cols = ring, *array.shape[:2]
        self._array, self._den, self._data = array, den, None
        self.action = None  # the compiled zkernel.IntegerAction, set on first use

    @classmethod
    def _held(cls, ring, array, den):
        m = cls.__new__(cls)
        m._hold(ring, array, den)
        return m

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
        a rows x cols x 8 array of integer power-basis coefficients, den >= 1.
        It holds a copy in lowest terms: int64 when every given coefficient
        fits, Python integers otherwise."""
        if coeffs.dtype == object and gf41.max_abs(coeffs) < 2 ** 63:
            coeffs = coeffs.astype(np.int64)
        g = math.gcd(int(np.gcd.reduce(coeffs, axis=None)), den)
        return cls._held(RING_CYC, coeffs // g, den // g)

    # -- views of the array ------------------------------------------------

    @property
    def data(self):
        """The entries as lists of scalars, decoded on first read."""
        if self._data is None:
            scalar = gf41.gf if self.ring == RING_GF41 else lambda c: cyclo.CycNum(c, self._den)
            self._data = [[scalar(v) for v in row] for row in self._array.tolist()]
        return self._data

    @property
    def coeffs(self):
        """A cyclotomic matrix as its rows x cols x 8 int64 array of
        power-basis coefficients over the denominator `den`; refused with
        KernelOverflowError unless every coefficient fits in int64."""
        _require(self, RING_CYC)
        if self._array.dtype == object:
            raise gf41.KernelOverflowError("a coefficient does not fit in int64")
        return self._array

    @property
    def den(self):
        """The positive common denominator of `coeffs`."""
        _require(self, RING_CYC)
        return self._den

    # -- basic protocol -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return ((self.ring, self._den) == (other.ring, other._den)
                and np.array_equal(self._array, other._array))

    def __hash__(self):
        # reduced as Python reduces an int's hash, so both dtypes hash alike
        a = (self._array % (2 ** 61 - 1)).astype(np.int64)
        return hash((self._den, a.shape, a.tobytes()))

    def __repr__(self):
        return f"<ExactMatrix {self.ring} {self.rows}x{self.cols}>"

    def __mul__(self, other):
        return mat_mul(self, other)

    def __pow__(self, n):
        return mat_pow(self, n)

    def is_square(self):
        return self.rows == self.cols

    def _nonzero(self):
        """rows x cols booleans, True at the nonzero entries."""
        return (self._array != 0).reshape(self.rows, self.cols, -1).any(axis=2)

    def is_monomial(self):
        """Exactly one nonzero entry in every row and every column."""
        nonzero = self._nonzero()
        return self.is_square() and bool((nonzero.sum(axis=0) == 1).all()
                                         and (nonzero.sum(axis=1) == 1).all())

    def diagonal(self):
        return tuple(self.data[i][i] for i in range(min(self.rows, self.cols)))


def _check_ring(a, b):
    if a.ring != b.ring:
        raise RingMismatchError(f"{a.ring} vs {b.ring}")


def _require(m, ring):
    if m.ring != ring:
        raise RingMismatchError(f"expected a {ring} matrix, got {m.ring}")


def residues(m: ExactMatrix) -> np.ndarray:
    """A gf41 matrix as its read-only rows x cols int64 array of residues."""
    _require(m, RING_GF41)
    return m._array


def from_residues(a) -> ExactMatrix:
    """The gf41 matrix of a 2-D array of integers, held as a read-only copy
    of their residues; no scalar object is made."""
    a = np.asarray(a, dtype=np.int64) % gf41.P
    if a.ndim != 2 or not a.size:
        raise DimensionMismatchError("dimensions must be at least 1x1")
    return ExactMatrix._held(RING_GF41, a, 1)


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
    return ExactMatrix._held(m.ring, m._array.swapaxes(0, 1), m._den)


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
    # one line per cyc entry (8 coefficients) or per gf41 row, each number
    # printed as a fraction over the denominator (1 for gf41)
    lines = m._array.reshape(-1, m._array.shape[-1]).tolist()
    text = {c: str(Fraction(c, m._den)) for c in set(itertools.chain.from_iterable(lines))}
    return "\n".join([f"{m.ring} {m.rows} {m.cols}"]
                     + [" ".join(map(text.__getitem__, line)) for line in lines]) + "\n"


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
    """Entrywise reduction of a cyclotomic matrix modulo 41, exact for
    coefficients of any size."""
    if m.ring != RING_CYC:
        raise RingMismatchError("already a gf41 matrix")
    if m._den % gf41.P == 0:
        raise ValueError("an entry has a denominator divisible by 41")
    return from_residues(gf41.reduce_rows((m._array % gf41.P).reshape(m.rows, -1), m._den))
