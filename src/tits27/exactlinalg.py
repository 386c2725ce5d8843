"""Dense exact matrices over Q(zeta20) or GF(41).

A matrix carries a ring tag ("cyc" or "gf41") and its entries as scalar
objects from :mod:`tits27.cyclo` / :mod:`tits27.gf41`.  All arithmetic is
exact; elimination pivots on the first nonzero entry in column order, so
every result is deterministic.

File formats
    cyc R C     header, then R*C lines, one cyclotomic element per line
                (eight space-separated rationals)
    gf41 R C    header, then R lines of C decimal residues

Readers skip blank lines and lines starting with '#'.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cyclo, gf41

RING_CYC = "cyc"
RING_GF41 = "gf41"

_SCALARS = {
    RING_CYC: (cyclo.ZERO, cyclo.ONE),
    RING_GF41: (gf41.ZERO, gf41.ONE),
}


class DimensionMismatchError(ValueError):
    pass


class RingMismatchError(ValueError):
    pass


class SingularMatrixError(ValueError):
    pass


class OrderExceedsCapError(ValueError):
    pass


class ExactMatrix:
    """A rows x cols matrix with entries in one exact scalar ring."""

    __slots__ = ("ring", "rows", "cols", "data")

    def __init__(self, ring, data):
        if ring not in _SCALARS:
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
        self.data = data

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n, ring):
        zero, one = _SCALARS[ring]
        return cls(ring, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols, ring):
        zero, _ = _SCALARS[ring]
        return cls(ring, [[zero] * cols for _ in range(rows)])

    # -- basic protocol -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.ring == other.ring and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols,
                     tuple(tuple(row) for row in self.data)))

    def __repr__(self):
        return f"<ExactMatrix {self.ring} {self.rows}x{self.cols}>"

    def __mul__(self, other):
        return mat_mul(self, other)

    def __pow__(self, n):
        return mat_pow(self, n)

    def entry(self, i, j):
        return self.data[i][j]

    @property
    def zero(self):
        return _SCALARS[self.ring][0]

    @property
    def one(self):
        return _SCALARS[self.ring][1]

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


@dataclass(frozen=True)
class ExactVector:
    """A nonempty vector of scalars from one ring."""

    ring: str
    entries: tuple

    def __post_init__(self):
        if not self.entries:
            raise DimensionMismatchError("empty vector")

    def __len__(self):
        return len(self.entries)


def _check_ring(a, b):
    if a.ring != b.ring:
        raise RingMismatchError(f"{a.ring} vs {b.ring}")


def mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact matrix product."""
    _check_ring(a, b)
    if a.cols != b.rows:
        raise DimensionMismatchError(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    zero = a.zero
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
    zero = m.zero
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


def scale_matrix(m: ExactMatrix, s) -> ExactMatrix:
    return ExactMatrix(m.ring, [[s * e for e in row] for row in m.data])


def transpose(m: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(m.ring, [[m.data[i][j] for i in range(m.rows)]
                                for j in range(m.cols)])


def conj_transpose(m: ExactMatrix) -> ExactMatrix:
    """Conjugate transpose; only the cyclotomic ring carries a conjugation."""
    if m.ring != RING_CYC:
        raise RingMismatchError("conjugation is not defined over gf41; use transpose")
    return ExactMatrix(m.ring, [[m.data[i][j].conj() for i in range(m.rows)]
                                for j in range(m.cols)])


def mat_inv(a: ExactMatrix) -> ExactMatrix:
    """Exact inverse by Gauss-Jordan elimination, first-nonzero pivoting."""
    if not a.is_square():
        raise DimensionMismatchError("inverse of a non-square matrix")
    n = a.rows
    zero, one = _SCALARS[a.ring]
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


def mat_order(m: ExactMatrix, cap: int = 60) -> int:
    """Least n <= cap with m^n = 1, by repeated multiplication."""
    if not m.is_square():
        raise DimensionMismatchError("order of a non-square matrix")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    ident = ExactMatrix.identity(m.rows, m.ring)
    acc = m
    for n in range(1, cap + 1):
        if acc == ident:
            return n
        acc = mat_mul(acc, m)
    raise OrderExceedsCapError(f"order exceeds cap {cap}")


def is_unitary(m: ExactMatrix) -> bool:
    return m.is_square() and mat_mul(conj_transpose(m), m) == ExactMatrix.identity(m.rows, m.ring)


# -- elimination over GF(41) ---------------------------------------------------

def rref(m: ExactMatrix):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    rows = [list(r) for r in m.data]
    pivots = []
    r = 0
    for col in range(m.cols):
        pivot = next((i for i in range(r, m.rows) if not rows[i][col].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [inv * e for e in rows[r]]
        for i in range(m.rows):
            if i != r and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [e - f * p for e, p in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == m.rows:
            break
    return rows, pivots


def rank(m: ExactMatrix) -> int:
    return len(rref(m)[1])


def nullspace_gf(m: ExactMatrix):
    """Basis of the right nullspace of a GF(41) matrix.

    Deterministic: pivot columns ascend, and each basis vector sets one free
    variable to 1 in column order.  A full-rank matrix yields the empty list.
    """
    if m.ring != RING_GF41:
        raise RingMismatchError("nullspace_gf expects a gf41 matrix")
    rows, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    zero, one = _SCALARS[m.ring]
    basis = []
    for f in free:
        v = [zero] * m.cols
        v[f] = one
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][f]
        basis.append(ExactVector(m.ring, tuple(v)))
    return basis


def common_nullspace(ms):
    """Nullspace of the vertically stacked system."""
    ms = list(ms)
    if not ms:
        raise DimensionMismatchError("need at least one matrix")
    cols = ms[0].cols
    for m in ms:
        if m.cols != cols:
            raise DimensionMismatchError("column counts differ")
        if m.ring != ms[0].ring:
            raise RingMismatchError("mixed rings in stacked system")
    stacked = ExactMatrix(ms[0].ring, [row for m in ms for row in m.data])
    return nullspace_gf(stacked)


# -- file format ---------------------------------------------------------------

def format_matrix(m: ExactMatrix) -> str:
    lines = [f"{m.ring} {m.rows} {m.cols}"]
    if m.ring == RING_CYC:
        lines.extend(e.to_text() for row in m.data for e in row)
    else:
        lines.extend(" ".join(str(e.value) for e in row) for row in m.data)
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> ExactMatrix:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty matrix file")
    header = lines[0].split()
    if len(header) != 3 or header[0] not in _SCALARS:
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
        data = [entries[r * cols:(r + 1) * cols] for r in range(rows)]
    else:
        if len(body) != rows:
            raise ValueError(f"expected {rows} rows, got {len(body)}")
        data = []
        for ln in body:
            parts = ln.split()
            if len(parts) != cols:
                raise ValueError(f"expected {cols} residues per row")
            data.append([gf41.gf(int(p)) for p in parts])
    return ExactMatrix(ring, data)


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
        return ExactMatrix(RING_GF41, [[gf41.reduce_cyc(e) for e in row] for row in m.data])
    except ZeroDivisionError:
        raise ValueError("an entry has a denominator divisible by 41") from None
