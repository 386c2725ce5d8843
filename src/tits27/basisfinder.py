"""Replay of the basis-finding pipeline over GF(41).

Given the five generators in an arbitrary basis (for example after a random
basis change, or fresh from externally supplied standard generators), the
pipeline recovers a monomial basis:

 1. a joint eigenvector of f1 and f2 for the eigenvalue pair (-4, -4), as
    the common nullspace of f1 + 4 and f2 + 4;
 2. the vector fixed by f1, f2 and d simultaneously;
 3. the 48 elements of the subgroup generated by d and ac, by closure;
 4. 27 basis columns: the fixed vector and its two images under the first
    order-3 subgroup element, then the 48 images of the joint eigenvector
    deduplicated up to scalar (24 of them), kept as raw images so that the
    column scalars stay coherent;
 5. conjugation of all five generators into the new basis, where f1 and f2
    are diagonal and d and ac monomial;
 6. scalar balancing: in the rebased dense generator the 3x24 and 24x3
    interaction blocks are each one scalar multiple of a {0,+-1,+-9} pattern
    (9 plays i, so the pattern group is the fourth roots of unity).  The
    24-column part of the basis is rescaled so both multiples fall in the
    class of 33 = 1/5, then each of the 24 columns is rescaled by a power of
    9 until its first interaction entry (rows scanned top down) lies in the
    real class {33, 25, 8} = (1/5)*{1, 2, -1}.

After balancing, the top row of the dense generator has the nonzero residue
multiset {25 x2, 33 x9, 8 x8}, the mod-41 shadow of {2/5 x2, 1/5 x9,
-1/5 x8}.  Entries of the 25-class (lifting to 2/5) are never rescaled.

Everything here stays over GF(41); column choices depend only on the
abstract group elements, so the recovered data is independent of the basis
scramble up to a global sign, which the asserted multiset cannot see.

Residue arrays
    A matrix is a (27, 27) int64 array of residues mod 41, and the five
    generators are one (5, 27, 27) stack.  Products, ranks, nullspaces and
    inverses run on the kernel in `gf41`, which computes in float32 and
    checks once per call, from the shapes alone, that no value it forms
    leaves +-(2^24 - 16), where it is exact: `gf41.matmul` multiplies
    residues in -20..20 after checking n * 20^2 < 2^24 for an inner size n
    (10,800 for n = 27), and `gf41.rref`, which ranks, nullspaces and
    inverses call, checks 1600 (m + 1) < 2^24 for m = min(rows, cols), the
    most pivots it can take; diagonal conjugation multiplies three residues
    in int64, below 41^3.
    A gf41 `ExactMatrix` holds such an array, so `la.residues` hands one
    over without conversion, and `la.from_residues` wraps a result back.
    The results equal those of per-residue arithmetic: the closure of
    <d, ac> visits elements breadth first in the same order, one BFS level
    at a time, a reduced echelon form is unique, so nullspace bases and
    inverses are unchanged, and `random_invertible` draws `rng.randrange(41)`
    row-major as before, so every seed gives the same matrix.  The scramble
    matrix and the assembled basis are each eliminated once, as [m | 1]:
    its pivots decide the rank test, and its right half is the inverse.
"""

from __future__ import annotations

import contextlib
import random

import numpy as np

from . import exactlinalg as la
from . import generators
from . import gf41
from .exactlinalg import CapExceededError, CheckFailed
from .gf41 import P


class DimensionNotOneError(CheckFailed):
    pass


class WrongCountError(CheckFailed):
    pass


class SingularAssemblyError(CheckFailed):
    pass


class PatternViolationError(CheckFailed):
    pass


#: Residues of the fourth roots of unity {1, i, -1, -i}.
MU4 = (1, 9, 40, 32)

#: The real entry classes of the dense generator: 1/5, 2/5, -1/5 mod 41.
REAL_CLASS = (33, 25, 8)

#: The target top-row multiset {residue: count} after balancing.
TOP_ROW_MULTISET = {25: 2, 33: 9, 8: 8}

#: Inverses mod 41 by residue, with 0 sent to 0.
_INVERSE = np.array([0] + [pow(x, -1, P) for x in range(1, P)], dtype=np.int64)


def _shifted(m, ev: int):
    """m - ev * identity."""
    return (m - ev * np.eye(len(m), dtype=np.int64)) % P


def _normalized(v):
    """Scale vectors (the last axis) so the first nonzero coordinate is 1; zero stays zero."""
    lead = np.take_along_axis(v, (v != 0).argmax(axis=-1)[..., None], axis=-1)
    return v * _INVERSE[lead] % P


def _eigenvector(shifted, what):
    basis = gf41.nullspace(np.vstack(shifted))
    if len(basis) != 1:
        raise DimensionNotOneError(f"{what} has dimension {len(basis)}")
    return _normalized(basis[0])


def find_char_vector(f1m, f2m, ev1: int, ev2: int):
    """The joint (ev1, ev2)-eigenvector of f1 and f2, unique up to scalar."""
    return _eigenvector([_shifted(f1m, ev1), _shifted(f2m, ev2)], "joint eigenspace")


def find_fixed_vector(f1m, f2m, dm):
    """The vector fixed by f1, f2 and d, unique up to scalar."""
    return _eigenvector([_shifted(m, 1) for m in (f1m, f2m, dm)], "fixed space")


def subgroup_elements(gens, cap: int = 200):
    """Closure of the generators under multiplication, identity first.

    Breadth-first and deduplicated by array bytes, so the element order
    depends only on the abstract group, not on the matrix basis.  Each BFS
    level is multiplied by every generator as one stack.
    """
    gens = np.asarray(gens, dtype=np.int64)
    if not len(gens):
        raise ValueError("need at least one generator")
    identity = np.eye(gens.shape[-1], dtype=np.int64)
    elements, done = {identity.tobytes(): identity}, 0  # insertion ordered: BFS order
    while done < len(elements):
        level, done = np.stack(list(elements.values())[done:]), len(elements)
        for prod in gf41.matmul(level[:, None], gens).reshape(-1, *gens.shape[1:]):
            if prod.tobytes() not in elements:
                if len(elements) >= cap:
                    raise CapExceededError(f"closure exceeds cap {cap}")
                elements[prod.tobytes()] = prod
    return list(elements.values())


def assemble_basis(charvec, fixvec, sub):
    """Assemble 27 basis columns from eigenvector images under the subgroup.

    The fixed vector contributes itself and its two images under the first
    order-3 element of `sub`.  The joint eigenvector contributes its images
    under all subgroup elements, deduplicated up to scalar; the retained
    column is the raw first-reached image, so all 24 share one coherent
    scalar (the scalar-normalized form is only the dedup key).  Returns the
    matrix whose columns are the basis, and its inverse.
    """
    n = len(charvec)
    identity = np.eye(n, dtype=np.int64)
    cycle = next((g for g in sub[1:]
                  if np.array_equal(gf41.matmul(gf41.matmul(g, g), g), identity)), None)
    if cycle is None:
        raise WrongCountError("no order-3 element in the subgroup closure")
    fix_cols = [fixvec, gf41.matmul(cycle, fixvec)]
    fix_cols.append(gf41.matmul(cycle, fix_cols[1]))
    fix_keys = {_normalized(c).tobytes() for c in fix_cols}
    if len(fix_keys) != 3:
        raise WrongCountError(f"fixed-vector images give {len(fix_keys)} columns, not 3")

    char_cols = {}
    images = gf41.matmul(sub, charvec)
    for img, key in zip(images, _normalized(images)):
        char_cols.setdefault(key.tobytes(), img)
    if len(char_cols) != 24:
        raise WrongCountError(f"eigenvector images give {len(char_cols)} columns, not 24")

    basis = np.column_stack(fix_cols + list(char_cols.values()))
    try:
        return basis, gf41.inverse(basis)
    except gf41.SingularMatrixError:
        raise SingularAssemblyError("assembled columns are linearly dependent") from None


def rebase(gens, basis, inverse):
    """Conjugate every generator by the basis matrix, given its inverse."""
    return gf41.matmul(gf41.matmul(inverse, gens), basis)


def _conj_by_diag(ms, dvals):
    """diag(d)^-1 * m * diag(d) for each matrix m of the stack, by broadcasting."""
    dvals = np.asarray(dvals, dtype=np.int64)
    return _INVERSE[dvals][:, None] * ms * dvals % P


def _check_pattern(entries, s: int, where: str):
    bad = entries[~np.isin(entries * pow(s, -1, P) % P, MU4)]
    if bad.size:
        raise PatternViolationError(
            f"{where} entry {bad[0]} is not {s} times a 4th root of unity")


#: Corner entry classes: 2/5 and 1/5 are positive, their negatives flipped.
_CORNER_POS = (25, 33)
_CORNER_NEG = (16, 8)


def _fix_corner_signs(rebased, dense_idx):
    """Undo +-1 twists of the three fixed-part columns.

    The order-3 element used to build those columns may act on the corner as
    a signed 3-cycle, leaving the corner of the dense generator twisted by a
    diagonal of signs.  The first corner row recovers the twist exactly, and
    flipping the affected columns restores the all-positive corner.
    """
    flips = np.ones(27, dtype=np.int64)
    for j in (1, 2):
        v = rebased[dense_idx][0, j]
        if v in _CORNER_NEG:
            flips[j] = 40
        elif v not in _CORNER_POS:
            raise PatternViolationError(f"corner entry {v} is outside the 1/5, 2/5 classes")
    if (flips != 1).any():
        rebased = _conj_by_diag(rebased, flips)
    corner = rebased[dense_idx][:3, :3]
    if not np.isin(corner, _CORNER_POS).all():
        raise PatternViolationError(f"corner {corner.ravel().tolist()} cannot be sign-normalized")
    return rebased


def scalar_balance(rebased):
    """Balance the basis scalars of rebased generators.

    Locates the unique generator with a nonzero 3x24 interaction block,
    sign-normalizes the corner, checks both interaction blocks are single
    scalar multiples of {0,+-1,+-9} patterns, rescales the 24-column basis
    part so the common multiple falls in the class of 33, then rescales each
    24-column by a power of 9 so its first interaction entry is in the real
    class {33, 25, 8}.  Returns the adjusted generators as one stack and the
    common multiple.  Idempotent on already-balanced input.
    """
    rebased = np.asarray(rebased, dtype=np.int64)
    dense = [k for k, m in enumerate(rebased) if m[:3, 3:].any()]
    if len(dense) != 1:
        raise PatternViolationError(f"expected one dense generator, found {len(dense)}")
    k = dense[0]
    rebased = _fix_corner_signs(rebased, k)
    top, left = rebased[k][:3, 3:], rebased[k][3:, :3]
    top, left = top[top != 0], left[left != 0]
    if not left.size:
        raise PatternViolationError("24x3 interaction block is zero")
    s1, s2 = int(top[0]), int(left[0])
    _check_pattern(top, s1, "3x24 block")
    _check_pattern(left, s2, "24x3 block")
    if s1 * s2 * pow(33 * 33, -1, P) % P not in MU4:
        raise PatternViolationError(
            f"block multiples {s1}, {s2} cannot be balanced into the 33 class")

    lam = min(33 * u * pow(s1, -1, P) % P for u in MU4)
    adjusted = _conj_by_diag(rebased, [1] * 3 + [lam] * 24)

    col_scale = [1] * 27
    for j in range(3, 27):
        column = adjusted[k][:3, j]
        if not column.any():
            continue
        v = int(column[np.flatnonzero(column)[0]])
        power = next((a for a in range(4) if pow(9, a, P) * v % P in REAL_CLASS), None)
        if power is None:
            raise PatternViolationError(
                f"column {j} entry {v} cannot reach the real class by powers of 9")
        col_scale[j] = pow(9, power, P)
    adjusted = _fix_column_signs(_conj_by_diag(adjusted, col_scale), k)

    interaction = adjusted[k][:3, 3:]
    return adjusted, int(interaction[interaction != 0][0])


#: sigma/5 and tau/5 residues (26 and 7); their negatives never occur in the
#: reference 24x24 grid, so a negated class pins a relative column sign.
_ST_POS = (26, 7)
_ST_NEG = (15, 34)
_GRID_VALUES = (0, 33, 8, 26, 7, 15, 34)


def _fix_column_signs(ms, dense_idx):
    """Resolve the residual +-1 twist of each 24-part column.

    After the power-of-9 step every column is correct up to sign.  The
    sigma/tau entries of the 24x24 grid appear only positively in a
    consistently signed matrix, so each sigma/tau-class entry (i, j) fixes
    the relative sign of columns i and j.  Two-color the columns along those
    edges (lowest column in each component kept positive) and flip the
    negative ones; the one remaining global sign is invisible to the row
    multisets.
    """
    grid = ms[dense_idx][3:, 3:]
    bad = np.argwhere(~np.isin(grid, _GRID_VALUES))
    if len(bad):
        i, j = bad[0]
        raise PatternViolationError(
            f"grid entry {grid[i, j]} at ({i + 3}, {j + 3}) is out of class")
    parity = np.isin(grid, _ST_POS).astype(np.int64) - np.isin(grid, _ST_NEG)
    link = np.sign(parity + parity.T)
    sign = np.zeros(24, dtype=np.int64)
    while not sign.all():
        sign[np.argmin(np.abs(sign))] = 1    # the lowest unsigned column starts a component
        for _ in range(23):                  # each pass signs the columns one link further
            sign = np.where(sign != 0, sign, np.sign(sign @ link))
    # Propagation agrees with every link exactly when the constraints are consistent.
    if (parity * np.outer(sign, sign) < 0).any():
        raise PatternViolationError("inconsistent sigma/tau sign constraints")
    if (sign == 1).all():
        return ms
    return _conj_by_diag(ms, [1] * 3 + [1 if s == 1 else 40 for s in sign])


def row_value_multiset(m, i: int) -> dict:
    """Counter of the nonzero residue values in row i."""
    values, counts = np.unique(m[i][m[i] != 0], return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def recover(gens):
    """The full recovery on five 27x27 residue arrays in any basis, stacked
    or in a sequence.

    Eigenvectors, basis, rebase, balance: returns the balanced stack (same
    generator order) and the common interaction multiple as a residue.
    """
    f1m, f2m, dm, acm, _ = gens
    charvec = find_char_vector(f1m, f2m, 37, 37)
    fixvec = find_fixed_vector(f1m, f2m, dm)
    sub = subgroup_elements([dm, acm], cap=100)
    if len(sub) != 48:
        raise WrongCountError(f"<d, ac> closure has {len(sub)} elements, not 48")
    return scalar_balance(rebase(gens, *assemble_basis(charvec, fixvec, sub)))


def random_invertible(rng: random.Random, n: int = 27):
    """A uniformly random invertible matrix over GF(41), deterministic per rng,
    and its inverse."""
    while True:
        m = np.array([[rng.randrange(41) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        with contextlib.suppress(gf41.SingularMatrixError):
            return m, gf41.inverse(m)


def scramble_roundtrip(seed: int) -> tuple:
    """Scramble the reference generators by a random basis change and recover.

    The recovered f1 and f2 must be diagonal with the reference eigenvalue
    multiset, d and ac monomial, and the dense generator's top row must have
    the balanced multiset {25 x2, 33 x9, 8 x8}.  Returns these six checks
    as a tuple of `(name, ok)` pairs.
    """
    ref = np.stack([la.residues(m) for m in generators.build_all_gf41()])
    p, p_inv = random_invertible(random.Random(seed))
    balanced, _ = recover(gf41.matmul(gf41.matmul(p_inv, ref), p))

    off_diagonal = balanced * (1 - np.eye(27, dtype=np.int64))
    return (
        ("f1 diagonal", not off_diagonal[0].any()),
        ("f2 diagonal", not off_diagonal[1].any()),
        ("f1 diagonal multiset matches",
         sorted(np.diagonal(balanced[0])) == sorted(np.diagonal(ref[0]))),
        ("d monomial", la.from_residues(balanced[2]).is_monomial()),
        ("ac monomial", la.from_residues(balanced[3]).is_monomial()),
        ("top-row multiset {25x2, 33x9, 8x8}",
         row_value_multiset(balanced[4], 0) == TOP_ROW_MULTISET),
    )
