"""Orbit enumeration, permutation images and their certified base.

Points and generators
    An orbit stores its points as one n x 216 float32 array of integers at
    the fixed scale SCALE = 25, so a stored row is 25 times the power-basis
    coefficients of the point (see `zkernel` for the Z^216 coordinates);
    every point of the 2304-point vector orbit and of the 1755-point
    projective orbit is integral at that scale (the largest stored value is
    25).  Each generator is compiled once into its `zkernel.IntegerAction`,
    kept on the matrix, and breadth-first search stacks the k generators'
    216x216 integer matrices side by side (`IntegerAction.stack`) and
    applies them to a BFS level, CHUNK = 128 frontier rows at a time, each
    chunk as one exact float product written into the same float32 array.
    Row i of the product holds the images of point i under each generator
    in turn, so viewed as n * k rows of 216 it lists the chunk's images in
    (point, generator) order, and they go through one canonical form and
    one key pass.  The seed, checked to be below 2^24, and every frontier
    and image after it are float32, the kernel's one product type, and
    `coords` is the levels' new rows joined, with no copy in another type:
    the kernel's guard makes each of them exact (see Exactness guards).
    `perm_images` applies a matrix that did not build the orbit to `coords`
    as they are, through the same kernel call.

Exactness guards
    All products run through `zkernel`, which never rounds, has no other
    arithmetic path and raises KernelOverflowError before any product whose
    partial sums could reach 2^24.  Whether its rows are int64 or float, it
    multiplies in float32, and only when 216 * max|B| * max|v| < 2^24, with
    max|v| over the rows of the call (in the BFS, one chunk), so each
    product, and its division by D, equals the integer one: for the paper
    orbits 216 * 2 * 25 = 10,800.  Every image must divide exactly by
    the generator's denominator lcm (skipped when it is 1), so it is again
    integral at scale 25, or the kernel raises ScaleError, as `Seed.of` does
    for a seed that is not integral at scale 25.  Each entry of a rotated
    projective point, and of each candidate rotation of a leading block, is
    a sum of at most 8 terms of +-1 (an entry of ROT) times a stored entry.
    `_canonical` checks 8 times the largest entry against 2^24 once, before
    any product, and raises KernelOverflowError past it; then every such
    sum is exact in float32: in the product that forms the 20 candidates of
    each distinct leading block (cast to int64 before it is compared), and
    in the one batched product that rotates every row by its own 8x8 matrix
    ROT[k].  A float row holds integers below 2^24, and reaches int8 for its
    key only when every entry of its batch is at most 127; otherwise it is
    cast to int64 first (see Numbering), so no float is cast out of the
    range of its target type.

Projective points
    A 1-space is stored as the rotation zeta^k v (0 <= k < 20) of any
    vector v on it whose first nonzero 8-coefficient block is
    lexicographically least.  No field inversion is needed.  This is sound
    when the generators generate a finite group, as the Tits group and its
    subgroups do: every point met is a zeta-power times g v0 for a group
    element g and the seed v0, and if two such vectors lie on one line, one
    is c times the other with c an eigenvalue of a matrix of finite order,
    so c is a root of unity in Q(zeta20), i.e. c is in mu20.  The 20
    rotations of a nonzero block are pairwise distinct, so the least one is
    unique and two vectors get the same key exactly when they span the same
    line.  The exponent k depends only on the leading block, and the images
    of a BFS level share few of them (63 distinct leading blocks among the
    8,775 images of the 1755-point orbit), so k is chosen once per distinct
    leading block (np.unique of the blocks taken as byte keys) and
    indexed back to the rows; every row is then rotated by its ROT[k] in
    one product.  The least rotation is an argmin over byte strings: with
    each coefficient's sign bit flipped and its bytes big-endian, bytewise
    order is the order of the signed values, so a rotation's 64 bytes
    compare as its 8 coefficients do, lexicographically.

Seeds and characters
    A `Seed` is the row of a point at SCALE, with its mode, and its orbit's
    `coords[0]` is that row in canonical form.  `scalar_character(seed,
    word)` applies the word's matrices to the row, rightmost first, with
    `IntegerAction.raw`, and returns the k with image D zeta^k v, D the
    product of their denominator lcms; the 20 rotations of a nonzero v are
    distinct, so at most one k fits.  Each entry of a rotation sums at most
    8 terms of +-1 times an entry of v, so one check_range of 8 * D * max|v|
    against 2^63 keeps D zeta^k v exact in int64, and the image, whose
    entries are integers below 2^24, is compared with it as int64.
    Searching mu20 only is exact for a word of finite order (see Projective
    points).

Numbering
    BFS visits point i and then the generators in order, and numbers each
    new image when it is first met, so the numbering is deterministic for a
    fixed seed and generator order.  A chunk's keys are numbered in that
    order in one pass of `index.setdefault`, a new key taking the next
    number; so an image is new exactly where its number exceeds every number
    before it in the chunk and every number given before the chunk, and the
    chunk's new rows are one gather, copied out before the next chunk
    overwrites its images.  The chunks of a level are taken in order, so the
    numbers, `index`, `images` and the rows are those of numbering the
    whole level in one pass, whatever CHUNK is; chunking only bounds the
    images held at once to CHUNK * k rows.  The cap is checked once a chunk
    is numbered.  A point's key is the 216 bytes of its row cast to int8
    when every entry fits in int8 (-128..127), and the 1,728 bytes of its
    int64 row otherwise, whether the row is held as integers or as floats.
    The key depends only on the row's values, and two keys are equal only
    for equal rows: keys of different lengths are never equal, and each
    cast is one-to-one on the rows it is used for.  The stored entries of
    both paper orbits lie within +-25, so every lookup in them copies and
    hashes 216 bytes, not 1,728.
    The BFS looks up the key of the image of every point under every
    generator, so it records the permutations of the point indices as it
    goes; `perm_images` reads them for the generators that built the orbit
    and applies any other matrix to the whole orbit, one key lookup per
    point.

Certified base
    A stabilizer chain needs only the images of a known base, a set of
    points whose pointwise stabilizer is trivial (see Known base in
    `permgroup`).  `perm_images` certifies one for a vector orbit, once per
    orbit (`Orbit.certified_base`, formed on first use): it reduces its
    first 64 vectors mod 41 and, if they have rank 27, takes the 27 pivot
    points (the first 33 points suffice for the 2304-point orbit).
    zeta -> 39 is a ring map Z[zeta20, 1/5] -> GF(41), and reduction cannot
    raise rank, so those 27 vectors are a basis of Q(zeta20)^27.  Every
    element of the permutation group is induced by a matrix of the matrix
    group; if it fixes those 27 points, that matrix fixes a basis, so it is
    the identity, and so is the permutation.  A projective orbit, or a
    vector orbit whose first 64 points have rank below 27 mod 41, gets no
    certified base, and its chain then tests every point.

The degree-2304 orbit and order 17,971,200 with a transitive action and a
point stabilizer of order 7,800 are recorded here as the certificate that
the generated group matches the Tits group; the identification of those
properties with 2F4(2)' is classical and not re-proved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import cyclo, exactlinalg as la, gf41
from .exactlinalg import CapExceededError
# Re-exported: certificates and cli call build_stab_chain and transitivity_check as
# orbits.* (perfbench/layers.py wraps them here), and orbit callers catch the two errors here.
from .permgroup import PermSet, build_stab_chain, transitivity_check  # noqa: F401
from .zkernel import (DIM, ROT, IntegerAction, KernelOverflowError, ScaleError,  # noqa: F401
                      check_range, max_abs)

VECTOR = "vector"
PROJECTIVE = "projective"

#: Stored orbit rows are SCALE times the power-basis coefficients.
SCALE = 25

_ROT = ROT.astype(np.float32)  # ROT is 0 and +-1
# a block times _ROTS is its 20 rotations in turn, 8 coefficients each
_ROTS = _ROT.transpose(1, 0, 2).reshape(8, 20 * 8)
_KEY8 = np.dtype((np.void, DIM))  # a row's int8 bytes as one key
_KEY64 = np.dtype((np.void, 8 * DIM))  # a row's int64 bytes as one key
_SIGN_BIT = np.int64(-2 ** 63)  # x ^ _SIGN_BIT orders as uint64 as x does as int64

#: Frontier rows per BFS product (see Numbering); their images go into one
#: float32 array, reused for every chunk of every level.
CHUNK = 128


class OrbitNotClosedError(la.CheckFailed):
    pass


class NotAnEigenvectorError(la.CheckFailed):
    pass


@dataclass(frozen=True, eq=False)
class Seed:
    """A point to start an orbit from: `row` is the 1 x 216 int64 row of
    SCALE times its power-basis coefficients, `mode` VECTOR or PROJECTIVE."""

    row: np.ndarray
    mode: str

    @classmethod
    def of(cls, entries, mode):
        """The seed of 27 exact scalars, each integral at SCALE."""
        if mode not in (VECTOR, PROJECTIVE):
            raise ValueError(f"unknown mode {mode!r}")
        row = []
        for e in entries:
            for n in e.num:
                q, r = divmod(n * SCALE, e.den)
                if r:
                    raise ScaleError(f"seed entry {e} is not integral at scale {SCALE}")
                row.append(q)
        check_range(1, max(map(abs, row)), 1)
        return cls(np.array([row], dtype=np.int64), mode)


def seed_fixed_vector() -> Seed:
    """(1,1,1;0^24), the vector fixed by the index-2304 point stabilizer."""
    return Seed.of((cyclo.ONE,) * 3 + (cyclo.ZERO,) * 24, VECTOR)


def seed_proj_1755() -> Seed:
    """The 1-space of (0,0,0; 0,0,0,0; -i,1,-1,i; 0^16), with 1755 images.

    This vector is fixed by d exactly and scaled by -i under (ac)^3; its
    stabilizer is the full centralizer of d, of order 10,240.  Its complex
    conjugate (i,1,-1,-i on the same block, see seed_proj_conjugate) spans a
    1-space with the same easy eigenvector properties but a much larger
    orbit: the two conjugate 1-spaces are NOT equivalent under the group,
    and only this one has the 1755-point orbit.
    """
    entries = ([cyclo.ZERO] * 7
               + [-cyclo.I, cyclo.ONE, cyclo.MINUS_ONE, cyclo.I]
               + [cyclo.ZERO] * 16)
    return Seed.of(entries, PROJECTIVE)


def seed_proj_conjugate() -> Seed:
    """The conjugate 1-space (0,0,0; 0,0,0,0; i,1,-1,-i; 0^16).

    Fixed by d and scaled by +i under (ac)^3, but its point stabilizer is
    only the order-40 group generated by f1, d and (ac)^3, so its orbit has
    449,280 points rather than 1755.
    """
    entries = ([cyclo.ZERO] * 7
               + [cyclo.I, cyclo.ONE, cyclo.MINUS_ONE, -cyclo.I]
               + [cyclo.ZERO] * 16)
    return Seed.of(entries, PROJECTIVE)


def _canonical(rows, mode):
    """Rows in the canonical form of `mode` (projective: least rotation, as
    float32)."""
    if mode == VECTOR:
        return rows
    if mode != PROJECTIVE:
        raise ValueError(f"unknown mode {mode!r}")
    n = len(rows)
    nonzero = rows != 0
    if not nonzero.any(axis=1).all():
        raise ValueError("projective point must be nonzero")
    check_range(8, max_abs(rows), 1, bits=24)  # 8-term sums of +-1 times an entry
    blocks = rows.astype(np.float32, copy=False).reshape(n, 27, 8)
    first = blocks[np.arange(n), nonzero.argmax(axis=1) // 8]  # a C-ordered copy: viewable
    lead, which = np.unique(first.view((np.void, first.itemsize * 8)).ravel(), return_inverse=True)
    cands = (lead.view(np.float32).reshape(-1, 8) @ _ROTS).astype(np.int64)
    # the least rotation in lex order, as the least byte string (see Projective points)
    k = (cands ^ _SIGN_BIT).astype(">i8").view("S64").argmin(axis=1)[which]
    return np.matmul(blocks, _ROT[k]).reshape(n, DIM)


def _row_keys(rows) -> list:
    """The key of each row (see Numbering): its 216 bytes as int8 if every
    entry fits in int8, else its 1,728 bytes as int64.  Float rows hold
    integers (below 2^24 from the kernel), and reach int8 only when every
    entry of the batch lies within +-127; otherwise they pass through int64."""
    rows = np.ascontiguousarray(rows)
    if max_abs(rows) <= 127:
        return rows.astype(np.int8).view(_KEY8).ravel().tolist()
    rows = rows.astype(np.int64, copy=False)
    small = rows.astype(np.int8)
    fits = (small == rows).all(axis=1).tolist()
    keys = small.view(_KEY8).ravel().tolist()
    wide = rows.view(_KEY64).ravel().tolist()
    return [k if f else w for k, w, f in zip(keys, wide, fits)]


@dataclass(eq=False)
class Orbit:
    """An indexed orbit, closed under the generators that built it.

    `coords[i]` is point i as SCALE times its 216 power-basis coefficients,
    held as float32 integers; `index` maps the key of a row (its int8 bytes
    if every entry fits in int8, else its int64 bytes; see Numbering) to its
    point number; `images[k, i]` is the number of the image of point i
    under `gens[k]`.
    """

    coords: np.ndarray
    index: dict
    mode: str
    gens: tuple
    images: np.ndarray

    def __len__(self):
        return len(self.coords)

    @cached_property
    def certified_base(self):
        """The 27 pivot points of the first 64 vectors mod 41, or None (see
        Certified base); `perm_images` forms it on first use."""
        if self.mode != VECTOR:
            return None
        _, pivots = gf41.rref(gf41.reduce_rows(self.coords[:64], SCALE).T)
        return tuple(pivots) if len(pivots) == 27 else None


def enumerate_orbit(seed: Seed, gens, cap: int = 10000) -> Orbit:
    """BFS closure of the seed under the generator matrices, with the
    number of the image of every point under every generator."""
    if cap < 1:
        raise CapExceededError(f"orbit exceeds cap {cap}")
    gens = tuple(gens)
    stack = IntegerAction.stack([IntegerAction.of(g) for g in gens]) if gens else None
    # every stored row is float32, the kernel's product type, so the seed must be exact in it
    frontier = _canonical(seed.row, seed.mode)
    check_range(1, max_abs(frontier), 1, bits=24)
    frontier = frontier.astype(np.float32, copy=False)
    levels = [frontier]
    index = {_row_keys(frontier)[0]: 0}
    targets = []  # per chunk, in (point, generator) order (see Numbering)
    out = np.empty((CHUNK, len(gens) * DIM), dtype=np.float32)
    while gens and len(frontier):
        fresh = []
        for lo in range(0, len(frontier), CHUNK):
            chunk = frontier[lo:lo + CHUNK]
            # row i * len(gens) + k: the image of chunk point i under gens[k]
            images = _canonical(stack(chunk, out[:len(chunk)]).reshape(-1, DIM), seed.mode)
            start = len(index)
            numbers = np.array([index.setdefault(key, len(index)) for key in _row_keys(images)],
                               dtype=np.intp)
            if len(index) > cap:
                raise CapExceededError(f"orbit exceeds cap {cap}")
            # a point is new where its number first exceeds every number before it
            seen = np.maximum.accumulate(np.maximum(numbers, start - 1))
            fresh.append(images[np.flatnonzero(np.diff(seen, prepend=start - 1))])
            targets.append(numbers)
        frontier = np.concatenate(fresh)
        levels.append(frontier)
    return Orbit(np.concatenate(levels), index, seed.mode, gens,
                 np.concatenate(targets or [np.empty(0, np.intp)]).reshape(len(index), len(gens)).T)


def perm_images(orbit: Orbit, gens) -> PermSet:
    """The permutations induced on the orbit by each generator, with the
    certified base of a vector orbit whose first 64 points have rank 27 mod 41.

    A generator that is one of the matrices that built the orbit (the same
    object) takes the permutation the BFS recorded; any other is applied.
    """
    perms = []
    for g in gens:
        k = next((k for k, h in enumerate(orbit.gens) if h is g), None)
        if k is not None:
            perms.append(tuple(orbit.images[k].tolist()))
            continue
        images = _canonical(IntegerAction.of(g)(orbit.coords), orbit.mode)
        try:
            perms.append(tuple(orbit.index[key] for key in _row_keys(images)))
        except KeyError:
            raise OrbitNotClosedError("image of an orbit point is missing") from None
    return PermSet(len(orbit), tuple(perms), orbit.certified_base)


def scalar_character(seed: Seed, word) -> int:
    """The k with m_1 ... m_r v = zeta^k v, for the seed v and the word
    [m_1, ..., m_r] of matrices (see Seeds and characters)."""
    if not seed.row.any():
        raise NotAnEigenvectorError("the zero vector spans no line")
    image, den = seed.row, 1
    for m in reversed(word):
        act = IntegerAction.of(m)
        image, den = act.raw(image), den * act.den
    check_range(8, den, max_abs(seed.row))  # den * rotation, in int64: ROT is 0 and +-1
    scaled = den * np.matmul(seed.row.reshape(27, 8), ROT).reshape(20, DIM)
    misses = (scaled != image.astype(np.int64)).sum(axis=1)
    if misses.min():
        raise NotAnEigenvectorError(
            f"the word scales the seed by no power of zeta: every D zeta^k v "
            f"(D = {den}) differs from the image in {misses.min()} or more coordinates")
    return int(misses.argmin())
