"""Orbit enumeration and exact group-order certification.

Points and generators
    An orbit stores its points as one n x 216 int64 array at the fixed scale
    SCALE = 25, so a stored row is 25 times the power-basis coefficients of
    the point (see `zkernel` for the Z^216 coordinates); every point of the
    2304-point vector orbit and of the 1755-point projective orbit is
    integral at that scale (the largest stored value is 25).  Each generator
    is turned once into a `zkernel.IntegerAction`, and breadth-first search
    applies it to a whole BFS level with one exact product.

Exactness guards
    All products run through `zkernel`, which never rounds, has no other
    arithmetic path and raises KernelOverflowError before any product that
    could leave the int64 range.  Every image must divide exactly by the
    generator's denominator lcm, so it is again integral at scale 25, or
    the kernel raises ScaleError; a seed that is not integral at scale 25
    raises ScaleError too.

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
    line.

Numbering
    BFS visits point i and then the generators in order, and numbers each
    new image when it is first met, so the numbering is deterministic for a
    fixed seed and generator order.  A point's key is the bytes of its row.
    The matrix action on a closed orbit converts to permutations of the
    point indices by one batched product and one key lookup per point.

Stabilizer chain
    A deterministic Schreier-Sims computation certifies the exact order of
    the permutation group:

  * base points are chosen as the smallest point moved by the residue that
    creates each level;
  * each level stores the orbit of its base point under all strong
    generators assigned at its depth or deeper, with explicit transversals;
  * every Schreier generator of a level is sifted through the deeper levels,
    and nontrivial residues are appended where they escape.

Since residues always land strictly deeper than the level being processed, a
single top-down pass closes the chain, and the group order is the product of
the transversal sizes.  Permutations are composed as integer arrays; all
arithmetic is exact.

The degree-2304 orbit and order 17,971,200 with a transitive action and a
point stabilizer of order 7,800 are recorded here as the certificate that
the generated group matches the Tits group; the identification of those
properties with 2F4(2)' is classical and not re-proved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cyclo
from . import exactlinalg as la
from .exactlinalg import ExactMatrix
# KernelOverflowError and ScaleError are re-exported: callers of the orbit
# functions catch them from this module.
from .zkernel import (DIM, ROT, IntegerAction, KernelOverflowError, ScaleError,  # noqa: F401
                      check_range, max_abs)

VECTOR = "vector"
PROJECTIVE = "projective"

#: Stored orbit rows are SCALE times the power-basis coefficients.
SCALE = 25


class CapExceededError(ValueError):
    pass


class OrbitNotClosedError(ValueError):
    pass


class NotAnEigenvectorError(ValueError):
    pass


@dataclass(frozen=True)
class CanonicalPoint:
    """27 exact scalars, canonicalized according to the mode."""

    entries: tuple
    mode: str

    @classmethod
    def make(cls, entries, mode):
        entries = tuple(entries)
        if mode == PROJECTIVE:
            first = next((e for e in entries if not e.is_zero()), None)
            if first is None:
                raise ValueError("projective point must be nonzero")
            if first != cyclo.ONE:
                inv = first.inverse()
                entries = tuple(inv * e for e in entries)
        elif mode != VECTOR:
            raise ValueError(f"unknown mode {mode!r}")
        return cls(entries, mode)


def seed_fixed_vector() -> CanonicalPoint:
    """(1,1,1;0^24), the vector fixed by the index-2304 point stabilizer."""
    return CanonicalPoint.make((cyclo.ONE,) * 3 + (cyclo.ZERO,) * 24, VECTOR)


def seed_proj_1755() -> CanonicalPoint:
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
    return CanonicalPoint.make(entries, PROJECTIVE)


def seed_proj_conjugate() -> CanonicalPoint:
    """The conjugate 1-space (0,0,0; 0,0,0,0; i,1,-1,-i; 0^16).

    Fixed by d and scaled by +i under (ac)^3, but its point stabilizer is
    only the order-40 group generated by f1, d and (ac)^3, so its orbit has
    449,280 points rather than 1755.
    """
    entries = ([cyclo.ZERO] * 7
               + [cyclo.I, cyclo.ONE, cyclo.MINUS_ONE, -cyclo.I]
               + [cyclo.ZERO] * 16)
    return CanonicalPoint.make(entries, PROJECTIVE)


def _encode(entries) -> np.ndarray:
    """The 1 x 216 row of SCALE times the coefficients of 27 scalars."""
    row = []
    for e in entries:
        for n in e.num:
            q, r = divmod(n * SCALE, e.den)
            if r:
                raise ScaleError(f"seed entry {e} is not integral at scale {SCALE}")
            row.append(q)
    check_range(1, max(map(abs, row)), 1)
    return np.array([row], dtype=np.int64)


def _canonical(rows, mode):
    """Rows in the canonical form of `mode` (projective: least rotation)."""
    if mode == VECTOR:
        return rows
    if mode != PROJECTIVE:
        raise ValueError(f"unknown mode {mode!r}")
    n = len(rows)
    blocks = rows.reshape(n, 27, 8)
    nonzero = blocks.any(axis=2)
    if not nonzero.any(axis=1).all():
        raise ValueError("projective point must be nonzero")
    check_range(8, 1, max_abs(rows))
    first = blocks[np.arange(n), nonzero.argmax(axis=1)]
    cands = first @ ROT  # (20, n, 8): the first block of each rotation
    alive = np.ones((20, n), dtype=bool)
    for c in range(8):
        col = np.where(alive, cands[:, :, c], np.iinfo(np.int64).max)
        alive &= col == col.min(axis=0)
    k = alive.argmax(axis=0)
    return np.matmul(blocks, ROT[k]).reshape(n, DIM)


def _row_keys(rows) -> list:
    buf = rows.tobytes()
    step = DIM * rows.itemsize
    return [buf[i:i + step] for i in range(0, len(buf), step)]


@dataclass(eq=False)
class Orbit:
    """An indexed orbit, closed under the generators that built it.

    `coords[i]` is point i as SCALE times its 216 power-basis coefficients;
    `index` maps the bytes of a row to its point number.
    """

    coords: np.ndarray
    index: dict
    base: CanonicalPoint
    mode: str

    def __len__(self):
        return len(self.coords)

    def point(self, i) -> tuple:
        """Point i as 27 exact scalars."""
        row = self.coords[i].tolist()
        return tuple(cyclo.CycNum(row[8 * j:8 * j + 8], SCALE) for j in range(27))


@dataclass(frozen=True)
class PermSet:
    """Permutations of 0..degree-1, one per generator."""

    degree: int
    perms: tuple

    def __post_init__(self):
        full = set(range(self.degree))
        for p in self.perms:
            if len(p) != self.degree or set(p) != full:
                raise ValueError("not a permutation of 0..degree-1")


def enumerate_orbit(seed: CanonicalPoint, gens, cap: int = 10000) -> Orbit:
    """BFS closure of the seed under the generator matrices."""
    actions = [IntegerAction(g) for g in gens]
    frontier = _canonical(_encode(seed.entries), seed.mode)
    levels = [frontier]
    index = {frontier.tobytes(): 0}
    while actions and len(frontier):
        images = np.stack([_canonical(act(frontier), seed.mode) for act in actions])
        keys = [_row_keys(w) for w in images]
        new = []
        for i in range(len(frontier)):
            for gi, gkeys in enumerate(keys):
                key = gkeys[i]
                if key not in index:
                    if len(index) >= cap:
                        raise CapExceededError(f"orbit exceeds cap {cap}")
                    index[key] = len(index)
                    new.append((gi, i))
        picks = np.array(new, dtype=np.intp).reshape(-1, 2)
        frontier = images[picks[:, 0], picks[:, 1]]
        levels.append(frontier)
    return Orbit(np.concatenate(levels), index, seed, seed.mode)


def perm_images(orbit: Orbit, gens) -> PermSet:
    """The permutations induced on the orbit by each generator."""
    perms = []
    for g in gens:
        images = _canonical(IntegerAction(g)(orbit.coords), orbit.mode)
        try:
            perms.append(tuple(orbit.index[key] for key in _row_keys(images)))
        except KeyError:
            raise OrbitNotClosedError("image of an orbit point is missing") from None
    return PermSet(len(orbit), tuple(perms))


def scalar_character(seed: CanonicalPoint, m: ExactMatrix):
    """The exact scalar c with m * seed = c * seed."""
    w = la.matvec(m, seed.entries)
    k = next((i for i, e in enumerate(seed.entries) if not e.is_zero()), None)
    if k is None:
        raise NotAnEigenvectorError("zero vector")
    c = w[k] / seed.entries[k]
    for we, se in zip(w, seed.entries):
        if we != c * se:
            raise NotAnEigenvectorError("matrix does not preserve the 1-space")
    return c


def transitivity_check(p: PermSet) -> bool:
    """Whether the generated group has a single orbit on 0..degree-1."""
    seen = bytearray(p.degree)
    seen[0] = 1
    frontier = [0]
    count = 1
    while frontier:
        nxt = []
        for x in frontier:
            for perm in p.perms:
                y = perm[x]
                if not seen[y]:
                    seen[y] = 1
                    count += 1
                    nxt.append(y)
        frontier = nxt
    return count == p.degree


class StabChain:
    """A base, strong generating set and transversals; order is certified."""

    def __init__(self, base, levels, degree):
        self.base = tuple(base)
        self.degree = degree
        self._levels = levels  # list of (beta, gens: [np arrays], transversal dict)
        self.transversal_sizes = tuple(len(t) for _, _, t in levels)
        self.strong_gens = tuple(tuple(int(x) for x in g)
                                 for _, gens, _ in levels for g in gens)

    def order(self) -> int:
        return math.prod(self.transversal_sizes) if self._levels else 1

    def contains(self, perm) -> bool:
        """Membership test by sifting through the chain."""
        h = np.asarray(perm, dtype=np.int32)
        id_ = np.arange(self.degree, dtype=np.int32)
        for beta, _, trans in self._levels:
            if np.array_equal(h, id_):
                return True
            u = trans.get(int(h[beta]))
            if u is None:
                return False
            uinv = np.empty_like(u)
            uinv[u] = id_
            h = uinv[h]
        return bool(np.array_equal(h, id_))


def stab_chain_order(pset: PermSet) -> int:
    """The exact order of the group generated by the permutations."""
    return build_stab_chain(pset).order()


def build_stab_chain(pset: PermSet) -> StabChain:
    """Deterministic Schreier-Sims on the given permutations."""
    degree = pset.degree
    id_ = np.arange(degree, dtype=np.int32)
    gens0 = []
    for p in pset.perms:
        a = np.array(p, dtype=np.int32)
        if not np.array_equal(a, id_):
            gens0.append(a)

    base = []
    S = []  # gens assigned at each level
    T = []  # transversal dict at each level: point -> array u with u[beta] = point

    def gens_at(i):
        out = []
        for j in range(i, len(S)):
            out.extend(S[j])
        return out

    def rebuild_transversal(i):
        beta = base[i]
        trans = {beta: id_}
        frontier = [beta]
        gens = gens_at(i)
        while frontier:
            nxt = []
            for d in frontier:
                u = trans[d]
                for s in gens:
                    e = int(s[d])
                    if e not in trans:
                        trans[e] = s[u]  # x -> s[u[x]] maps beta to e
                        nxt.append(e)
            frontier = nxt
        T[i] = trans

    def sift(g, start):
        """Reduce g through levels >= start; returns (residue or None, level)."""
        h = g
        for j in range(start, len(base)):
            if np.array_equal(h, id_):
                return None, j
            u = T[j].get(int(h[base[j]]))
            if u is None:
                return h, j
            uinv = np.empty_like(u)
            uinv[u] = id_
            h = uinv[h]
        if np.array_equal(h, id_):
            return None, len(base)
        return h, len(base)

    def add_generator(g, level):
        if level == len(base):
            moved = int(np.nonzero(g != id_)[0][0])
            base.append(moved)
            S.append([])
            T.append({})
        S[level].append(g)
        for i in range(level + 1):
            rebuild_transversal(i)

    for g in gens0:
        h, j = sift(g, 0)
        if h is not None:
            add_generator(h, j)

    i = 0
    while i < len(base):
        # Schreier generators of level i; residues land strictly deeper, so
        # the snapshots below are final for this level.
        orbit_pts = sorted(T[i])
        gens = gens_at(i)
        trans = T[i]
        for d in orbit_pts:
            u = trans[d]
            for s in gens:
                su = s[u]
                e = int(su[base[i]])
                v = trans[e]
                vinv = np.empty_like(v)
                vinv[v] = id_
                sg = vinv[su]
                if np.array_equal(sg, id_):
                    continue
                h, j = sift(sg, i + 1)
                if h is not None:
                    add_generator(h, j)
        i += 1

    levels = [(base[i], S[i], T[i]) for i in range(len(base))]
    return StabChain(base, levels, degree)
