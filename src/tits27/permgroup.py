"""Permutation groups: generator sets, transitivity and stabilizer chains.

A `PermSet` holds permutations of the points 0..degree-1, one per generator.
`build_stab_chain` turns it into a `StabChain`, which certifies the exact
order of the generated group and decides membership by sifting.

Stabilizer chain
    A deterministic Schreier-Sims computation certifies the exact order of
    the permutation group:

  * base points are chosen as the smallest point moved by the residue that
    creates each level;
  * the strong generators and their inverses are one stacked array, in the
    order of their depth and, at one depth, of their adding, so the strong
    generators at depth i or deeper are its rows of depth at least i; each
    inverse is formed once, when its generator is added;
  * each level keeps the orbit of its base point under all strong generators
    assigned at its depth or deeper, as `pos[x]` (the BFS visit number of
    point x, -1 off the orbit), the BFS tree (per point, the `parent` it was
    reached from and the `label` of the generator that reached it, and the
    `layers` of visit numbers) and the table `uinv`, whose row r is the
    inverse of u_e for the r-th point e visited, where u_e = s_k u_d if
    generator s_k first reached e from d;
  * `uinv` is filled on first use, by a Schreier batch of its level or by a
    sift of more than WALK_ROWS = 64 rows, and dropped when the level is
    rebuilt; until then a sift maps a row through u_e^-1 by walking the tree
    from e to the base point and applying s_k^-1 for each edge, the
    Schreier-vector trade of time for space (Seress, "Permutation Group
    Algorithms", 2003, section 4.1).  So sifting the input generators, each
    of which rebuilds level 0, fills no table, and level 0 is filled once;
  * u is filled one BFS layer at a time by one gather, each row through
    its own generator; `uinv` is filled per layer and generator, by one take
    of the parents' rows through the inverse generator, since a gather of
    whole rows each through its own inverse takes twice as long and holds
    intp indices for every entry of the layer;
  * u itself is formed only on the test points (see Known base), from the
    tree, while the level's Schreier generators u_e^-1 s u_d are sifted, and
    again whenever a new base point joins the test points; the one full row
    u_d that a residue needs is the inverse of row d of `uinv`;
  * every Schreier generator of a level is sifted through the deeper levels,
    and nontrivial residues are appended where they escape.

The group order is the product of the transversal sizes.  All arithmetic is
on integer arrays and exact.  `StabChain.contains_many` sifts a whole batch
of permutations at once, and `contains` is that batch of one row.

Known base
    A sift only has to decide whether a residue is the identity, so it
    carries the images of a set Q of test points, not whole permutations.  Q
    is a known base (a set whose pointwise stabilizer is trivial) together
    with the chain's base points, whose images pick the transversal rows.
    The known base is `PermSet.certified_base`, which whoever builds the
    set has proved (see `orbits.perm_images`).  A set without one gets every
    point as Q: the chain is the same, only slower to build.  Whole
    permutations are sifted only for the input generators and for each
    residue that becomes a strong generator.

Levels that do not change
    Write S(i) for the strong generators at depth i or deeper.  A residue
    found while level i is processed lies in <S(i)>: it is a Schreier
    generator u_e^-1 s u_d of level i, all of whose factors lie in <S(i)>,
    times inverse transversal elements of deeper levels, whose generators
    lie in S(i) as well.  Adding it at a level j > i therefore leaves <S(k)>
    and the orbit of every level k <= i as they were, so only levels i+1..j
    are rebuilt, and level i keeps the transversal and generators that its
    Schreier generators were formed from.  Residues land strictly deeper
    than the level being processed, so one top-down pass closes the chain.

Batches
    The Schreier generators of a level, in (point, generator) order, are
    sifted in batches against the chain as it stands.  The chain changes
    only when a residue is added, so every row before the first one with a
    nontrivial residue sifts to the identity exactly as it would one at a
    time.  That row is then formed in full, sifted and added, and the next
    batch starts at the row after it, against the new chain.  This holds
    for batches of any size, so the base and the strong generators, in
    their order, are those of sifting one Schreier generator at a time,
    whatever the sizes are.  A batch starts at 64 rows and doubles after
    each batch that sifts clean, up to 2^20 // |Q| rows, which bounds the
    temporaries; after a residue it starts again at 64.  Residues come
    early and close together (the 7 of the 2304-point level all come within
    its first 107 of 11,520 rows), and every row after the first escape in
    a batch is formed again, so small batches there and large ones later
    form each row about once.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class PermSet:
    """Permutations of 0..degree-1, one per generator.

    `certified_base`, set only by `orbits.perm_images`, lists points that
    only the identity of the generated group fixes pointwise; None means
    every point.
    """

    degree: int
    perms: tuple
    certified_base: tuple = field(default=None, init=False, compare=False)

    def __post_init__(self):
        full = set(range(self.degree))
        for p in self.perms:
            if len(p) != self.degree or set(p) != full:
                raise ValueError("not a permutation of 0..degree-1")


def transitivity_check(p: PermSet) -> bool:
    """Whether the generated group has a single orbit on 0..degree-1."""
    pos = _bfs(np.array(p.perms, dtype=np.intp).reshape(len(p.perms), p.degree), 0)[0]
    return bool((pos >= 0).all())


def _bfs(gens, beta):
    """BFS from beta under the rows of `gens`, each point then each generator:
    every point's visit number (-1: unreached); per visit number, the visit
    number of its parent and the generator that reached it (0 and 0 for
    beta); and the visit numbers [lo, hi) of each layer after the first."""
    pos = np.full(gens.shape[1], -1, dtype=np.intp)
    pos[beta] = 0
    frontier, parent, label, layers = np.array([beta]), [[0]], [[0]], [(0, 1)]
    while frontier.size:
        img = gens[:, frontier].T.ravel()
        fresh = np.flatnonzero(pos[img] < 0)
        hits = fresh[np.sort(np.unique(img[fresh], return_index=True)[1])]
        parent.append(pos[frontier[hits // len(gens)]])
        label.append(hits % len(gens))
        frontier = img[hits]
        lo = layers[-1][1]
        pos[frontier] = lo + np.arange(hits.size)
        layers.append((lo, lo + hits.size))
    return pos, np.concatenate(parent), np.concatenate(label), layers[1:]


class _Level:
    """A base point and its transversal: `pos`, `points`, the BFS tree
    (`parent`, `label`, `layers`) and the `uinv` table, filled on first use."""

    #: A sift of more rows than this fills the table; fewer walk the tree.
    WALK_ROWS = 64

    def __init__(self, beta):
        self.beta = beta

    def build(self, gens, ginvs):
        """Rebuild the orbit and its tree under the stacked `gens`, whose
        inverses are `ginvs`, by one BFS; `uinv` is dropped until next used."""
        self.pos, self.parent, self.label, self.layers = _bfs(gens, self.beta)
        self.points = np.flatnonzero(self.pos >= 0)
        self.ginvs = ginvs
        self.__dict__.pop("uinv", None)

    @cached_property
    def uinv(self):
        """Row r: u_e^-1, e the r-th point visited, filled layer by layer
        through the parents' rows."""
        uinv = np.empty((len(self.points), len(self.pos)), dtype=self.ginvs.dtype)
        uinv[0] = np.arange(len(self.pos))
        for lo, hi in self.layers:  # u_e^-1 = u_d^-1 s_k^-1 for e = s_k(d)
            for k, ginv in enumerate(self.ginvs):
                pick = lo + np.flatnonzero(self.label[lo:hi] == k)
                uinv[pick] = np.take(uinv[self.parent[pick]], ginv, axis=1)
        return uinv

    def unwind(self, r, a):
        """Row k of `a` mapped through u_e^-1, e the r[k]-th point visited:
        by the table once it is filled or for a batch of more than WALK_ROWS
        rows, and otherwise by walking the tree from e to the base point,
        applying s^-1 for each edge s(d) = e on the way."""
        if "uinv" in self.__dict__ or len(a) > self.WALK_ROWS:
            return _gather(self.uinv, r, a)
        a = a.copy()
        live = np.flatnonzero(r)
        while live.size:
            a[live] = _gather(self.ginvs, self.label[r[live]], a[live])
            r = self.parent[r]
            live = live[r[live] > 0]
        return a

    def u_on(self, gens, cols):
        """Row r: the images of the points `cols` under u_e, e the r-th point
        visited, filled along the BFS tree (u_e = s_k u_d)."""
        u = np.empty((len(self.points), len(cols)), dtype=cols.dtype)
        u[0] = cols
        for lo, hi in self.layers:
            u[lo:hi] = _gather(gens, self.label[lo:hi], u[self.parent[lo:hi]])
        return u


def _gather(table, rows, a):
    """table[rows[k], a[k, c]] for every k and c."""
    return np.take(table, rows[:, None] * table.shape[1] + a)


def _sift(levels, a, cols, start):
    """Sift rows of images of the points x (column cols[x]) through levels[start:]:
    the residues, and the level where each row left (len(levels): none).  A row
    that has left is sifted on by row 0, the identity, so it stays put."""
    stop = np.full(len(a), len(levels))
    for j in range(start, len(levels)):
        r = levels[j].pos[a[:, cols[levels[j].beta]]]
        stop[(r < 0) & (stop == len(levels))] = j
        a = levels[j].unwind(np.where(stop < len(levels), 0, r), a)
    return a, stop


class StabChain:
    """A base, strong generating set and transversals; order is certified."""

    def __init__(self, levels, strong, degree):
        self.degree, self._levels = degree, levels
        self.base = tuple(lv.beta for lv in levels)
        self.transversal_sizes = tuple(len(lv.points) for lv in levels)
        self.strong_gens = tuple(map(tuple, strong.tolist()))

    def order(self) -> int:
        return math.prod(self.transversal_sizes)

    def contains(self, perm) -> bool:
        """Membership by sifting; False for anything but a permutation of 0..degree-1."""
        return bool(self.contains_many([perm])[0])

    def contains_many(self, rows) -> np.ndarray:
        """Membership of each of k rows, by one sift of them as a k x degree
        numeric array; False for a row that is not a permutation of
        0..degree-1.  Rows that do not form such an array are each decided
        alone."""
        try:
            a = np.asarray(rows)
        except ValueError:  # ragged rows
            a = None
        if a is None or a.shape[1:] != (self.degree,) or a.dtype.kind not in "biuf":
            return np.array([len(rows) > 1 and self.contains_many([r])[0] for r in rows], bool)
        ident = np.arange(self.degree)
        ok = (np.sort(a, axis=1) == ident).all(axis=1)
        h, stop = _sift(self._levels, np.where(ok[:, None], a, ident).astype(np.intp), ident, 0)
        return ok & (stop == len(self._levels)) & (h == ident).all(axis=1)


def _schreier(lv, gens, d, s, ud):
    """Images under u_e^-1 s u_d, e = s(d), one row per (d, s), of the points
    whose images under u_d are the row's entries of `ud`."""
    return _gather(lv.uinv, lv.pos[gens[s, d]], _gather(gens, s, ud))


def build_stab_chain(pset: PermSet) -> StabChain:
    """Deterministic Schreier-Sims, sifting only the images of the test points.

    `strong[k]` holds the k-th strong generator and its inverse, and
    `depth[k]` its depth, in the order of the Stabilizer chain section.
    Every residue exits below the level being processed, so that level
    keeps its generators and transversal (see Levels that do not change)."""
    ident = np.arange(pset.degree, dtype=np.int16 if pset.degree <= 2 ** 15 else np.int32)
    levels = []
    # the test points, an ordered set, and col[x]: the column of x among them
    test = dict.fromkeys(pset.certified_base or range(pset.degree))
    col = np.empty(pset.degree, dtype=np.intp)
    strong, depth = np.empty((0, 2, pset.degree), dtype=ident.dtype), np.empty(0, dtype=np.intp)

    def add(h, lowest):
        """Sift h from level `lowest`, and add a nontrivial residue where it exits."""
        nonlocal strong, depth
        (h,), (j,) = _sift(levels, h[None], ident, lowest)
        if j == len(levels):
            moved = np.flatnonzero(h != ident)
            if not moved.size:
                return
            levels.append(_Level(int(moved[0])))
            test[int(moved[0])] = None
        at = np.count_nonzero(depth <= j)  # after every generator at depth j or less
        strong = np.insert(strong, at, (h, np.argsort(h, kind="stable")), axis=0)
        depth = np.insert(depth, at, j)
        for k in range(lowest, j + 1):
            levels[k].build(strong[depth >= k, 0], strong[depth >= k, 1])

    for p in pset.perms:
        add(np.array(p, dtype=ident.dtype), 0)
    for i, lv in enumerate(levels):  # also walks the levels that `add` appends
        gens = strong[depth >= i, 0]
        d = np.repeat(lv.points, len(gens))
        s = np.tile(np.arange(len(gens)), len(lv.points))
        row, size, pts = 0, 64, ()
        while row < len(d):
            if len(pts) != len(test):  # first pass, or a residue added a base point
                pts = np.array(list(test), dtype=ident.dtype)
                col[pts] = np.arange(len(pts))
                u = lv.u_on(gens, pts)
            end = min(len(d), row + min(size, max(1, 2 ** 20 // len(pts))))
            a = _schreier(lv, gens, d[row:end], s[row:end], u[lv.pos[d[row:end]]])
            a, stop = _sift(levels, a, col, i + 1)
            escaped = np.flatnonzero((stop < len(levels)) | (a != pts).any(axis=1))
            if not escaped.size:
                row, size = end, 2 * size
                continue
            row, size = row + int(escaped[0]) + 1, 64
            ud = np.argsort(lv.uinv[lv.pos[d[row - 1]]], kind="stable")  # u_d in full
            add(_schreier(lv, gens, d[row - 1:row], s[row - 1:row], ud[None])[0], i + 1)
    return StabChain(levels, strong[:, 0], pset.degree)
