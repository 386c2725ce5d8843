"""Permutation groups: the stabilizer chain, its known base and membership."""

import collections
import functools
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tits27 import permgroup as pg


# Base, transversal sizes, number of strong generators and the sha256 of
# repr(strong_gens), recorded with the chain that composed whole permutations.
PINNED_CHAINS = {
    "G": ((3, 1, 0, 6), (2304, 325, 6, 4), 11,
          "53e3fa2681487ca3a3e2a3a1d6637ced0e8cbe2e28c5218da53a9a47217cf7e7"),
    "H": ((3, 1, 6), (78, 25, 4), 7,
          "71fef99cfa834655b26364864bde9c10f873023321155c17b69bb7a35e32a9ac"),
    "1755": ((2, 0, 1), (1755, 640, 16), 9,
             "336683e85fb57c76b86960b0cc9c24236c31f48e5d642c1927d77b06f520f5c2"),
}


def _pinned(chain):
    return (chain.base, chain.transversal_sizes, len(chain.strong_gens),
            hashlib.sha256(repr(chain.strong_gens).encode()).hexdigest())


def test_stab_chain_structure(chain_all):
    assert math.prod(chain_all.transversal_sizes) == chain_all.order()
    assert chain_all.transversal_sizes[0] == 2304
    for g in chain_all.strong_gens:
        assert chain_all.contains(g)
    n = chain_all.degree
    assert chain_all.contains(tuple(range(n)))
    # a transposition is not in the group unless it certifies as such
    swapped = list(range(n))
    swapped[0], swapped[1] = 1, 0
    assert not chain_all.contains(tuple(swapped))


# -- the stabilizer chain on a certified base ---------------------------------

def _level_orbits(chain):
    return [frozenset(lv.points.tolist()) for lv in chain._levels]


def _random_words(pset, count, seed):
    rng = random.Random(seed)
    gens = [np.array(p) for p in pset.perms]
    words = []
    for _ in range(count):
        h = np.arange(pset.degree)
        for _ in range(rng.randrange(1, 30)):
            h = rng.choice(gens)[h]
        words.append(tuple(h.tolist()))
    return words


@pytest.mark.parametrize("which", ["G", "H"])
def test_known_base_chain_equals_whole_permutation_chain(request, which):
    pset = request.getfixturevalue("perms_all" if which == "G" else "perms_psl")
    chain = request.getfixturevalue("chain_all" if which == "G" else "chain_psl")
    plain = pg.build_stab_chain(pg.PermSet(pset.degree, pset.perms))
    assert len(pset.certified_base) == 27
    assert plain.base == chain.base
    assert plain.strong_gens == chain.strong_gens
    assert plain.transversal_sizes == chain.transversal_sizes
    assert _level_orbits(plain) == _level_orbits(chain)
    assert _pinned(chain) == PINNED_CHAINS[which]

    n = pset.degree
    swapped = list(range(n))
    swapped[0], swapped[1] = 1, 0
    words = _random_words(pset, 50, seed=which)
    for perm in list(chain.strong_gens) + [tuple(range(n)), tuple(swapped)] + words:
        assert chain.contains(perm) == plain.contains(perm)
    assert all(chain.contains(w) for w in words)
    assert not chain.contains(tuple(swapped))


def test_level_zero_forms_each_schreier_row_at_most_twice(monkeypatch, perms_all):
    # level 0 has 2304 points x 5 generators = 11,520 pairs, of which the 2303
    # edges of the BFS tree give the identity and are not formed, so 9,217
    # rows remain; its 7 residues all escape early, and batches of a fixed
    # 2^20 // 31 rows would form the rest of a batch again after each escape,
    # about 64,000 rows in all
    rows = collections.Counter()
    schreier = pg._schreier

    def counted(lv, gens, d, s, ud):
        rows[lv] += len(d)
        return schreier(lv, gens, d, s, ud)

    monkeypatch.setattr(pg, "_schreier", counted)
    chain = pg.build_stab_chain(perms_all)
    assert _pinned(chain) == PINNED_CHAINS["G"]
    level0 = chain._levels[0]
    assert len(level0.points) * (len(perms_all.perms) - 1) + 1 == 9_217
    assert 9_217 <= rows[level0] <= 2 * 9_217


# -- a chain started from the chain of a point stabilizer ----------------------

def _agrees_with_plain(chain, pset, seed):
    """Membership in `chain` agrees with the plain chain of `pset` on both
    chains' strong generators, 50 random words, the identity and (0 1)."""
    plain = pg.build_stab_chain(pg.PermSet(pset.degree, pset.perms, pset.certified_base))
    n = pset.degree
    swapped = list(range(n))
    swapped[0], swapped[1] = 1, 0
    words = _random_words(pset, 50, seed=seed)
    perms = list(chain.strong_gens) + list(plain.strong_gens) + words \
        + [tuple(range(n)), tuple(swapped)]
    assert chain.contains_many(perms).tolist() == plain.contains_many(perms).tolist()
    assert all(chain.contains_many(words)) and not chain.contains(tuple(swapped))
    return plain


def test_chain_below_the_point_stabilizer(perms_all, chain_psl):
    # H fixes point 0, so G's chain starts at 0 with H's levels below it, and
    # every Schreier generator of level 0 sifts through them to the identity
    chain = pg.build_stab_chain(perms_all, chain_psl)
    assert chain.order() == 17_971_200 == 2304 * chain_psl.order()
    assert chain.base == (0, 3, 1, 6)
    assert chain.transversal_sizes == (2304, 78, 25, 4)
    assert len(chain.strong_gens) == 12
    assert chain.strong_gens[5:] == chain_psl.strong_gens
    assert _pinned(_agrees_with_plain(chain, perms_all, "below")) == PINNED_CHAINS["G"]
    assert _pinned(chain_psl) == PINNED_CHAINS["H"]


def test_chain_below_a_smaller_subgroup_adds_residues(perms_all):
    # <f1, f2> has order 25 and fixes point 0: level 0's Schreier generators
    # leave residues, which rebuild the copied levels; `below` stays as it was
    sub = pg.PermSet(perms_all.degree, perms_all.perms[:2], perms_all.certified_base)
    below = pg.build_stab_chain(sub)
    assert below.order() == 25 and all(p[0] == 0 for p in sub.perms)
    before = (below.base, below.transversal_sizes, below.strong_gens)
    assert before[:2] == ((3,), (25,))
    chain = pg.build_stab_chain(perms_all, below)
    plain = _agrees_with_plain(chain, perms_all, "residues")
    assert chain.order() == plain.order() == 17_971_200
    # level 1 starts as the copy of below's 25-point level and grows
    assert chain.base == (0, 3, 1, 6) and chain.transversal_sizes == (2304, 78, 25, 4)
    assert len(chain.strong_gens) > 5 + len(below.strong_gens)
    assert (below.base, below.transversal_sizes, below.strong_gens) == before
    assert below.order() == 25


def test_chain_below_takes_no_shortcut_when_it_does_not_qualify(perms_all, perms_psl):
    # H conjugated by (0 1) fixes point 1 but does not lie in G; G fixes no
    # point; a chain of another degree: each time the build is the plain one
    swap = np.arange(perms_all.degree)
    swap[[0, 1]] = 1, 0
    conj = pg.PermSet(perms_psl.degree, tuple(tuple(swap[np.array(p)[swap]].tolist())
                                              for p in perms_psl.perms), perms_psl.certified_base)
    conjugated = pg.build_stab_chain(conj)
    assert conjugated.order() == 7800 and all(p[1] == 1 for p in conj.perms)
    small = pg.build_stab_chain(pg.PermSet(4, ((1, 0, 2, 3), (0, 2, 1, 3))))
    assert small.order() == 6 and small.base[0] == 0
    for below in (conjugated, pg.build_stab_chain(perms_all), small):
        assert _pinned(pg.build_stab_chain(perms_all, below)) == PINNED_CHAINS["G"]


def _count_fills(monkeypatch):
    """Count the `uinv` tables filled, per level."""
    fills = collections.Counter()
    fill = pg._Level.uinv.func

    def counted(lv):
        fills[lv] += 1
        return fill(lv)

    prop = functools.cached_property(counted)
    prop.__set_name__(pg._Level, "uinv")
    monkeypatch.setattr(pg._Level, "uinv", prop)
    return fills


@pytest.mark.parametrize("which", ["G", "H"])
def test_certified_base_chain_fills_no_level_zero_table(request, monkeypatch, which):
    # on the 27-point certified base, walking level 0's tree for every
    # Schreier row gathers fewer entries than its table (orbit length x 2304)
    # holds, so the table is never filled; the same generators without a base
    # test all 2304 points, and there the table is filled, once
    pset = request.getfixturevalue("perms_all" if which == "G" else "perms_psl")
    fills = _count_fills(monkeypatch)
    chain = pg.build_stab_chain(pset)
    assert _pinned(chain) == PINNED_CHAINS[which]
    assert fills[chain._levels[0]] == 0
    if which == "H":  # the plain chain of G takes about 0.4 s
        plain = pg.build_stab_chain(pg.PermSet(pset.degree, pset.perms))
        assert _pinned(plain) == PINNED_CHAINS[which]
        assert fills[plain._levels[0]] == 1


def _closure(perms, degree):
    """The group generated by `perms`, by BFS over permutation tuples."""
    ident = tuple(range(degree))
    seen, frontier = {ident}, [ident]
    while frontier:
        frontier = [g for g in {tuple(p[x] for x in h) for h in frontier for p in perms}
                    if g not in seen]
        seen.update(frontier)
    return seen


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 7).flatmap(lambda n: st.tuples(
    st.lists(st.permutations(range(n)), min_size=2, max_size=4),
    st.lists(st.permutations(range(n)), min_size=20, max_size=20))), st.booleans())
def test_chain_matches_brute_force_closure(case, walk):
    # a plain PermSet: every point is a test point, and residues restart the
    # batches.  Membership takes both paths: with the tables read first, all
    # members are sifted through them at once; with them dropped, all members
    # are sifted in batches of at most orbit length // depth rows at every
    # level, so walking never gathers more entries than a table holds and no
    # table is filled
    perms, others = ([tuple(p) for p in ps] for ps in case)
    degree = len(perms[0])
    group = _closure(perms, degree)
    chain = pg.build_stab_chain(pg.PermSet(degree, tuple(perms)))
    assert chain.order() == len(group)
    for lv in chain._levels:
        if walk:
            vars(lv).pop("uinv", None)
        else:
            lv.uinv
    size = min((len(lv.points) // len(lv.layers) for lv in chain._levels), default=1) if walk else len(group)
    members = list(group)
    assert all(chain.contains_many(members[k:k + size]).all() for k in range(0, len(members), size))
    assert [chain.contains_many(others[k:k + size]).tolist() for k in range(0, len(others), size)] \
        == [[p in group for p in others[k:k + size]] for k in range(0, len(others), size)]
    assert all(("uinv" in vars(lv)) != walk for lv in chain._levels)


# -- membership of non-permutations ---------------------------------------------

NON_PERMUTATIONS_OF_4 = [
    (1, 0), (1, 2, 3, 0, 4), (0, 0, 1, 2), (0, 1, 2, 4), (-1, 0, 1, 2), (0, 1, 2, 3.5),
    "abcd", 5, None, [[0, 1], [2, 3]], [[0], [1], [2], [3]],
    np.array([1, 0, 3]), np.array([0, 0, 1, 2]), np.array([0, 1, 2, 4]), np.array([0, 1, 2, 3.5]),
]


def test_contains_rejects_non_permutations():
    chain = pg.build_stab_chain(pg.PermSet(4, ((1, 2, 3, 0), (1, 0, 2, 3))))
    for bad in [(1, 0), (1, 2, 3, 0, 4), (0, 0, 1, 2), (0, 1, 2, 4), (-1, 0, 1, 2),
                (0, 1, 2, 3.5), "abcd", 5, None, [[0, 1], [2, 3]], [[0], [1], [2], [3]]]:
        assert chain.contains(bad) is False, bad
    assert chain.contains((1, 2, 3, 0)) is True
    assert chain.contains(np.array([1, 0, 3, 2])) is True
    a5 = pg.build_stab_chain(pg.PermSet(5, ((1, 2, 3, 4, 0), (1, 2, 0, 3, 4))))
    assert a5.contains((1, 0, 3, 2, 4)) is True
    assert a5.contains((1, 0, 2, 3, 4)) is False     # odd


def test_contains_many_rejects_non_permutations():
    chain = pg.build_stab_chain(pg.PermSet(4, ((1, 2, 3, 0), (1, 0, 2, 3))))
    for bad in NON_PERMUTATIONS_OF_4:
        assert chain.contains(bad) is False, bad
        assert chain.contains_many([bad]).tolist() == [False], bad
    # a batch of them, ragged or not, and one with members among them
    assert chain.contains_many(NON_PERMUTATIONS_OF_4).tolist() == [False] * 15
    assert chain.contains_many(np.array([[0, 0, 1, 2], [0, 1, 2, 4]])).tolist() == [False] * 2
    batch = [(1, 2, 3, 0), (0, 0, 1, 2), np.array([1, 0, 3, 2]), (1, 0), (0, 1, 2, 3.5)]
    assert chain.contains_many(batch).tolist() == [True, False, True, False, False]
    assert chain.contains_many(np.array([[1, 0, 3, 2], [3, 2, 1, 0]])).tolist() == [True, True]
    assert chain.contains_many([]).tolist() == []
    a5 = pg.build_stab_chain(pg.PermSet(5, ((1, 2, 3, 4, 0), (1, 2, 0, 3, 4))))
    assert a5.contains_many([(1, 0, 3, 2, 4), (1, 0, 2, 3, 4)]).tolist() == [True, False]
