"""Orbit enumeration, permutation images and the chains built on them."""

import collections
import dataclasses
import hashlib
import os
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest

import cyc_reference
from test_permgroup import PINNED_CHAINS, _pinned
from tits27 import certificates, cyclo, exactlinalg as la, generators, gf41, orbits as ob
from tits27 import zkernel


def _decode(row):
    """27 exact scalars from a 216-coefficient row at SCALE."""
    row = row.ravel().tolist()
    return tuple(cyclo.CycNum(row[8 * j:8 * j + 8], ob.SCALE) for j in range(27))


def _scalar(c):
    """c times the 27x27 identity."""
    return cyc_reference.scale_matrix(la.ExactMatrix.identity(27, la.RING_CYC), c)


def test_fixed_seed_is_fixed_by_psl_generators(gens):
    v = _decode(ob.seed_fixed_vector().row)
    assert v == (cyclo.ONE,) * 3 + (cyclo.ZERO,) * 24
    for m in (gens.f1, gens.f2, gens.ac, gens.eprime):
        assert la.matvec(m, v) == v


def test_seed_refusals(gens5):
    seventh = [cyclo.CycNum.rational(1, 7)] + [cyclo.ZERO] * 26
    with pytest.raises(ob.ScaleError, match="scale 25"):
        ob.Seed.of(seventh, ob.VECTOR)
    with pytest.raises(ValueError, match="unknown mode"):
        ob.Seed.of([cyclo.ONE] * 27, "affine")
    zero = ob.Seed.of([cyclo.ZERO] * 27, ob.PROJECTIVE)
    with pytest.raises(ValueError, match="nonzero"):
        ob.enumerate_orbit(zero, gens5)


def test_trivial_orbit(gens):
    o = ob.enumerate_orbit(ob.seed_fixed_vector(), [gens.f1, gens.f2])
    assert len(o) == 1


def test_perm_images_of_unclosed_orbit(gens):
    # d sends (1,1,1;0^24) to (1,-1,-1;0^24), which is not in the f1-orbit
    o = ob.enumerate_orbit(ob.seed_fixed_vector(), [gens.f1])
    assert len(o) == 1
    with pytest.raises(ob.OrbitNotClosedError):
        ob.perm_images(o, [gens.d])


def test_cap_exceeded(gens5):
    with pytest.raises(ob.CapExceededError):
        ob.enumerate_orbit(ob.seed_fixed_vector(), gens5, cap=100)


def test_orbit_2304(orbit2304):
    assert len(orbit2304) == 2304


def test_orbit_independent_of_generator_order(gens, gens5, orbit2304):
    reordered = [gens.eprime, gens.ac, gens.d, gens.f2, gens.f1]
    other = ob.enumerate_orbit(ob.seed_fixed_vector(), reordered)
    assert set(other.index) == set(orbit2304.index)


# -- row keys ------------------------------------------------------------------

def test_row_keys_tell_a_wide_entry_from_its_int8_wrap():
    rows = np.zeros((4, 216), dtype=np.int64)
    rows[:, 5] = 200, -56, -128, 128    # 200 and -56 share their int8 byte
    keys = ob._row_keys(rows)
    assert [len(k) for k in keys] == [1728, 216, 216, 1728]
    assert len(set(keys)) == 4
    # a key depends only on its row, not on the rows keyed with it
    assert keys == [ob._row_keys(r[None])[0] for r in rows]
    assert ob._row_keys(rows[1:3]) == keys[1:3]


def test_row_keys_of_float_rows_are_those_of_int_rows():
    # no float reaches int8 out of its range: 200 would wrap to the key of -56,
    # and 2^40 * 200 would warn; every entry here is exact in float32
    rows = np.zeros((4, 216), dtype=np.int64)
    rows[:, 5] = 200, -56, -128, 128
    with warnings.catch_warnings(), np.errstate(invalid="raise"):
        warnings.simplefilter("error")
        for batch in (rows, rows[1:3], 2 ** 40 * rows):
            for dtype in (np.float32, np.float64):
                assert ob._row_keys(batch.astype(dtype)) == ob._row_keys(batch)


def test_orbit_with_keys_of_both_widths(gens5, orbit2304):
    # 6 (1,1,1;0^24): its points are 6 times those of orbit2304, whose stored
    # entries reach 25, so some rows hold 150 and some stay within int8
    six = cyclo.CycNum.from_int(6)
    orbit = ob.enumerate_orbit(ob.Seed.of((six,) * 3 + (cyclo.ZERO,) * 24, ob.VECTOR), gens5)
    assert {len(k) for k in orbit.index} == {216, 1728}
    assert len(orbit) == 2304
    assert np.array_equal(orbit.coords, 6 * orbit2304.coords)
    assert np.array_equal(orbit.images, orbit2304.images)


@pytest.mark.parametrize("which", ["orbit2304", "orbit1755"])
def test_paper_orbits_have_narrow_keys(request, which):
    assert {len(k) for k in request.getfixturevalue(which).index} == {216}


def test_kernel_images_match_cycnum_matvec(orbit2304, gens5, perms_all):
    # the exact CycNum product is the reference for the integer kernel
    for i in range(0, len(orbit2304), 97):
        p = orbit2304.point(i)
        for g, perm in zip(gens5, perms_all.perms):
            assert la.matvec(g, p) == orbit2304.point(perm[i])


def test_kernel_rejects_non_integral_image(gens, gens5):
    seventh = cyc_reference.scale_matrix(gens.f1, cyclo.CycNum.rational(1, 7))
    with pytest.raises(ob.ScaleError):
        ob.enumerate_orbit(ob.seed_fixed_vector(), [seventh] + gens5[1:])


@pytest.mark.parametrize("exponent", [60, 50, 22])
def test_kernel_refuses_int64_overflow(monkeypatch, exponent):
    # 2^60 and 2^50 fail the bound when the generator is compiled (216 * 8 *
    # 2^50 >= 2^53), before any product; 2^22 passes it for the seed, whose
    # stored entries are 25, and fails it one level later, where the next
    # product would reach 216 * 2^22 * 25 * 2^22 > 2^53
    calls = []
    raw = zkernel.IntegerAction.raw
    monkeypatch.setattr(zkernel.IntegerAction, "raw",
                        lambda self, rows: calls.append(1) or raw(self, rows))
    big = _scalar(cyclo.CycNum.from_int(2 ** exponent))
    with pytest.raises(ob.KernelOverflowError):
        ob.enumerate_orbit(ob.seed_fixed_vector(), [big])
    assert len(calls) == (0 if exponent > 22 else 2)


@pytest.mark.parametrize("which, subset", [
    ("orbit2304", ("f1", "f2", "d", "ac", "eprime")),
    ("orbit2304", ("f1", "f2", "ac", "eprime")),
    ("orbit1755", ("f1", "f2", "d", "ac", "eprime")),
])
def test_recorded_images_equal_applied_images(request, monkeypatch, gens, which, subset):
    # equal copies are not the matrices that built the orbit, so they are
    # applied to every point; the originals read the permutations the BFS recorded
    orbit = request.getfixturevalue(which)
    chosen = [getattr(gens, name) for name in subset]
    applied = ob.perm_images(orbit, [la.ExactMatrix(m.ring, m.data) for m in chosen])

    def no_product(self, rows):
        raise AssertionError("the recorded permutations need no product")

    monkeypatch.setattr(zkernel.IntegerAction, "raw", no_product)
    recorded = ob.perm_images(orbit, chosen)
    assert recorded.perms == applied.perms
    assert recorded.certified_base == applied.certified_base


def test_perm_images_are_bijections(orbit2304, gens5, perms_all):
    n = perms_all.degree
    for perm in perms_all.perms:
        inv = [0] * n
        for i, j in enumerate(perm):
            inv[j] = i
        assert tuple(inv[j] for j in perm) == tuple(range(n))


def test_perm_images_identity(orbit2304):
    ident = la.ExactMatrix.identity(27, la.RING_CYC)
    p = ob.perm_images(orbit2304, [ident])
    assert p.perms[0] == tuple(range(2304))


def test_group_order_certificates(chain_all, chain_psl):
    assert chain_all.order() == 17_971_200
    assert chain_psl.order() == 7800
    assert chain_all.order() // chain_psl.order() == 2304
    # |PSL2(25)| by the classical formula
    assert 25 * 24 * 26 // 2 == 7800


def test_orbit_rows_fail_on_an_orbit_of_another_size(monkeypatch):
    # with -eprime the orbit has 4608 points, yet |G| / |H| is still
    # 35,942,400 / 15,600 = 2304, so only the orbit size can fail these rows
    g = generators.build_all.__wrapped__()
    negated = dataclasses.replace(g, eprime=la.ExactMatrix.from_coeffs(-g.eprime.coeffs, 5))
    monkeypatch.setattr(generators, "build_all", lambda: negated)
    verdicts = {}
    for name, ok in certificates.rows(seed=3):
        verdicts[name] = ok
        if name == "index is 2304":
            break
    assert not verdicts["orbit of (1,1,1;0^24) has 2304 points"]
    assert not verdicts["degree-2304 action is transitive"]
    assert not verdicts["index is 2304"]


def test_orbit_stabilizer_consistency(orbit2304, chain_all, chain_psl):
    assert len(orbit2304) * chain_psl.order() == chain_all.order()


def test_transitivity(perms_all, orbit2304, gens):
    assert ob.transitivity_check(perms_all)
    p2 = ob.perm_images(orbit2304, [gens.f1, gens.f2])
    assert not ob.transitivity_check(p2)
    assert not ob.transitivity_check(ob.PermSet(2, ()))
    assert ob.transitivity_check(ob.PermSet(1, ()))


def test_small_group_orders():
    s4 = ob.PermSet(4, ((1, 2, 3, 0), (1, 0, 2, 3)))
    assert ob.build_stab_chain(s4).order() == 24
    a5 = ob.PermSet(5, ((1, 2, 3, 4, 0), (1, 2, 0, 3, 4)))
    assert ob.build_stab_chain(a5).order() == 60
    ident_only = ob.PermSet(3, ((0, 1, 2),))
    assert ob.build_stab_chain(ident_only).order() == 1


def test_orbit_1755(orbit1755):
    assert len(orbit1755) == 1755


def _first_nonzero_is_one(entries):
    first = next(e for e in entries if not e.is_zero()).inverse()
    return tuple(first * e for e in entries)


def test_projective_points_are_distinct_lines(orbit1755):
    # the first-nonzero-is-1 rule is independent of the mu20 rotation rule
    lines = {_first_nonzero_is_one(orbit1755.point(i)) for i in range(len(orbit1755))}
    assert len(lines) == 1755


@pytest.mark.parametrize("k", [1, 5, 10, 19])
def test_projective_keys_ignore_mu20_scalars(orbit1755, k):
    scalar = _scalar(cyclo.CycNum.zeta(k))
    assert ob.perm_images(orbit1755, [scalar]).perms[0] == tuple(range(1755))


def test_1755_order_and_stabilizer(orbit1755, chain1755):
    chain = chain1755
    assert chain.order() == 17_971_200
    assert chain.order() // len(orbit1755) == 10240
    assert 10240 == 2 ** 9 * 5 * 4


def test_projective_seed_characters(gens):
    seed = ob.seed_proj_1755()
    assert ob.scalar_character(seed, [gens.d]) == 0
    assert ob.scalar_character(seed, [gens.ac] * 3) == 15
    assert cyclo.CycNum.zeta(15) == -cyclo.I     # (ac)^3 scales the seed by -i


def test_certificates_make_no_per_scalar_orbit_work(monkeypatch, gens):
    # gens is build_all(), made before the patch; the seeds and both
    # characters are decided on kernel rows
    calls = collections.Counter()

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(cyclo.CycNum, "inverse")
    for name in ("matvec", "mat_mul", "mat_pow"):
        counted(la, name)
    rows = list(certificates.rows(seed=3))
    assert len(rows) == 44 and all(ok for _, ok in rows)
    assert calls == {}


def test_d_fixes_seed_index(orbit1755, gens):
    p = ob.perm_images(orbit1755, [gens.d])
    assert p.perms[0][0] == 0


def test_scalar_character_errors(gens):
    # d sends (1,1,1;0^24) to (1,-1,-1;0^24), which is on another line
    seed = ob.seed_fixed_vector()
    with pytest.raises(ob.NotAnEigenvectorError, match="no power of zeta"):
        ob.scalar_character(seed, [gens.d])
    # 2 I keeps every line, but its scalar is not in mu20
    with pytest.raises(ob.NotAnEigenvectorError, match="no power of zeta"):
        ob.scalar_character(seed, [_scalar(cyclo.CycNum.from_int(2))])
    zero = ob.Seed.of([cyclo.ZERO] * 27, ob.PROJECTIVE)
    with pytest.raises(ob.NotAnEigenvectorError, match="zero vector"):
        ob.scalar_character(zero, [gens.d])


def test_scalar_character_with_a_denominator(gens):
    # eprime has denominator 5, so the image is compared with 5 zeta^k v
    assert zkernel.IntegerAction.of(gens.eprime).den == 5
    assert ob.scalar_character(ob.seed_fixed_vector(), [gens.eprime]) == 0
    assert ob.scalar_character(ob.seed_fixed_vector(), [gens.eprime, gens.f1]) == 0


def test_scalar_character_refuses_inexact_products():
    # stored entries of 50: the second product could reach
    # 216 * 2^20 * (50 * 2^20) >= 2^53, so it is refused before it is formed
    big = _scalar(cyclo.CycNum.from_int(2 ** 20))
    seed = ob.Seed.of([cyclo.CycNum.from_int(2)] + [cyclo.ZERO] * 26, ob.VECTOR)
    assert ob.scalar_character(seed, [_scalar(cyclo.MINUS_ONE)]) == 10
    with pytest.raises(ob.KernelOverflowError, match=r"2\^53"):
        ob.scalar_character(seed, [big] * 2)
    # denominators 2^50 and 2^50: D zeta^k v would reach 2^63 in int64
    tiny = _scalar(cyclo.CycNum.rational(1, 2 ** 50))
    with pytest.raises(ob.KernelOverflowError, match=r"2\^63"):
        ob.scalar_character(seed, [tiny] * 2)


def _reference_canonical(rows):
    """The least rotation of each row's first nonzero block, on Python ints."""
    rots = zkernel.ROT.tolist()

    def rotate(block, k):
        return [sum(a * r[c] for a, r in zip(block, rots[k])) for c in range(8)]

    out = []
    for row in rows.tolist():
        lead = next(row[j:j + 8] for j in range(0, len(row), 8) if any(row[j:j + 8]))
        k = min(range(20), key=lambda k: rotate(lead, k))
        out.append([x for j in range(0, len(row), 8) for x in rotate(row[j:j + 8], k)])
    return out


def test_canonical_matches_reference_on_rotated_orbit_points(orbit1755):
    rows = orbit1755.coords[::5]
    ks = np.random.default_rng(20).integers(0, 20, size=len(rows))
    moved = np.matmul(rows.reshape(-1, 27, 8), zkernel.ROT[ks]).reshape(rows.shape)
    assert ob._canonical(moved, ob.PROJECTIVE).tolist() == _reference_canonical(moved)
    assert (ob._canonical(moved, ob.PROJECTIVE) == rows).all()


def test_canonical_matches_reference_at_every_leading_position():
    rng = np.random.default_rng(21)
    rows = rng.integers(-25, 26, size=(6 * 27, zkernel.DIM))
    for i, row in enumerate(rows):
        row[:8 * (i % 27)] = 0
        row[8 * (i % 27) + rng.integers(8)] = rng.choice([-1, 1]) * rng.integers(1, 26)
    assert ob._canonical(rows, ob.PROJECTIVE).tolist() == _reference_canonical(rows)


def test_canonical_matches_reference_for_one_shared_leading_block():
    rng = np.random.default_rng(22)
    rows = rng.integers(-25, 26, size=(40, zkernel.DIM))
    rows[:, :24] = 0
    rows[:, 24:32] = [3, -1, 0, 7, 0, 0, -2, 1]
    got = ob._canonical(rows, ob.PROJECTIVE)
    assert got.tolist() == _reference_canonical(rows)
    assert len({tuple(r) for r in got[:, 24:32].tolist()}) == 1


def test_canonical_refusals():
    rows = np.zeros((3, zkernel.DIM), dtype=np.int64)
    rows[0, 5] = rows[2, 40] = 1
    with pytest.raises(ValueError, match="nonzero"):
        ob._canonical(rows, ob.PROJECTIVE)
    rows[1, 100] = 2 ** 50  # 8 terms of 2^50 reach 2^53
    with pytest.raises(ob.KernelOverflowError, match=r"2\^53"):
        ob._canonical(rows, ob.PROJECTIVE)
    rows[1, 100] = 2 ** 50 - 1  # just under the bound: every sum is still exact
    rows[1, 101] = -(2 ** 50 - 1)
    assert ob._canonical(rows, ob.PROJECTIVE).tolist() == _reference_canonical(rows)


# sha256 of coords.tobytes() and of images.astype(np.int64).tobytes(),
# recorded with the per-rotation canonical form
PINNED_ORBITS = {
    "orbit2304": ("e0f439546efc6f2a45aa2d249714ef427ff1533215660333e413abafc7d733ad",
                  "01887a18e51e70bf48b6362f5ebc09b1147cbf2fe67ac4f56d77ef1d7e2a38de"),
    "orbit1755": ("85704ed8eda56142df2b9ffde8b1e12317971aefb2e879bc2d7d879b4a794f31",
                  "6e607178960cbbd6c64b506a837af47dacb6d63a49739b0f2b54d206e14df70b"),
}


@pytest.mark.parametrize("which", sorted(PINNED_ORBITS))
def test_orbit_bytes_are_pinned(request, which):
    orbit = request.getfixturevalue(which)
    assert (hashlib.sha256(orbit.coords.tobytes()).hexdigest(),
            hashlib.sha256(orbit.images.astype(np.int64).tobytes()).hexdigest()) \
        == PINNED_ORBITS[which]


def test_bfs_applies_every_matrix_to_float32_rows(monkeypatch, gens5):
    # entries of both paper orbits lie within +-25, so 216 * max|B| * 25 is far
    # below 2^24: every product, in the BFS and in perm_images, is in float32,
    # whatever the type of its rows, no cast leaves its range, and the stored
    # rows are int64 as pinned
    seen = []
    raw = zkernel.IntegerAction.raw

    def spy(self, rows):
        out = raw(self, rows)
        seen.append(out.dtype)
        return out

    monkeypatch.setattr(zkernel.IntegerAction, "raw", spy)
    copies = [la.ExactMatrix(m.ring, m.data) for m in gens5]  # applied, not recorded
    with warnings.catch_warnings(), np.errstate(invalid="raise"):
        warnings.simplefilter("error")
        built = {"orbit2304": ob.enumerate_orbit(ob.seed_fixed_vector(), gens5),
                 "orbit1755": ob.enumerate_orbit(ob.seed_proj_1755(), gens5)}
        applied = {name: ob.perm_images(orbit, copies) for name, orbit in built.items()}
    assert len(seen) > 2 * len(copies) and set(seen) == {np.dtype(np.float32)}
    for name, orbit in built.items():
        assert orbit.coords.dtype == np.int64
        assert (hashlib.sha256(orbit.coords.tobytes()).hexdigest(),
                hashlib.sha256(orbit.images.astype(np.int64).tobytes()).hexdigest()) \
            == PINNED_ORBITS[name]
        assert applied[name].perms == tuple(map(tuple, orbit.images.tolist()))


# -- the stacked BFS against one product per generator -----------------------

def _reference_bfs(seed, gens, cap=10000):
    """The BFS as it ran before the generators were stacked: per level, one
    kernel product, canonical form and key pass for each generator, and each
    image numbered when first met, in (point, generator) order."""
    if cap < 1:
        raise ob.CapExceededError(f"orbit exceeds cap {cap}")
    actions = [zkernel.IntegerAction.of(g) for g in gens]
    frontier = ob._canonical(seed.row, seed.mode)
    levels, index, targets = [frontier], {ob._row_keys(frontier)[0]: 0}, []
    while actions and len(frontier):
        images = [ob._canonical(act(frontier), seed.mode) for act in actions]
        keys = [ob._row_keys(w) for w in images]
        new = []
        for i in range(len(frontier)):
            for k, gkeys in enumerate(keys):
                j = index.get(gkeys[i])
                if j is None:
                    if len(index) >= cap:
                        raise ob.CapExceededError(f"orbit exceeds cap {cap}")
                    j = index[gkeys[i]] = len(index)
                    new.append(images[k][i])
                targets.append(j)
        frontier = np.array(new).reshape(-1, zkernel.DIM)
        levels.append(frontier)
    return (np.concatenate(levels).astype(np.int64), index,
            np.array(targets, dtype=np.intp).reshape(len(index), len(gens)).T)


def _assert_matches_reference(seed, gens, **kw):
    orbit = ob.enumerate_orbit(seed, gens, **kw)
    coords, index, images = _reference_bfs(seed, gens, **kw)
    assert np.array_equal(orbit.coords, coords)
    assert np.array_equal(orbit.images, images)
    assert list(orbit.index.items()) == list(index.items())


def _scaled_seed(s):
    """s (1,1,1;0^24)."""
    return ob.Seed.of((cyclo.CycNum.from_int(s),) * 3 + (cyclo.ZERO,) * 24, ob.VECTOR)


@pytest.mark.parametrize("seed", [ob.seed_fixed_vector, ob.seed_proj_1755])
def test_stacked_bfs_matches_the_per_generator_bfs(gens5, seed):
    _assert_matches_reference(seed(), gens5)


def test_stacked_bfs_in_float64(monkeypatch, gens5, orbit2304):
    # stored entries reach 25 * 2^17, so 216 * max|B| * max|v| passes 2^24 and
    # every product of the stack is formed in float64, and keys are int64 bytes
    seen = []
    raw = zkernel.IntegerAction.raw
    monkeypatch.setattr(zkernel.IntegerAction, "raw",
                        lambda self, rows: seen.append(raw(self, rows)) or seen[-1])
    orbit = ob.enumerate_orbit(_scaled_seed(2 ** 17), gens5)
    assert seen and {out.dtype for out in seen} == {np.dtype(np.float64)}
    assert {len(k) for k in orbit.index} == {1728}
    assert np.array_equal(orbit.coords, 2 ** 17 * orbit2304.coords)
    assert np.array_equal(orbit.images, orbit2304.images)
    monkeypatch.undo()
    _assert_matches_reference(_scaled_seed(2 ** 17), gens5)


def _outcome(fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except (ob.CapExceededError, ob.KernelOverflowError, ob.ScaleError) as err:
        return type(err), str(err)


def test_stack_refuses_what_the_per_generator_bfs_refuses(gens, gens5):
    # the stack guards with max|B| over its blocks, and the per-generator BFS
    # refuses as soon as one generator's product would pass 2^53, so the two
    # refuse the same sets: at 25 s just under 2^53 / 216, the monomial
    # generators (max|B| = 1) are accepted and eprime (max|B| = 2) is not
    s = (2 ** 53 - 1) // (zkernel.DIM * ob.SCALE)
    seventh = cyc_reference.scale_matrix(gens.f1, cyclo.CycNum.rational(1, 7))
    big = _scalar(cyclo.CycNum.from_int(2 ** 22))
    monomial = [gens.f1, gens.f2, gens.d, gens.ac]
    cases = [
        (ob.seed_fixed_vector(), gens5, {"cap": 100}, ob.CapExceededError),
        (ob.seed_fixed_vector(), [seventh] + gens5[1:], {}, ob.ScaleError),
        (ob.seed_fixed_vector(), [big], {}, ob.KernelOverflowError),
        (ob.seed_fixed_vector(), gens5 + [big], {}, ob.KernelOverflowError),
        (_scaled_seed(s), gens5, {}, ob.KernelOverflowError),
        (_scaled_seed(s), monomial, {}, None),
        (ob.seed_fixed_vector(), [gens.f1, gens.f2], {}, None),
    ]
    for seed, gs, kw, refusal in cases:
        got = _outcome(ob.enumerate_orbit, seed, gs, **kw)
        expected = _outcome(_reference_bfs, seed, gs, **kw)
        if refusal is None:
            assert isinstance(got, ob.Orbit)
            assert np.array_equal(got.coords, expected[0])
            assert np.array_equal(got.images, expected[2])
        else:
            assert got == expected and got[0] is refusal


def test_point_stabilizer_row_needs_generators_that_fix_the_seed(monkeypatch):
    # H conjugated by the transposition (0 1) has order 7800 and fixes point
    # 1, so its generators do not all fix point 0: only the stricter row fails
    perm_images = ob.perm_images

    def conjugated(orbit, gens):
        pset = perm_images(orbit, gens)
        if len(gens) != 4:
            return pset
        swap = np.arange(pset.degree)
        swap[[0, 1]] = 1, 0
        return ob.PermSet(pset.degree, tuple(tuple(swap[np.array(p)[swap]].tolist())
                                             for p in pset.perms))

    monkeypatch.setattr(ob, "perm_images", conjugated)
    verdicts = {}
    for name, ok in certificates.rows(seed=3):
        verdicts[name] = ok
        if name == "index is 2304":
            break
    assert not verdicts["point stabilizer has order 7800"]
    assert verdicts["certified order is 17971200"] and verdicts["index is 2304"]


def test_certificates_drop_the_orbit_and_the_chain(monkeypatch):
    # reference counting alone frees the 2304-point orbit before the chain of
    # G is built, and that chain before the projective search
    refs, dead = {}, []
    enumerate_orbit, build_stab_chain = ob.enumerate_orbit, ob.build_stab_chain

    def enumerated(seed, gens, **kw):
        if seed.mode == ob.PROJECTIVE:
            dead.append(("chain of G", refs["G"]() is None))
        orbit = enumerate_orbit(seed, gens, **kw)
        refs.setdefault("orbit", weakref.ref(orbit))
        return orbit

    def built(pset):
        if len(pset.perms) == 5:
            dead.append(("orbit", refs["orbit"]() is None))
        chain = build_stab_chain(pset)
        refs.setdefault("G", weakref.ref(chain))
        return chain

    monkeypatch.setattr(ob, "enumerate_orbit", enumerated)
    monkeypatch.setattr(ob, "build_stab_chain", built)
    assert all(ok for _, ok in certificates.rows(seed=3))
    assert dead == [("orbit", True), ("chain of G", True)]


def test_canonical_keeps_float_rows_in_an_exact_type(orbit1755):
    # rotations sum 8 entries: float32 while 8 * max|v| < 2^24, float64 after
    rows = orbit1755.coords[::7].copy()
    assert zkernel.max_abs(rows) == 25
    expected = ob._canonical(rows, ob.PROJECTIVE)
    assert ob._canonical(rows.astype(np.float32), ob.PROJECTIVE).dtype == np.float32
    top = (2 ** 24 - 1) // 8
    for scale, dtype in ((top // 25, np.float32), (top // 25 + 1, np.float64)):
        got = ob._canonical((scale * rows).astype(np.float32), ob.PROJECTIVE)
        assert got.dtype == dtype and (got == scale * expected).all()


def test_projective_orbit_does_not_import_numpy_ma():
    # a bare np.unique imports numpy.ma (about 14 ms) on first use
    src = os.path.dirname(os.path.dirname(ob.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; from tits27 import cli; "
            "assert cli.run(['orbit', '--seed', 'proj1755']) == 0; "
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "orbit size: 1755\n"


def test_conjugate_seed_orbit_is_not_1755(gens5):
    # the conjugate 1-space has a strictly larger orbit: the BFS passes 3000
    # points without closing, so its orbit cannot have 1755 of them
    with pytest.raises(ob.CapExceededError):
        ob.enumerate_orbit(ob.seed_proj_conjugate(), gens5, cap=3000)


def test_certified_base_is_independent_mod_41(orbit2304, perms_all, perms_psl):
    # an independent proof of rank 27, through the scalar reduction
    base = perms_all.certified_base
    assert len(set(base)) == 27 and max(base) < 33
    residues = [[gf41.reduce_cyc(e).value for e in orbit2304.point(i)] for i in base]
    assert gf41.rank(np.array(residues)) == 27
    assert perms_psl.certified_base == base


def test_reduce_rows_matches_reduce_cyc(orbit2304):
    red = gf41.reduce_rows(orbit2304.coords, ob.SCALE)
    assert red.shape == (2304, 27)
    for i in range(0, len(orbit2304), 97):
        assert red[i].tolist() == [gf41.reduce_cyc(e).value for e in orbit2304.point(i)]


def test_certified_base_is_formed_once_per_orbit(monkeypatch, orbit2304, gens5, perms_all):
    calls = []
    rref = gf41.rref
    monkeypatch.setattr(gf41, "rref", lambda a: calls.append(1) or rref(a))
    orbit = dataclasses.replace(orbit2304)  # the same points, no base formed yet
    first = ob.perm_images(orbit, gens5)
    second = ob.perm_images(orbit, gens5[:2])
    assert len(calls) == 1
    assert first.certified_base == second.certified_base == perms_all.certified_base


def test_certified_base_is_not_compared(perms_all):
    plain = ob.PermSet(perms_all.degree, perms_all.perms)
    assert plain.certified_base is None
    assert plain == perms_all


def test_projective_orbit_gets_every_point(orbit1755, gens5, chain1755):
    assert ob.perm_images(orbit1755, gens5[:1]).certified_base is None
    assert _pinned(chain1755) == PINNED_CHAINS["1755"]


def test_low_rank_orbit_gets_every_point(gens):
    # e0 spans a 3-coordinate, 6-point orbit under the monomial generators
    e0 = ob.Seed.of((cyclo.ONE,) + (cyclo.ZERO,) * 26, ob.VECTOR)
    sub = [gens.f1, gens.f2, gens.d, gens.ac]
    orbit = ob.enumerate_orbit(e0, sub)
    assert len(orbit) == 6
    assert gf41.rank(gf41.reduce_rows(orbit.coords, ob.SCALE)) == 3
    pset = ob.perm_images(orbit, sub)
    assert pset.certified_base is None
    chain = ob.build_stab_chain(pset)
    # recorded with the chain that composed whole permutations
    assert chain.base == (1, 0)
    assert chain.transversal_sizes == (6, 2)
    assert chain.strong_gens == ((0, 2, 1, 4, 3, 5), (1, 3, 4, 0, 5, 2), (5, 1, 2, 4, 3, 0))


def test_sympy_order_of_the_point_stabilizer(perms_psl, chain_psl):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    group = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(p)) for p in perms_psl.perms])
    assert group.order() == chain_psl.order() == 7800


def test_sympy_random_elements_are_members(perms_all, chain_all, chain_psl, orbit2304, gens):
    # sympy's order of G takes seconds; its product-replacement elements do not
    combinatorics = pytest.importorskip("sympy.combinatorics")
    sympy_random = pytest.importorskip("sympy.core.random")
    sympy_random.seed(27)
    group = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(p)) for p in perms_all.perms])
    elements = [group.random_pr().array_form for _ in range(50)]
    assert len(set(map(tuple, elements))) == 50
    assert all(chain_all.contains(e) for e in elements)
    assert not chain_psl.contains(ob.perm_images(orbit2304, [gens.d]).perms[0])
