"""Orbit enumeration, permutation images and the stabilizer chain."""

import math

import pytest

from tits27 import cyclo, exactlinalg as la, orbits as ob


def test_fixed_seed_is_fixed_by_psl_generators(gens):
    v = ob.seed_fixed_vector()
    for m in (gens.f1, gens.f2, gens.ac, gens.eprime):
        assert la.matvec(m, v.entries) == v.entries


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


def test_kernel_images_match_cycnum_matvec(orbit2304, gens5, perms_all):
    # the exact CycNum product is the reference for the integer kernel
    for i in range(0, len(orbit2304), 97):
        p = orbit2304.point(i)
        for g, perm in zip(gens5, perms_all.perms):
            assert la.matvec(g, p) == orbit2304.point(perm[i])


def test_kernel_rejects_non_integral_image(gens, gens5):
    seventh = la.scale_matrix(gens.f1, cyclo.CycNum.rational(1, 7))
    with pytest.raises(ob.ScaleError):
        ob.enumerate_orbit(ob.seed_fixed_vector(), [seventh] + gens5[1:])


@pytest.mark.parametrize("exponent", [60, 50])
def test_kernel_refuses_int64_overflow(exponent):
    # 2^60 fails the bound when the generator is compiled, before any
    # product; 2^50 passes it for the seed and fails it one level later,
    # where the next product would wrap
    big = la.scale_matrix(la.ExactMatrix.identity(27, la.RING_CYC),
                          cyclo.CycNum.from_int(2 ** exponent))
    with pytest.raises(ob.KernelOverflowError):
        ob.enumerate_orbit(ob.seed_fixed_vector(), [big])


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


def test_orbit_stabilizer_consistency(orbit2304, chain_all, chain_psl):
    assert len(orbit2304) * chain_psl.order() == chain_all.order()


def test_transitivity(perms_all, orbit2304, gens):
    assert ob.transitivity_check(perms_all)
    p2 = ob.perm_images(orbit2304, [gens.f1, gens.f2])
    assert not ob.transitivity_check(p2)
    assert not ob.transitivity_check(ob.PermSet(2, ()))
    assert ob.transitivity_check(ob.PermSet(1, ()))


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


def test_small_group_orders():
    s4 = ob.PermSet(4, ((1, 2, 3, 0), (1, 0, 2, 3)))
    assert ob.build_stab_chain(s4).order() == 24
    assert ob.stab_chain_order(s4) == 24
    a5 = ob.PermSet(5, ((1, 2, 3, 4, 0), (1, 2, 0, 3, 4)))
    assert ob.build_stab_chain(a5).order() == 60
    ident_only = ob.PermSet(3, ((0, 1, 2),))
    assert ob.build_stab_chain(ident_only).order() == 1


def test_orbit_1755(orbit1755):
    assert len(orbit1755) == 1755


def test_projective_points_are_distinct_lines(orbit1755):
    # the first-nonzero-is-1 rule is independent of the mu20 rotation rule
    lines = {ob.CanonicalPoint.make(orbit1755.point(i), ob.PROJECTIVE)
             for i in range(len(orbit1755))}
    assert len(lines) == 1755


@pytest.mark.parametrize("k", [1, 5, 10, 19])
def test_projective_keys_ignore_mu20_scalars(orbit1755, k):
    scalar = la.scale_matrix(la.ExactMatrix.identity(27, la.RING_CYC),
                             cyclo.CycNum.zeta(k))
    assert ob.perm_images(orbit1755, [scalar]).perms[0] == tuple(range(1755))


def test_1755_order_and_stabilizer(orbit1755, gens5):
    p = ob.perm_images(orbit1755, gens5)
    chain = ob.build_stab_chain(p)
    assert chain.order() == 17_971_200
    assert chain.order() // len(orbit1755) == 10240
    assert 10240 == 2 ** 9 * 5 * 4


def test_projective_seed_characters(gens):
    seed = ob.seed_proj_1755()
    assert ob.scalar_character(seed, gens.d) == cyclo.ONE
    c = ob.scalar_character(seed, la.mat_pow(gens.ac, 3))
    assert c ** 2 == cyclo.MINUS_ONE     # a primitive power of i
    assert c == -cyclo.I


def test_d_fixes_seed_index(orbit1755, gens):
    p = ob.perm_images(orbit1755, [gens.d])
    assert p.perms[0][0] == 0


def test_scalar_character_errors(gens):
    seed = ob.seed_fixed_vector()
    with pytest.raises(ob.NotAnEigenvectorError):
        ob.scalar_character(seed, gens.d)


def test_projective_canonicalization():
    entries = [cyclo.ZERO] * 27
    entries[5] = cyclo.I + cyclo.I
    entries[9] = cyclo.SIGMA
    p = ob.CanonicalPoint.make(entries, ob.PROJECTIVE)
    assert p.entries[5] == cyclo.ONE
    scaled = [cyclo.TAU * e for e in entries]
    q = ob.CanonicalPoint.make(scaled, ob.PROJECTIVE)
    assert p == q


def test_conjugate_seed_orbit_is_not_1755(gens5):
    # the conjugate 1-space has a strictly larger orbit: the BFS passes 3000
    # points without closing, so its orbit cannot have 1755 of them
    with pytest.raises(ob.CapExceededError):
        ob.enumerate_orbit(ob.seed_proj_conjugate(), gens5, cap=3000)
