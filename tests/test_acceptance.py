"""Acceptance suite: one test per certification criterion.

Every check is exact (zero tolerance).  Each test prints a PASS line when
its criterion holds; run with -s to see the table.  Criterion timings are
printed for information but not asserted.
"""

import random
import time

import pytest

from tits27 import (basisfinder, cubicform, cyclo, exactlinalg as la, generators,
                    gf41, orbits, wordlang)
from tits27.cyclo import CycNum


def _report(name, t0=None):
    suffix = f" ({time.time() - t0:.1f}s)" if t0 is not None else ""
    print(f"[acceptance] {name}: PASS{suffix}")


def test_01_generator_certification(gens):
    t0 = time.time()
    ident = la.ExactMatrix.identity(27, la.RING_CYC)
    assert gens.f1 ** 5 == ident
    assert gens.f2 ** 5 == ident
    assert gens.f1 * gens.f2 == gens.f2 * gens.f1
    assert gens.d * gens.d == ident
    assert la.mat_order(gens.ac, cap=60) == 12
    assert gens.eprime * gens.eprime == ident
    assert gens.eprime * gens.ac * gens.eprime == la.mat_inv(gens.ac)
    assert la.mat_mul(la.mat_mul(la.mat_inv(gens.ac), gens.f1), gens.ac) == gens.f2
    for m in gens.in_order():
        assert la.is_unitary(m)
    _report("1. generator relations, orders and unitarity", t0)


def test_02_eprime_structure(gens):
    t0 = time.time()
    ep = gens.eprime
    assert la.transpose(ep) == ep
    for i in range(27):
        assert generators.row_norm(ep, i) == cyclo.ONE
    row0 = [e for e in ep.data[0] if not e.is_zero()]
    assert len(row0) == 19
    counts = {}
    for e in row0:
        counts[e] = counts.get(e, 0) + 1
    assert counts == {CycNum.rational(2, 5): 2,
                      CycNum.rational(1, 5): 9,
                      CycNum.rational(-1, 5): 8}
    _report("2. eprime symmetric, unit row norms, top-row multiset", t0)


def test_03_orbit_sizes(orbit2304, orbit1755):
    assert len(orbit2304) == 2304
    assert len(orbit1755) == 1755
    _report("3. orbit sizes 2304 and 1755")


@pytest.mark.xfail(strict=True, reason=(
    "documented erratum: with the generator matrices exactly as printed, the "
    "1-space of the verbatim vector (0,0,0;0^4;i,1,-1,-i;0^16) has more than "
    "3000 images (its stabilizer is the order-40 group generated by f1, d and "
    "(ac)^3), not 1755; the complex-conjugate 1-space (-i,1,-1,i) is the one "
    "with the 1755-point orbit, and every stated property of the seed holds "
    "for it.  See the README section \"A note on the projective seed\"."))
def test_03b_verbatim_projective_seed_as_stated(gens5):
    orbit = orbits.enumerate_orbit(orbits.seed_proj_conjugate(), gens5, cap=3000)
    assert len(orbit) == 1755


def test_04_order_certification(chain_all, chain_psl, perms_all):
    t0 = time.time()
    assert chain_all.order() == 17_971_200
    assert chain_psl.order() == 7800
    assert chain_all.order() // chain_psl.order() == 2304
    assert orbits.transitivity_check(perms_all)
    _report("4. certified orders 17971200 and 7800, index 2304, transitive", t0)


def test_05_stabilizer_checks(gens, orbit1755):
    t0 = time.time()
    v = orbits.seed_fixed_vector()
    for m in (gens.f1, gens.f2, gens.ac, gens.eprime):
        assert la.matvec(m, v.entries) == v.entries
    seed = orbits.seed_proj_1755()
    assert orbits.scalar_character(seed, gens.d) == cyclo.ONE
    c = orbits.scalar_character(seed, la.mat_pow(gens.ac, 3))
    assert c ** 4 == cyclo.ONE and c ** 2 == cyclo.MINUS_ONE
    assert 17_971_200 // len(orbit1755) == 10240
    assert 10240 == 2 ** 9 * 5 * 4
    _report("5. point stabilizers: fixed vector, d-centralizer, i-scaling", t0)


def test_06_cubic_form(gens, dickson):
    t0 = time.time()
    assert len(dickson) == 45
    mono = (cubicform.as_monomial(gens.d), cubicform.as_monomial(gens.ac))
    sizes = [len(cubicform.close_terms([s], mono)) for s in cubicform.SEEDS]
    assert sizes == [1, 12, 16, 16]
    assert all(cubicform.eigenvalue_check(t) for t in dickson)
    for name, m in gens.as_dict().items():
        ok, flip_safe = cubicform.invariance_report(dickson, m)
        assert ok, name
        if name == "eprime":
            assert flip_safe == []
    _report("6. 45-term cubic form, seed orbits, exact invariance, flips", t0)


def test_07_mod41_consistency(gens):
    t0 = time.time()
    assert gf41.reduce_cyc(cyclo.I) == gf41.gf(9)
    assert gf41.reduce_cyc(cyclo.Z) == gf41.gf(16)
    assert gf41.reduce_cyc(cyclo.Z ** 2) == gf41.gf(10)
    assert gf41.reduce_cyc(cyclo.Z ** 3) == gf41.gf(37)
    assert gf41.reduce_cyc(cyclo.Z ** 4) == gf41.gf(18)
    assert gf41.reduce_cyc(cyclo.SIGMA) == gf41.gf(7)
    assert gf41.reduce_cyc(cyclo.TAU) == gf41.gf(35)
    assert gf41.reduce_cyc(cyclo.FIFTH) == gf41.gf(33)

    env = gens.as_dict()
    env41 = dict(zip(generators.NAMES, generators.build_all_gf41()))
    rng = random.Random(20240501)
    names = list(generators.NAMES)
    for _ in range(10):
        word = " ".join(rng.choice(names) for _ in range(rng.randrange(2, 6)))
        expr = wordlang.parse_word(word, names=names)
        exact = wordlang.eval_word(expr, env)
        assert la.reduce_matrix_mod41(exact) == wordlang.eval_word(expr, env41), word
    _report("7. mod-41 reduction constants and product compatibility", t0)


def test_08_basis_pipeline_round_trip():
    t0 = time.time()
    for seed in (1, 2, 3, 4, 5):
        rep = basisfinder.scramble_roundtrip(seed)
        assert rep.ok, (seed, [n for n, ok in rep.checks if not ok])
    _report("8. basis pipeline recovers balanced form for 5 scrambles", t0)


def test_09_word_language(gens):
    t0 = time.time()
    for name, text in wordlang.STANDARD_WORDS:
        expr = wordlang.parse_word(text)
        names = wordlang.gen_names(expr)
        assert wordlang.parse_word(wordlang.word_to_text(expr), names=names) == expr
    env = gens.as_dict()
    assert wordlang.eval_word(wordlang.parse_word("f1^ac", names=env), env) == gens.f2
    _report("9. word formulas parse, round-trip, and evaluate", t0)


def test_10_f4_byproduct(gens, dickson):
    t0 = time.time()
    fix = {n: m for n, m in gens.as_dict().items() if n != "d"}
    rep = cubicform.jordan_identity_check(dickson, fix)
    assert rep.ok
    for m in fix.values():
        assert cubicform.verify_invariance(dickson, m)
    _report("10. Jordan identity fixed and form preserved: PSL2(25) in F4", t0)
