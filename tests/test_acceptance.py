"""Acceptance suite: one test per certification criterion.

The criteria are the rows of `tits27.certificates.rows`, the list that
`tits27 verify` prints.  The list is computed once per session and each
test asserts its own rows by exact name, so a row that is renamed, dropped
or FAIL fails the test.  Facts that no row states are asserted directly.
Every check is exact (zero tolerance).  Each test prints a PASS line when
its criterion holds; run with -s to see the table.
"""

import random
import time

import pytest

from tits27 import certificates, cubicform, cyclo, generators, gf41, orbits, wordlang
from tits27 import exactlinalg as la

RELATIONS = ("f1^5 = 1", "f2^5 = 1", "f1 f2 = f2 f1", "d^2 = 1",
             "(ac)^12 = 1 and no smaller power", "eprime^2 = 1",
             "eprime inverts ac", "f1 conjugated by ac is f2")
FIXERS = ("f1", "f2", "ac", "eprime")


def _assert_rows(certificate, names):
    verdicts = dict(certificate)
    assert [n for n in names if n not in verdicts] == []
    assert [n for n in names if not verdicts[n]] == []


def _report(name, t0=None):
    suffix = f" ({time.time() - t0:.1f}s)" if t0 is not None else ""
    print(f"[acceptance] {name}: PASS{suffix}")


def test_certificate_list_shape(certificate):
    fast = list(certificates.rows(fast=True, seed=1))
    assert len(certificate) == 44
    assert len(dict(certificate)) == 44
    assert len(fast) == 30
    assert fast == certificate[:30]


def test_01_generator_certification(certificate):
    _assert_rows(certificate, RELATIONS + tuple(f"{n} unitary" for n in generators.NAMES))
    _report("1. generator relations, orders and unitarity")


def test_02_eprime_structure(certificate):
    _assert_rows(certificate, ("eprime symmetric", "eprime row norms all 1",
                               "eprime top row multiset {2/5 x2, 1/5 x9, -1/5 x8}"))
    _report("2. eprime symmetric, unit row norms, top-row multiset")


def test_03_orbit_sizes(certificate):
    _assert_rows(certificate, ("orbit of (1,1,1;0^24) has 2304 points",
                               "projective orbit has 1755 points"))
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


def test_04_order_certification(certificate):
    _assert_rows(certificate, ("certified order is 17971200",
                               "point stabilizer has order 7800", "index is 2304",
                               "degree-2304 action is transitive"))
    _report("4. certified orders 17971200 and 7800, index 2304, transitive")


def test_05_stabilizer_checks(certificate):
    _assert_rows(certificate, tuple(f"{n} fixes (1,1,1;0^24)" for n in FIXERS) + (
        "d fixes the projective seed",
        "(ac)^3 scales the projective seed by a power of i",
        "1755-point stabilizer has order 10240"))
    assert 10240 == 2 ** 9 * 5 * 4
    _report("5. point stabilizers: fixed vector, d-centralizer, i-scaling")


def test_06_cubic_form(certificate, gens):
    t0 = time.time()
    _assert_rows(certificate, (
        "cubic form has 45 terms", "every term passes the eigenvalue test",
        *(f"cubic form invariant under {n}" for n in generators.NAMES),
        "every single sign flip breaks eprime invariance"))
    sizes = [len(cubicform.close_terms([s], (gens.d, gens.ac))) for s in cubicform.SEEDS]
    assert sizes == [1, 12, 16, 16]
    _report("6. 45-term cubic form, seed orbits, exact invariance, flips", t0)


def test_07_mod41_consistency(certificate, gens):
    t0 = time.time()
    _assert_rows(certificate, ("mod-41 designated lifts reduce back",))
    assert gf41.reduce_cyc(cyclo.I) == gf41.gf(9)
    assert gf41.reduce_cyc(cyclo.Z) == gf41.gf(16)
    assert gf41.reduce_cyc(cyclo.Z ** 2) == gf41.gf(10)
    assert gf41.reduce_cyc(cyclo.Z ** 3) == gf41.gf(37)
    assert gf41.reduce_cyc(cyclo.Z ** 4) == gf41.gf(18)
    assert gf41.reduce_cyc(cyclo.SIGMA) == gf41.gf(7)
    assert gf41.reduce_cyc(cyclo.TAU) == gf41.gf(35)
    assert gf41.reduce_cyc(cyclo.FIFTH) == gf41.gf(33)

    env = gens._asdict()
    env41 = generators.build_all_gf41()._asdict()
    rng = random.Random(20240501)
    names = list(generators.NAMES)
    for _ in range(10):
        word = " ".join(rng.choice(names) for _ in range(rng.randrange(2, 6)))
        expr = wordlang.parse_word(word, names=names)
        exact = wordlang.eval_word(expr, env)
        assert la.reduce_matrix_mod41(exact) == wordlang.eval_word(expr, env41), word
    _report("7. mod-41 reduction constants and product compatibility", t0)


def test_08_basis_pipeline_round_trip(certificate):
    _assert_rows(certificate, tuple(
        f"basis round-trip recovers balanced form (seed {k})" for k in range(1, 6)))
    _report("8. basis pipeline recovers balanced form for 5 scrambles")


def test_09_word_language(gens):
    t0 = time.time()
    for name, text in wordlang.STANDARD_WORDS:
        expr = wordlang.parse_word(text)
        names = wordlang.gen_names(expr)
        assert wordlang.parse_word(wordlang.word_to_text(expr), names=names) == expr
    env = gens._asdict()
    assert wordlang.eval_word(wordlang.parse_word("f1^ac", names=env), env) == gens.f2
    _report("9. word formulas parse, round-trip, and evaluate", t0)


def test_10_f4_byproduct(certificate):
    _assert_rows(certificate, (*(f"{n} fixes (1,1,1;0^24)" for n in FIXERS),
                               "form value on fixed vector is +1",
                               *(f"cubic form invariant under {n}" for n in FIXERS)))
    _report("10. Jordan identity fixed and form preserved: PSL2(25) in F4")
