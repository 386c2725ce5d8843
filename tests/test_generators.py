"""Construction of the five generators."""

from collections import Counter

from tits27 import cyclo, exactlinalg as la, generators
from tits27.cyclo import CycNum
from tits27.exactlinalg import ExactMatrix, RING_CYC


def test_f1_f2_diagonal_tables(gens):
    z = cyclo.Z
    assert gens.f1.is_diagonal() and gens.f2.is_diagonal()
    # spot values from the exponent tables
    assert gens.f1.data[6][6] == z ** 4        # label 4, first block
    for j in range(23, 27):                    # labels 21..24 of f2
        assert gens.f2.data[j][j] == cyclo.ONE
    assert gens.f1.diagonal() == tuple(z ** e for e in generators.F1_EXP)
    assert gens.f2.diagonal() == tuple(z ** e for e in generators.F2_EXP)


def test_f1_fifth_power(gens):
    assert gens.f1 ** 5 == ExactMatrix.identity(27, RING_CYC)


def test_d_ac_structure(gens):
    ident = ExactMatrix.identity(27, RING_CYC)
    assert gens.d * gens.d == ident
    assert la.mat_order(gens.ac) == 12
    # 3-cycle on the corner: (ac)^3 restricted there is the identity
    ac3 = la.mat_pow(gens.ac, 3)
    for i in range(3):
        for j in range(3):
            expected = cyclo.ONE if i == j else cyclo.ZERO
            assert ac3.data[i][j] == expected


def test_eprime_corner_and_row(gens):
    ep = gens.eprime
    assert ep.data[0][0] == CycNum.rational(2, 5)
    row0 = [e for e in ep.data[0] if not e.is_zero()]
    assert len(row0) == 19
    counts = Counter(row0)
    assert counts[CycNum.rational(2, 5)] == 2
    assert counts[CycNum.rational(1, 5)] == 9
    assert counts[CycNum.rational(-1, 5)] == 8


def test_eprime_involution_and_symmetry(gens):
    assert gens.eprime * gens.eprime == ExactMatrix.identity(27, RING_CYC)
    assert la.transpose(gens.eprime) == gens.eprime


def test_eprime_row_norms(gens):
    for i in range(27):
        assert generators.row_norm(gens.eprime, i) == cyclo.ONE


def test_eprime_entry_classes(gens):
    allowed = {cyclo.ZERO}
    for k in (1, -1, 2, -2):
        allowed.add(CycNum.rational(k, 5))
    for s in (cyclo.SIGMA, cyclo.TAU):
        allowed.add(s * cyclo.FIFTH)
    for row in gens.eprime.data:
        for e in row:
            assert e in allowed


def _failures(rows):
    return [name for name, ok in rows if not ok]


def test_verify_relations_pass(gens):
    rows = generators.verify_relations(gens)
    assert all(ok for _, ok in rows)
    assert _failures(rows) == []
    assert len(rows) == 13


def test_verify_relations_detects_bad_eprime(gens):
    broken = generators.GeneratorSet(
        gens.f1, gens.f2, gens.d, gens.ac, ExactMatrix.identity(27, RING_CYC))
    rows = generators.verify_relations(broken)
    assert not all(ok for _, ok in rows)
    assert _failures(rows)[0] == "eprime inverts ac"


def test_verify_relations_detects_swap(gens):
    swapped = generators.GeneratorSet(
        gens.f2, gens.f1, gens.d, gens.ac, gens.eprime)
    rows = generators.verify_relations(swapped)
    assert not all(ok for _, ok in rows)
    assert "f1 conjugated by ac is f2" in _failures(rows)


def test_monomials_normalize_the_diagonal_group(gens):
    # conjugating f1 or f2 by d or ac stays diagonal with a permuted table
    ref_tables = {gens.f1.diagonal(), gens.f2.diagonal()}
    for f in (gens.f1, gens.f2):
        for m in (gens.d, gens.ac):
            conj = la.mat_mul(la.mat_mul(la.mat_inv(m), f), m)
            assert conj.is_diagonal()
            diag = conj.diagonal()
            assert sorted(e.to_text() for e in diag) in [
                sorted(e.to_text() for e in t) for t in ref_tables]


def test_gf41_reduction_of_generators(gens):
    reduced = generators.build_all_gf41()
    assert reduced[0].is_diagonal()
    from tits27.gf41 import gf
    assert reduced[4].data[0][0] == gf(25)   # 2/5 mod 41
    top = [e for e in reduced[4].data[0] if not e.is_zero()]
    assert Counter(e.value for e in top) == {25: 2, 33: 9, 8: 8}
