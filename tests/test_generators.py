"""Construction of the five generators."""

import itertools
from collections import Counter

import numpy as np
import pytest

import cyc_reference
from tits27 import certificates, cyclo, exactlinalg as la, generators, gf41, zkernel
from tits27.cyclo import CycNum
from tits27.exactlinalg import ExactMatrix, RING_CYC, RING_GF41


def test_f1_f2_diagonal_tables(gens):
    z = cyclo.Z
    assert cyc_reference.is_diagonal(gens.f1) and cyc_reference.is_diagonal(gens.f2)
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
    # ac has order 12: (ac)^12 = 1, (ac)^6 != 1 and (ac)^4 != 1
    assert la.mat_pow(gens.ac, 12) == ident
    assert la.mat_pow(gens.ac, 6) != ident and la.mat_pow(gens.ac, 4) != ident
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


def row_norm(m, i):
    """Sum of entry * conj(entry) across row i, in CycNum arithmetic."""
    acc = cyclo.ZERO
    for e in m.data[i]:
        acc = acc + e * e.conj()
    return acc


def test_eprime_row_norms(gens):
    for i in range(27):
        assert row_norm(gens.eprime, i) == cyclo.ONE
    assert generators.row_norms_are_one(gens.eprime)


def _eprime_with_doubled_entry(gens, i, j):
    data = [list(row) for row in gens.eprime.data]
    data[i][j] = data[i][j] + data[i][j]
    return ExactMatrix(RING_CYC, data)


@pytest.mark.parametrize("i, j", [(0, 0), (3, 4), (20, 22)])
def test_row_norms_fail_with_one_entry_doubled(gens, i, j):
    m = _eprime_with_doubled_entry(gens, i, j)
    assert not m.data[i][j].is_zero()
    assert [k for k in range(27) if row_norm(m, k) != cyclo.ONE] == [i]
    assert not generators.row_norms_are_one(m)


@pytest.mark.parametrize("name", generators.NAMES)
def test_row_norms_of_every_generator(gens, name):
    assert generators.row_norms_are_one(getattr(gens, name))


def test_row_norms_make_no_scalar_products(gens, monkeypatch):
    fresh = ExactMatrix(RING_CYC, gens.eprime.data)  # compiled inside the count
    calls = []
    mul = CycNum.__mul__
    monkeypatch.setattr(CycNum, "__mul__", lambda a, b: calls.append(None) or mul(a, b))
    assert generators.row_norms_are_one(fresh)
    assert calls == []


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


def test_unitary_rows_fail_on_non_unitary_generators(gens):
    # 2 f1 has every row norm 4.  eprime with the entry (0, 7) and its mirror
    # negated stays symmetric with every row norm 1, but row 0 is no longer
    # orthogonal to the others: only the off-diagonal entries of m m* tell
    coeffs = gens.eprime.coeffs.copy()
    assert coeffs[0, 7].any()
    coeffs[0, 7] *= -1
    coeffs[7, 0] *= -1
    flipped = ExactMatrix.from_coeffs(coeffs, gens.eprime.den)
    assert flipped == la.transpose(flipped) and generators.row_norms_are_one(flipped)
    doubled = cyc_reference.scale_matrix(gens.f1, CycNum.from_int(2))
    gs = generators.GeneratorSet
    for g, bad in ((gs(doubled, gens.f2, gens.d, gens.ac, gens.eprime), "f1 unitary"),
                   (gs(gens.f1, gens.f2, gens.d, gens.ac, flipped), "eprime unitary")):
        rows = dict(generators.verify_relations(g))
        assert not rows[bad]
        assert all(rows[f"{name} unitary"] for name in generators.NAMES if name not in bad)
        assert generators.verify_relations(g) == reference_relations(g)


def reference_relations(g):
    """The 13 verdicts of verify_relations, computed per scalar."""
    ident = ExactMatrix.identity(27, RING_CYC)
    mul = la.mat_mul
    ac_inv = la.mat_inv(g.ac)
    ac_powers = [la.mat_pow(g.ac, k) for k in range(1, 13)]
    rows = [
        ("f1^5 = 1", la.mat_pow(g.f1, 5) == ident),
        ("f2^5 = 1", la.mat_pow(g.f2, 5) == ident),
        ("f1 f2 = f2 f1", mul(g.f1, g.f2) == mul(g.f2, g.f1)),
        ("d^2 = 1", la.mat_pow(g.d, 2) == ident),
        ("(ac)^12 = 1 and no smaller power",
         ac_powers[-1] == ident and ident not in ac_powers[:-1]),
        ("eprime^2 = 1", la.mat_pow(g.eprime, 2) == ident),
        ("eprime inverts ac", mul(mul(g.eprime, g.ac), g.eprime) == ac_inv),
        ("f1 conjugated by ac is f2", mul(mul(ac_inv, g.f1), g.ac) == g.f2),
    ]
    rows += [(f"{name} unitary", mul(cyc_reference.conj_transpose(m), m) == ident)
             for name, m in g._asdict().items()]
    return tuple(rows)


def _double_first_entry(m):
    data = [list(row) for row in m.data]
    i, j = next((i, j) for i, row in enumerate(data) for j, e in enumerate(row) if e)
    data[i][j] = data[i][j] + data[i][j]
    return ExactMatrix(RING_CYC, data)


def _perturbed(g):
    """Generator sets on which, between them, every row fails at least once."""
    f1, f2, d, ac, ep = g
    gs = generators.GeneratorSet
    sets = {"f1<->f2": gs(f2, f1, d, ac, ep),
            "eprime=1": gs(f1, f2, d, ac, ExactMatrix.identity(27, RING_CYC)),
            "ac=ac^2": gs(f1, f2, d, la.mat_mul(ac, ac), ep),
            "f2=ac": gs(f1, ac, d, ac, ep)}
    for k, name in enumerate(generators.NAMES):
        mats = list(g)
        mats[k] = _double_first_entry(mats[k])
        sets[f"{name} doubled"] = gs(*mats)
    return sets


PERTURBED = ("f1<->f2", "eprime=1", "ac=ac^2", "f2=ac",
             *(f"{name} doubled" for name in generators.NAMES))


@pytest.fixture(scope="module")
def perturbed(gens):
    return _perturbed(gens)


def test_verify_relations_matches_reference(gens):
    assert generators.verify_relations(gens) == reference_relations(gens)


@pytest.mark.parametrize("name", PERTURBED)
def test_verify_relations_matches_reference_on_perturbed_sets(perturbed, name):
    assert generators.verify_relations(perturbed[name]) == reference_relations(perturbed[name])


def test_perturbed_sets_fail_every_row(gens, perturbed):
    assert tuple(perturbed) == PERTURBED
    failed = {row for g in perturbed.values()
              for row, ok in generators.verify_relations(g) if not ok}
    assert failed == {row for row, _ in generators.verify_relations(gens)}


def _raw_calls(monkeypatch):
    calls = []
    raw = zkernel.IntegerAction.raw

    def counted(self, rows):
        calls.append(rows.shape)
        return raw(self, rows)

    monkeypatch.setattr(zkernel.IntegerAction, "raw", counted)
    return calls


def test_verify_relations_refuses_unsafe_sets_before_any_product(gens, monkeypatch):
    calls = _raw_calls(monkeypatch)
    # 8 * 2^43 reaches 2^24, so compiling the actions refuses it
    huge = cyc_reference.scale_matrix(gens.f1, CycNum.from_int(2 ** 43))
    with pytest.raises(zkernel.KernelOverflowError):
        generators.verify_relations(
            generators.GeneratorSet(huge, gens.f2, gens.d, gens.ac, gens.eprime))
    assert calls == []


def test_verify_relations_refuses_an_unsafe_power(gens, monkeypatch):
    # the images of f1^5 under 2^k f1 have entries up to 2^jk after j
    # applications, and the next is refused unless 216 * 2^k * 2^jk < 2^24:
    # for 2^6 f1 the third is refused (216 * 2^18), for 2^5 f1 the third is
    # formed (216 * 2^15) and the fourth refused
    calls = _raw_calls(monkeypatch)
    for k, applied in ((6, 2), (5, 3)):
        calls.clear()
        big = cyc_reference.scale_matrix(gens.f1, CycNum.from_int(2 ** k))
        with pytest.raises(zkernel.KernelOverflowError, match=r"2\^24"):
            generators.verify_relations(
                generators.GeneratorSet(big, gens.f2, gens.d, gens.ac, gens.eprime))
        assert calls == [(27, 27)] + [(27, zkernel.DIM)] * applied


def test_same_is_not_fooled_by_float32_rounding():
    # 5 * 8388609 = 41943045, which float32 rounds to 41943044: kernel images
    # are float arrays, and scaling them by D must not decide the comparison
    a = np.array([[8388609]], dtype=np.float32)
    b = np.array([[41943044]], dtype=np.float32)
    assert np.float32(5) * a == b
    assert not generators._same((a, 1), (b, 5))
    assert generators._same((a, 5), (5 * a.astype(np.int64), 25))


def test_verify_relations_makes_no_scalar_products(gens, monkeypatch):
    calls = []
    mul = CycNum.__mul__

    def counted(a, b):
        calls.append(None)
        return mul(a, b)

    monkeypatch.setattr(CycNum, "__mul__", counted)
    rows = generators.verify_relations(gens)  # gens is build_all(), made before the patch
    assert all(ok for _, ok in rows)
    assert calls == []


def test_monomials_normalize_the_diagonal_group(gens):
    # conjugating f1 or f2 by d or ac stays diagonal with a permuted table
    ref_tables = {gens.f1.diagonal(), gens.f2.diagonal()}
    for f in (gens.f1, gens.f2):
        for m in (gens.d, gens.ac):
            conj = la.mat_mul(la.mat_mul(la.mat_inv(m), f), m)
            assert cyc_reference.is_diagonal(conj)
            diag = conj.diagonal()
            assert sorted(e.to_text() for e in diag) in [
                sorted(e.to_text() for e in t) for t in ref_tables]


def test_gf41_reduction_of_generators(gens):
    reduced = generators.build_all_gf41()
    assert cyc_reference.is_diagonal(reduced[0])
    from tits27.gf41 import gf
    assert reduced[4].data[0][0] == gf(25)   # 2/5 mod 41
    top = [e for e in reduced[4].data[0] if not e.is_zero()]
    assert Counter(e.value for e in top) == {25: 2, 33: 9, 8: 8}


@pytest.mark.parametrize("name", generators.NAMES)
def test_generators_equal_the_per_scalar_reference(gens, name):
    built, ref = getattr(gens, name), getattr(cyc_reference.build_all(), name)
    assert (built.den, ref.den) == ({"eprime": 5}.get(name, 1),) * 2
    assert np.array_equal(built.coeffs, ref.coeffs)
    fresh = getattr(generators.build_all.__wrapped__(), name)  # decoded here
    for i in range(27):
        for j in range(27):
            assert fresh.data[i][j] == ref.data[i][j], (i, j)


def test_gf41_generators_reduce_the_per_scalar_reference():
    for m, ref in zip(generators.build_all_gf41(), cyc_reference.build_all()):
        assert m.ring == RING_GF41
        assert m.data == [[gf41.reduce_cyc(e) for e in row] for row in ref.data]


def test_fast_certificates_make_no_scalar_products(monkeypatch):
    calls = []
    mul = CycNum.__mul__
    monkeypatch.setattr(CycNum, "__mul__", lambda a, b: calls.append(None) or mul(a, b))
    fresh = generators.build_all.__wrapped__()  # built inside the count
    monkeypatch.setattr(generators, "build_all", lambda: fresh)
    assert all(ok for _, ok in certificates.rows(fast=True))
    assert calls == []


def test_fast_certificates_form_no_adjoint(monkeypatch):
    # unitarity and the row norms read the conjugate rows off the
    # coefficients, so the kernel has no adjoint, and the only actions a
    # verify --fast run makes are the five compiled ones and the cubic
    # transform's transposed eprime
    assert not hasattr(zkernel.IntegerAction, "adjoint")
    made = []
    for name in ("_compile", "transposed"):
        method = getattr(zkernel.IntegerAction, name)
        monkeypatch.setattr(zkernel.IntegerAction, name,
                            lambda self, *args, _m=method, _n=name:
                            made.append((_n, self)) or _m(self, *args))
    fresh = generators.build_all.__wrapped__()
    monkeypatch.setattr(generators, "build_all", lambda: fresh)
    assert all(ok for _, ok in certificates.rows(fast=True))
    assert made == [*(("_compile", m.action) for m in fresh),
                    ("transposed", fresh.eprime.action)]


def _verdicts_with_eprime(monkeypatch, change):
    """The eprime rows of `verify --fast` with eprime's 5 * coefficients
    changed in place by `change`."""
    g = generators.build_all.__wrapped__()
    coeffs = g.eprime.coeffs.copy()
    change(coeffs)
    changed = g._replace(eprime=ExactMatrix.from_coeffs(coeffs, g.eprime.den))
    monkeypatch.setattr(generators, "build_all", lambda: changed)
    return {name: ok for name, ok in itertools.islice(certificates.rows(fast=True), 16)
            if name.startswith("eprime")}


_SYMMETRIC = "eprime symmetric"
_MULTISET = "eprime top row multiset {2/5 x2, 1/5 x9, -1/5 x8}"


def test_symmetry_row_fails_on_one_changed_coefficient(monkeypatch):
    def change(c):
        assert not c[0, 5].any() and not c[5, 0].any()
        c[0, 5, 1] = 1  # eprime[0][5] = zeta/5, eprime[5][0] stays 0
    assert not _verdicts_with_eprime(monkeypatch, change)[_SYMMETRIC]


@pytest.mark.parametrize("entry", [(0, 2, 0), (0, 2, 1), (0, 3, 0)],
                         ids=["1/5 to 2/5", "1/5 to (1 + zeta)/5", "0 to 1/5"])
def test_multiset_row_fails_on_a_changed_top_row(monkeypatch, entry):
    def change(c):
        # (0, 2) is 1/5 and (0, 3) is 0; the mirror entry changes too, so
        # eprime stays symmetric and only the multiset row can tell
        i, j, k = entry
        c[i, j, k] += 1
        c[j, i, k] += 1
    rows = _verdicts_with_eprime(monkeypatch, change)
    assert rows[_SYMMETRIC] and not rows[_MULTISET]
