"""Exact dense matrices over both scalar rings."""

import contextlib
import io
import random

import numpy as np
import pytest

import cyc_reference
from tits27 import basisfinder, cli, cyclo, exactlinalg as la, generators, gf41, wordlang
from tits27 import zkernel
from tits27.exactlinalg import (DimensionMismatchError, ExactMatrix, RingMismatchError,
                                SingularMatrixError, RING_CYC, RING_GF41)
from tits27.gf41 import gf


def _rand_gf_matrix(rng, n):
    return ExactMatrix(RING_GF41, [[gf(rng.randrange(41)) for _ in range(n)]
                                   for _ in range(n)])


def _rand_cyc_matrix(rng, n):
    return ExactMatrix(RING_CYC, [[cyclo.CycNum.from_int(rng.randrange(-3, 4))
                                   for _ in range(n)] for _ in range(n)])


def _rank_oracle(m):
    """Independent rank computation: count nonzero rows after a fresh
    forward elimination written directly in the test."""
    rows = [list(r) for r in m.data]
    nrows, ncols = len(rows), len(rows[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        for i in range(r + 1, nrows):
            if not rows[i][c].is_zero():
                f = rows[i][c] * inv
                rows[i] = [e - f * p for e, p in zip(rows[i], rows[r])]
        r += 1
    return r


def test_block_constant_products():
    bc = cyc_reference.block_constants()
    ident = ExactMatrix.identity(4, RING_CYC)
    # K and L are mutually inverse 4-cycles; J is a double transposition.
    assert la.mat_mul(bc.K, bc.L) == ident
    assert la.mat_mul(bc.L, bc.K) == ident
    assert la.mat_mul(bc.J, bc.J) == ident
    assert la.mat_mul(ident, bc.J) == bc.J
    # K has order 4: K^4 = 1 and K^2 != 1
    assert la.mat_pow(bc.K, 4) == ident and la.mat_pow(bc.K, 2) != ident


def test_mul_shape_and_ring_checks():
    a = ExactMatrix.identity(3, RING_CYC)
    b = ExactMatrix.identity(4, RING_CYC)
    with pytest.raises(DimensionMismatchError):
        la.mat_mul(a, b)
    with pytest.raises(RingMismatchError):
        la.mat_mul(a, ExactMatrix.identity(3, RING_GF41))


def test_inverse_definitional(gens):
    ident = ExactMatrix.identity(27, RING_CYC)
    assert la.mat_inv(ident) == ident
    assert la.mat_mul(la.mat_inv(gens.ac), gens.ac) == ident
    # eprime is an involution, so it equals its own inverse
    assert la.mat_inv(gens.eprime) == gens.eprime


def test_inverse_random_both_rings():
    rng = random.Random(7)
    for _ in range(5):
        m = _rand_gf_matrix(rng, 5)
        if _rank_oracle(m) < 5:
            continue
        assert la.mat_mul(m, la.mat_inv(m)) == ExactMatrix.identity(5, RING_GF41)
        assert la.mat_mul(la.mat_inv(m), m) == ExactMatrix.identity(5, RING_GF41)
    for _ in range(3):
        m = _rand_cyc_matrix(rng, 4)
        try:
            mi = la.mat_inv(m)
        except SingularMatrixError:
            continue
        assert la.mat_mul(m, mi) == ExactMatrix.identity(4, RING_CYC)


def test_singular_matrix():
    z = ExactMatrix.zeros(3, 3, RING_GF41)
    with pytest.raises(SingularMatrixError):
        la.mat_inv(z)


def test_conj_transpose(gens):
    # f1 and d are unitary, decided on the kernel, and eprime is Hermitian:
    # its conjugate rows, read off the coefficients, are its columns
    rows = dict(generators.verify_relations(gens))
    assert rows["f1 unitary"] and rows["d unitary"]
    ep = gens.eprime.coeffs
    assert (ep @ zkernel.CONJ == ep.transpose(1, 0, 2)).all()
    assert cyc_reference.conj_transpose(gens.eprime) == gens.eprime
    assert not (gens.f1.coeffs @ zkernel.CONJ == gens.f1.coeffs).all()


def test_mat_order(gens):
    # order n: m^n = 1 and m^(n/p) != 1 for each prime p dividing n
    ident = ExactMatrix.identity(27, RING_CYC)
    for m, n, proper in ((gens.ac, 12, (6, 4)), (gens.d, 2, (1,)), (gens.f1, 5, (1,))):
        assert la.mat_pow(m, n) == ident
        assert all(la.mat_pow(m, k) != ident for k in proper)


def test_nullspace_trivial_cases():
    assert len(gf41.nullspace(np.zeros((2, 2), dtype=np.int64))) == 2
    assert gf41.nullspace(np.eye(3, dtype=np.int64)).shape == (0, 3)
    with pytest.raises(RingMismatchError):
        gf41.nullspace(la.residues(ExactMatrix.identity(2, RING_CYC)))


def test_nullspace_properties():
    rng = random.Random(3)
    for _ in range(10):
        m = ExactMatrix(RING_GF41, [[gf(rng.randrange(41)) for _ in range(6)]
                                    for _ in range(4)])
        basis = gf41.nullspace(la.residues(m))
        assert len(basis) == 6 - _rank_oracle(m)
        for v in basis:
            assert all(e == gf(0) for e in la.matvec(m, tuple(map(gf, v.tolist()))))


def test_common_nullspace(gens):
    # the stacked system of the basis pipeline, on the residue-array kernel
    gm = la.residues(la.reduce_matrix_mod41(gens.f1))
    assert np.array_equal(gf41.nullspace(np.vstack([gm, gm])), gf41.nullspace(gm))
    assert gf41.nullspace(np.eye(3, dtype=np.int64)).shape == (0, 3)
    # stacked (f1+4, f2+4) over GF(41): one-dimensional joint eigenspace
    f1m = la.residues(la.reduce_matrix_mod41(gens.f1))
    f2m = la.residues(la.reduce_matrix_mod41(gens.f2))
    shifted = [m + 4 * np.eye(27, dtype=np.int64) for m in (f1m, f2m)]
    assert len(gf41.nullspace(np.vstack(shifted))) == 1


def test_unitarity_of_all_generators(gens):
    rows = dict(generators.verify_relations(gens))
    assert all(rows[f"{name} unitary"] for name in generators.NAMES)


def test_monomial_structure(gens):
    assert gens.f1.is_diagonal()
    assert gens.d.is_monomial()
    assert gens.ac.is_monomial()
    assert not gens.eprime.is_monomial()
    for m in (gens.d, gens.ac):
        for row in m.data:
            assert sum(1 for e in row if not e.is_zero()) == 1


def test_matrix_file_round_trip(tmp_path, gens):
    for m in (gens.eprime, la.reduce_matrix_mod41(gens.d)):
        path = tmp_path / "m.mat"
        la.save_matrix(m, path)
        assert la.load_matrix(path) == m


def test_parse_matrix_errors():
    with pytest.raises(ValueError):
        la.parse_matrix("")
    with pytest.raises(ValueError):
        la.parse_matrix("bogus 2 2\n1 2\n3 4\n")
    with pytest.raises(ValueError):
        la.parse_matrix("gf41 2 2\n1 2\n")


def test_parse_skips_comments():
    text = "# comment\ngf41 1 2\n\n3 4\n"
    m = la.parse_matrix(text)
    assert m.rows == 1 and m.cols == 2 and m.data[0][1] == gf(4)


def test_coefficient_form_round_trips(gens):
    rng = random.Random(11)
    entries = [[cyclo.CycNum([rng.randint(-9, 9) for _ in range(8)], rng.choice([1, 3, 10]))
                for _ in range(4)] for _ in range(3)]
    m = ExactMatrix(RING_CYC, entries)
    assert m.coeffs.shape == (3, 4, 8) and m.coeffs.dtype == np.int64
    again = ExactMatrix.from_coeffs(m.coeffs, m.den)
    assert again == m and again.data == entries
    # the generators are built as coefficients; their files parse back to them
    parsed = la.parse_matrix(la.format_matrix(gens.eprime))
    assert parsed.den == gens.eprime.den == 5
    assert np.array_equal(parsed.coeffs, gens.eprime.coeffs)


def test_coefficients_that_overflow_int64_are_refused():
    top = 2 ** 63 - 1
    m = ExactMatrix(RING_CYC, [[cyclo.CycNum.from_int(top), cyclo.CycNum.from_int(-top)]])
    assert m.coeffs[:, :, 0].tolist() == [[top, -top]]
    for entries in ([[cyclo.CycNum.from_int(top + 1)]],
                    [[cyclo.CycNum.from_int(-top - 1)]],
                    # over the common denominator 3, 2^62 becomes 3 * 2^62
                    [[cyclo.CycNum.rational(1, 3), cyclo.CycNum.from_int(2 ** 62)]]):
        with pytest.raises(zkernel.KernelOverflowError):
            ExactMatrix(RING_CYC, entries).coeffs
    with pytest.raises(RingMismatchError):
        ExactMatrix.identity(2, RING_GF41).coeffs


def _gens_gf41(monkeypatch):
    """Fresh GF(41) generators, so that none is reused from an earlier test,
    also for every caller of `build_all_gf41` under `monkeypatch`."""
    fresh = generators.build_all_gf41.__wrapped__()
    monkeypatch.setattr(generators, "build_all_gf41", lambda: fresh)
    return fresh


def _gens_gf41_output(monkeypatch):
    _gens_gf41(monkeypatch)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["gens", "--gf41"]) == 0


def _file_round_trip(monkeypatch):
    text = "gf41 2 3\n1 40 7\n0 -1 44\n"
    assert la.format_matrix(la.parse_matrix(text)) == "gf41 2 3\n1 40 7\n0 40 3\n"


def _scramble_roundtrip(monkeypatch):
    _gens_gf41(monkeypatch)
    assert all(ok for _, ok in basisfinder.scramble_roundtrip(3))


def _eval_word(monkeypatch):
    _, _, _, ac, eprime = _gens_gf41(monkeypatch)
    word = wordlang.parse_word("a b^-1 a^3", names="ab")
    out = wordlang.eval_word(word, {"a": eprime, "b": ac})
    e, a = la.residues(eprime), la.residues(ac)
    assert np.array_equal(la.residues(out), gf41.matmul(gf41.matmul(e, gf41.inverse(a)), e))


@pytest.mark.parametrize("work", [
    _gens_gf41,
    _scramble_roundtrip,
    _gens_gf41_output,
    _file_round_trip,
    _eval_word,
], ids=["build_all_gf41", "scramble_roundtrip", "gens --gf41", "parse and format", "eval_word"])
def test_gf41_matrices_make_no_scalar_objects(monkeypatch, work):
    calls = []
    gf_ = gf41.gf
    monkeypatch.setattr(gf41, "gf", lambda v: calls.append(v) or gf_(v))
    work(monkeypatch)
    assert calls == []


def test_residues_are_read_only():
    rows = [[gf(1), gf(2)], [gf(3), gf(44)]]
    for m in (ExactMatrix(RING_GF41, rows), la.from_residues(np.array([[1, 2], [3, 44]]))):
        a = la.residues(m)
        assert a.tolist() == [[1, 2], [3, 3]] and la.residues(m) is a
        with pytest.raises(ValueError):
            a[0, 0] = 5


def _rand_cyc_fractions(rng, n):
    return ExactMatrix(RING_CYC, [[cyclo.CycNum([rng.randint(-9, 9) for _ in range(8)],
                                                rng.choice([1, 3, 10]))
                                   for _ in range(n)] for _ in range(n)])


def _equal_by_construction(ring, rng):
    """A matrix built from scalar lists, matrices equal to it built in the
    other ways, and one that differs from it in a single entry."""
    listed = _rand_gf_matrix(rng, 6) if ring == RING_GF41 else _rand_cyc_fractions(rng, 6)
    rebuilt = ExactMatrix(ring, listed.data)
    if ring == RING_GF41:
        array = la.residues(listed)
        others, changed = [la.from_residues(array + 41)], array.copy()
        changed[5, 0] += 1
        return listed, others + [rebuilt], la.from_residues(changed)
    c, d = listed.coeffs, listed.den
    others = [ExactMatrix.from_coeffs(c, d), ExactMatrix.from_coeffs(7 * c, 7 * d)]
    changed = c.copy()
    changed[5, 0, 3] += 1
    return listed, others + [rebuilt], ExactMatrix.from_coeffs(changed, d)


@pytest.mark.parametrize("ring", [RING_GF41, RING_CYC])
def test_equality_and_hash_across_constructors(ring):
    listed, others, changed = _equal_by_construction(ring, random.Random(4))
    for other in others:
        assert listed == other and other == listed
        assert hash(listed) == hash(other)
        assert other.data == listed.data    # decoded on first read
    assert len({listed, *others}) == 1
    assert changed != listed
    assert ExactMatrix.identity(6, RING_GF41) != ExactMatrix.identity(6, RING_CYC)


def test_cyc_beyond_int64_equals_its_reparse():
    big = cyclo.CycNum([2 ** 70, 0, 0, -3, 0, 0, 0, 1], 9)
    m = ExactMatrix(RING_CYC, [[big, cyclo.FIFTH], [cyclo.ZERO, cyclo.I]])
    again = la.parse_matrix(la.format_matrix(m))
    assert again == m and hash(again) == hash(m) and len({m, again}) == 1
    assert again.data == m.data and again.den == 45
    assert ExactMatrix(RING_CYC, [[big + cyclo.ONE, cyclo.FIFTH], [cyclo.ZERO, cyclo.I]]) != m
    for matrix in (m, again):
        with pytest.raises(zkernel.KernelOverflowError):
            matrix.coeffs


@pytest.mark.parametrize("ring", [RING_GF41, RING_CYC])
def test_array_views_match_the_entries(ring):
    # transpose and the shape tests read the array; compare with the scalars
    rng = random.Random(9)
    make = _rand_gf_matrix if ring == RING_GF41 else _rand_cyc_matrix
    one, zero = ExactMatrix.identity(1, ring).data[0][0], ExactMatrix.zeros(1, 1, ring).data[0][0]
    cases = [make(rng, 4), ExactMatrix.identity(4, ring), ExactMatrix.zeros(2, 3, ring)]
    # a single 1 in each row i, in column cols[i]
    cases += [ExactMatrix(ring, [[one if j == c else zero for j in range(4)] for c in cols])
              for cols in ([2, 0, 3, 1], [2, 0, 2, 1], [1, 0, 2, 3])]
    for m in cases + [la.transpose(m) for m in cases]:
        entries = m.data
        t = la.transpose(m)
        assert t.data == [list(col) for col in zip(*entries)]
        assert t == ExactMatrix(ring, t.data) and hash(t) == hash(ExactMatrix(ring, t.data))
        assert la.transpose(t) == m
        nonzero = [[not e.is_zero() for e in row] for row in entries]
        assert m.is_diagonal() == all(not nz for i, row in enumerate(nonzero)
                                      for j, nz in enumerate(row) if i != j)
        assert m.is_monomial() == (m.is_square() and all(sum(row) == 1 for row in nonzero)
                                   and all(sum(col) == 1 for col in zip(*nonzero)))


def _fresh_eprime():
    g = generators.build_all.__wrapped__()
    return ExactMatrix.from_coeffs(g.eprime.coeffs, g.eprime.den)


def _gens_output(monkeypatch):
    fresh = generators.build_all.__wrapped__()
    monkeypatch.setattr(generators, "build_all", lambda: fresh)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["gens"]) == 0


@pytest.mark.parametrize("work", [
    _gens_output,
    lambda _: _fresh_eprime() == _fresh_eprime(),
    lambda _: hash(_fresh_eprime()),
    lambda _: la.transpose(_fresh_eprime()),
    lambda _: _fresh_eprime().is_diagonal(),
    lambda _: _fresh_eprime().is_monomial(),
    lambda _: la.format_matrix(_fresh_eprime()),
    lambda _: la.reduce_matrix_mod41(_fresh_eprime()),
], ids=["gens", "==", "hash", "transpose", "is_diagonal", "is_monomial", "format_matrix",
        "reduce_matrix_mod41"])
def test_cyc_matrices_make_no_scalar_objects(monkeypatch, work):
    calls = []
    init = cyclo.CycNum.__init__
    monkeypatch.setattr(cyclo.CycNum, "__init__",
                        lambda self, *args: calls.append(None) or init(self, *args))
    work(monkeypatch)
    assert calls == []
