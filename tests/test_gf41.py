"""GF(41) arithmetic and the reduction from Q(zeta20)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tits27 import cyclo, exactlinalg, gf41, zkernel
from tits27.gf41 import OMEGA, OMEGA_INV, Gf41, evaluate_at, gf, lift_table, reduce_cyc
from test_basisfinder import reference_rref

small_cyc = st.builds(
    cyclo.CycNum,
    st.tuples(*[st.integers(-4, 4) for _ in range(8)]),
    st.integers(1, 5),
)


def test_field_examples():
    assert gf(5).inverse() == gf(33)
    assert gf(9) * gf(9) == gf(40)
    assert gf(16) ** 5 == gf(1)


def test_division():
    assert gf(7) / gf(7) == gf(1)
    with pytest.raises(ZeroDivisionError):
        gf(3) / gf(0)
    with pytest.raises(ZeroDivisionError):
        gf(0).inverse()


def test_omega_is_unique_by_brute_force():
    hits = [w for w in range(1, 41) if pow(w, 4, 41) == 16 and pow(w, 5, 41) == 9]
    assert hits == [39]
    assert OMEGA == 39
    assert OMEGA == 9 * pow(16, -1, 41) % 41


def test_reduce_named_constants():
    assert reduce_cyc(cyclo.I) == gf(9)
    assert reduce_cyc(cyclo.Z) == gf(16)
    assert reduce_cyc(cyclo.Z ** 2) == gf(10)
    assert reduce_cyc(cyclo.Z ** 3) == gf(37)
    assert reduce_cyc(cyclo.Z ** 4) == gf(18)
    assert reduce_cyc(cyclo.SIGMA) == gf(7)
    assert reduce_cyc(cyclo.TAU) == gf(35)
    assert reduce_cyc(cyclo.FIFTH) == gf(33)
    assert reduce_cyc(cyclo.CycNum.zeta(1)) == gf(39)


def test_reduce_rejects_denominator_41():
    with pytest.raises(ZeroDivisionError):
        reduce_cyc(cyclo.CycNum.rational(1, 41))


def test_lift_table_round_trip():
    table = lift_table()
    for residue, value in table.items():
        assert reduce_cyc(value) == residue
    assert table[gf(16)] == cyclo.Z
    assert table[gf(10)] == cyclo.Z ** 2
    assert table[gf(37)] == cyclo.Z ** 3
    assert table[gf(18)] == cyclo.Z ** 4
    assert table[gf(33)] == cyclo.FIFTH


def test_fifth_roots_canonical():
    assert tuple(r.value for r in gf41.PRIMITIVE_FIFTH_ROOTS) == (16, 10, 37, 18)
    for r in gf41.PRIMITIVE_FIFTH_ROOTS:
        assert r ** 5 == gf(1) and r != gf(1)
    assert gf(-4) == gf(37)


@settings(max_examples=60, deadline=None)
@given(small_cyc, small_cyc)
def test_reduce_is_ring_homomorphism(a, b):
    assert reduce_cyc(a * b) == reduce_cyc(a) * reduce_cyc(b)
    assert reduce_cyc(a + b) == reduce_cyc(a) + reduce_cyc(b)


@settings(max_examples=60, deadline=None)
@given(small_cyc)
def test_reduce_commutes_with_conjugation(a):
    # conjugation downstairs is evaluation at omega^-1
    assert reduce_cyc(a.conj()) == evaluate_at(a, OMEGA_INV)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.integers(0, 40))
def test_field_axioms(x, y):
    a, b = gf(x), gf(y)
    assert a + b == b + a
    assert a * b == b * a
    assert -(-a) == a
    if y != 0:
        assert (a / b) * b == a


def test_interning_and_hash():
    assert gf(42) == gf(1)
    assert hash(gf(5)) == hash(Gf41(46))
    assert str(gf(40)) == "40"


# -- the int64 residue-array kernel ----------------------------------------------

def test_kernel_refuses_overflow():
    big = 2 ** 31 - 2                   # 3 * big^2 >= 2^63 > big^2
    with pytest.raises(gf41.KernelOverflowError):
        gf41.check_range(3, big, big)
    gf41.check_range(1, big, big)
    gf41.check_range(27, 40, 40)
    assert zkernel.KernelOverflowError is gf41.KernelOverflowError
    assert 27 * 40 ** 2 == 43_200      # the bound at p = 41, far below 2^63


def test_kernel_reduces_its_input():
    a = np.array([[42, -1], [0, 83]])
    assert gf41.matmul(a, np.eye(2, dtype=np.int64)).tolist() == [[1, 40], [0, 1]]
    assert gf41.rank(np.array([[41, 82]])) == 0


def test_kernel_inverse():
    rng = np.random.default_rng(7)
    ident = np.eye(6, dtype=np.int64)
    for _ in range(5):
        m = rng.integers(0, 41, size=(6, 6))
        if gf41.rank(m) < 6:
            continue
        assert np.array_equal(gf41.matmul(m, gf41.inverse(m)), ident)
        assert np.array_equal(gf41.matmul(gf41.inverse(m), m), ident)
    with pytest.raises(exactlinalg.SingularMatrixError):
        gf41.inverse(np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        gf41.inverse(np.ones((2, 3), dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.randoms(use_true_random=False))
def test_kernel_nullspace(rows, cols, rnd):
    m = np.array([[rnd.randrange(41) for _ in range(cols)] for _ in range(rows)])
    basis = gf41.nullspace(m)
    assert basis.shape == (cols - gf41.rank(m), cols)
    assert not gf41.matmul(m, basis.T).any()


def _reference_matmul(a, b):
    """a @ b mod 41 in Python integers (numpy object arrays)."""
    return np.matmul(np.array(a, dtype=object), np.array(b, dtype=object)) % 41


_entries = st.one_of(st.integers(-100, 100), st.integers(-2 ** 62, 2 ** 62),
                     st.sampled_from([40, -1, 41]))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_kernel_matmul_matches_python_integers(data):
    n, k, m = (data.draw(st.integers(1, 6)) for _ in range(3))
    a = data.draw(arrays(np.int64, data.draw(st.sampled_from([(n, k), (3, n, k), (k,)])),
                         elements=_entries))
    b = data.draw(arrays(np.int64, data.draw(st.sampled_from([(k, m), (3, k, m), (k,)])),
                         elements=_entries))
    got = gf41.matmul(a, b)
    assert np.asarray(got).dtype == np.int64
    assert np.array_equal(got, _reference_matmul(a, b))


@pytest.mark.parametrize("inner", [1, 27, 54])
def test_kernel_matmul_all_forty(inner):
    a, b = np.full((3, inner), 40), np.full((inner, 2), 40)
    assert np.array_equal(gf41.matmul(a, b), _reference_matmul(a, b))
    assert np.array_equal(gf41.matmul(a[None], b), _reference_matmul(a[None], b))
    assert np.array_equal(gf41.matmul(a, b[:, 0]), _reference_matmul(a, b[:, 0]))


def test_kernel_matmul_past_float32():
    # odd sums beyond 2^24 that float32 would round: 11,101 terms of 39 * 39
    v = np.full(11_101, 39)
    assert 1521 * 11_101 > 2 ** 24
    assert gf41.matmul(v, v) == 1521 * 11_101 % 41
    assert np.array_equal(gf41.matmul(np.stack([v, -v]), v), [1521 * 11_101 % 41, -1521 * 11_101 % 41])


def test_kernel_matmul_guard_is_float64(monkeypatch):
    seen = []
    monkeypatch.setattr(gf41, "check_range", lambda *args, **kw: seen.append((args, kw)))
    gf41.matmul(np.ones((2, 27), dtype=np.int64), np.ones((27, 3), dtype=np.int64))
    assert seen == [((27, 40, 40), {"bits": 53})]
    edge = -(-2 ** 53 // 1600)             # the least inner size with edge * 40^2 >= 2^53
    monkeypatch.undo()
    gf41.check_range(edge - 1, 40, 40, bits=53)
    with pytest.raises(gf41.KernelOverflowError, match="2\\^53"):
        gf41.check_range(edge, 40, 40, bits=53)


@pytest.mark.parametrize("rows", [
    [[0, 1, 2], [0, 3, 4], [5, 6, 7]],                          # pivots below row r
    [[0, 0, 3, 1], [0, 2, 4, 6], [0, 1, 2, 3], [0, 2, 7, 7]],    # rank 2, a zero column
    [[4, 8, 12], [2, 4, 6], [1, 3, 5]],                         # rank 2, pivot row last
])
def test_kernel_rref_matches_reference_with_swaps(rows):
    red, pivots = gf41.rref(np.array(rows))
    ref_rows, ref_pivots = reference_rref([[gf(v) for v in row] for row in rows])
    assert pivots == ref_pivots
    assert red.tolist() == [[e.value for e in row] for row in ref_rows]
