"""GF(41) arithmetic and the reduction from Q(zeta20)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tits27 import cyclo, exactlinalg, gf41, zkernel
from tits27.gf41 import OMEGA, OMEGA_INV, Gf41, evaluate_at, gf, lift_table, reduce_cyc
from test_basisfinder import reference_mat_inv, reference_nullspace, reference_rref

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


# -- the float32 residue-array kernel --------------------------------------------

def test_kernel_refuses_overflow():
    big = 2 ** 31 - 2                   # 3 * big^2 >= 2^63 > big^2
    with pytest.raises(gf41.KernelOverflowError):
        gf41.check_range(3, big, big)
    gf41.check_range(1, big, big)
    gf41.check_range(27, 40, 40)
    assert zkernel.KernelOverflowError is gf41.KernelOverflowError
    gf41.check_range(27 + 1, 40, 40, bits=24)   # rref's bound at 27 pivots
    assert 28 * 40 ** 2 == 44_800      # far below 2^24


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
    # 11,101 terms of 39 * 39 sum beyond 2^24, where float32 would round an
    # odd sum; as residues in -20..20 they are terms of (-2) * (-2)
    v = np.full(11_101, 39)
    assert 1521 * 11_101 > 2 ** 24
    assert gf41.matmul(v, v) == 1521 * 11_101 % 41
    assert np.array_equal(gf41.matmul(np.stack([v, -v]), v), [1521 * 11_101 % 41, -1521 * 11_101 % 41])


def test_kernel_matmul_guard_is_float32():
    # residues are multiplied in -20..20, and n * 20^2 < 2^24 holds up to
    # n = 41,943: there the all-20 product, a sum of 41,943 terms 400, is
    # exact in float32; at 41,944 it is refused
    edge = 2 ** 24 // 400
    a = np.full((1, edge), 20, dtype=np.int64)
    assert np.array_equal(gf41.matmul(a, a.T), a @ a.T % 41)
    assert np.array_equal(gf41.matmul(a, -a.T), -a @ a.T % 41)
    a = np.full((1, edge + 1), 20, dtype=np.int64)
    with pytest.raises(gf41.KernelOverflowError, match="2\\^24"):
        gf41.matmul(a, a.T)


@pytest.mark.parametrize("rows", [
    [[0, 1, 2], [0, 3, 4], [5, 6, 7]],                          # pivots below row r
    [[0, 0, 3, 1], [0, 2, 4, 6], [0, 1, 2, 3], [0, 2, 7, 7]],    # rank 2, a zero column
    [[4, 8, 12], [2, 4, 6], [1, 3, 5]],                         # rank 2, pivot row last
])
def test_kernel_rref_matches_reference_with_swaps(rows):
    red, pivots = gf41.rref(np.array(rows))
    ref_rows, ref_pivots = reference_rref(rows)
    assert pivots == ref_pivots
    assert red.tolist() == ref_rows


@st.composite
def int_matrices(draw):
    """Rows of Python ints: tall, wide or square, of any rank up to full, with
    zero columns, and lifted off 0..40 by multiples of 41 up to about 2^62."""
    rows = draw(st.integers(1, 9))
    cols = draw(st.one_of(st.just(rows), st.integers(1, 9)))
    rank = draw(st.integers(0, min(rows, cols)))
    residues = st.integers(0, 40)
    left = draw(st.lists(st.lists(residues, min_size=rank, max_size=rank),
                         min_size=rows, max_size=rows))
    right = draw(st.lists(st.lists(residues, min_size=cols, max_size=cols),
                          min_size=rank, max_size=rank))
    zero = draw(st.sets(st.integers(0, cols - 1), max_size=cols))
    lift = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-2 ** 56, 2 ** 56),
                     st.sampled_from([2 ** 62 // 41, -(2 ** 62 // 41)]))
    return [[0 if j in zero else
             sum(x * y for x, y in zip(left[i], (r[j] for r in right))) % 41 + 41 * draw(lift)
             for j in range(cols)] for i in range(rows)]


@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_kernel_matches_plain_int_elimination(m):
    a = np.array(m, dtype=np.int64)
    ref_rows, ref_pivots = reference_rref(m)
    red, pivots = gf41.rref(a)
    assert (red.tolist(), pivots) == (ref_rows, ref_pivots)
    assert red.dtype == np.int64
    assert gf41.rank(a) == len(ref_pivots)
    assert gf41.nullspace(a).tolist() == [list(v) for v in reference_nullspace(m)]
    if len(m) == len(m[0]) == len(ref_pivots):
        assert gf41.inverse(a).tolist() == [list(r) for r in reference_mat_inv(m)]
    elif len(m) == len(m[0]):
        with pytest.raises(gf41.SingularMatrixError):
            gf41.inverse(a)


def test_float32_reduction_is_exact_below_2_24():
    # the largest values the kernel reduces: every integer from 2^24 - 1,016
    # to 2^24 - 16 and their negatives; 41 * floor(x / 41) first rounds at
    # -(2^24 - 15)
    x = np.arange(2 ** 24 - 1_016, 2 ** 24 - 15, dtype=np.int64)
    x = np.concatenate([x, -x])
    assert x.max() == 2 ** 24 - 16
    assert np.array_equal(gf41._mod(x.astype(np.float32)), x % 41)
    assert np.array_equal(gf41._centred(x), (x + 20) % 41 - 20)
    assert np.array_equal(gf41._centred(x + 41 * 2 ** 40), (x + 20) % 41 - 20)


def test_kernel_refuses_before_allocating():
    # broadcast views take no memory: the kernel must refuse them from their
    # shapes, before it copies or reduces anything (an int64 copy of the
    # rref input would take 880 MB, and inverse's [a | 1] twice that)
    n = 10_485                          # first n with 1600 * (n + 1) >= 2^24
    assert 1600 * n < 2 ** 24 <= 1600 * (n + 1)
    inner = 2 ** 24 // 400 + 1          # first inner size with n * 20^2 >= 2^24
    cases = [(gf41.rref, np.broadcast_to(np.int64(1), (n, n))),
             (gf41.rank, np.broadcast_to(np.int64(1), (n, 2 * n))),
             (gf41.inverse, np.broadcast_to(np.int64(1), (n, n))),
             (gf41.matmul, np.broadcast_to(np.int64(1), (64, inner)))]
    tracemalloc.start()
    try:
        for fn, a in cases:
            with pytest.raises(gf41.KernelOverflowError, match="2\\^24"):
                fn(a) if fn is not gf41.matmul else fn(a, a.T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
