"""The int64 kernel against the dense 216x216 integer matrix it replaces."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tits27 import cyclo, exactlinalg as la
from tits27 import zkernel
from tits27.zkernel import DIM, ROT, IntegerAction, KernelOverflowError, ScaleError


def reference_dense(m, rows):
    """D * (m v) for each row v, D the lcm of the denominators of m.

    Forms the 216x216 integer matrix of D * m (block (i, j) right-multiplies
    block j of a row into block i) and multiplies by it in Python integers,
    so nothing can wrap.  Rows of 27 entries are rational integers.
    """
    den = math.lcm(*(e.den for row in m.data for e in row))
    coeffs = np.array([[[n * (den // e.den) for n in e.num] for e in row]
                       for row in m.data], dtype=object)
    blocks = np.tensordot(coeffs, ROT[:8].astype(object), axes=(2, 0))
    dense = blocks.transpose(1, 2, 0, 3).reshape(DIM, DIM)
    rows = rows.astype(object)
    return rows @ (dense[0::8] if rows.shape[1] == 27 else dense)


def _random_matrix(rnd):
    """A 27x27 matrix with small coefficients on every power of zeta."""
    def entry():
        if rnd.random() < 0.3:
            return cyclo.ZERO
        return cyclo.CycNum([rnd.randint(-3, 3) for _ in range(8)], rnd.choice([1, 2, 5]))
    return la.ExactMatrix(la.RING_CYC, [[entry() for _ in range(27)] for _ in range(27)])


def _rows(rnd, n, width):
    return np.array([[rnd.randint(-30, 30) for _ in range(width)] for _ in range(n)],
                    dtype=np.int64)


def _assert_matches_reference(m, rnd):
    act = IntegerAction(m)
    for width in (DIM, 27):
        rows = _rows(rnd, 6, width)
        assert (act.raw(rows) == reference_dense(m, rows)).all()


@pytest.fixture(scope="module")
def products(gens):
    mul = la.mat_mul
    return {"eprime": gens.eprime,
            "ac.eprime": mul(gens.ac, gens.eprime),
            "eprime.ac.f1": mul(mul(gens.eprime, gens.ac), gens.f1)}


@pytest.mark.parametrize("name", ["eprime", "ac.eprime", "eprime.ac.f1"])
def test_split_kernel_matches_dense_reference(products, name):
    _assert_matches_reference(products[name], random.Random(name))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_split_kernel_on_every_power_of_zeta(seed):
    rnd = random.Random(seed)
    m = _random_matrix(rnd)
    assert all(any(e.num[k] for row in m.data for e in row) for k in range(8))
    _assert_matches_reference(m, rnd)


def test_monomial_kernel_matches_dense_reference(gens):
    rnd = random.Random(0)
    for m in (gens.f1, gens.d, gens.ac):
        _assert_matches_reference(m, rnd)


def test_dense_division_is_exact_or_refused(gens):
    act = IntegerAction(gens.eprime)
    unit = np.zeros((1, DIM), dtype=np.int64)
    unit[0, 0] = 1
    with pytest.raises(ScaleError):
        act(unit)  # eprime has entries 2/5 and 1/5
    assert (act(act.den * unit) == reference_dense(gens.eprime, unit)).all()


def test_dense_kernel_refuses_large_rows(gens):
    # 5 * eprime has slice maxima 2, 1 and 1 (powers 0, 4, 6), so rows up to
    # max|v| pass while 216 * 4 * max|v| < 2^63
    act = IntegerAction(gens.eprime)
    limit = (2 ** 63 - 1) // (DIM * 4)
    act.raw(np.full((1, DIM), limit, dtype=np.int64))
    with pytest.raises(KernelOverflowError):
        act.raw(np.full((1, DIM), limit + 1, dtype=np.int64))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=DIM, max_size=DIM))
def test_conj_matches_the_scalar_conjugation(coeffs):
    row = np.array([coeffs], dtype=np.int64)
    blocks = [cyclo.CycNum(coeffs[8 * j:8 * j + 8]) for j in range(27)]
    expected = [c * e.den for e in blocks for c in e.conj().num]
    assert zkernel.conj(row).tolist() == [expected]


def test_conj_refuses_large_rows():
    limit = (2 ** 63 - 1) // 8
    zkernel.conj(np.full((1, DIM), limit, dtype=np.int64))
    with pytest.raises(KernelOverflowError):
        zkernel.conj(np.full((1, DIM), limit + 1, dtype=np.int64))


def test_from_coeffs_matches_the_matrix_it_encodes(products):
    m = products["eprime.ac.f1"]
    act = IntegerAction(m)
    image = act.raw(np.eye(27, dtype=np.int64))
    # row j of the image holds the blocks of column j of D m
    again = IntegerAction.from_coeffs(image.reshape(27, 27, 8).transpose(1, 0, 2), act.den)
    rows = _rows(random.Random(1), 6, DIM)
    assert (again.raw(rows) == act.raw(rows)).all()
