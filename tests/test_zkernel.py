"""The exact kernel against the dense 216x216 integer matrix in Python integers."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cyc_reference
from tits27 import certificates, cyclo, exactlinalg as la, generators
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
    # 5 * eprime has coefficients 0, +-1 and +-2, and so does its 216x216
    # matrix B, so rows up to max|v| pass while 216 * 2 * max|v| < 2^53;
    # at the limit the float64 product still equals the integer one
    act = IntegerAction(gens.eprime)
    assert act.max_b == 2
    limit = (2 ** 53 - 1) // (DIM * 2)
    rows = np.full((2, DIM), limit, dtype=np.int64)
    rows[1, ::3] *= -1
    assert (act.raw(rows) == reference_dense(gens.eprime, rows)).all()
    with pytest.raises(KernelOverflowError):
        act.raw(np.full((1, DIM), limit + 1, dtype=np.int64))
    with pytest.raises(KernelOverflowError):
        act.raw(np.full((1, 27), -limit - 1, dtype=np.int64))


def test_stack_is_each_action_side_by_side(monkeypatch, gens):
    # raw gives every block's product; a call divides only eprime's block
    # (D = 5), and an image there that 5 does not divide is still refused
    acts = [IntegerAction(m) for m in gens.in_order()]
    stack = IntegerAction.stack(acts)
    assert stack.dens == (1, 1, 1, 1, 5) and stack.den == 5 and stack.max_b == 2
    rnd = random.Random(28)
    rows = 5 * _rows(rnd, 6, DIM)
    divides = []
    divide = np.divide
    monkeypatch.setattr(zkernel.np, "divide", lambda *a, **kw: divides.append(1) or divide(*a, **kw))
    # small rows of any type are multiplied in float32
    for cast in (np.int64, np.float32, np.float64):
        assert (stack.raw(rows.astype(cast)) == np.hstack([a.raw(rows) for a in acts])).all()
        got = stack(rows.astype(cast))
        assert got.dtype == np.float32 and (got == np.hstack([a(rows) for a in acts])).all()
    assert len(divides) == 3 + 3  # eprime's block once per call, stacked and alone
    short = 5 * _rows(rnd, 2, 27)  # rational integers: the stack's rows B[0::8]
    assert (stack(short) == np.hstack([a(short) for a in acts])).all()
    odd = rows.copy()
    odd[:, 0] += 1  # adds row 0 of eprime's B to its block: 5 does not divide it
    assert (reference_dense(gens.eprime, odd) % 5 != 0).any()
    for cast in (np.int64, np.float32):
        with pytest.raises(ScaleError):
            stack(odd.astype(cast))


def _top(act, bits):
    """The largest max|v| with 216 * max|B| * max|v| < 2^bits."""
    return (2 ** bits - 1) // (DIM * act.max_b)


def _rows_under_the_guard(rnd, act, n, width, top=None):
    """Mixed-sign rows with max|v| = top, by default the largest value the
    2^53 guard accepts for act, one of them signed like a column of B so that
    its image is as large as it gets."""
    top = _top(act, 53) if top is None else top
    rows = np.array([[rnd.choice((-1, 1)) * rnd.randint(top // 2, top) for _ in range(width)]
                     for _ in range(n)], dtype=np.int64)
    rows[0, 0] = top
    col = act.dense[0::8] if width == 27 else act.dense
    rows[1] = top * np.sign(col[:, rnd.randrange(DIM)]).astype(np.int64)
    return rows


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_kernel_is_exact_just_under_the_guard(seed):
    rnd = random.Random(seed)
    m = _random_matrix(rnd)
    act = IntegerAction(m)
    for width in (DIM, 27):
        rows = _rows_under_the_guard(rnd, act, 4, width)
        expected = reference_dense(m, rows)
        assert (act.raw(rows) == expected).all()
        # the division by D is exact, or refused exactly when it is not
        if (expected % act.den == 0).all():
            assert (act(rows) == expected // act.den).all()
        else:
            with pytest.raises(ScaleError):
                act(rows)
        # D m (D w) = D (D m w) divides by D; truncation keeps max|v|
        multiples = np.sign(rows) * (np.abs(rows) // act.den * act.den)
        assert (act(multiples) == reference_dense(m, multiples) // act.den).all()


@pytest.mark.parametrize("name", generators.NAMES)
def test_float32_kernel_is_exact_up_to_its_guard(gens, name):
    # float rows take float32 while 216 * max|B| * max|v| < 2^24, and float64
    # from the first max|v| past it; both equal the product in Python integers
    m = getattr(gens, name)
    act = IntegerAction(m)
    rnd = random.Random(name)
    top = _top(act, 24)
    for width in (DIM, 27):
        for max_v, dtype in ((top, np.float32), (top + 1, np.float64)):
            rows = _rows_under_the_guard(rnd, act, 4, width, max_v)
            out = act.raw(rows.astype(np.float32))
            assert out.dtype == dtype and (out == reference_dense(m, rows)).all()
        # rows of D times an integer, at the largest such max|v| under the bound
        # and the first past it: the image divides by D, in the type of the product
        for max_w, dtype in ((top // act.den, np.float32), (top // act.den + 1, np.float64)):
            rows = act.den * _rows_under_the_guard(rnd, act, 4, width, max_w)
            quot = act(rows.astype(np.float32))
            assert quot.dtype == dtype
            assert (quot == reference_dense(m, rows) // act.den).all()
    if act.den > 1:
        # eprime: images of rows at the bound that D does not divide are refused
        rows = _rows_under_the_guard(rnd, act, 4, DIM, top)
        assert (reference_dense(m, rows) % act.den != 0).any()
        assert act.raw(rows.astype(np.float32)).dtype == np.float32
        with pytest.raises(ScaleError):
            act(rows.astype(np.float32))


def test_float_rows_past_the_float64_guard_are_refused(gens):
    # rows of either kind: refused past the 2^53 guard, and multiplied in
    # float32 up to the 2^24 one and in float64 from the first value past it
    act = IntegerAction(gens.eprime)
    for dtype in (np.float64, np.int64):
        with pytest.raises(KernelOverflowError, match=r"2\^53"):
            act.raw(np.full((1, DIM), _top(act, 53) + 1, dtype=dtype))
    assert act.raw(np.full((1, DIM), _top(act, 24), dtype=np.int64)).dtype == np.float32
    assert act.raw(np.full((1, DIM), -_top(act, 24) - 1, dtype=np.int64)).dtype == np.float64


def _arrays(act):
    """The names of the arrays an action holds."""
    return [name for name, value in vars(act).items() if isinstance(value, np.ndarray)]


def test_fast_certificates_run_every_product_in_float32(monkeypatch):
    # each action holds exactly one B, float32 for the five generators, and
    # no dense32 copy; the relations, unitarity and the Jordan rows pass
    # their int64 rows to the generators' own actions as they are, the cubic
    # transform its int8 tensor to eprime's temporary transposed action, and
    # every product comes back float32
    fresh = generators.build_all.__wrapped__()
    monkeypatch.setattr(generators, "build_all", lambda: fresh)
    seen = []
    raw = IntegerAction.raw

    def spy(self, rows):
        out = raw(self, rows)
        seen.append((self, rows.dtype, out.dtype))
        return out

    monkeypatch.setattr(IntegerAction, "raw", spy)
    assert all(ok for _, ok in certificates.rows(fast=True))
    own = [m.action for m in fresh.in_order()]
    others = {id(act): act for act, _, _ in seen if not any(act is a for a in own)}
    assert len(others) == 1
    (other,) = others.values()
    assert (other.dense == fresh.eprime.action.transposed().dense).all()
    for act in own + [other]:
        assert _arrays(act) == ["dense"] and act.dense.dtype == np.float32
        assert not hasattr(act, "dense32")
    assert {rows for act, rows, _ in seen if act is not other} == {np.dtype(np.int64),
                                                                  np.dtype(np.float32)}
    assert {rows for act, rows, _ in seen if act is other} == {np.dtype(np.int8),
                                                              np.dtype(np.float32)}
    assert {out for _, _, out in seen} == {np.dtype(np.float32)}


def _scaled_identity(c, den):
    """c I / den, whose B is c times the 216 x 216 identity."""
    coeffs = np.zeros((27, 27, 8), dtype=np.int64)
    coeffs[np.arange(27), np.arange(27), 0] = c
    return la.ExactMatrix.from_coeffs(coeffs, den)


@pytest.mark.parametrize("c, dtype", [(2 ** 24 - 1, np.float32), (2 ** 24, np.float64)])
def test_stored_b_is_float32_below_2_to_the_24(c, dtype):
    # B is held in float32 below 2^24 and in float64 from 2^24 on; either way
    # every product is float64 (216 c > 2^24), equals the product in Python
    # integers and divides by D = 11 exactly, and B keeps its stored type
    m = _scaled_identity(c, 11)
    act = IntegerAction(m)
    assert act.den == 11 and act.max_b == c
    assert _arrays(act) == ["dense"] and act.dense.dtype == dtype
    rnd = random.Random(c)
    for width in (DIM, 27):
        rows = 11 * _rows(rnd, 6, width)
        expected = reference_dense(m, rows)
        out = act.raw(rows)
        assert out.dtype == np.float64 and (out == expected).all()
        assert (act(rows) == expected // 11).all()
        with pytest.raises(ScaleError):
            act(rows + 1)  # c is prime to 11
    assert _arrays(act) == ["dense"] and act.dense.dtype == dtype


def test_stack_of_a_float32_and_a_float64_b_is_float64_and_exact():
    ms = [_scaled_identity(c, 11) for c in (2 ** 24 - 1, 2 ** 24)]
    acts = [IntegerAction(m) for m in ms]
    assert [a.dense.dtype for a in acts] == [np.float32, np.float64]
    stack = IntegerAction.stack(acts)
    assert stack.dense.dtype == np.float64 and stack.dens == (11, 11)
    rows = 11 * _rows(random.Random(24), 6, DIM)
    expected = np.hstack([reference_dense(m, rows) for m in ms])
    assert (stack.raw(rows) == expected).all()
    assert (stack(rows) == expected // 11).all()


@pytest.mark.parametrize("name", [*generators.NAMES, "eprime.ac.f1", "random"])
def test_adjoint_matches_the_conjugate_transpose(products, gens, name):
    # unitarity reads the rows D m* e_i off the coefficients of m, each block
    # times CONJ, and applies the action of m to them.  Neither eprime.ac.f1
    # nor the random matrix is Hermitian; the random one has coefficients on
    # every power of zeta and denominators 1, 2 and 5
    rnd = random.Random(name)
    m = _random_matrix(rnd) if name == "random" else {**gens.as_dict(), **products}[name]
    star = cyc_reference.conj_transpose(m)
    assert math.lcm(*(e.den for row in star.data for e in row)) == m.den
    columns = reference_dense(star, np.eye(27, dtype=np.int64))  # row i: D m* e_i
    assert ((m.coeffs @ zkernel.CONJ).reshape(27, DIM) == columns).all()
    rows, den2 = generators._times_adjoint(m)
    assert den2 == m.den ** 2
    assert (rows == reference_dense(m, columns)).all()  # row i: D^2 m m* e_i


@pytest.mark.parametrize("name", ["eprime", "ac.eprime", "eprime.ac.f1"])
def test_transposed_action_is_the_action_of_the_transpose(products, name):
    m = products[name]
    act = IntegerAction(m).transposed()
    rows = _rows(random.Random(name), 6, DIM)
    assert act.den == IntegerAction(m).den
    assert (act.raw(rows) == reference_dense(la.transpose(m), rows)).all()


def test_action_is_compiled_once_and_kept_on_the_matrix(gens):
    m = la.ExactMatrix(la.RING_CYC, gens.eprime.data)
    assert m.action is None
    act = IntegerAction.of(m)
    assert IntegerAction.of(m) is act and m.action is act


def test_each_generator_is_compiled_once_per_certificate_run(monkeypatch):
    # fresh generators, so that no action compiled by an earlier test is
    # reused; building them compiles nothing
    fresh = generators.build_all.__wrapped__()
    assert all(m.action is None for m in fresh.in_order())
    monkeypatch.setattr(generators, "build_all", lambda: fresh)
    compiled = []
    compile_ = IntegerAction._compile
    monkeypatch.setattr(IntegerAction, "_compile",
                        lambda self, coeffs, den: compiled.append(coeffs) or compile_(self, coeffs, den))
    assert all(ok for _, ok in certificates.rows(seed=3))
    # every compile goes through _compile: each generator's coefficients
    # exactly once, and nothing else: unitarity reads conjugate rows off the
    # coefficients, and the cubic transform transposes a compiled action
    assert [sum(c is m.coeffs for c in compiled) for m in fresh.in_order()] == [1] * 5
    assert len(compiled) == 5
