"""Field arithmetic in Q(zeta20)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cyc_reference
from tits27.cyclo import (CycNum, FIFTH, I, MINUS_ONE, ONE, SIGMA, TAU, Z, ZERO)

small_cyc = st.builds(
    CycNum,
    st.tuples(*[st.integers(-4, 4) for _ in range(8)]),
    st.integers(1, 5),
)
nonzero_cyc = small_cyc.filter(lambda a: not a.is_zero())


def test_zeta_order():
    zeta = CycNum.zeta(1)
    assert zeta ** 20 == ONE
    assert zeta ** 10 == MINUS_ONE
    powers = {zeta ** k for k in range(20)}
    assert len(powers) == 20


def test_imaginary_unit():
    assert I == CycNum.zeta(5)
    assert I * I == MINUS_ONE


def test_fifth_root():
    assert Z == CycNum.zeta(4)
    assert Z ** 5 == ONE
    assert Z != ONE


def test_golden_ratio_pair():
    # sigma = (1-sqrt5)/2 and tau = (1+sqrt5)/2: the product oracle is the
    # rational identity (1-5)/4 = -1.
    assert Fraction(1 - 5, 4) == -1
    assert SIGMA * TAU == MINUS_ONE
    assert SIGMA + TAU == ONE
    assert SIGMA * SIGMA == SIGMA + ONE
    assert TAU * TAU == TAU + ONE
    assert (TAU - SIGMA) ** 2 == CycNum.from_int(5)


def test_inverse_examples():
    assert FIFTH.inverse() == CycNum.from_int(5)
    assert SIGMA.inverse() == -TAU
    assert Z.inverse() == Z ** 4


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_conj_examples():
    assert I.conj() == -I
    assert SIGMA.conj() == SIGMA
    assert (Z * Z).conj() == Z ** 3


def test_approx():
    assert abs(cyc_reference.approx(TAU) - (1 + 5 ** 0.5) / 2) < 1e-12
    assert abs(cyc_reference.approx(I) - 1j) < 1e-12
    assert cyc_reference.approx(ZERO) == 0


def test_canonical_zero():
    z = CycNum((0, 0, 0, 0, 0, 0, 0, 0), 7)
    assert z == ZERO and z.den == 1
    assert not z


def test_coeffs_view():
    x = CycNum((1, -2, 0, 0, 0, 0, 0, 3), 6)
    assert x.coeffs == (Fraction(1, 6), Fraction(-1, 3), 0, 0, 0, 0, 0, Fraction(1, 2))


def test_text_round_trip():
    x = CycNum((3, -2, 0, 5, 1, 0, 7, -4), 6)
    assert CycNum.from_text(x.to_text()) == x
    assert ONE.to_text() == "1 0 0 0 0 0 0 0"
    with pytest.raises(ValueError):
        CycNum.from_text("1 2 3")


@settings(max_examples=60, deadline=None)
@given(small_cyc, small_cyc, small_cyc)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(nonzero_cyc)
def test_inverse_property(a):
    assert a * a.inverse() == ONE


@settings(max_examples=40, deadline=None)
@given(small_cyc, small_cyc)
def test_conj_is_ring_automorphism(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()
    assert a.conj().conj() == a


@settings(max_examples=40, deadline=None)
@given(small_cyc)
def test_norm_is_real(a):
    n = a * a.conj()
    assert n.conj() == n
    assert abs(cyc_reference.approx(n).imag) < 1e-12


@settings(max_examples=40, deadline=None)
@given(small_cyc)
def test_text_round_trip_property(a):
    assert CycNum.from_text(a.to_text()) == a
