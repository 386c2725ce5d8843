"""The GF(41) basis-recovery pipeline."""

import random

import pytest

from tits27 import basisfinder as bf, exactlinalg as la, generators
from tits27.exactlinalg import ExactMatrix, RING_GF41
from tits27.gf41 import gf


@pytest.fixture(scope="module")
def reduced():
    return generators.build_all_gf41()


def test_char_vector_unique(reduced):
    f1m, f2m = reduced[0], reduced[1]
    v = bf.find_char_vector(f1m, f2m, gf(37), gf(37))
    support = [i for i, e in enumerate(v.entries) if not e.is_zero()]
    assert support == [11]          # the label-9 coordinate
    assert v.entries[11] == gf(1)


def test_char_vector_dimension_errors(reduced):
    f1m, f2m = reduced[0], reduced[1]
    with pytest.raises(bf.DimensionNotOneError):
        bf.find_char_vector(f1m, f2m, gf(1), gf(1))      # dimension 3
    ident = ExactMatrix.identity(27, RING_GF41)
    with pytest.raises(bf.DimensionNotOneError):
        bf.find_char_vector(ident, ident, gf(1), gf(1))  # dimension 27


def test_fixed_vector(reduced):
    f1m, f2m, dm = reduced[0], reduced[1], reduced[2]
    v = bf.find_fixed_vector(f1m, f2m, dm)
    assert [i for i, e in enumerate(v.entries) if not e.is_zero()] == [0]
    with pytest.raises(bf.DimensionNotOneError):
        bf.find_fixed_vector(f1m, f2m, ExactMatrix.identity(27, RING_GF41))


def test_subgroup_closure_sizes(reduced):
    f1m, dm, acm = reduced[0], reduced[2], reduced[3]
    assert len(bf.subgroup_elements([dm, acm], cap=100)) == 48
    assert len(bf.subgroup_elements([ExactMatrix.identity(27, RING_GF41)])) == 1
    assert len(bf.subgroup_elements([f1m])) == 5
    with pytest.raises(bf.CapExceededError):
        bf.subgroup_elements([dm, acm], cap=10)


def test_assemble_basis_counts(reduced):
    f1m, f2m, dm, acm = reduced[0], reduced[1], reduced[2], reduced[3]
    charvec = bf.find_char_vector(f1m, f2m, gf(37), gf(37))
    fixvec = bf.find_fixed_vector(f1m, f2m, dm)
    sub = bf.subgroup_elements([dm, acm], cap=100)
    basis = bf.assemble_basis(charvec, fixvec, sub)
    assert len(basis.columns) == 27
    assert la.rank(basis.matrix()) == 27
    # columns pairwise non-proportional
    keys = {bf._normalized(c) for c in basis.columns}
    assert len(keys) == 27
    # degenerate inputs
    with pytest.raises(bf.WrongCountError):
        bf.assemble_basis(charvec, fixvec, [ExactMatrix.identity(27, RING_GF41)])
    with pytest.raises((bf.WrongCountError, bf.SingularAssemblyError)):
        bf.assemble_basis(fixvec, fixvec, sub)


def test_rebase_identity_is_noop(reduced):
    ident_basis = bf.BasisCandidate(
        tuple(tuple(gf(1) if i == j else gf(0) for i in range(27)) for j in range(27)))
    out = bf.rebase(list(reduced), ident_basis)
    assert out == list(reduced)


def test_pipeline_on_reference(reduced):
    balanced, common = bf.run_pipeline(*reduced)
    assert balanced[0].is_diagonal() and balanced[1].is_diagonal()
    assert balanced[2].is_monomial() and balanced[3].is_monomial()
    assert common == gf(33)
    assert bf.row_value_multiset(balanced[4], 0) == bf.TOP_ROW_MULTISET


def test_scalar_balance_idempotent(reduced):
    balanced, common = bf.run_pipeline(*reduced)
    again, common2 = bf.scalar_balance(balanced)
    assert again == balanced
    assert common2 == common


def test_scalar_balance_rejects_missing_dense(reduced):
    with pytest.raises(bf.PatternViolationError):
        bf.scalar_balance([reduced[0], reduced[1], reduced[2], reduced[3]])


def test_roundtrip_diagonal_multiset(reduced):
    rng = random.Random(11)
    p = bf.random_invertible(rng)
    pinv = la.mat_inv(p)
    scrambled = [la.mat_mul(la.mat_mul(pinv, g), p) for g in reduced]
    balanced, _ = bf.run_pipeline(*scrambled)
    for k in (0, 1):
        assert (sorted(v.value for v in balanced[k].diagonal())
                == sorted(v.value for v in reduced[k].diagonal()))


def test_random_invertible_deterministic():
    a = bf.random_invertible(random.Random(5))
    b = bf.random_invertible(random.Random(5))
    assert a == b
    assert la.rank(a) == 27
