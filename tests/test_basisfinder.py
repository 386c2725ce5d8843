"""The GF(41) basis-recovery pipeline."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cyc_reference
from tits27 import basisfinder as bf, exactlinalg as la, generators, gf41
from tits27.exactlinalg import ExactMatrix, RING_GF41
from tits27.gf41 import gf

IDENTITY = np.eye(27, dtype=np.int64)


@pytest.fixture(scope="module")
def reduced_exact():
    return generators.build_all_gf41()


@pytest.fixture(scope="module")
def reduced(reduced_exact):
    return np.stack([la.residues(m) for m in reduced_exact])


def test_char_vector_unique(reduced):
    f1m, f2m = reduced[0], reduced[1]
    v = bf.find_char_vector(f1m, f2m, 37, 37)
    assert np.flatnonzero(v).tolist() == [11]    # the label-9 coordinate
    assert v[11] == 1


def test_char_vector_dimension_errors(reduced):
    f1m, f2m = reduced[0], reduced[1]
    with pytest.raises(bf.DimensionNotOneError):
        bf.find_char_vector(f1m, f2m, 1, 1)              # dimension 3
    with pytest.raises(bf.DimensionNotOneError):
        bf.find_char_vector(IDENTITY, IDENTITY, 1, 1)    # dimension 27


def test_fixed_vector(reduced):
    f1m, f2m, dm = reduced[0], reduced[1], reduced[2]
    v = bf.find_fixed_vector(f1m, f2m, dm)
    assert np.flatnonzero(v).tolist() == [0]
    with pytest.raises(bf.DimensionNotOneError):
        bf.find_fixed_vector(f1m, f2m, IDENTITY)


def test_subgroup_closure_sizes(reduced):
    f1m, dm, acm = reduced[0], reduced[2], reduced[3]
    assert len(bf.subgroup_elements([dm, acm], cap=100)) == 48
    assert len(bf.subgroup_elements([IDENTITY])) == 1
    assert len(bf.subgroup_elements([f1m])) == 5
    with pytest.raises(bf.CapExceededError):
        bf.subgroup_elements([dm, acm], cap=10)


def test_assemble_basis_counts(reduced):
    f1m, f2m, dm, acm = reduced[0], reduced[1], reduced[2], reduced[3]
    charvec = bf.find_char_vector(f1m, f2m, 37, 37)
    fixvec = bf.find_fixed_vector(f1m, f2m, dm)
    sub = bf.subgroup_elements([dm, acm], cap=100)
    basis = bf.assemble_basis(charvec, fixvec, sub)
    assert basis.shape == (27, 27)
    assert gf41.rank(basis) == 27
    # columns pairwise non-proportional
    keys = {bf._normalized(c).tobytes() for c in basis.T}
    assert len(keys) == 27
    # degenerate inputs
    with pytest.raises(bf.WrongCountError):
        bf.assemble_basis(charvec, fixvec, [IDENTITY])
    with pytest.raises((bf.WrongCountError, bf.SingularAssemblyError)):
        bf.assemble_basis(fixvec, fixvec, sub)


def test_rebase_identity_is_noop(reduced):
    out = bf.rebase(reduced, IDENTITY)
    assert np.array_equal(out, reduced)


def test_pipeline_on_reference(reduced_exact):
    stack, common = bf.recover([la.residues(m) for m in reduced_exact])
    balanced = [la.from_residues(m) for m in stack]
    assert cyc_reference.is_diagonal(balanced[0]) and cyc_reference.is_diagonal(balanced[1])
    assert balanced[2].is_monomial() and balanced[3].is_monomial()
    assert common == 33
    assert bf.row_value_multiset(la.residues(balanced[4]), 0) == bf.TOP_ROW_MULTISET


def test_scalar_balance_idempotent(reduced):
    balanced, common = bf.recover(reduced)
    again, common2 = bf.scalar_balance(balanced)
    assert np.array_equal(again, balanced)
    assert common2 == common


def test_scalar_balance_rejects_missing_dense(reduced):
    with pytest.raises(bf.PatternViolationError):
        bf.scalar_balance([reduced[0], reduced[1], reduced[2], reduced[3]])


def test_roundtrip_diagonal_multiset(reduced):
    rng = random.Random(11)
    p = bf.random_invertible(rng)
    pinv = gf41.inverse(p)
    scrambled = gf41.matmul(gf41.matmul(pinv, reduced), p)
    balanced, _ = bf.recover(scrambled)
    for k in (0, 1):
        assert sorted(np.diagonal(balanced[k])) == sorted(np.diagonal(reduced[k]))


def test_random_invertible_deterministic():
    a = bf.random_invertible(random.Random(5))
    b = bf.random_invertible(random.Random(5))
    assert np.array_equal(a, b)
    assert gf41.rank(a) == 27


# -- the object-level reference ------------------------------------------------
#
# The pipeline as it ran on Gf41 scalars and list-based ExactMatrix before the
# residue arrays, elimination included, so that the comparisons below do not
# go through the int64 kernel at all.

def reference_mat_mul(a, b):
    zero = gf(0)
    return ExactMatrix(RING_GF41, [
        [sum((aik * b.data[k][j] for k, aik in enumerate(arow)), zero)
         for j in range(b.cols)] for arow in a.data])


def reference_matvec(m, v):
    return tuple(sum((e * x for e, x in zip(row, v)), gf(0)) for row in m.data)


def reference_rref(rows):
    rows = [list(r) for r in rows]
    pivots, r = [], 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if not rows[i][col].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [inv * e for e in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [e - f * p for e, p in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def reference_nullspace(rows):
    rows, pivots = reference_rref(rows)
    basis = []
    for f in (c for c in range(len(rows[0])) if c not in pivots):
        v = [gf(0)] * len(rows[0])
        v[f] = gf(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][f]
        basis.append(tuple(v))
    return basis


def reference_mat_inv(a):
    n = a.rows
    rows, pivots = reference_rref(
        [list(row) + [gf(int(i == j)) for j in range(n)] for i, row in enumerate(a.data)])
    assert pivots[:n] == list(range(n))
    return ExactMatrix(RING_GF41, [row[n:] for row in rows])


def reference_random_invertible(rng, n=27):
    while True:
        m = ExactMatrix(RING_GF41, [[gf(rng.randrange(41)) for _ in range(n)]
                                    for _ in range(n)])
        if len(reference_rref(m.data)[1]) == n:
            return m


def reference_normalized(v):
    first = next((e for e in v if not e.is_zero()), None)
    return None if first is None else tuple(first.inverse() * e for e in v)


def reference_shifted(m, ev):
    return [[e - ev if i == j else e for j, e in enumerate(row)] for i, row in enumerate(m.data)]


def reference_eigenvector(ms, ev):
    basis = reference_nullspace([row for m, e in zip(ms, ev) for row in reference_shifted(m, e)])
    assert len(basis) == 1
    return reference_normalized(basis[0])


def reference_subgroup_elements(gens):
    elements = [ExactMatrix.identity(27, RING_GF41)]
    seen = {elements[0]}
    i = 0
    while i < len(elements):
        for g in gens:
            prod = reference_mat_mul(elements[i], g)
            if prod not in seen:
                seen.add(prod)
                elements.append(prod)
        i += 1
    return elements


def reference_assemble_basis(charvec, fixvec, sub):
    identity = ExactMatrix.identity(27, RING_GF41)
    cycle = next(g for g in sub[1:]
                 if reference_mat_mul(reference_mat_mul(g, g), g) == identity and g != identity)
    cols = [fixvec]
    for _ in range(2):
        cols.append(reference_matvec(cycle, cols[-1]))
    keys = set()
    for g in sub:
        img = reference_matvec(g, charvec)
        if reference_normalized(img) not in keys:
            keys.add(reference_normalized(img))
            cols.append(img)
    assert len(cols) == 27
    return ExactMatrix(RING_GF41, [[col[i] for col in cols] for i in range(27)])


def reference_conj_by_diag(m, dvals):
    inv = [d.inverse() for d in dvals]
    return ExactMatrix(RING_GF41, [[inv[i] * m.data[i][j] * dvals[j] for j in range(27)]
                                   for i in range(27)])


def reference_column_signs(ms, k):
    e = ms[k]
    adj = {j: [] for j in range(3, 27)}
    for i in range(3, 27):
        for j in range(3, 27):
            v = e.data[i][j].value
            assert v in (0, 33, 8, 26, 7, 15, 34)
            parity = 1 if v in (26, 7) else -1 if v in (15, 34) else 0
            if parity:
                adj[i].append((j, parity))
                adj[j].append((i, parity))
    sign = {}
    for start in range(3, 27):
        if start in sign:
            continue
        sign[start] = 1
        frontier = [start]
        while frontier:
            i = frontier.pop()
            for j, parity in adj[i]:
                if j not in sign:
                    sign[j] = sign[i] * parity
                    frontier.append(j)
                assert sign[j] == sign[i] * parity
    flips = [gf(1)] * 3 + [gf(1) if sign[j] == 1 else gf(40) for j in range(3, 27)]
    return [reference_conj_by_diag(m, flips) for m in ms]


def reference_scalar_balance(ms):
    dense = [k for k, m in enumerate(ms)
             if any(not m.data[i][j].is_zero() for i in range(3) for j in range(3, 27))]
    assert len(dense) == 1
    k = dense[0]
    flips = [gf(1)] * 27
    for j in (1, 2):
        if ms[k].data[0][j].value in (16, 8):
            flips[j] = gf(40)
    ms = [reference_conj_by_diag(m, flips) for m in ms]
    e = ms[k]
    top = [e.data[i][j] for i in range(3) for j in range(3, 27) if not e.data[i][j].is_zero()]
    left = [e.data[i][j] for i in range(3, 27) for j in range(3) if not e.data[i][j].is_zero()]
    for entries in (top, left):
        assert all((v * entries[0].inverse()).value in bf.MU4 for v in entries)
    lam = gf(min((gf(33 * u) * top[0].inverse()).value for u in bf.MU4))
    ms = [reference_conj_by_diag(m, [gf(1)] * 3 + [lam] * 24) for m in ms]
    e = ms[k]
    scale = [gf(1)] * 27
    for j in range(3, 27):
        v = next((e.data[i][j] for i in range(3) if not e.data[i][j].is_zero()), None)
        if v is not None:
            power = next(a for a in range(4) if (gf(9) ** a * v).value in bf.REAL_CLASS)
            scale[j] = gf(9) ** power
    ms = reference_column_signs([reference_conj_by_diag(m, scale) for m in ms], k)
    common = next(ms[k].data[i][j] for i in range(3) for j in range(3, 27)
                  if not ms[k].data[i][j].is_zero())
    return ms, common


def reference_pipeline(f1m, f2m, dm, acm, em):
    charvec = reference_eigenvector([f1m, f2m], [gf(37), gf(37)])
    fixvec = reference_eigenvector([f1m, f2m, dm], [gf(1)] * 3)
    sub = reference_subgroup_elements([dm, acm])
    assert len(sub) == 48
    b = reference_assemble_basis(charvec, fixvec, sub)
    binv = reference_mat_inv(b)
    return reference_scalar_balance(
        [reference_mat_mul(reference_mat_mul(binv, g), b) for g in (f1m, f2m, dm, acm, em)])


def test_subgroup_order_matches_reference(reduced, reduced_exact):
    dm, acm = reduced_exact[2], reduced_exact[3]
    elements = bf.subgroup_elements([reduced[2], reduced[3]], cap=100)
    assert [la.from_residues(g) for g in elements] == reference_subgroup_elements([dm, acm])


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 21])
def test_array_pipeline_matches_reference(reduced, reduced_exact, seed):
    p_ref = reference_random_invertible(random.Random(seed))
    p = bf.random_invertible(random.Random(seed))
    assert la.from_residues(p) == p_ref
    pinv_ref = reference_mat_inv(p_ref)
    assert la.from_residues(gf41.inverse(p)) == pinv_ref
    scrambled_ref = [reference_mat_mul(reference_mat_mul(pinv_ref, g), p_ref)
                     for g in reduced_exact]
    scrambled = gf41.matmul(gf41.matmul(gf41.inverse(p), reduced), p)
    assert [la.from_residues(m) for m in scrambled] == scrambled_ref

    balanced_ref, common_ref = reference_pipeline(*scrambled_ref)
    balanced, common = bf.recover(scrambled)
    assert [la.from_residues(m) for m in balanced] == balanced_ref
    assert common == common_ref.value
    # the same on residue arrays read off the reference's Gf41 lists
    balanced, common = bf.recover([la.residues(m) for m in scrambled_ref])
    assert [la.from_residues(m) for m in balanced] == balanced_ref
    assert common == common_ref.value
    assert Counter(e.value for e in balanced_ref[4].data[0] if e) == bf.TOP_ROW_MULTISET


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(1, 7), st.randoms(use_true_random=False))
def test_kernel_rref_matches_reference(rows, cols, rnd):
    data = [[rnd.choice((0, 0, 1, 40, rnd.randrange(41))) for _ in range(cols)]
            for _ in range(rows)]
    red, pivots = gf41.rref(np.array(data))
    ref_rows, ref_pivots = reference_rref([[gf(v) for v in row] for row in data])
    assert pivots == ref_pivots
    assert red.tolist() == [[e.value for e in row] for row in ref_rows]
    assert la.rref(la.ExactMatrix(RING_GF41, ref_rows)) == (ref_rows, ref_pivots)


def test_column_signs_match_reference(reduced):
    balanced, _ = bf.recover(reduced)
    assert bf._fix_column_signs(balanced, 4) is balanced
    for seed in range(4):
        rng = random.Random(seed)
        twisted = bf._conj_by_diag(balanced, [1] * 3 + [rng.choice((1, 40)) for _ in range(24)])
        fixed = bf._fix_column_signs(twisted, 4)
        assert [la.from_residues(m) for m in fixed] == reference_column_signs(
            [la.from_residues(m) for m in twisted], 4)

    out_of_class = balanced.copy()
    out_of_class[4, 5, 6] = 1
    with pytest.raises(bf.PatternViolationError, match=r"grid entry 1 at \(5, 6\)"):
        bf._fix_column_signs(out_of_class, 4)
    i, j = map(int, np.argwhere(balanced[4, 3:, 3:] == 26)[0] + 3)
    conflict = balanced.copy()
    conflict[4, j, i] = 15          # the pair (i, j) now asks for both signs
    with pytest.raises(bf.PatternViolationError, match="inconsistent"):
        bf._fix_column_signs(conflict, 4)
