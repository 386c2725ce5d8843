"""The GF(41) basis-recovery pipeline."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cyc_reference
from tits27 import basisfinder as bf, exactlinalg as la, generators, gf41
from tits27.exactlinalg import RING_GF41
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
    basis, inverse = bf.assemble_basis(charvec, fixvec, sub)
    assert basis.shape == (27, 27)
    assert gf41.rank(basis) == 27
    assert np.array_equal(gf41.matmul(basis, inverse), IDENTITY)
    # columns pairwise non-proportional
    keys = {bf._normalized(c).tobytes() for c in basis.T}
    assert len(keys) == 27
    # degenerate inputs
    with pytest.raises(bf.WrongCountError):
        bf.assemble_basis(charvec, fixvec, [IDENTITY])
    with pytest.raises((bf.WrongCountError, bf.SingularAssemblyError)):
        bf.assemble_basis(fixvec, fixvec, sub)


def test_rebase_identity_is_noop(reduced):
    out = bf.rebase(reduced, IDENTITY, IDENTITY)
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
    p, pinv = bf.random_invertible(rng)
    assert np.array_equal(pinv, gf41.inverse(p))
    scrambled = gf41.matmul(gf41.matmul(pinv, reduced), p)
    balanced, _ = bf.recover(scrambled)
    for k in (0, 1):
        assert sorted(np.diagonal(balanced[k])) == sorted(np.diagonal(reduced[k]))


def test_random_invertible_deterministic():
    a, a_inv = bf.random_invertible(random.Random(5))
    b, b_inv = bf.random_invertible(random.Random(5))
    assert np.array_equal(a, b) and np.array_equal(a_inv, b_inv)
    assert gf41.rank(a) == 27
    assert np.array_equal(gf41.matmul(a, a_inv), IDENTITY)


def test_singular_draws_and_assemblies_keep_their_exceptions(reduced, monkeypatch):
    # a 2x2 draw is singular one time in 41 or so: some of these seeds make
    # random_invertible draw again, and it must draw what the reference draws
    redraws = 0
    for seed in range(60):
        m, m_inv = bf.random_invertible(random.Random(seed), n=2)
        assert as_rows(m) == reference_random_invertible(random.Random(seed), n=2)
        assert as_rows(m_inv) == reference_mat_inv(as_rows(m))
        rng = random.Random(seed)
        (a, b), (c, d) = [[rng.randrange(41) for _ in range(2)] for _ in range(2)]
        redraws += (a * d - b * c) % 41 == 0
    assert redraws
    # a singular assembled basis is still a SingularAssemblyError
    f1m, f2m, dm, acm = reduced[0], reduced[1], reduced[2], reduced[3]
    charvec = bf.find_char_vector(f1m, f2m, 37, 37)
    fixvec = bf.find_fixed_vector(f1m, f2m, dm)
    sub = bf.subgroup_elements([dm, acm], cap=100)

    def singular(m):
        raise gf41.SingularMatrixError("matrix is singular")

    monkeypatch.setattr(gf41, "inverse", singular)
    with pytest.raises(bf.SingularAssemblyError):
        bf.assemble_basis(charvec, fixvec, sub)


# -- the plain-integer reference -----------------------------------------------
#
# The pipeline on tuples of Python ints mod 41, elimination included, with no
# numpy, so that the comparisons below do not go through the float32 kernel
# at all.  A matrix is a tuple of row tuples.

P = 41


def plain(m):
    """A gf41 ExactMatrix as rows of ints, read off its Gf41 entries."""
    return tuple(tuple(e.value for e in row) for row in m.data)


def as_rows(a):
    """A residue array as rows of ints."""
    return tuple(map(tuple, np.asarray(a).tolist()))


def reference_mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % P for col in cols) for row in a)


def reference_matvec(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) % P for row in m)


def reference_rref(rows):
    rows = [[x % P for x in r] for r in rows]
    pivots, r = [], 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], -1, P)
        rows[r] = [inv * e % P for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(e - f * p) % P for e, p in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def reference_nullspace(rows):
    rows, pivots = reference_rref(rows)
    basis = []
    for f in (c for c in range(len(rows[0])) if c not in pivots):
        v = [0] * len(rows[0])
        v[f] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][f] % P
        basis.append(tuple(v))
    return basis


def reference_mat_inv(a):
    n = len(a)
    rows, pivots = reference_rref(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)])
    assert pivots[:n] == list(range(n))
    return tuple(tuple(row[n:]) for row in rows)


def reference_random_invertible(rng, n=27):
    while True:
        m = tuple(tuple(rng.randrange(41) for _ in range(n)) for _ in range(n))
        if len(reference_rref(m)[1]) == n:
            return m


def reference_identity(n=27):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def reference_normalized(v):
    first = next((e for e in v if e), None)
    return None if first is None else tuple(pow(first, -1, P) * e % P for e in v)


def reference_shifted(m, ev):
    return [[(e - ev) % P if i == j else e for j, e in enumerate(row)] for i, row in enumerate(m)]


def reference_eigenvector(ms, ev):
    basis = reference_nullspace([row for m, e in zip(ms, ev) for row in reference_shifted(m, e)])
    assert len(basis) == 1
    return reference_normalized(basis[0])


def reference_subgroup_elements(gens):
    elements = [reference_identity()]
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
    identity = reference_identity()
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
    return tuple(tuple(col[i] for col in cols) for i in range(27))


def reference_conj_by_diag(m, dvals):
    inv = [pow(d, -1, P) for d in dvals]
    return tuple(tuple(inv[i] * m[i][j] * dvals[j] % P for j in range(27)) for i in range(27))


def reference_column_signs(ms, k):
    e = ms[k]
    adj = {j: [] for j in range(3, 27)}
    for i in range(3, 27):
        for j in range(3, 27):
            v = e[i][j]
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
    flips = [1] * 3 + [1 if sign[j] == 1 else 40 for j in range(3, 27)]
    return [reference_conj_by_diag(m, flips) for m in ms]


def reference_scalar_balance(ms):
    dense = [k for k, m in enumerate(ms) if any(m[i][j] for i in range(3) for j in range(3, 27))]
    assert len(dense) == 1
    k = dense[0]
    flips = [1] * 27
    for j in (1, 2):
        if ms[k][0][j] in (16, 8):
            flips[j] = 40
    ms = [reference_conj_by_diag(m, flips) for m in ms]
    e = ms[k]
    top = [e[i][j] for i in range(3) for j in range(3, 27) if e[i][j]]
    left = [e[i][j] for i in range(3, 27) for j in range(3) if e[i][j]]
    for entries in (top, left):
        assert all(v * pow(entries[0], -1, P) % P in bf.MU4 for v in entries)
    lam = min(33 * u * pow(top[0], -1, P) % P for u in bf.MU4)
    ms = [reference_conj_by_diag(m, [1] * 3 + [lam] * 24) for m in ms]
    e = ms[k]
    scale = [1] * 27
    for j in range(3, 27):
        v = next((e[i][j] for i in range(3) if e[i][j]), None)
        if v is not None:
            power = next(a for a in range(4) if pow(9, a, P) * v % P in bf.REAL_CLASS)
            scale[j] = pow(9, power, P)
    ms = reference_column_signs([reference_conj_by_diag(m, scale) for m in ms], k)
    common = next(ms[k][i][j] for i in range(3) for j in range(3, 27) if ms[k][i][j])
    return ms, common


def reference_pipeline(f1m, f2m, dm, acm, em):
    charvec = reference_eigenvector([f1m, f2m], [37, 37])
    fixvec = reference_eigenvector([f1m, f2m, dm], [1] * 3)
    sub = reference_subgroup_elements([dm, acm])
    assert len(sub) == 48
    b = reference_assemble_basis(charvec, fixvec, sub)
    binv = reference_mat_inv(b)
    return reference_scalar_balance(
        [reference_mat_mul(reference_mat_mul(binv, g), b) for g in (f1m, f2m, dm, acm, em)])


def test_subgroup_order_matches_reference(reduced, reduced_exact):
    dm, acm = reduced_exact[2], reduced_exact[3]
    elements = bf.subgroup_elements([reduced[2], reduced[3]], cap=100)
    assert [as_rows(g) for g in elements] == reference_subgroup_elements([plain(dm), plain(acm)])


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 21])
def test_array_pipeline_matches_reference(reduced, reduced_exact, seed):
    p_ref = reference_random_invertible(random.Random(seed))
    p, p_inv = bf.random_invertible(random.Random(seed))
    assert as_rows(p) == p_ref
    pinv_ref = reference_mat_inv(p_ref)
    assert as_rows(gf41.inverse(p)) == pinv_ref
    assert as_rows(p_inv) == pinv_ref
    scrambled_ref = [reference_mat_mul(reference_mat_mul(pinv_ref, plain(g)), p_ref)
                     for g in reduced_exact]
    scrambled = gf41.matmul(gf41.matmul(gf41.inverse(p), reduced), p)
    assert [as_rows(m) for m in scrambled] == scrambled_ref

    balanced_ref, common_ref = reference_pipeline(*scrambled_ref)
    balanced, common = bf.recover(scrambled)
    assert [as_rows(m) for m in balanced] == balanced_ref
    assert common == common_ref
    # the same on the residues of gf41 ExactMatrix copies of the reference's rows
    balanced, common = bf.recover(
        [la.residues(la.ExactMatrix(RING_GF41, [[gf(v) for v in row] for row in m]))
         for m in scrambled_ref])
    assert [as_rows(m) for m in balanced] == balanced_ref
    assert common == common_ref
    assert Counter(e for e in balanced_ref[4][0] if e) == bf.TOP_ROW_MULTISET


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(1, 7), st.randoms(use_true_random=False))
def test_kernel_rref_matches_reference(rows, cols, rnd):
    data = [[rnd.choice((0, 0, 1, 40, rnd.randrange(41))) for _ in range(cols)]
            for _ in range(rows)]
    red, pivots = gf41.rref(np.array(data))
    ref_rows, ref_pivots = reference_rref(data)
    assert pivots == ref_pivots
    assert red.tolist() == ref_rows
    ref_gf = [[gf(v) for v in row] for row in ref_rows]
    assert la.rref(la.ExactMatrix(RING_GF41, ref_gf)) == (ref_gf, ref_pivots)


def test_column_signs_match_reference(reduced):
    balanced, _ = bf.recover(reduced)
    assert bf._fix_column_signs(balanced, 4) is balanced
    for seed in range(4):
        rng = random.Random(seed)
        twisted = bf._conj_by_diag(balanced, [1] * 3 + [rng.choice((1, 40)) for _ in range(24)])
        fixed = bf._fix_column_signs(twisted, 4)
        assert [as_rows(m) for m in fixed] == reference_column_signs(
            [as_rows(m) for m in twisted], 4)

    out_of_class = balanced.copy()
    out_of_class[4, 5, 6] = 1
    with pytest.raises(bf.PatternViolationError, match=r"grid entry 1 at \(5, 6\)"):
        bf._fix_column_signs(out_of_class, 4)
    i, j = map(int, np.argwhere(balanced[4, 3:, 3:] == 26)[0] + 3)
    conflict = balanced.copy()
    conflict[4, j, i] = 15          # the pair (i, j) now asks for both signs
    with pytest.raises(bf.PatternViolationError, match="inconsistent"):
        bf._fix_column_signs(conflict, 4)
