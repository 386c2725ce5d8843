"""The 45-term cubic form: closure, eigenvalue filter, exact invariance."""

import pytest

from tits27 import cubicform as cf, cyclo, exactlinalg as la, orbits, zkernel
from tits27.cubicform import (CubicForm, NonRealSignError, NotMonomialError,
                              SignConflictError, SignedTriple, act_on_triple,
                              as_monomial, close_terms, eigenvalue_check, triple)


@pytest.fixture(scope="module")
def monomials(gens):
    return as_monomial(gens.d), as_monomial(gens.ac)


def test_as_monomial_extracts_scalars(gens, monomials):
    dm, am = monomials
    scalars = set(dm.scale)
    assert scalars <= {cyclo.ONE, cyclo.MINUS_ONE, cyclo.I, -cyclo.I}
    assert set(am.scale) == {cyclo.ONE}
    assert sorted(dm.perm) == sorted(cf.LABELS)


def test_as_monomial_rejects_dense(gens):
    with pytest.raises(NotMonomialError):
        as_monomial(gens.eprime)


def test_act_on_triple_examples(monomials):
    dm, am = monomials
    t = triple(-3, -2, -1, +1)
    # d scales the corner by (1, -1, -1): product +1, same triple
    assert act_on_triple(dm, t) == t
    # ac cycles the corner without signs
    assert act_on_triple(am, t) == t
    ident = cf.MonomialMap(tuple(cf.LABELS), (cyclo.ONE,) * 27)
    u = triple(1, 9, 17, -1)
    assert act_on_triple(ident, u) == u


def test_act_on_triple_rejects_complex_scalar(gens, monomials):
    dm, _ = monomials
    # a triple hitting exactly one +-i scalar of d has a non-real product
    idx = next(i for i, s in enumerate(dm.scale) if s == cyclo.I)
    lab = cf.LABELS[idx]
    others = [l for l in (1, 2, 3, 4, 5) if l != lab][:2]
    bad = triple(lab, others[0], others[1], +1)
    with pytest.raises(NonRealSignError):
        act_on_triple(dm, bad)


def test_closure_gives_45_terms(dickson):
    assert len(dickson) == 45


def test_per_seed_orbit_sizes(monomials):
    sizes = [len(close_terms([s], monomials)) for s in cf.SEEDS]
    assert sizes == [1, 12, 16, 16]


def test_closure_generator_order_independent(monomials, dickson):
    dm, am = monomials
    other = close_terms(list(reversed(cf.SEEDS)), (am, dm))
    assert other == dickson


def test_flipped_seed_detected_by_invariance(gens, monomials):
    # The four seed orbits are disjoint and every orbit loop has positive
    # character, so closure cannot see a flipped seed sign; the flipped form
    # closes consistently but is no longer invariant under the dense
    # generator.
    bad = list(cf.SEEDS[:3]) + [triple(1, 10, 24, -1)]
    form = close_terms(bad, monomials)
    assert len(form) == 45
    assert not cf.verify_invariance(form, gens.eprime)


def test_sign_conflict_from_negative_loop():
    # a monomial map fixing a triple setwise with scale product -1 forces
    # both signs onto one coordinate set
    scale = [cyclo.ONE] * 27
    scale[cf.LABEL_INDEX[1]] = cyclo.MINUS_ONE
    flipper = cf.MonomialMap(tuple(cf.LABELS), tuple(scale))
    with pytest.raises(SignConflictError):
        close_terms([triple(1, 9, 17, +1)], [flipper])


def test_eigenvalue_check_examples():
    assert eigenvalue_check(triple(1, 9, 17, 1))
    assert eigenvalue_check(triple(-3, -2, -1, 1))
    assert not eigenvalue_check(triple(1, 2, 3, 1))


def test_every_term_passes_eigenvalue_check(dickson):
    assert all(eigenvalue_check(t) for t in dickson)


def test_block_structure(dickson):
    for t in dickson:
        cs = t.sorted_coords
        if all(c > 0 for c in cs):
            assert sorted((c - 1) // 8 for c in cs) == [0, 1, 2]


def test_tensor_counts(dickson):
    tens = cf.to_tensor(dickson)
    assert len(tens) == 270
    assert cf.to_tensor(CubicForm([])) == {}
    single = CubicForm([triple(-3, -2, -1, +1)])
    t1 = cf.to_tensor(single)
    assert len(t1) == 6
    assert all(v == cyclo.ONE for v in t1.values())


def test_invariance_under_all_generators(gens, dickson):
    for m in gens.in_order():
        assert cf.verify_invariance(dickson, m)


def test_flip_breaks_eprime_invariance(gens, dickson):
    ok, flip_safe = cf.invariance_report(dickson, gens.eprime)
    assert ok
    assert flip_safe == []
    flipped = dickson.with_flipped((-3, 1, 4))
    assert not cf.verify_invariance(flipped, gens.eprime)
    # the diagonal generators cannot see signs at all
    assert cf.verify_invariance(flipped, gens.f1)


def test_signed_triple_validation():
    with pytest.raises(ValueError):
        SignedTriple(frozenset({1, 2}), 1)
    with pytest.raises(ValueError):
        triple(1, 2, 3, 0)
    with pytest.raises(SignConflictError):
        CubicForm([triple(1, 2, 3, 1), triple(1, 2, 3, -1)])


def test_form_evaluation(dickson):
    v = cf.identity_vector()
    assert cf.evaluate(dickson, v) == cyclo.ONE


def test_jordan_identity_check(gens, dickson):
    fix = {n: m for n, m in gens.as_dict().items() if n != "d"}
    rep = cf.jordan_identity_check(dickson, fix)
    assert rep.ok
    # d moves the vector: (1,1,1;0) -> (1,-1,-1;0)
    v = cf.identity_vector()
    dv = la.matvec(gens.d, v)
    assert dv != v
    assert dv == (cyclo.ONE, cyclo.MINUS_ONE, cyclo.MINUS_ONE) + (cyclo.ZERO,) * 24
    bad = cf.jordan_identity_check(dickson, {"d": gens.d})
    assert not bad.ok


# -- the term-by-term expansion that the kernel replaced, as a reference ----

def _term_poly(m, idx_triple):
    """Coefficients of prod_k (m x)_{i_k} as a dict on sorted index triples."""
    nz = []
    for i in idx_triple:
        row = m.data[i]
        nz.append([(j, e) for j, e in enumerate(row) if not e.is_zero()])
    out = {}
    zero = cyclo.ZERO
    for a, ca in nz[0]:
        for b, cb in nz[1]:
            cab = ca * cb
            for c, cc in nz[2]:
                key = tuple(sorted((a, b, c)))
                out[key] = out.get(key, zero) + cab * cc
    return {k: v for k, v in out.items() if not v.is_zero()}


def reference_report(c, m):
    """(invariant, flip_safe) by expanding C(m x) in CycNum arithmetic."""
    sign_one = {1: cyclo.ONE, -1: cyclo.MINUS_ONE}
    target = {tuple(sorted(cf.LABEL_INDEX[l] for l in t.coords)): sign_one[t.sign]
              for t in c}
    total = {}
    flip_safe = []
    for t in c:
        key = tuple(sorted(cf.LABEL_INDEX[l] for l in t.coords))
        poly = _term_poly(m, key)
        if poly == {key: cyclo.ONE}:
            flip_safe.append(t)
        for k, v in poly.items():
            acc = total.get(k, cyclo.ZERO) + sign_one[t.sign] * v
            if acc.is_zero():
                total.pop(k, None)
            else:
                total[k] = acc
    return total == target, flip_safe


@pytest.fixture(scope="module")
def matrices(gens):
    zeta3 = la.ExactMatrix(la.RING_CYC, [
        [cyclo.CycNum.zeta(i % 3) if i == j else cyclo.ZERO for j in range(27)]
        for i in range(27)])
    ac_ep = la.mat_mul(gens.ac, gens.eprime)
    return {
        "f1": gens.f1, "f2": gens.f2, "d": gens.d, "ac": gens.ac,
        "eprime": gens.eprime, "ac.eprime": ac_ep,
        "eprime.ac.f1": la.mat_mul(la.mat_mul(gens.eprime, gens.ac), gens.f1),
        "zeta3.eprime": la.mat_mul(zeta3, gens.eprime),
        "identity": la.ExactMatrix.identity(27, la.RING_CYC), "zeta3": zeta3,
    }


DENSE = ("eprime", "ac.eprime", "eprime.ac.f1", "zeta3.eprime")


def _sub_form(form):
    # the expansion costs about 13,000 CycNum operations per term under a
    # dense matrix, so dense cases run on the first three terms, which
    # include the flippable (-3, 1, 4)
    sub = CubicForm(form.terms[:3])
    assert sub.sign_of((-3, 1, 4)) is not None
    return sub


def test_kernel_matches_reference_expansion(matrices, dickson):
    sizes = {}
    for form in (dickson, dickson.with_flipped((-3, 1, 4))):
        for name, m in matrices.items():
            # one full-form dense case pins the orientation m vs m^T on a
            # non-symmetric matrix
            full = name not in DENSE or (name == "ac.eprime" and form is dickson)
            sub = form if full else _sub_form(form)
            got = cf.invariance_report(sub, m)
            assert got == reference_report(sub, m), name
            if form is dickson and full:
                sizes[name] = len(got[1])
    assert sizes == {"f1": 45, "f2": 45, "d": 5, "ac": 1, "ac.eprime": 0,
                     "identity": 45, "zeta3": 3}


def test_dense_matrices_on_the_full_form(matrices, dickson):
    # group elements keep the form; diag(zeta^(i mod 3)) does not
    for name in DENSE:
        ok, flip_safe = cf.invariance_report(dickson, matrices[name])
        assert flip_safe == []
        assert ok == (name != "zeta3.eprime"), name


@pytest.mark.parametrize("exponent", [60, 50])
def test_invariance_refuses_int64_overflow(monkeypatch, exponent):
    # 2^60 fails the bound when the matrix is compiled, before any product
    # is formed; 2^50 passes it and fails before the second slot's product
    big = la.scale_matrix(la.ExactMatrix.identity(27, la.RING_CYC),
                          cyclo.CycNum.from_int(2 ** exponent))
    calls = []
    raw = zkernel.IntegerAction.raw
    monkeypatch.setattr(zkernel.IntegerAction, "raw",
                        lambda self, rows: calls.append(1) or raw(self, rows))
    with pytest.raises(zkernel.KernelOverflowError):
        cf.invariance_report(CubicForm([triple(-3, -2, -1, +1)]), big)
    assert len(calls) == (0 if exponent == 60 else 2)


def test_kernel_errors_are_shared_with_orbits():
    assert orbits.KernelOverflowError is zkernel.KernelOverflowError
    assert orbits.ScaleError is zkernel.ScaleError


def test_invariance_rejects_other_shapes_and_rings(dickson):
    with pytest.raises(ValueError):
        cf.invariance_report(dickson, la.ExactMatrix.identity(26, la.RING_CYC))
    with pytest.raises(ValueError):
        cf.invariance_report(dickson, la.ExactMatrix.identity(27, la.RING_GF41))


def test_orientation_on_a_shear():
    # x_d -> x_d + x_a keeps x_a x_b x_c when d is not in the term; the
    # transposed shear x_a -> x_a + x_d does not.  Group elements cannot
    # tell C(m x) from C(m^T x): for a unitary m and a form with real
    # coefficients both are invariant or neither is.
    a, b, c, d = (cf.LABEL_INDEX[lab] for lab in (1, 9, 17, 2))
    rows = [[cyclo.ONE if i == j else cyclo.ZERO for j in range(27)] for i in range(27)]
    rows[d][a] = cyclo.ONE
    shear = la.ExactMatrix(la.RING_CYC, rows)
    form = CubicForm([triple(1, 9, 17, -1)])
    assert cf.invariance_report(form, shear) == reference_report(form, shear) == (True, list(form))
    sheared = la.transpose(shear)
    assert cf.invariance_report(form, sheared) == reference_report(form, sheared) == (False, [])
