"""The 45-term cubic form: closure, eigenvalue filter, exact invariance."""

import math

import numpy as np
import pytest

import cyc_reference
from tits27 import certificates, cli, cubicform as cf, cyclo, exactlinalg as la, gf41, orbits
from tits27 import zkernel
from tits27.cubicform import (CubicForm, NonRealSignError, NotMonomialError,
                              SignConflictError, close_terms, eigenvalue_check)
from cyc_reference import terms


@pytest.fixture(scope="module")
def monomials(gens):
    return gens.d, gens.ac


def _sigma(m):
    """The column sigma(i) of the entry of each row of m, read from the term map."""
    _, monomial, sigma, _, _ = cf._term_map(m, np.zeros((0, 3), dtype=np.intp))
    assert monomial
    return sigma


def _entries(m):
    """The entry m_i,sigma(i) of each row."""
    return [m.data[i][j] for i, j in enumerate(_sigma(m))]


def _step(m, t):
    """The image of the (labels, sign) pair t under the term map of m."""
    labels, sign = t
    idx = np.array([[cf.LABEL_INDEX[lab] for lab in labels]])
    d3, monomial, sigma, mapped, prods = cf._term_map(m, idx)
    assert monomial and mapped.all() and not prods[0, 1:].any()
    assert abs(prods[0, 0]) == d3
    return tuple(sorted(cf.LABELS[i] for i in sigma[idx[0]])), sign * int(np.sign(prods[0, 0]))


def _sign(form, labels):
    """The sign of the form's term on `labels`, read off its tensor; 0 off the terms."""
    return int(form.tensor[tuple(cf.LABEL_INDEX[lab] for lab in labels)])


def test_term_map_reads_monomial_generators(monomials):
    d, ac = monomials
    assert set(_entries(d)) <= {cyclo.ONE, cyclo.MINUS_ONE, cyclo.I, -cyclo.I}
    assert set(_entries(ac)) == {cyclo.ONE}
    for m in monomials:
        assert sorted(_sigma(m)) == list(range(27))


def test_closure_rejects_dense(gens):
    with pytest.raises(NotMonomialError):
        close_terms(cf.SEEDS, [gens.eprime])


def test_closure_step_examples(monomials, dickson):
    d, ac = monomials
    # d scales the corner by (1, -1, -1): product +1, same triple; ac cycles
    # it without signs
    images = {
        "d": [((-3, -2, -1), +1), ((-3, 1, 4), -1), ((1, 13, 23), +1), ((1, 14, 19), +1)],
        "ac": [((-3, -2, -1), +1), ((-2, 18, 19), -1), ((2, 10, 18), -1), ((4, 15, 18), +1)],
    }
    for name, m in (("d", d), ("ac", ac)):
        got = [_step(m, s) for s in cf.SEEDS]
        assert got == images[name], name
        assert all(_sign(dickson, labels) == sign for labels, sign in got)
    identity = la.ExactMatrix.identity(27, la.RING_CYC)
    u = ((1, 9, 17), -1)
    assert _step(identity, u) == u
    assert close_terms([u], [identity]) == CubicForm([u])


def test_closure_rejects_complex_scalar(monomials):
    d, _ = monomials
    # a triple through exactly one +-i entry of d has a non-real product
    entries = _entries(d)
    lab = next(cf.LABELS[i] for i, e in enumerate(entries) if e == cyclo.I)
    real = [cf.LABELS[i] for i, e in enumerate(entries) if e in (cyclo.ONE, cyclo.MINUS_ONE)]
    bad = ((lab, real[0], real[1]), +1)
    with pytest.raises(NonRealSignError):
        close_terms([bad], [d])
    # 1 + i has coefficient 0 equal to 1, and is still not a sign
    i = cf.LABEL_INDEX[1]
    skew = _with_entry(la.ExactMatrix.identity(27, la.RING_CYC), i, i, cyclo.ONE + cyclo.I)
    with pytest.raises(NonRealSignError):
        close_terms([((1, 9, 17), +1)], [skew])


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
    bad = list(cf.SEEDS[:3]) + [((1, 10, 24), -1)]
    form = close_terms(bad, monomials)
    assert len(form) == 45
    assert not cf.invariance_report(form, gens.eprime)[0]


def test_sign_conflict_from_negative_loop():
    # a diagonal matrix fixing a triple setwise with entry product -1 forces
    # both signs onto one coordinate set
    i = cf.LABEL_INDEX[1]
    flipper = _with_entry(la.ExactMatrix.identity(27, la.RING_CYC), i, i, cyclo.MINUS_ONE)
    with pytest.raises(SignConflictError):
        close_terms([((1, 9, 17), +1)], [flipper])


def test_closure_rejects_column_collision():
    # rows 1 and 2 both read column 2: every row is single, but the matrix is
    # singular and not block-monomial
    a, b = cf.LABEL_INDEX[1], cf.LABEL_INDEX[2]
    images = list(range(27))
    images[a] = b
    with pytest.raises(NotMonomialError):
        close_terms([((1, 9, 17), +1)], [_permutation(images)])


def test_eigenvalue_check_examples():
    # one verdict per term, in form order: (-3,-2,-1), (1,2,3), (1,9,17)
    form = CubicForm([((1, 9, 17), 1), ((-3, -2, -1), 1), ((1, 2, 3), 1)])
    assert eigenvalue_check(form).tolist() == [True, False, True]


def test_every_term_passes_eigenvalue_check(dickson):
    ok = eigenvalue_check(dickson)
    assert ok.shape == (45,) and ok.all()


def test_block_structure(dickson):
    for cs, _ in terms(dickson):
        if all(c > 0 for c in cs):
            assert sorted((c - 1) // 8 for c in cs) == [0, 1, 2]


def test_tensor_counts(dickson):
    tens = dickson.tensor
    assert tens.shape == (27, 27, 27) and tens.dtype == np.int8
    assert not any(a.flags.writeable for a in (tens, dickson.idx, dickson.signs))
    assert np.count_nonzero(tens) == 270
    assert set(np.unique(tens)) == {-1, 0, 1}
    for axes in ((1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)):
        assert np.array_equal(tens.transpose(axes), tens)
    # idx: one increasing row per term, in lexicographic order; signs read off T
    idx = dickson.idx
    assert idx.shape == (45, 3) and (np.diff(idx, axis=1) > 0).all()
    assert sorted(map(tuple, idx)) == list(map(tuple, idx))
    assert (dickson.signs == tens[tuple(idx.T)]).all()
    assert not CubicForm([]).tensor.any() and len(CubicForm([])) == 0
    t1 = CubicForm([((-1, -3, -2), +1)]).tensor
    assert np.count_nonzero(t1) == 6
    assert set(t1[t1 != 0]) == {1}
    assert CubicForm([((-1, -3, -2), +1)]) == CubicForm([((-3, -2, -1), +1)])


def test_invariance_under_all_generators(gens, dickson):
    for m in gens:
        assert cf.invariance_report(dickson, m)[0]


def test_flip_breaks_eprime_invariance(gens, dickson):
    ok, flip_safe = cf.invariance_report(dickson, gens.eprime)
    assert ok
    assert flip_safe == []
    flipped = cyc_reference.with_flipped(dickson, (-3, 1, 4))
    assert not cf.invariance_report(flipped, gens.eprime)[0]
    # the diagonal generators cannot see signs at all
    assert cf.invariance_report(flipped, gens.f1)[0]


def test_constructor_validation():
    with pytest.raises(ValueError):
        CubicForm([((1, 2), 1)])
    with pytest.raises(ValueError):
        CubicForm([((1, 2, 3), 0)])
    with pytest.raises(SignConflictError):
        CubicForm([((1, 2, 3), 1), ((3, 2, 1), -1)])
    for labels in ((1, 1, 2), (1, 2, 3, 4), (1, 2, 25)):
        with pytest.raises(ValueError):
            CubicForm([(labels, 1)])


def test_the_45_term_row_decides_a_short_closure(monkeypatch, capsys, dickson):
    # a closure that misses a term is a failed certificate, exit 1, and not
    # an error raised before the table is printed
    short = CubicForm(terms(dickson)[:44])
    monkeypatch.setattr(cf, "close_terms", lambda seeds, gens: short)
    cf.dickson_form.cache_clear()
    try:
        assert dict(certificates.rows(fast=True))["cubic form has 45 terms"] is False
        capsys.readouterr()
        assert cli.run(["verify", "--fast"]) == 1
    finally:
        cf.dickson_form.cache_clear()
    (line,) = [ln for ln in capsys.readouterr().out.splitlines()
               if ln.startswith("cubic form has 45 terms")]
    assert line.endswith("FAIL")


def test_form_evaluation(dickson):
    # with no matrices the Jordan check is the form value row alone
    assert cf.jordan_identity_check(dickson, {}) == (("form value on fixed vector is +1", True),)
    flipped = cyc_reference.with_flipped(dickson, (-3, -2, -1))
    assert cf.jordan_identity_check(flipped, {}) == (("form value on fixed vector is +1", False),)


def test_jordan_identity_check(gens, dickson):
    fix = {n: m for n, m in gens._asdict().items() if n != "d"}
    rows = cf.jordan_identity_check(dickson, fix)
    assert all(ok for _, ok in rows)
    # d moves the vector: (1,1,1;0) -> (1,-1,-1;0)
    v = (cyclo.ONE,) * 3 + (cyclo.ZERO,) * 24
    dv = la.matvec(gens.d, v)
    assert dv != v
    assert dv == (cyclo.ONE, cyclo.MINUS_ONE, cyclo.MINUS_ONE) + (cyclo.ZERO,) * 24
    bad = cf.jordan_identity_check(dickson, {"d": gens.d})
    assert not all(ok for _, ok in bad)


# -- the term-by-term expansion that the kernel replaced, as a reference ----
#
# Fraction-free on plain int tuples: the entries of D m, D the lcm of the
# denominators of m, as 8 power-basis coefficients, multiplied in Z[zeta20]
# with zeta^8 = zeta^6 - zeta^4 + zeta^2 - 1.  C(m x) = C(x) iff the
# expansion of C(D m x) is D^3 times C.

def _times(a, b):
    """The product of two elements of Z[zeta20] given as coefficient 8-tuples."""
    c = [0] * 15
    for p, ap in enumerate(a):
        if ap:
            for q, bq in enumerate(b):
                c[p + q] += ap * bq
    for k in range(14, 7, -1):  # zeta^k = zeta^(k-2) - zeta^(k-4) + zeta^(k-6) - zeta^(k-8)
        v = c[k]
        if v:
            c[k - 2] += v
            c[k - 4] -= v
            c[k - 6] += v
            c[k - 8] -= v
    return tuple(c[:8])


def _scaled_rows(m):
    """D, and the nonzero entries of each row of D m as (column, 8-tuple) pairs."""
    den = math.lcm(*(e.den for row in m.data for e in row))
    return den, [[(j, tuple(n * (den // e.den) for n in e.num))
                  for j, e in enumerate(row) if not e.is_zero()] for row in m.data]


def _term_poly(rows, idx_triple):
    """Coefficients of prod_k (D m x)_{i_k} as a dict on sorted index triples."""
    r0, r1, r2 = (rows[i] for i in idx_triple)
    out = {}
    for a, ca in r0:
        for b, cb in r1:
            cab = _times(ca, cb)
            for c, cc in r2:
                acc = out.setdefault(tuple(sorted((a, b, c))), [0] * 8)
                for n, v in enumerate(_times(cab, cc)):
                    acc[n] += v
    return {k: tuple(v) for k, v in out.items() if any(v)}


def reference_report(c, m, polys=None):
    """(invariant, flip_safe) by expanding C(D m x) in integer arithmetic.

    `polys`, when given, is a dict of the term polynomials of m already
    expanded, keyed by sorted index triple; new ones are added to it.
    """
    den, rows = _scaled_rows(m)
    d3 = (den ** 3,) + (0,) * 7
    target = {tuple(sorted(cf.LABEL_INDEX[l] for l in labels)): tuple(sign * v for v in d3)
              for labels, sign in terms(c)}
    polys = {} if polys is None else polys
    total = {}
    flip_safe = []
    for labels, sign in terms(c):
        key = tuple(sorted(cf.LABEL_INDEX[l] for l in labels))
        if key not in polys:
            polys[key] = _term_poly(rows, key)
        poly = polys[key]
        if poly == {key: d3}:
            flip_safe.append((labels, sign))
        for k, v in poly.items():
            acc = tuple(a + sign * b for a, b in zip(total.get(k, (0,) * 8), v))
            if any(acc):
                total[k] = acc
            else:
                total.pop(k, None)
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
    # the expansion costs about 7,000 products of 8-tuples per term under a
    # dense matrix, so dense cases run on the first three terms, which
    # include the flippable (-3, 1, 4)
    sub = CubicForm(terms(form)[:3])
    assert _sign(sub, (-3, 1, 4)) != 0
    return sub


def test_kernel_matches_reference_expansion(matrices, dickson):
    sizes = {}
    # the flipped form has the same terms, so each term polynomial is
    # expanded once per matrix and shared by both forms
    polys = {name: {} for name in matrices}
    for form in (dickson, cyc_reference.with_flipped(dickson, (-3, 1, 4))):
        for name, m in matrices.items():
            # one full-form dense case pins the orientation m vs m^T on a
            # non-symmetric matrix
            full = name not in DENSE or (name == "ac.eprime" and form is dickson)
            sub = form if full else _sub_form(form)
            got = cf.invariance_report(sub, m)
            assert got == reference_report(sub, m, polys[name]), name
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


MONOMIAL = ("f1", "f2", "d", "ac", "identity", "zeta3")


def _count_raw(monkeypatch):
    """The shapes of the rows passed to IntegerAction.raw from now on."""
    calls = []
    raw = zkernel.IntegerAction.raw
    monkeypatch.setattr(zkernel.IntegerAction, "raw",
                        lambda self, rows: calls.append(rows.shape) or raw(self, rows))
    return calls


def test_term_map_agrees_with_the_dense_path(monkeypatch, matrices, dickson):
    flipped = cyc_reference.with_flipped(dickson, (-3, 1, 4))
    calls = _count_raw(monkeypatch)
    for name in MONOMIAL:
        m = matrices[name]
        for form in (dickson, flipped):
            got = cf.invariance_report(form, m)
            assert calls == [], name  # decided by the term map
            assert got[0] == cf._dense_invariant(form, m), name
            assert got == reference_report(form, m), name
            calls.clear()
    # the dense matrices take the dense path: one first-slot product on all
    # 729 rows of T as floats, then one slot-i and one slot-j product per
    # SLABS slabs of the result
    cf.invariance_report(dickson, matrices["eprime"])
    assert calls == [(729, 27)] + [(27 * cf.SLABS, zkernel.DIM)] * (2 * 27 // cf.SLABS)


def _with_entry(m, i, j, value):
    rows = [list(row) for row in m.data]
    rows[i][j] = value
    return la.ExactMatrix(la.RING_CYC, rows)


def _permutation(images):
    """The matrix with (m x)_i = x_images[i]."""
    return la.ExactMatrix(la.RING_CYC, [
        [cyclo.ONE if j == images[i] else cyclo.ZERO for j in range(27)]
        for i in range(27)])


def test_term_map_negative_cases(gens, dickson):
    # f1 with the entry of label 1 multiplied by zeta: every term through
    # label 1 picks up a factor zeta
    i = cf.LABEL_INDEX[1]
    twisted = _with_entry(gens.f1, i, i, gens.f1.data[i][i] * cyclo.CycNum.zeta(1))
    got = cf.invariance_report(dickson, twisted)
    assert got == reference_report(dickson, twisted)
    assert not got[0] and len(got[1]) == 45 - sum(1 in labels for labels, _ in terms(dickson))

    # swapping labels 1 and 2 moves (1, 9, 17) onto (2, 9, 17), not a term
    a, b = cf.LABEL_INDEX[1], cf.LABEL_INDEX[2]
    images = list(range(27))
    images[a], images[b] = b, a
    swap = _permutation(images)
    assert _sign(dickson, (2, 9, 17)) == 0
    got = cf.invariance_report(dickson, swap)
    assert got == reference_report(dickson, swap)
    assert not got[0]

    # rows a and b both read column b: a singular matrix whose rows are
    # single but not block-monomial.  With c, e the labels 9, 17 it sends
    # x_b x_c x_e and x_a x_c x_e both onto x_b x_c x_e, so C(m x) =
    # 2 x_b x_c x_e, although each image is a term with the right sign
    images[a], images[b] = b, b
    collide = _permutation(images)
    form = CubicForm([((2, 9, 17), +1), ((1, 9, 17), +1)])
    got = cf.invariance_report(form, collide)
    assert got == reference_report(form, collide) == (False, [((2, 9, 17), +1)])


def test_cubic_checks_make_no_scalar_products(gens, dickson, monkeypatch):
    # compiled inside the count
    fresh = {n: la.ExactMatrix(la.RING_CYC, m.data) for n, m in gens._asdict().items()}
    calls = []
    mul = cyclo.CycNum.__mul__
    monkeypatch.setattr(cyclo.CycNum, "__mul__", lambda a, b: calls.append(None) or mul(a, b))
    cf.dickson_form.cache_clear()
    assert cf.dickson_form() == dickson
    assert close_terms(cf.SEEDS, (fresh["d"], fresh["ac"])) == dickson
    assert all(cf.invariance_report(dickson, m)[0] for m in fresh.values())
    rows = cf.jordan_identity_check(dickson, {n: m for n, m in fresh.items() if n != "d"})
    assert len(rows) == 5 and all(ok for _, ok in rows)
    assert calls == []
    # with the generators built, the fast certificates make none either,
    # the mod-41 lift table included
    assert all(ok for _, ok in certificates.rows(fast=True))
    gf41.lift_table()
    assert calls == []


def _raw_calls_before_overflow(monkeypatch, m, match=None):
    """The kernel calls invariance_report makes before KernelOverflowError."""
    calls = _count_raw(monkeypatch)
    with pytest.raises(zkernel.KernelOverflowError, match=match):
        cf.invariance_report(CubicForm([((-3, -2, -1), +1)]), m)
    return calls


# the first slot is applied to the 729 rows of T, then the second slot's first
# product is refused
_FIRST_SLOT_THEN_REFUSED = [(729, 27), (27 * cf.SLABS, zkernel.DIM)]


@pytest.mark.parametrize("exponent", [60, 43, 42, 21])
def test_invariance_refuses_int64_overflow(monkeypatch, exponent):
    # each fails the bound when the matrix is compiled (8 * 2^21 = 2^24, the
    # smallest such power), so no dense product is formed; the term map's own
    # int64 refusal, for a matrix that compiles (2^20), is
    # test_term_map_guard_boundary's
    big = cyc_reference.scale_matrix(la.ExactMatrix.identity(27, la.RING_CYC),
                                     cyclo.CycNum.from_int(2 ** exponent))
    assert _raw_calls_before_overflow(monkeypatch, big, match=r"reaches 2\^24") == []


def test_term_map_guard_boundary(monkeypatch):
    """2^19 times the identity is the largest such matrix decided, 2^20 the
    smallest refused.

    D = 1 and each block is 2^k I_8.  The first block product multiplies
    row 0 of one block, 2^k e_0, by another: 8 * 2^k * 2^k < 2^63 for
    k <= 29.  The second multiplies the result, 2^2k e_0, by the third
    block: 8 * 2^2k * 2^k < 2^63 iff 3k + 3 < 63, so k <= 19 passes and
    k = 20 reaches 2^63 exactly.  For k = 19 the block product is 2^57 e_0,
    not D^3 e_0, so the form is not invariant and no term is flip-safe.
    """
    form = CubicForm([((-3, -2, -1), +1)])
    identity = la.ExactMatrix.identity(27, la.RING_CYC)
    decided = cyc_reference.scale_matrix(identity, cyclo.CycNum.from_int(2 ** 19))
    assert cf.invariance_report(form, decided) == (False, [])
    refused = cyc_reference.scale_matrix(identity, cyclo.CycNum.from_int(2 ** 20))
    assert _raw_calls_before_overflow(monkeypatch, refused) == []


@pytest.mark.parametrize("exponent", [52, 42, 41, 30, 20, 19, 18, 16, 15])
def test_invariance_refuses_int64_overflow_of_zeta_power_products(monkeypatch, gens,
                                                                  exponent):
    # unlike the identity, eprime has a denominator and every power of zeta
    # up to 6.  5 * eprime has coefficients up to 2, so 2^k eprime fails the
    # bound when compiled for k >= 20 (8 * 2 * 2^20 >= 2^24), before any
    # product; 2^19 eprime passes it, and the first slot's product, on rows
    # of 27 columns, 27 * 2 * 2^19 >= 2^24, is refused; 2^18, 2^16 and 2^15
    # eprime pass that too (27 * 2 * 2^18 < 2^24), in float32, and fail
    # before the second slot's first product
    big = cyc_reference.scale_matrix(gens.eprime, cyclo.CycNum.from_int(2 ** exponent))
    expected = ([] if exponent >= 20 else _FIRST_SLOT_THEN_REFUSED[:1] if exponent >= 19
                else _FIRST_SLOT_THEN_REFUSED)
    assert _raw_calls_before_overflow(monkeypatch, big, match=r"2\^24") == expected


#: A weight on the 27 coordinates whose sum over every term of the form is 0,
#: so diag(t^w) keeps C for every nonzero t (a direction of the torus of E6).
_TORUS_WEIGHT = np.array((2, 0, -2) + (-1,) * 8 + (1,) * 8 + (0,) * 8)


def _torus_eprime(gens, t):
    """diag(t^w) eprime, which keeps C: 5 t^2 times it has the coefficients
    of 5 eprime times t^(w_i + 2) in row i, so its entries grow with t."""
    scale = np.array([t ** int(w + 2) for w in _TORUS_WEIGHT], dtype=object)
    return la.ExactMatrix.from_coeffs(gens.eprime.coeffs.astype(object) * scale[:, None, None],
                                      5 * t ** 2)


def _int64_invariant(c, m):
    """The dense verdict in int64 arithmetic, one product per slot on the
    whole tensor, each refused unless its sums stay below 2^63."""
    b = zkernel.IntegerAction.of(m).transposed().dense.astype(np.int64)
    t = rows = c.tensor.astype(np.int64)  # the slot to transform comes last
    for _ in range(3):
        dense = b if rows.ndim == 4 else b[0::8]
        zkernel.check_range(dense.shape[0], zkernel.max_abs(dense), zkernel.max_abs(rows))
        rows = (rows.reshape(729, -1) @ dense).reshape(27, 27, 27, 8).transpose(2, 0, 1, 3)
    d3 = zkernel.IntegerAction.of(m).den ** 3
    return np.array_equal(rows[..., 0], d3 * t) and not rows[..., 1:].any()


def test_torus_weight_keeps_every_term(dickson):
    assert not _TORUS_WEIGHT[dickson.idx].sum(axis=1).any()


@pytest.mark.parametrize("t, dtypes", [
    (2, "fff"), (3, "ffd"),   # the slot-j product crosses 2^24
    (4, "fdd"), (14, "fdd"),  # the slot-i product crosses it
    (23, "fdd"), (24, "ddd")])  # the first slot, on rows of 27 columns, crosses it
def test_dense_path_at_the_float32_edge(monkeypatch, gens, dickson, t, dtypes):
    # diag(t^w) eprime keeps the form for every t, so a rounded product would
    # break the equality with D^3 T.  Each letter says on which side of the
    # 2^24 edge one of the first three products falls: f inside it, where
    # the product is formed in float32 and equals the int64 one, d past it,
    # where float32 could round and the kernel refuses the product before it
    # is formed, so nothing after it runs.  Each pair of cases puts one
    # product one step of t under that edge and one past it
    m = _torus_eprime(gens, t)
    flipped = cyc_reference.with_flipped(dickson, (-3, 1, 4))
    formed = []
    raw = zkernel.IntegerAction.raw

    def checked(self, rows):
        out = raw(self, rows)
        if len(formed) < 3:
            dense = self.dense if rows.shape[1] == zkernel.DIM else self.dense[0::8]
            assert out.dtype == np.float32
            assert (out == rows.astype(np.int64) @ dense.astype(np.int64)).all()
        formed.append(out)
        return out

    monkeypatch.setattr(zkernel.IntegerAction, "raw", checked)
    edge = dtypes.find("d")
    if edge < 0:
        assert cf._dense_invariant(dickson, m) is _int64_invariant(dickson, m) is True
        assert cf._dense_invariant(flipped, m) is _int64_invariant(flipped, m) is False
        return
    with pytest.raises(zkernel.KernelOverflowError, match=r"2\^24"):
        cf._dense_invariant(dickson, m)
    assert len(formed) == edge
    assert _int64_invariant(dickson, m) is True


def test_dense_path_refuses_past_2_53(monkeypatch, gens, dickson):
    # 18 is the least t whose transform of the full form passes 2^53, and
    # 24 the least whose first slot passes 2^24 (above): at 18 the first
    # slot's product is formed in float32, and the first slot-i product is
    # refused before it is formed.  5 t^2 diag(t^w) eprime
    # has coefficients up to 2 t^4, so compiling admits t = 31 and refuses
    # t = 32, where 8 * 2 * 32^4 = 2^24
    m = _torus_eprime(gens, 18)
    calls = _count_raw(monkeypatch)
    with pytest.raises(zkernel.KernelOverflowError, match=r"2\^24"):
        cf.invariance_report(dickson, m)
    assert calls == _FIRST_SLOT_THEN_REFUSED
    assert zkernel.IntegerAction.of(_torus_eprime(gens, 31)).max_b == 2 * 31 ** 4
    with pytest.raises(zkernel.KernelOverflowError, match=r"2\^24"):
        zkernel.IntegerAction.of(_torus_eprime(gens, 32))


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
    form = CubicForm([((1, 9, 17), -1)])
    expected = (True, terms(form))
    assert cf.invariance_report(form, shear) == reference_report(form, shear) == expected
    sheared = la.transpose(shear)
    assert cf.invariance_report(form, sheared) == reference_report(form, sheared) == (False, [])
