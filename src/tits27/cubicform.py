"""The 45-term invariant cubic form on the 27 coordinates.

A term is an unordered triple of distinct coordinate labels with a sign; the
form is C(x) = sum sign * x_u x_v x_w.  The monomial generators d and ac
permute the coordinates with unit scalars, so they map signed triples to
signed triples, and the full form is the closure of four seed triples under
their term maps (below):

    + (-3,-2,-1)    - (-3,1,4)    - (1,9,17)    + (1,10,24)

A consistent closure is invariant: every term t goes to a term sigma(t) of
the closure with the sign C(m x) gives it, and sigma is injective on the
finite set of terms.  The closure pulls terms back (t -> sigma(t) under
x -> m x) where one could push them forward under the columns of m; both
give the same form.  <d, ac> is finite, so the orbit of a seed under the
maps of g equals its orbit under those of g^-1, and on that orbit an
invariant sign assignment is fixed by the seed's sign: the closure is the
unique invariant one.

Every term must satisfy the diagonal eigenvalue condition: the z-exponents
of f1 (and of f2) on its three coordinates sum to 0 mod 5, otherwise the
diagonal subgroup could not fix the monomial.

Invariance under a matrix m is checked exactly on the integer kernel of
`zkernel`, read from the compiled action of m: the 216 x 216 matrix B of
D m, D the lcm of the denominators of m, whose 8 x 8 block (j, i) is the
matrix of multiplication by D m_ij.  A block is zero iff its entry is.

The term map.  When row i of m has a single nonzero entry, in column
sigma(i), (m x)_i = m_i,sigma(i) x_sigma(i), so a term t = {a, b, c} whose
three rows are single goes to the monomial x_sigma(a) x_sigma(b) x_sigma(c)
times the product of the three entries.  Multiplication in Q(zeta20) is
commutative and row 0 of a block holds D times its entry, so row 0 of the
product of the three blocks holds the coefficients of D^3 times that
product.  m is block-monomial when every row and every column of B has
exactly one nonzero block: then sigma is a permutation, the images sigma(t)
of distinct terms are distinct squarefree monomials, and

    C(m x) = sum_t sign_t (m_a,sigma(a) m_b,sigma(b) m_c,sigma(c)) x^sigma(t)

has exactly one term per term of C.  So C(m x) = C(x) iff every sigma(t) is
a term u of C and the block product is sign_t sign_u D^3 e_0: sigma is then
injective from the 45 terms into the 45 terms, so onto them.  The column
condition is needed: a singular m whose rows are single but share a column
can send two terms onto one monomial, whose coefficient is their sum.  The
block entries are integers below 2^53 (see `zkernel`), and each of the two
int64 products of 8-term sums is refused by `check_range` unless 8 times
the largest entries of its two factors stays below 2^63: for 2^k times the
identity that admits k <= 19 (8 * 2^k * 2^2k < 2^63) and refuses k >= 20.

The dense path.  Other matrices are checked on the whole tensor.  With T
the symmetric coefficient tensor, C(x) = T(x, x, x)/6, so C(m x) =
T'(x, x, x)/6 with

    T'_abc = sum_ijk T_ijk m_ia m_jb m_kc,

and T' is symmetric again; C(m x) = C(x) iff T' = T.  T is a 27 x 27 x 27
array of +-1 and 0, all in coefficient slot 0 of the power basis.  The
kernel action of D m^T, read off B by transposing its blocks, is applied to
one slot at a time, with that slot moved next to the coefficient axis.  The
first step applies it once to all 729 rows of T, the 27 entries T_ijk of
each pair (i, j), passed as the int8 rows they are.  The other two run on
SLABS = 3 slabs of the first step's result at a time, a
(81 x 216) by (216 x 216) product each, 18 products in all, so that only
the first step's result is large.  The kernel forms each product in
float32 when its sums stay below 2^24, in float64 when they stay below
2^53, and refuses it with KernelOverflowError otherwise; every entry is an
exact integer either way.  The three steps give D^3 T' exactly, so m
preserves C iff the result is D^3 T: 125 T for eprime, whose denominators
are 5, all of it in float32.

A term t = {i, j, k} is flip-safe under m when (m x)_i (m x)_j (m x)_k =
x_i x_j x_k.  The polynomial ring Q(zeta20)[x] is a unique factorization
domain, x_i, x_j, x_k are pairwise non-associate primes, and each (m x)_r
is zero or of degree 1.  So the identity holds iff each of the three
linear forms is a scalar multiple of a different one of x_i, x_j, x_k and
the scalars multiply to 1: iff the three rows of t are single, sigma(t) =
t, and the block product is D^3 e_0.  This is read from the term map for
every matrix, block-monomial or not; no expansion is needed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import zkernel
from .exactlinalg import ExactMatrix
from . import generators
from .generators import LABELS, LABEL_INDEX, F1_EXP, F2_EXP


class NotMonomialError(ValueError):
    pass


class NonRealSignError(ValueError):
    pass


class SignConflictError(ValueError):
    pass


@dataclass(frozen=True)
class SignedTriple:
    """An unordered triple of distinct labels with a sign +-1."""

    coords: frozenset
    sign: int

    def __post_init__(self):
        if len(self.coords) != 3:
            raise ValueError("need 3 distinct coordinate labels")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +-1")
        if not self.coords <= set(LABELS):
            raise ValueError(f"unknown labels in {set(self.coords)}")

    @property
    def sorted_coords(self):
        return tuple(sorted(self.coords))


def triple(a, b, c, sign):
    return SignedTriple(frozenset((a, b, c)), sign)


#: The four seed triples with their signs.
SEEDS = (
    triple(-3, -2, -1, +1),
    triple(-3, 1, 4, -1),
    triple(1, 9, 17, -1),
    triple(1, 10, 24, +1),
)


class CubicForm:
    """An immutable set of signed triples, at most one sign per triple."""

    def __init__(self, terms):
        terms = sorted(terms, key=lambda t: t.sorted_coords)
        signs = {}
        for t in terms:
            if signs.setdefault(t.coords, t.sign) != t.sign:
                raise SignConflictError(f"conflicting signs on {t.sorted_coords}")
        self.terms = tuple(terms)
        self._signs = signs

    def sign_of(self, coords):
        return self._signs.get(frozenset(coords))

    def with_flipped(self, coords):
        coords = frozenset(coords)
        return CubicForm(
            SignedTriple(t.coords, -t.sign if t.coords == coords else t.sign)
            for t in self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        if not isinstance(other, CubicForm):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        return f"<CubicForm {len(self.terms)} terms>"


def _term_arrays(c):
    """The label indices of the signed triples of c, one increasing row each,
    and their signs."""
    idx = [[LABEL_INDEX[lab] for lab in t.sorted_coords] for t in c]
    return (np.array(idx, dtype=np.intp).reshape(-1, 3),
            np.array([t.sign for t in c], dtype=np.int64))


def _term_map(m: ExactMatrix, idx):
    """The term map of m, read from its compiled blocks (module docstring).

    For the terms whose label indices are the rows of `idx`, returns
    (d3, monomial, sigma, mapped, prods): D^3; whether m is block-monomial;
    sigma[i], the column of the first nonzero entry of row i (0 if none);
    the mask of the terms whose three rows are single; and, for those terms
    in order, row 0 of the product of their three blocks, the coefficients
    of D^3 times the product of their three entries.
    """
    act = zkernel.IntegerAction.of(m)
    d3 = act.den ** 3
    zkernel.check_range(1, d3, 1)
    blocks = act.dense.reshape(27, 8, 27, 8)  # blocks[j, :, i] is D m_ij
    nonzero = blocks[:, 0].any(axis=2)  # row 0 of a block holds D times its entry
    single = nonzero.sum(axis=0) == 1
    monomial = bool(single.all() and (nonzero.sum(axis=1) == 1).all())
    sigma = nonzero.argmax(axis=0)
    mapped = single[idx].all(axis=1)
    # the block of the single entry of each row, for the terms whose rows are single
    three = blocks[sigma, :, np.arange(27)].astype(np.int64)[idx[mapped]]
    prods = three[:, 0, 0]
    for k in (1, 2):
        zkernel.check_range(8, zkernel.max_abs(three[:, k]), zkernel.max_abs(prods))
        prods = np.einsum("tr,trc->tc", prods, three[:, k])
    return d3, monomial, sigma, mapped, prods


def close_terms(seeds, gens) -> CubicForm:
    """Breadth-first closure of seed triples under the term maps of `gens`.

    Each level of new terms goes through the term map of each matrix once:
    t goes to sigma(t) with sign sign_t * s, where s D^3 e_0 is its block
    product.  A matrix that is not block-monomial raises NotMonomialError,
    any other block product NonRealSignError, and a coordinate set reached
    with both signs SignConflictError.  The resulting form does not depend
    on the order of the seeds or of the matrices.
    """
    signs = {}
    for t in seeds:
        if signs.setdefault(t.coords, t.sign) != t.sign:
            raise SignConflictError(f"conflicting seed signs on {t.sorted_coords}")
    level = [SignedTriple(c, s) for c, s in signs.items()]
    while level:
        idx, level_signs = _term_arrays(level)
        new = []
        for m in gens:
            d3, monomial, sigma, _, prods = _term_map(m, idx)
            if not monomial:
                raise NotMonomialError("every row and column needs exactly one nonzero entry")
            real = (np.abs(prods[:, 0]) == d3) & ~prods[:, 1:].any(axis=1)
            if not real.all():
                raise NonRealSignError(f"the scalar product on "
                                       f"{level[int(real.argmin())].sorted_coords} is not +-1")
            for img, sign in zip(sigma[idx], level_signs * np.sign(prods[:, 0])):
                u = SignedTriple(frozenset(LABELS[i] for i in img), int(sign))
                if u.coords not in signs:
                    signs[u.coords] = u.sign
                    new.append(u)
                elif signs[u.coords] != u.sign:
                    raise SignConflictError(f"sign conflict reaching {u.sorted_coords}")
        level = new
    return CubicForm(SignedTriple(c, s) for c, s in signs.items())


def eigenvalue_check(t: SignedTriple) -> bool:
    """Whether both diagonal generators act trivially on the monomial."""
    for table in (F1_EXP, F2_EXP):
        if sum(table[LABEL_INDEX[c]] for c in t.coords) % 5 != 0:
            return False
    return True


@lru_cache(maxsize=1)
def dickson_form() -> CubicForm:
    """The 45-term form: closure of the seeds under the monomial generators."""
    g = generators.build_all()
    form = close_terms(SEEDS, (g.d, g.ac))
    assert len(form) == 45
    return form


def _tensor_array(c: CubicForm) -> np.ndarray:
    """The fully symmetric coefficient tensor of c on label indices, a
    27 x 27 x 27 int8 array: T[u, v, w] = sign for every ordering of each
    term, 270 nonzero entries for 45 terms, and C(x) = T(x, x, x)/6."""
    idx, signs = _term_arrays(c)
    t = np.zeros((27, 27, 27), dtype=np.int8)
    for order in itertools.permutations(idx.T):
        t[order] = signs
    return t


#: Slabs of T' per slot-i and slot-j product; their temporaries stay small.
SLABS = 3


def _dense_invariant(c: CubicForm, m: ExactMatrix) -> bool:
    """C(m x) = C(x) by the three-step tensor transform of the module docstring."""
    act = zkernel.IntegerAction.of(m).transposed()
    # the image is compared with D^3 T, so D^3 must be an int64 too (T is int8)
    zkernel.check_range(1, act.den ** 3, 1)
    d3 = np.int64(act.den ** 3)
    t = _tensor_array(c)
    # slot k on all 729 rows of T at once: first[i, j, a] = D * sum_k m_ka T_ijk
    first = act.raw(t.reshape(729, 27)).reshape(27, 27, 27, 8)
    for a in range(0, 27, SLABS):
        # slots i and j of SLABS slabs, each moved last in turn and transformed
        rows = first[:, :, a:a + SLABS].transpose(1, 2, 0, 3)
        for _ in range(2):
            rows = act.raw(rows.reshape(-1, zkernel.DIM)).reshape(27, SLABS, 27, 8)
            rows = rows.transpose(2, 1, 0, 3)
        # rows[e, s, b] = D^3 T'_b,e,a+s
        if not (np.array_equal(rows[..., 0], d3 * t[:, :, a:a + SLABS].transpose(1, 2, 0))
                and not rows[..., 1:].any()):
            return False
    return True


def invariance_report(c: CubicForm, m: ExactMatrix):
    """Decide C(m x) = C(x) exactly on the integer kernel.

    Returns (invariant, flip_safe) where `invariant` says C(m x) = C(x) and
    `flip_safe` lists, in form order, the terms t whose monomial m fixes:
    (m x)_i (m x)_j (m x)_k = x_i x_j x_k for t = {i, j, k}.  Flipping t
    changes C by -2 sign_t x_i x_j x_k, so for an invariant form the
    flipped form is invariant iff t is flip-safe (expected empty for a
    faithful dense generator).  A block-monomial m is decided by its term
    map, any other by `_dense_invariant` (see the module docstring).
    """
    idx, signs = _term_arrays(c)
    d3, monomial, sigma, mapped, prods = _term_map(m, idx)
    e0 = np.eye(8, dtype=np.int64)[0]
    fixed = np.zeros(len(idx), dtype=bool)
    fixed[mapped] = ((np.sort(sigma[idx[mapped]], axis=1) == idx[mapped]).all(axis=1)
                     & (prods == d3 * e0).all(axis=1))
    flip_safe = [t for t, ok in zip(c, fixed) if ok]
    if not monomial:
        return _dense_invariant(c, m), flip_safe
    signs *= [c.sign_of(LABELS[i] for i in img) or 0 for img in sigma[idx]]
    return np.array_equal(prods, np.outer(d3 * signs, e0)), flip_safe


def jordan_identity_check(c: CubicForm, gens) -> tuple:
    """Certify the fixed vector of the point stabilizer as the Jordan identity.

    `gens` maps names to matrices; the expected set is {f1, f2, ac, eprime}.
    Each must fix (1,1,1;0^24) exactly, and the form must evaluate to +1 on
    it (its support is the single positive term (-3,-2,-1)).  Returns a
    tuple of `(name, ok)` pairs: one per matrix, in the order of `gens`,
    then the form value.  Each matrix row is one kernel application to the
    vector as a 27-column row, compared with D times its 216-column layout;
    the form value is the integer sum of sign_t x_u x_v x_w over the terms.
    """
    row = np.array([[1, 1, 1] + [0] * 24], dtype=np.int64)
    wide = np.zeros((1, zkernel.DIM), dtype=np.int64)
    wide[:, 0::8] = row
    checks = []
    for name, m in gens.items():
        act = zkernel.IntegerAction.of(m)
        checks.append((f"{name} fixes (1,1,1;0^24)", np.array_equal(act.raw(row), act.den * wide)))
    idx, signs = _term_arrays(c)
    value = int((signs * row[0, idx].prod(axis=1)).sum())
    checks.append(("form value on fixed vector is +1", value == 1))
    return tuple(checks)
