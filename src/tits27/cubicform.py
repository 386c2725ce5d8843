"""The 45-term invariant cubic form on the 27 coordinates.

A term is an unordered triple of distinct coordinate labels with a sign; the
form is C(x) = sum sign * x_u x_v x_w.  The monomial generators permute the
coordinates with unit scalars, so they act on signed triples directly, and
the full form is the closure of four seed triples under that action:

    + (-3,-2,-1)    - (-3,1,4)    - (1,9,17)    + (1,10,24)

Every term must satisfy the diagonal eigenvalue condition: the z-exponents
of f1 (and of f2) on its three coordinates sum to 0 mod 5, otherwise the
diagonal subgroup could not fix the monomial.

Invariance under a matrix m is checked exactly on the int64 kernel of
`zkernel`.  With T the symmetric coefficient tensor, C(x) = T(x, x, x)/6,
so C(m x) = T'(x, x, x)/6 with

    T'_abc = sum_ijk T_ijk m_ia m_jb m_kc,

and T' is symmetric again; C(m x) = C(x) iff T' = T.  T is a 27 x 27 x 27
array of +-1 and 0, all in coefficient slot 0 of the power basis.  With D
the lcm of the denominators of m, the kernel action of D m^T is applied to
one slot at a time, with that slot moved next to the coefficient axis.  The
first step is one (729 x 27) by (27 x 216) integer product, because T lives
in the 27 coefficient-0 columns; the other two run on one 27 x 27 slab of
the first step's result at a time, a (27 x 216) by (216 x 216) product
each, so no second 1.3 MB array is needed (a monomial matrix uses the
block gather instead of the dense product).  The three steps give D^3 T'
exactly, so m preserves C iff the result is D^3 T: 125 T for eprime, whose
denominators are 5.  The kernel refuses, with KernelOverflowError, any
product whose sums could leave the int64 range.

A term t = {i, j, k} is flip-safe under m when (m x)_i (m x)_j (m x)_k =
x_i x_j x_k.  The polynomial ring Q(zeta20)[x] is a unique factorization
domain, x_i, x_j, x_k are pairwise non-associate primes, and each (m x)_r
is zero or of degree 1.  So the identity holds iff each of the three
linear forms is a scalar multiple of a different one of x_i, x_j, x_k and
the scalars multiply to 1; that is, iff rows i, j and k of m each have
exactly one nonzero entry, the columns of those entries are exactly
{i, j, k}, and the three entries multiply to 1.  No expansion is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import cyclo
from . import zkernel
from .cyclo import CycNum
from . import exactlinalg as la
from .exactlinalg import ExactMatrix
from . import generators
from .generators import LABELS, LABEL_INDEX, F1_EXP, F2_EXP, CheckReport


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


@dataclass(frozen=True)
class MonomialMap:
    """Permutation-with-scalars action of a monomial matrix on labels.

    perm[u] is the label whose basis vector receives e_u, and scale[u] the
    unit scalar attached: m e_u = scale[u] * e_perm[u].
    """

    perm: tuple
    scale: tuple

    def perm_of(self, label):
        return self.perm[LABEL_INDEX[label]]

    def scale_of(self, label):
        return self.scale[LABEL_INDEX[label]]


def as_monomial(m: ExactMatrix) -> MonomialMap:
    """Extract the monomial action; fails on matrices with dense columns."""
    if m.rows != 27 or m.cols != 27:
        raise NotMonomialError("expected a 27x27 matrix")
    perm = [None] * 27
    scale = [None] * 27
    for j in range(27):
        nz = [i for i in range(27) if not m.data[i][j].is_zero()]
        if len(nz) != 1:
            raise NotMonomialError(f"column {j} has {len(nz)} nonzero entries")
        i = nz[0]
        perm[j] = LABELS[i]
        scale[j] = m.data[i][j]
    if len(set(perm)) != 27:
        raise NotMonomialError("repeated target row")
    return MonomialMap(tuple(perm), tuple(scale))


def act_on_triple(g: MonomialMap, t: SignedTriple) -> SignedTriple:
    """Push a signed triple through a monomial map.

    The image coefficient picks up the product of the three scalars, which
    must be +-1 for the triple to stay sign-valued.
    """
    prod = cyclo.ONE
    for c in t.coords:
        prod = prod * g.scale_of(c)
    if prod == cyclo.ONE:
        s = 1
    elif prod == cyclo.MINUS_ONE:
        s = -1
    else:
        raise NonRealSignError(f"scalar product {prod} is not +-1 on {t.sorted_coords}")
    return SignedTriple(frozenset(g.perm_of(c) for c in t.coords), t.sign * s)


def close_terms(seeds, gens) -> CubicForm:
    """Breadth-first closure of seed triples under monomial maps.

    Deterministic for a fixed seed and generator order; the resulting term
    set is order-independent.  Reaching one coordinate set with both signs
    raises SignConflictError.
    """
    signs = {}
    queue = []
    for t in seeds:
        prev = signs.setdefault(t.coords, t.sign)
        if prev != t.sign:
            raise SignConflictError(f"conflicting seed signs on {t.sorted_coords}")
        queue.append(t)
    i = 0
    while i < len(queue):
        t = queue[i]
        i += 1
        for g in gens:
            u = act_on_triple(g, t)
            prev = signs.get(u.coords)
            if prev is None:
                signs[u.coords] = u.sign
                queue.append(u)
            elif prev != u.sign:
                raise SignConflictError(f"sign conflict reaching {u.sorted_coords}")
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
    form = close_terms(SEEDS, (as_monomial(g.d), as_monomial(g.ac)))
    assert len(form) == 45
    return form


def to_tensor(c: CubicForm) -> dict:
    """The fully symmetric coefficient tensor as a sparse dict on labels.

    T[(u, v, w)] = sign for every ordering of each term; 45 terms give 270
    nonzero entries, and C(x) = T(x, x, x)/6.
    """
    t = {}
    sign_one = {1: cyclo.ONE, -1: cyclo.MINUS_ONE}
    for term in c:
        a, b, d = term.sorted_coords
        val = sign_one[term.sign]
        for key in ((a, b, d), (a, d, b), (b, a, d), (b, d, a), (d, a, b), (d, b, a)):
            t[key] = val
    return t


def _tensor_array(c: CubicForm) -> np.ndarray:
    """to_tensor as a 27 x 27 x 27 int64 array on label indices; entries +-1."""
    t = np.zeros((27, 27, 27), dtype=np.int64)
    for key, val in to_tensor(c).items():
        t[tuple(LABEL_INDEX[lab] for lab in key)] = val.num[0]
    return t


def _flip_safe(c: CubicForm, m: ExactMatrix) -> list:
    """The terms t = {i, j, k} of c with (m x)_i (m x)_j (m x)_k = x_i x_j x_k.

    By the factorization argument in the module docstring: rows i, j and k
    of m have one nonzero entry each, in columns {i, j, k}, with product 1.
    """
    single = {}
    for i, row in enumerate(m.data):
        nz = [(j, e) for j, e in enumerate(row) if not e.is_zero()]
        if len(nz) == 1:
            single[i] = nz[0]
    out = []
    for term in c:
        idx = [LABEL_INDEX[lab] for lab in term.coords]
        picks = [single.get(i) for i in idx]
        if (None not in picks and {j for j, _ in picks} == set(idx)
                and picks[0][1] * picks[1][1] * picks[2][1] == cyclo.ONE):
            out.append(term)
    return out


def invariance_report(c: CubicForm, m: ExactMatrix):
    """Transform the form's tensor by m exactly on the int64 kernel.

    Returns (invariant, flip_safe) where `invariant` says C(m x) = C(x) and
    `flip_safe` lists, in form order, the terms t whose monomial m fixes:
    (m x)_i (m x)_j (m x)_k = x_i x_j x_k for t = {i, j, k}.  Flipping t
    changes C by -2 sign_t x_i x_j x_k, so for an invariant form the
    flipped form is invariant iff t is flip-safe (expected empty for a
    faithful dense generator).
    """
    act = zkernel.IntegerAction(la.transpose(m))
    # the image is compared with D^3 T, so D^3 must be an int64 too
    d3 = act.den ** 3
    zkernel.check_range(1, d3, 1)
    t = _tensor_array(c)
    # slot k first, on the 27 integer coefficients of T:
    # first[i, j, a] = D * sum_k m_ka T_ijk
    first = act.raw(t.reshape(27 * 27, 27)).reshape(27, 27, 27, 8)

    def slab_kept(a):
        # slots i and j of one 27 x 27 slab, so that only `first` is large:
        # put the untransformed slot last, then transform it
        rows = first[:, :, a]
        for _ in range(2):
            rows = act.raw(rows.transpose(1, 0, 2).reshape(27, zkernel.DIM)).reshape(27, 27, 8)
        # rows[b, e] = D^3 T'_bea
        return np.array_equal(rows[..., 0], d3 * t[:, :, a]) and not rows[..., 1:].any()

    invariant = all(slab_kept(a) for a in range(27))
    return invariant, _flip_safe(c, m)


def verify_invariance(c: CubicForm, m: ExactMatrix) -> bool:
    """True iff the transformed tensor equals the original exactly."""
    return invariance_report(c, m)[0]


def identity_vector():
    """(1, 1, 1; 0^24) in storage order."""
    return (cyclo.ONE,) * 3 + (cyclo.ZERO,) * 24


def evaluate(c: CubicForm, entries) -> CycNum:
    """The value of the form on a vector of 27 scalars."""
    sign_one = {1: cyclo.ONE, -1: cyclo.MINUS_ONE}
    acc = cyclo.ZERO
    for t in c:
        prod = sign_one[t.sign]
        for lab in t.coords:
            prod = prod * entries[LABEL_INDEX[lab]]
            if prod.is_zero():
                break
        acc = acc + prod
    return acc


def jordan_identity_check(c: CubicForm, gens) -> CheckReport:
    """Certify the fixed vector of the point stabilizer as the Jordan identity.

    `gens` maps names to matrices; the expected set is {f1, f2, ac, eprime}.
    Each must fix (1,1,1;0^24) exactly, and the form must evaluate to +1 on
    it (its support is the single positive term (-3,-2,-1)).
    """
    v = identity_vector()
    checks = [(f"{name} fixes (1,1,1;0^24)", la.matvec(m, v) == v)
              for name, m in gens.items()]
    checks.append(("form value on fixed vector is +1", evaluate(c, v) == cyclo.ONE))
    return CheckReport(tuple(checks))
