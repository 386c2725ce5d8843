"""The certificate list: every check that `tits27 verify` prints.

`rows(fast, seed)` yields `(name, ok)` pairs in table order.  This is the
only place the rows are written: the CLI prints them and the acceptance
suite asserts them by name.  With `fast` the list stops after the first 30
rows (relations, eprime structure, the mod-41 lifts, the cubic form and the
Jordan identity); the full list adds the orbit, order and stabilizer rows
and five basis round trips starting at `seed`, 44 rows in all.

The order rows rest on two stabilizer chains on the 2304-point orbit of
e = (1,1,1;0^24).  The chain of the point stabilizer H = <f1, f2, ac,
eprime> is built first, and G's chain is built below it
(`permgroup.build_stab_chain(p5, chain_of_H)`): level 0 is the orbit of
point 0, the smallest point H fixes, under G's five generators, and the
levels under it are H's.  "certified order is 17971200" reads that chain's
order, 2304 times the order of G_0 that its Schreier generators certify.
"index is 2304" compares it with H's order, so it holds exactly when no
Schreier generator left a residue, that is, when G_0 = H.

Every layer is called through its module (`generators.verify_relations`,
not a name imported from it), so that a wrapper installed on the module
attribute sees the call.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import numpy as np

from . import basisfinder
from . import cubicform
from . import generators
from . import gf41
from . import orbits


def rows(fast: bool = False, seed: int = 12345):
    """Yield `(name, ok)` for each certificate, in table order."""
    g = generators.build_all()
    yield from generators.verify_relations(g)

    ep = g.eprime
    yield ("eprime symmetric", np.array_equal(ep.coeffs, ep.coeffs.transpose(1, 0, 2)))
    yield ("eprime row norms all 1", generators.row_norms_are_one(ep))
    top = ep.coeffs[0][ep.coeffs[0].any(axis=1)]  # the nonzero entries of row 0
    q = Fraction
    values = Counter(q(int(c), ep.den) for c in top[:, 0])
    yield ("eprime top row multiset {2/5 x2, 1/5 x9, -1/5 x8}",
           not top[:, 1:].any() and values == {q(2, 5): 2, q(1, 5): 9, q(-1, 5): 8})

    table = gf41.lift_table()
    yield ("mod-41 designated lifts reduce back",
           all(gf41.reduce_cyc(v) == k for k, v in table.items()))

    form = cubicform.dickson_form()
    yield ("cubic form has 45 terms", len(form) == 45)
    yield ("every term passes the eigenvalue test",
           bool(cubicform.eigenvalue_check(form).all()))
    for name, m in g._asdict().items():
        ok, flip_safe = cubicform.invariance_report(form, m)
        yield (f"cubic form invariant under {name}", ok)
        if name == "eprime":
            yield ("every single sign flip breaks eprime invariance", not flip_safe)
    yield from cubicform.jordan_identity_check(
        form, {n: m for n, m in g._asdict().items() if n != "d"})

    if fast:
        return

    # the orbit is dropped once both permutation sets are read off it, each
    # chain once its order is read and the sets once the index is, so none of
    # them is alive during the next search
    orbit = orbits.enumerate_orbit(orbits.seed_fixed_vector(), g)
    degree = len(orbit)
    yield ("orbit of (1,1,1;0^24) has 2304 points", degree == 2304)
    p5 = orbits.perm_images(orbit, g)
    psub = orbits.perm_images(orbit, [g.f1, g.f2, g.ac, g.eprime])
    del orbit
    # G's chain is built below H's: level 0 is the orbit of the smallest point H fixes
    sub = orbits.build_stab_chain(psub)
    sub_order, order = sub.order(), orbits.build_stab_chain(p5, sub).order()
    del sub
    yield ("certified order is 17971200", order == 17_971_200)
    yield ("degree-2304 action is transitive", p5.degree == 2304 and orbits.transitivity_check(p5))
    # the four generators fix point 0, the seed, so they lie in its stabilizer
    yield ("point stabilizer has order 7800",
           sub_order == 7800 and all(p[0] == 0 for p in psub.perms))
    yield ("index is 2304", order // sub_order == degree == 2304)
    del p5, psub

    line = orbits.seed_proj_1755()
    proj = orbits.enumerate_orbit(line, g)
    yield ("projective orbit has 1755 points", len(proj) == 1755)
    # zeta^k is i or -i exactly when k is 5 or 15
    yield ("(ac)^3 scales the projective seed by a power of i",
           orbits.scalar_character(line, [g.ac] * 3) in (5, 15))
    yield ("d fixes the projective seed", orbits.scalar_character(line, [g.d]) == 0)
    yield ("1755-point stabilizer has order 10240", order // len(proj) == 10240)

    for k in range(5):
        checks = basisfinder.scramble_roundtrip(seed + k)
        yield (f"basis round-trip recovers balanced form (seed {seed + k})",
               all(ok for _, ok in checks))
