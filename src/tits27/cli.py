"""Command-line interface.

Commands
    gens      emit the five generator matrices (exact or mod 41)
    verify    run the full verification suite and print a PASS/FAIL table
    orbit     enumerate a vector or projective orbit
    order     certify a permutation-group order via the stabilizer chain
    cubic     emit the 45-term cubic form, optionally with invariance checks
    eval      evaluate a group word against bound matrix files
    reduce41  reduce an exact matrix file modulo 41
    basis     run the basis-recovery pipeline (self-test or on external data)

Exit codes: 0 success, 1 a verification check failed, 2 usage or file
format errors.  All output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import basisfinder
from . import certificates
from . import cubicform
from . import exactlinalg as la
from . import generators
from . import orbits


class _UsageError(Exception):
    pass


def _gen_subset(selector: str):
    g = generators.build_all()
    byname = g.as_dict()
    if selector == "all":
        names = list(generators.NAMES)
    else:
        names = [n.strip() for n in selector.split(",") if n.strip()]
        unknown = [n for n in names if n not in byname]
        if unknown:
            raise _UsageError(f"unknown generator name(s): {', '.join(unknown)}")
        if not names:
            raise _UsageError("empty generator list")
    return names, [byname[n] for n in names]


def _cmd_gens(args):
    if args.gf41:
        mats = dict(zip(generators.NAMES, generators.build_all_gf41()))
    else:
        mats = generators.build_all().as_dict()
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for name, m in mats.items():
            la.save_matrix(m, os.path.join(args.out, f"{name}.mat"))
        print(f"wrote {len(mats)} matrices to {args.out}")
    else:
        for name, m in mats.items():
            print(f"# {name}")
            sys.stdout.write(la.format_matrix(m))
    return 0


#: The seeds `orbit --seed` accepts, by name.
_SEEDS = {"fixed": orbits.seed_fixed_vector, "proj1755": orbits.seed_proj_1755}


def _cmd_orbit(args):
    names, gens = _gen_subset(args.gens)
    orbit = orbits.enumerate_orbit(_SEEDS[args.seed](), gens, cap=args.cap)
    print(f"orbit size: {len(orbit)}")
    if args.perms:
        pset = orbits.perm_images(orbit, gens)
        for name, perm in zip(names, pset.perms):
            print(f"{name} " + " ".join(str(x) for x in perm))
    return 0


def _cmd_order(args):
    _, subset = _gen_subset(args.gens)
    g = generators.build_all()
    orbit = orbits.enumerate_orbit(orbits.seed_fixed_vector(), list(g.in_order()),
                                   cap=args.cap)
    pset = orbits.perm_images(orbit, subset)
    chain = orbits.build_stab_chain(pset)
    print(chain.order())
    return 0


def _cmd_cubic(args):
    form = cubicform.dickson_form()
    for row, sign in zip(form.idx, form.signs):
        u, v, w = (generators.LABELS[i] for i in row)
        print(f"{'+' if sign > 0 else '-'} {u} {v} {w}")
    if args.check:
        g = generators.build_all()
        failed = False
        for name, m in g.as_dict().items():
            ok, flip_safe = cubicform.invariance_report(form, m)
            line = f"invariant under {name}: {'PASS' if ok else 'FAIL'}"
            if name == "eprime":
                flips_ok = not flip_safe
                line += f"; all 45 single flips break invariance: {'PASS' if flips_ok else 'FAIL'}"
                failed = failed or not flips_ok
            print(line)
            failed = failed or not ok
        return 1 if failed else 0
    return 0


def _cmd_eval(args):
    from . import wordlang  # imported only by the two commands that parse words
    env = {}
    for binding in args.bind or []:
        name, eq, path = binding.partition("=")
        if not eq:
            raise _UsageError(f"bad binding {binding!r}, expected name=file")
        if name in env or not wordlang.is_name(name):
            why = "is bound twice" if name in env else "is not an ASCII letter then letters or digits"
            raise _UsageError(f"bad binding {binding!r}, {name!r} {why}")
        env[name] = la.load_matrix(path)
    expr = wordlang.parse_word(args.word, names=env.keys() if env else None)
    result = wordlang.eval_word(expr, env)
    sys.stdout.write(la.format_matrix(result))
    return 0


def _cmd_reduce41(args):
    m = la.load_matrix(args.infile)
    sys.stdout.write(la.format_matrix(la.reduce_matrix_mod41(m)))
    return 0


def _cmd_basis(args):
    if args.selftest:
        seeds = [args.seed + k for k in range(5)]
        failed = False
        for seed in seeds:
            checks = basisfinder.scramble_roundtrip(seed)
            passed = all(ok for _, ok in checks)
            print(f"scramble seed {seed}: {'PASS' if passed else 'FAIL'}")
            for name, ok in checks:
                print(f"    {'PASS' if ok else 'FAIL'} {name}")
            failed = failed or not passed
        return 1 if failed else 0
    if not args.indir:
        raise _UsageError("basis requires --selftest or --in DIR")
    a = la.load_matrix(os.path.join(args.indir, "a.mat"))
    b = la.load_matrix(os.path.join(args.indir, "b.mat"))
    if any(m.ring != la.RING_GF41 or (m.rows, m.cols) != (27, 27) for m in (a, b)):
        raise _UsageError("basis --in needs a.mat and b.mat as 27x27 gf41 matrices")
    from . import wordlang
    env = {"a": a, "b": b}
    for name, text in wordlang.STANDARD_WORDS:
        expr = wordlang.parse_word(text, names=env.keys())
        env[name] = wordlang.eval_word(expr, env)
    env["ac"] = la.mat_mul(env["a"], env["c"])
    balanced, common = basisfinder.recover([la.residues(env[name]) for name in generators.NAMES])
    print(f"common interaction multiple: {common}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for name, m in zip(generators.NAMES, balanced):
            la.save_matrix(la.from_residues(m), os.path.join(args.out, f"{name}.mat"))
        print(f"wrote 5 rebased matrices to {args.out}")
    return 0


def _cmd_verify(args):
    failed = False
    for name, ok in certificates.rows(args.fast, args.seed):
        print(f"{name:<60s} {'PASS' if ok else 'FAIL'}")
        failed = failed or not ok
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tits27",
        description="Exact 27x27 generators for the Tits group in compact E6")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gens", help="emit the five generators")
    p.add_argument("--gf41", action="store_true", help="reduce entries mod 41")
    p.add_argument("--out", help="directory for one .mat file per generator")
    p.set_defaults(func=_cmd_gens)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--fast", action="store_true",
                   help="skip the orbit, order and basis checks")
    p.add_argument("--seed", type=int, default=12345,
                   help="base seed for the randomized basis round-trip")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("orbit", help="enumerate an orbit")
    p.add_argument("--seed", required=True, choices=tuple(_SEEDS))
    p.add_argument("--gens", default="all", help="comma list or 'all'")
    p.add_argument("--cap", type=int, default=10000)
    p.add_argument("--perms", action="store_true",
                   help="also print the permutation images")
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("order", help="certified order of the generated group")
    p.add_argument("--gens", default="all", help="comma list or 'all'")
    p.add_argument("--cap", type=int, default=10000)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("cubic", help="emit the 45-term cubic form")
    p.add_argument("--check", action="store_true",
                   help="verify invariance under all five generators")
    p.set_defaults(func=_cmd_cubic)

    p = sub.add_parser("eval", help="evaluate a group word")
    p.add_argument("--word", required=True)
    p.add_argument("--bind", action="append", metavar="NAME=FILE",
                   help="bind a generator name to a matrix file")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("reduce41", help="reduce an exact matrix file mod 41")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_reduce41)

    p = sub.add_parser("basis", help="basis-recovery pipeline")
    p.add_argument("--selftest", action="store_true",
                   help="scramble/recover round-trip on 5 seeds")
    p.add_argument("--seed", type=int, default=1, help="base seed for --selftest")
    p.add_argument("--in", dest="indir", help="directory with a.mat and b.mat")
    p.add_argument("--out", help="directory for the rebased matrices")
    p.set_defaults(func=_cmd_basis)

    return parser


def run(argv) -> int:
    """Parse and execute; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except la.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
