"""Per-layer instrumentation for the tits27 benchmark.

Everything here acts on the program from outside: wrappers are installed by
module (or class) attribute on public names, so calls made inside a module
through its own globals are caught too, and nothing in `src/` changes.  A
wrapped name that no longer exists is recorded as absent and every metric
derived from it reads `None` (printed as JSON `null`).

Three instruments, each used in its own child process:

  * `Tracer` records one span (name, start, end, parent) per call of the
    layer functions in `SPANS`, in memory, plus a few facts read from their
    results (orbit sizes, strong generators, subgroup size).
  * `Counter` counts calls of the scalar ring operations and of the matrix
    kernels.  It is untimed: its wrappers slow the scalar operations down.
  * `microbench` times single scalar operations on fixed operands taken from
    the generator entries.

`layer_metrics` turns their output into the `per_layer` metrics named in
BENCHMARK.json; `PER_LAYER` lists those names and units.
"""

from __future__ import annotations

import importlib
import statistics
import time
import timeit

PACKAGE = "tits27"
RINGS = ("cyc", "gf41")
KERNELS = ("mat_mul", "matvec", "mat_inv", "rref")
BASIS_STEPS = ("random_invertible", "find_char_vector", "find_fixed_vector",
               "subgroup_elements", "assemble_basis", "rebase", "scalar_balance")
SCALAR_OPS = (("mul", "__mul__"), ("add", "__add__"), ("inverse", "inverse"))
SCALAR_CLASSES = (("cyclo", "CycNum"), ("gf41", "Gf41"))


# -- span tracing --------------------------------------------------------------

def _ring(tracer, args):
    return args[0].ring


def _orbit_mode(tracer, args):
    return args[0].mode


def _chain_kind(tracer, args):
    gens = tracer.module("generators")
    return "group" if len(args[0].perms) == len(gens.NAMES) else "subgroup"


def _cubic_target(tracer, args):
    return "eprime" if args[1] is getattr(tracer.gens, "eprime", None) else "monomial"


#: (module, function, qualifier) for every traced layer entry point.  The
#: qualifier maps the call's arguments to a suffix of the span name.
SPANS = (
    ("generators", "build_all", None),
    ("generators", "verify_relations", None),
    ("cubicform", "invariance_report", _cubic_target),
    ("cubicform", "jordan_identity_check", None),
    ("orbits", "enumerate_orbit", _orbit_mode),
    ("orbits", "perm_images", None),
    ("orbits", "build_stab_chain", _chain_kind),
    ("orbits", "transitivity_check", None),
    ("orbits", "scalar_character", None),
    *(("exactlinalg", k, _ring) for k in KERNELS),
    ("basisfinder", "scramble_roundtrip", None),
    *(("basisfinder", s, None) for s in BASIS_STEPS),
)


class Tracer:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.facts = {}        # metric name -> number read from a result
        self.absent = set()    # "module.function" names that do not exist
        self.gens = None       # the last GeneratorSet that build_all returned
        self._stack = []
        self._restore = []

    def module(self, name):
        return importlib.import_module(f"{PACKAGE}.{name}")

    def install(self):
        for mod_name, fn_name, qualifier in SPANS:
            mod = self.module(mod_name)
            fn = getattr(mod, fn_name, None)
            if fn is None:
                self.absent.add(f"{mod_name}.{fn_name}")
                continue
            self._restore.append((mod, fn_name, fn))
            setattr(mod, fn_name, self._wrap(f"{mod_name}.{fn_name}", fn, qualifier))

    def uninstall(self):
        for mod, name, fn in reversed(self._restore):
            setattr(mod, name, fn)
        self._restore.clear()

    def _wrap(self, name, fn, qualifier):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            label = f"{name}.{qualifier(self, args)}" if qualifier else name
            idx = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            spans[idx][1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            self._note(label, result)
            return result

        return wrapper

    def _note(self, label, result):
        facts = self.facts
        if label == "generators.build_all":
            self.gens = result
        elif label.startswith("orbits.enumerate_orbit."):
            facts[f"{label}.points"] = len(result)
        elif label == "orbits.build_stab_chain.group":
            facts["orbits.stab_chain.strong_gens"] = len(result.strong_gens)
        elif label == "basisfinder.subgroup_elements":
            key = "basisfinder.subgroup_elements.elements"
            facts[key] = facts.get(key, 0) + len(result)


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def count_under(spans, prefix, ancestor):
    """Spans named `prefix...` that have a span named `ancestor` above them."""
    n = 0
    for name, _, _, parent in spans:
        if not name.startswith(prefix):
            continue
        while parent >= 0:
            if spans[parent][0] == ancestor:
                n += 1
                break
            parent = spans[parent][3]
    return n


def check_spans(spans, wall, cli_self, tol=1e-6):
    """The top-level spans plus the CLI's own time must make up the wall time.

    Returns an error message, or None when the spans are consistent: every
    self time is non-negative and all self times plus `cli_self` sum to the
    traced wall time.
    """
    own = self_times(spans)
    if any(s < -tol for s in own):
        return "a span is shorter than its children"
    top = sum(end - start for _, start, end, parent in spans if parent < 0)
    if abs(sum(own) - top) > tol or abs(top + cli_self - wall) > tol:
        return f"spans {top:.6f} s + cli {cli_self:.6f} s != wall {wall:.6f} s"
    return None


# -- counting pass ---------------------------------------------------------------

class Counter:
    """Untimed call counts of scalar operations and matrix kernels."""

    def __init__(self):
        self.counts = {}
        self.absent = set()

    def install(self):
        for mod_name, cls_name in SCALAR_CLASSES:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), cls_name, None)
            for op, meth in SCALAR_OPS:
                key = f"{mod_name}.{op}"
                fn = getattr(cls, meth, None) if cls is not None else None
                if fn is None:
                    self.absent.add(key)
                    continue
                self.counts[key] = 0
                setattr(cls, meth, self._count(key, fn))
        la = importlib.import_module(f"{PACKAGE}.exactlinalg")
        for k in KERNELS:
            fn = getattr(la, k, None)
            if fn is None:
                self.absent.update(f"exactlinalg.{k}.{r}" for r in RINGS)
                continue
            for r in RINGS:
                self.counts[f"exactlinalg.{k}.{r}"] = 0
            setattr(la, k, self._count_by_ring(f"exactlinalg.{k}", fn))

    def _count(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def _count_by_ring(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            k = f"{key}.{args[0].ring}"
            counts[k] = counts.get(k, 0) + 1
            return fn(*args, **kwargs)

        return wrapper


# -- scalar microbenchmark -------------------------------------------------------

def _time_ns(stmt, env, repeats=5, target_s=0.05):
    """Median nanoseconds per execution over `repeats` batches of ~target_s."""
    timer = timeit.Timer(stmt, globals=env)
    number, elapsed = 1, timer.timeit(1)
    while elapsed < target_s / 10:
        number *= 10
        elapsed = timer.timeit(number)
    number = max(1, round(number * target_s / elapsed))
    return statistics.median(timer.repeat(repeats, number)) / number * 1e9


def microbench():
    """Nanoseconds per mul, add and inverse, per scalar ring.

    Operands are the first two distinct non-rational entries of eprime (for
    GF(41), the same entries reduced mod 41).  A ring whose scalar class no
    longer exists reads None.
    """
    generators = importlib.import_module(f"{PACKAGE}.generators")
    out = {f"{ring}.{op}_ns": None for ring, _ in SCALAR_CLASSES for op, _ in SCALAR_OPS}
    eprime = generators.build_all().eprime
    cells = [(i, j) for i, row in enumerate(eprime.data)
             for j, e in enumerate(row) if not e.is_rational()]
    first = cells[0]
    second = next(c for c in cells if eprime.data[c[0]][c[1]] != eprime.data[first[0]][first[1]])
    eprime41 = generators.build_all_gf41()[4]
    for (ring, cls_name), matrix in zip(SCALAR_CLASSES, (eprime, eprime41)):
        cls = getattr(importlib.import_module(f"{PACKAGE}.{ring}"), cls_name, None)
        a, b = (matrix.data[i][j] for i, j in (first, second))
        if cls is None or not isinstance(a, cls):
            continue
        env = {"a": a, "b": b}
        out[f"{ring}.mul_ns"] = _time_ns("a * b", env)
        out[f"{ring}.add_ns"] = _time_ns("a + b", env)
        out[f"{ring}.inverse_ns"] = _time_ns("a.inverse()", env)
    return out


# -- metric derivation -----------------------------------------------------------

def _per_layer_names():
    names = []
    add = names.append
    for mode in ("vector", "projective"):
        add((f"orbits.enumerate_orbit.{mode}.s", "s"))
        add((f"orbits.enumerate_orbit.{mode}.points", "count"))
    add(("orbits.perm_images.s", "s"))
    add(("orbits.build_stab_chain.group.s", "s"))
    add(("orbits.build_stab_chain.subgroup.s", "s"))
    add(("orbits.stab_chain.strong_gens", "count"))
    add(("orbits.transitivity_check.s", "s"))
    add(("orbits.scalar_character.s", "s"))
    add(("cubicform.invariance_report.eprime.s", "s"))
    add(("cubicform.invariance_report.monomial.s", "s"))
    add(("cubicform.jordan_identity_check.s", "s"))
    add(("generators.build_all.s", "s"))
    add(("generators.verify_relations.s", "s"))
    for k in KERNELS:
        for r in RINGS:
            add((f"exactlinalg.{k}.{r}.calls", "count"))
            add((f"exactlinalg.{k}.{r}.self_s", "s"))
    add(("basisfinder.scramble_roundtrip.s", "s"))
    for step in BASIS_STEPS:
        add((f"basisfinder.{step}.s", "s"))
    add(("basisfinder.subgroup_elements.elements", "count"))
    add(("basisfinder.subgroup_elements.products", "count"))
    add(("basisfinder.subgroup_elements.useful_frac", "ratio"))
    add(("basisfinder.random_invertible.accepted", "count"))
    add(("basisfinder.random_invertible.rank_checks", "count"))
    add(("basisfinder.random_invertible.rank_checks_per_accept", "ratio"))
    for ring, _ in SCALAR_CLASSES:
        for op, _ in SCALAR_OPS:
            add((f"{ring}.{op}_ns", "ns"))
        for op, _ in SCALAR_OPS:
            add((f"{ring}.{op}_count", "count"))
    add(("cli.self_s", "s"))
    add(("trace.wall_s", "s"))
    add(("trace.overhead_s", "s"))
    return tuple(names)


#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = _per_layer_names()


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(trace, counts, untraced_wall):
    """The per-layer metrics from one traced run and one counting pass.

    `trace` is the traced child's report: spans, facts, absent names, the
    traced wall time and the microbenchmark.  `counts` is the counting
    child's report: counts and absent names.  Times are sums over all calls
    (`.s` inclusive, `.self_s` minus child spans), except
    `basisfinder.scramble_roundtrip.s`, which is the mean per seed.  A ratio
    whose base is 0 reads 0; `trace.overhead_s` reads None when there is no
    untraced wall time to compare with.
    """
    spans, facts, wall = trace["spans"], trace["facts"], trace["wall"]
    absent = set(trace["absent"]) | set(counts["absent"])
    own = self_times(spans)
    incl, self_s, calls = {}, {}, {}
    for (name, start, end, _), s in zip(spans, own):
        incl[name] = incl.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + s
        calls[name] = calls.get(name, 0) + 1
    cli_self = wall - sum(end - start for _, start, end, parent in spans if parent < 0)

    m = {}

    def put(name, source, value):
        m[name] = None if source in absent else value

    for mode in ("vector", "projective"):
        span = f"orbits.enumerate_orbit.{mode}"
        put(f"{span}.s", "orbits.enumerate_orbit", incl.get(span, 0.0))
        put(f"{span}.points", "orbits.enumerate_orbit", facts.get(f"{span}.points", 0))
    put("orbits.perm_images.s", "orbits.perm_images", incl.get("orbits.perm_images", 0.0))
    for kind in ("group", "subgroup"):
        span = f"orbits.build_stab_chain.{kind}"
        put(f"{span}.s", "orbits.build_stab_chain", incl.get(span, 0.0))
    put("orbits.stab_chain.strong_gens", "orbits.build_stab_chain",
        facts.get("orbits.stab_chain.strong_gens", 0))
    for fn in ("transitivity_check", "scalar_character"):
        put(f"orbits.{fn}.s", f"orbits.{fn}", incl.get(f"orbits.{fn}", 0.0))
    for target in ("eprime", "monomial"):
        span = f"cubicform.invariance_report.{target}"
        put(f"{span}.s", "cubicform.invariance_report", incl.get(span, 0.0))
    for span in ("cubicform.jordan_identity_check", "generators.build_all",
                 "generators.verify_relations"):
        put(f"{span}.s", span, incl.get(span, 0.0))
    for k in KERNELS:
        for r in RINGS:
            span = f"exactlinalg.{k}.{r}"
            put(f"{span}.calls", span, counts["counts"].get(span, 0))
            put(f"{span}.self_s", f"exactlinalg.{k}", self_s.get(span, 0.0))
    span = "basisfinder.scramble_roundtrip"
    put(f"{span}.s", span, _ratio(incl.get(span, 0.0), calls.get(span, 0)))
    for step in BASIS_STEPS:
        span = f"basisfinder.{step}"
        put(f"{span}.s", span, incl.get(span, 0.0))
    span = "basisfinder.subgroup_elements"
    elements = facts.get(f"{span}.elements", 0)
    products = count_under(spans, "exactlinalg.mat_mul.", span)
    put(f"{span}.elements", span, elements)
    put(f"{span}.products", span, products)
    put(f"{span}.useful_frac", span, _ratio(elements, products))
    span = "basisfinder.random_invertible"
    accepted = calls.get(span, 0)
    rank_checks = count_under(spans, "exactlinalg.rref.", span)
    put(f"{span}.accepted", span, accepted)
    put(f"{span}.rank_checks", span, rank_checks)
    put(f"{span}.rank_checks_per_accept", span, _ratio(rank_checks, accepted))
    for ring, _ in SCALAR_CLASSES:
        for op, _ in SCALAR_OPS:
            key = f"{ring}.{op}"
            m[f"{key}_ns"] = trace["micro"].get(f"{key}_ns")
            put(f"{key}_count", key, counts["counts"].get(key, 0))
    m["cli.self_s"] = cli_self
    m["trace.wall_s"] = wall
    m["trace.overhead_s"] = None if untraced_wall is None else wall - untraced_wall
    return m, check_spans(spans, wall, cli_self)
