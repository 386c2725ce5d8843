"""The names that the benchmark reads must exist.

`perfbench/layers.py` installs its wrappers by module and class attribute
and reports a metric as null when a name is gone, so a rename in `src/`
would silently blank benchmark metrics.  `perfbench/run.py` counts a
repetition as correct only if the table's row names equal
`perfbench/expected/<workload>.txt`, so a renamed row would read pass_frac
0.  Both files are read here, and nothing under `perfbench/` is written.
"""

import importlib
import importlib.util
import pathlib
import re
import sys

import pytest

from tits27 import basisfinder, certificates, exactlinalg, generators, gf41, orbits

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True       # leave no cache file next to it
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _gated_names(workload, seed):
    """The check names the benchmark expects of `workload`, with `{seed+K}`
    replaced by seed + K as perfbench/run.py replaces it."""
    text = (PERFBENCH / "expected" / f"{workload}.txt").read_text()
    return re.sub(r"\{seed\+(\d+)\}", lambda m: str(seed + int(m.group(1))), text).splitlines()


def test_row_names_are_the_ones_the_benchmark_gates_on(certificate):
    names = [name for name, _ in certificate]  # verify --seed 1
    assert names == _gated_names("certify_full", 1)
    assert names[:30] == _gated_names("certify_fast", 1)  # verify --fast


def test_every_span_resolves(layers):
    missing = [f"{mod}.{fn}" for mod, fn, _ in layers.SPANS
               if not callable(getattr(importlib.import_module(f"tits27.{mod}"), fn, None))]
    assert missing == []


def test_every_kernel_exists(layers):
    assert [k for k in layers.KERNELS if not callable(getattr(exactlinalg, k, None))] == []


def test_scalar_classes_have_the_timed_operations(layers):
    for mod, cls_name in layers.SCALAR_CLASSES:
        cls = getattr(importlib.import_module(f"tits27.{mod}"), cls_name)
        for _, meth in layers.SCALAR_OPS:
            assert callable(getattr(cls, meth, None)), f"{cls_name}.{meth}"
    assert {meth for _, meth in layers.SCALAR_OPS} == {"__mul__", "__add__", "inverse"}


def test_gf41_generators_hold_scalar_objects():
    eprime41 = generators.build_all_gf41()[4]
    assert eprime41.ring == exactlinalg.RING_GF41
    assert isinstance(eprime41.data[0][0], gf41.Gf41)


def test_cubic_target_reads_the_generator_set(layers, dickson):
    # the wrapper of invariance_report names its span from the set that
    # build_all last returned, by its eprime field
    tracer = layers.Tracer()
    tracer._note("generators.build_all", generators.build_all())
    kinds = {name: layers._cubic_target(tracer, (dickson, m))
             for name, m in generators.build_all()._asdict().items()}
    assert kinds == {"f1": "monomial", "f2": "monomial", "d": "monomial",
                     "ac": "monomial", "eprime": "eprime"}
    assert generators.build_all_gf41()[4] is generators.build_all_gf41().eprime
    assert len(generators.NAMES) == 5


def test_chain_kind_reads_the_permutation_sets(layers, perms_all, perms_psl):
    # the wrapper of build_stab_chain names its span from the first argument
    tracer = layers.Tracer()
    assert layers._chain_kind(tracer, (perms_all,)) == "group"
    assert layers._chain_kind(tracer, (perms_psl,)) == "subgroup"


def test_strong_generator_count_is_reported(layers, chain_all):
    tracer = layers.Tracer()
    tracer._note("orbits.build_stab_chain.group", chain_all)
    assert len(chain_all.strong_gens) == 11
    assert tracer.facts["orbits.stab_chain.strong_gens"] == 11


def test_certificates_call_the_wrapped_chain_names(layers, monkeypatch):
    # the spans orbits.build_stab_chain.{group,subgroup}, orbits.transitivity_check
    # and the fact orbits.stab_chain.strong_gens see only the calls that the
    # certificates make through these module attributes
    calls = []
    for name in ("build_stab_chain", "transitivity_check"):
        def wrapper(*args, fn=getattr(orbits, name), name=name):
            result = fn(*args)
            calls.append((name, args, result))
            return result

        monkeypatch.setattr(orbits, name, wrapper)
    rows = list(certificates.rows(seed=3))
    assert len(rows) == 44 and all(ok for _, ok in rows)
    chains = [(args, result) for name, args, result in calls if name == "build_stab_chain"]
    tracer = layers.Tracer()
    # the chain of G is built below the chain of the point stabilizer
    assert [layers._chain_kind(tracer, args) for args, _ in chains] == ["subgroup", "group"]
    assert len(chains[1][0]) == 2 and chains[1][0][1] is chains[0][1]
    assert len(chains[1][1].strong_gens) == 12
    assert [name for name, _, _ in calls].count("transitivity_check") == 1


def test_every_basis_step_fires_once_per_round_trip(layers, monkeypatch):
    # the spans basisfinder.<step> see only calls made through these module
    # attributes: a step inlined into its caller would read 0 with no error
    calls, results = [], {}
    for step in layers.BASIS_STEPS:
        def wrapper(*args, fn=getattr(basisfinder, step), step=step, **kwargs):
            result = fn(*args, **kwargs)
            calls.append(step)
            results[step] = result
            return result

        monkeypatch.setattr(basisfinder, step, wrapper)
    checks = basisfinder.scramble_roundtrip(3)
    assert len(checks) == 6 and all(ok for _, ok in checks)
    assert sorted(calls) == sorted(layers.BASIS_STEPS)
    # Tracer._note counts the closure by the len of its result
    tracer = layers.Tracer()
    tracer._note("basisfinder.subgroup_elements", results["subgroup_elements"])
    assert len(results["subgroup_elements"]) == 48
    assert tracer.facts["basisfinder.subgroup_elements.elements"] == 48
