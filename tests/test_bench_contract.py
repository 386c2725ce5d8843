"""The names that the benchmark's per-layer instruments wrap must exist.

`perfbench/layers.py` installs its wrappers by module and class attribute
and reports a metric as null when a name is gone, so a rename in `src/`
would silently blank benchmark metrics.  The file is loaded here read-only.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

from tits27 import certificates, exactlinalg, generators, gf41, orbits

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


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
    assert [layers._chain_kind(tracer, args) for args, _ in chains] == ["group", "subgroup"]
    assert len(chains[0][1].strong_gens) == 11
    assert [name for name, _, _ in calls].count("transitivity_check") == 1
