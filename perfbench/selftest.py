"""Self-tests of the benchmark's own logic.

    python3 perfbench/selftest.py

Covers the output gate, the span arithmetic, absent layer functions, the
failure accounting of a crashed child, exact repetition of the counting
pass, and agreement of BENCHMARK.json with the metrics the code reports.
The last two start real children on `verify --fast` (about 10 s).
"""

import json
import os
import sys
import unittest

import layers
import run

sys.path.insert(0, os.path.join(run.ROOT, "src"))


class GateTest(unittest.TestCase):
    def setUp(self):
        self.expected = run.expected_checks("recover_basis", 7)
        self.out = "".join(
            f"{name} PASS\n" if name.startswith("scramble") else f"    PASS {name}\n"
            for name in self.expected)

    def test_expected_lists_substitute_the_seed(self):
        self.assertEqual(len(self.expected), 35)
        self.assertEqual(self.expected[0], "scramble seed 7:")
        self.assertEqual(self.expected[-7], "scramble seed 11:")
        full = run.expected_checks("certify_full", 12345)
        self.assertEqual(len(full), 44)
        self.assertEqual(full[-1], "basis round-trip recovers balanced form (seed 12349)")
        self.assertEqual(len(run.expected_checks("certify_fast", 1)), 30)

    def test_padded_verify_lines_parse(self):
        line = f"{'cubic form has 45 terms':<60s} PASS\n"
        self.assertEqual(run.parse_checks(line), [("cubic form has 45 terms", "PASS")])

    def test_accepts_the_real_output(self):
        self.assertEqual(run.gate(self.expected, 0, self.out), (True, 0))

    def test_rejects_a_doctored_fail_line(self):
        out = self.out.replace("    PASS d monomial", "    FAIL d monomial", 1)
        self.assertEqual(run.gate(self.expected, 0, out), (False, 1))

    def test_rejects_a_missing_line(self):
        lines = self.out.splitlines(keepends=True)
        del lines[3]
        self.assertEqual(run.gate(self.expected, 0, "".join(lines)), (False, 1))

    def test_rejects_extra_or_reordered_lines_as_a_whole(self):
        lines = self.out.splitlines(keepends=True)
        self.assertEqual(run.gate(self.expected, 0, "".join(lines[1:] + lines[:1])),
                         (False, 35))
        self.assertEqual(run.gate(self.expected, 0, self.out + "noise\n"), (False, 35))

    def test_nonzero_exit_or_crash_fails_every_check(self):
        self.assertEqual(run.gate(self.expected, 1, self.out), (False, 35))
        self.assertEqual(run.gate(self.expected, None, None), (False, 35))


class FakeRun:
    """Stands in for run.Run with fixed setup and repetition reports."""

    attempted, failed = 30, 0

    def __init__(self, setups, walls):
        self.setups = iter(setups)
        self.walls = walls

    def child(self, mode):
        return {"setup": next(self.setups), "probe_setup": run.PROBE_REF_S}

    def loop(self, seconds):
        return [{"setup": next(self.setups), "probe_setup": p * run.PROBE_REF_S,
                 "wall": w, "probe": p * run.PROBE_REF_S, "maxrss_kb": 1024}
                for w, p in self.walls]


class EndToEndTest(unittest.TestCase):
    def test_timings_are_scaled_by_the_speed_probe(self):
        # (wall, probe time / PROBE_REF_S): the host ran at half speed during
        # the second repetition, so it reads 4.0 s and 0.05 s of set-up at
        # the reference speed.
        setups = [0.5] * run.SETUP_PROBES + [0.9, 0.1, 0.4]
        walls = [(5.0, 1.0), (8.0, 2.0), (9.0, 1.0)]
        metrics, _ = run.end_to_end(FakeRun(setups, walls), 10)
        self.assertAlmostEqual(metrics["wall_s"]["value"], 5.0)
        self.assertEqual(metrics["setup_s"]["value"], 0.5)
        self.assertEqual(metrics["pass_frac"]["value"], 1.0)


class CrashedChildTest(unittest.TestCase):
    def test_crashed_child_counts_all_its_checks_as_failed(self):
        r = run.Run("certify_fast", 1)
        self.assertIsNone(r.child("no-such-mode"))
        self.assertEqual((r.attempted, r.failed), (30, 30))
        self.assertEqual(len(r.errors), 1)


# A root span [0, 10] with children [1, 3] and [4, 8]; the second has a
# child [5, 6].  A second root [11, 12] has no children.
NESTED = [["root", 0.0, 10.0, -1], ["a", 1.0, 3.0, 0], ["b", 4.0, 8.0, 0],
          ["c", 5.0, 6.0, 2], ["root2", 11.0, 12.0, -1]]


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        self.assertEqual(layers.self_times(NESTED), [4.0, 2.0, 3.0, 1.0, 1.0])

    def test_top_level_plus_cli_must_make_up_the_wall(self):
        self.assertIsNone(layers.check_spans(NESTED, 13.0, 2.0))
        self.assertIsNotNone(layers.check_spans(NESTED, 13.0, 3.0))
        bad = [["root", 0.0, 1.0, -1], ["a", 0.0, 2.0, 0]]
        self.assertIsNotNone(layers.check_spans(bad, 2.0, 1.0))

    def test_count_under_looks_through_intermediate_spans(self):
        self.assertEqual(layers.count_under(NESTED, "c", "root"), 1)
        self.assertEqual(layers.count_under(NESTED, "c", "a"), 0)

    def test_absent_functions_read_null(self):
        trace = {"spans": NESTED, "facts": {}, "absent": ["orbits.perm_images"],
                 "wall": 13.0, "micro": {}}
        counts = {"counts": {}, "absent": ["gf41.mul"]}
        values, problem = layers.layer_metrics(trace, counts, 12.0)
        self.assertIsNone(problem)
        self.assertIsNone(values["orbits.perm_images.s"])
        self.assertIsNone(values["gf41.mul_count"])
        self.assertEqual(values["gf41.add_count"], 0)
        self.assertEqual(values["cli.self_s"], 2.0)
        self.assertEqual(values["trace.overhead_s"], 1.0)
        self.assertEqual(set(values), {name for name, _ in layers.PER_LAYER})

    def test_tracer_reports_a_deleted_function_as_absent(self):
        from tits27 import orbits
        saved = orbits.perm_images
        del orbits.perm_images
        tracer = layers.Tracer()
        try:
            tracer.install()
            tracer.uninstall()
        finally:
            orbits.perm_images = saved
        self.assertEqual(tracer.absent, {"orbits.perm_images"})


class CountingPassTest(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        r = run.Run("certify_fast", 1)
        first, second = r.child("count"), r.child("count")
        self.assertEqual(r.errors, [])
        self.assertGreater(first["counts"]["cyclo.mul"], 0)
        self.assertEqual(first["counts"], second["counts"])


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_lists_match_the_code(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         list(layers.PER_LAYER))
        names = [w["name"] for w in bench["workloads"]]
        self.assertEqual(names, [w for w in run.WORKLOADS if w in names])


if __name__ == "__main__":
    unittest.main()
