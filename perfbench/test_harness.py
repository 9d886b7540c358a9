#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 perfbench/test_harness.py

The arithmetic tests run on synthetic runner output. The span and digest
tests build the benchmark (as run.py does) and run its binaries.
"""

import copy
import json
import os
import re
import subprocess
import sys
import time
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, BENCH_DIR)
import harness  # noqa: E402
import run  # noqa: E402


def synthetic_run():
    """Runner output: a warm rep and three timed reps between slices."""
    yard = [[0.08, 0.12, 0.03], [0.09, 0.13, 0.04], [0.07, 0.11, 0.03],
            [0.08, 0.12, 0.03], [0.085, 0.125, 0.035]]
    reps = []
    for i, run_s in enumerate([0.50, 0.52, 0.48, 0.51]):
        reps.append({
            "kind": "warm" if i == 0 else "run", "workload_s": 0.001,
            "server_s": 0.04 + 0.001 * i, "run_s": run_s,
            "yard_before": i, "yard_after": i + 1, "digest": "ab" * 8,
            "attempted": 1920, "incomplete": 0, "simulated": 2400,
            "events": 165500, "resolved": True,
            "counts": {"mem.accesses": 7}})
    return {"workload": "worker32-media", "fleet": False, "seed": 1,
            "traced": False, "peak_rss_kb": 80000, "yardstick_s": yard,
            "reps": reps}


def slowed(doc, factor):
    """The same run on a host @factor times slower."""
    doc = copy.deepcopy(doc)
    doc["yardstick_s"] = [[p * factor for p in phases]
                          for phases in doc["yardstick_s"]]
    for r in doc["reps"]:
        for k in ("workload_s", "server_s", "run_s"):
            r[k] *= factor
    return doc


class Correction(unittest.TestCase):
    def test_slowdown_of_host_leaves_corrected_values(self):
        base = harness.timed_values(synthetic_run())
        slow = harness.timed_values(slowed(synthetic_run(), 1.7))
        for k in ("sim_req_per_s", "setup_s", "sim.host_ns_per_event",
                  "setup.server_s"):
            self.assertAlmostEqual(base[k] / slow[k], 1.0, places=12, msg=k)
        self.assertAlmostEqual(
            base["host.raw_sim_req_per_s"] / slow["host.raw_sim_req_per_s"],
            1.7, places=12)

    def test_nominal_host_reads_raw(self):
        self.assertAlmostEqual(
            harness.corrected(0.5, harness.NOMINAL_YARDSTICK_S), 0.5)
        self.assertAlmostEqual(
            harness.corrected(0.5, 2 * harness.NOMINAL_YARDSTICK_S), 0.25)


class Checks(unittest.TestCase):
    def test_clean_run(self):
        digest, attempted, failed, errors = harness.check(synthetic_run())
        self.assertEqual((digest, attempted, failed, errors),
                         ("ab" * 8, 3 * 1920, 0, []))

    def test_digest_mismatch_fails_the_whole_rep(self):
        doc = synthetic_run()
        doc["reps"][2]["digest"] = "cd" * 8
        doc["reps"][3]["incomplete"] = 5
        _, attempted, failed, errors = harness.check(doc)
        self.assertEqual(attempted, 3 * 1920)
        self.assertEqual(failed, 1920 + 5)
        self.assertEqual(len(errors), 1)

    def test_unresolved_request_is_an_error(self):
        doc = synthetic_run()
        doc["reps"][1]["resolved"] = False
        self.assertTrue(harness.check(doc)[3])


class MetricFormat(unittest.TestCase):
    LINE = re.compile(r"^(\S+) +(\S+) +(\S+)(?: +\((higher|lower) is "
                      r"better\))?$")

    def test_metric_line_has_name_value_unit_direction(self):
        line = harness.metric_line("sim_req_per_s", 5766.42, "req/s",
                                   "higher")
        m = self.LINE.match(line)
        self.assertTrue(m, line)
        self.assertEqual(m.groups(),
                         ("sim_req_per_s", "5766.42", "req/s", "higher"))
        m = self.LINE.match(harness.metric_line("mem.accesses", 7, "count"))
        self.assertEqual(m.groups(), ("mem.accesses", "7", "count", None))

    def test_result_line(self):
        res = harness.result(True, 10, 0, {"setup_s": (0.5, "s")})
        self.assertEqual(json.loads(json.dumps(res)), {
            "correct": True, "attempted": 10, "failed": 0,
            "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}})

    def test_benchmark_json_matches_harness(self):
        path = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]},
            harness.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         harness.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         run.WORKLOADS)


class Binaries(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.dir = run.build()
        subprocess.run(["cmake", "--build", cls.dir, "--target",
                        "perfbench_selftest"], check=True,
                       stdout=subprocess.DEVNULL)

    def test_nested_span_self_time(self):
        subprocess.run([os.path.join(self.dir, "perfbench_selftest")],
                       check=True, stdout=subprocess.DEVNULL)

    def digest(self, seed):
        doc = run.drive("perfbench_timed", "worker32-media", seed, 0,
                        time.monotonic() + 600)
        digest, _, failed, errors = harness.check(doc)
        self.assertEqual((failed, errors), (0, []))
        return digest

    def test_digest_follows_the_seed(self):
        first = self.digest(1)
        self.assertEqual(self.digest(1), first)
        self.assertNotEqual(self.digest(2), first)


if __name__ == "__main__":
    unittest.main()
