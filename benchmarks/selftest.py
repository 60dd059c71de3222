"""Self-tests of the benchmark itself (about half a minute):

    PYTHONPATH=src python3 benchmarks/selftest.py
"""

import json
import sys
import unittest

import checks
import gen
import run
import tracer
from worker import Engine

SEEDS = (0, 1, 12345)


def small_ops():
    """A few operations of every kind, from both product workloads."""
    ops = gen.generate("orbit-ideal", 7)
    kinds = {}
    for op in ops:
        kinds.setdefault(op["id"].split("/")[0], []).append(op)
    return gen.generate("sym-star", 7)[:3] + [o for v in kinds.values() for o in v[:2]]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in gen.WORKLOADS:
            for seed in SEEDS:
                first = json.dumps(gen.generate(workload, seed))
                self.assertEqual(first, json.dumps(gen.generate(workload, seed)))

    def test_seeds_differ(self):
        for workload in ("sym-star", "orbit-ideal"):
            lists = {json.dumps(gen.generate(workload, s)) for s in SEEDS}
            self.assertEqual(len(lists), len(SEEDS))

    def test_inputs_parse_and_have_goldens(self):
        engine = Engine()
        golden = checks.load_golden()
        for workload in ("sym-star", "orbit-ideal"):
            for op in gen.pool(workload):
                self.assertIn(op["id"], golden)
                for text in op["args"]:
                    engine.parse(text, noncommutative=op.get("mode") == "ideal")


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.engine = Engine()
        cls.ops = small_ops()
        cls.outs = [cls.engine.run(op) for op in cls.ops]
        cls.golden = checks.load_golden()

    def test_outputs_match_goldens_and_checks(self):
        self.assertEqual(checks.count_failures(self.ops, self.outs, self.golden), 0)
        self.assertEqual(checks.independent_failures(self.engine, self.ops, self.outs), 0)

    def test_perturbed_golden_is_a_failure(self):
        golden = dict(self.golden)
        key = self.ops[0]["id"]
        golden[key] = "0" * len(golden[key])
        self.assertEqual(checks.count_failures(self.ops, self.outs, golden), 1)

    def test_perturbed_results_fail_independent_checks(self):
        for op, text in zip(self.ops, self.outs):
            with self.subTest(op=op["id"]):
                if op["kind"] == "star":
                    bad = text + " + x*y*z"
                elif op["mode"] == "ideal":
                    bad = text + " + h*X*Y"
                else:
                    bad = text + " + x"
                self.assertEqual(checks.independent_failures(self.engine, [op], [bad]), 1)

    def test_verify_gate(self):
        ok = json.dumps({"exit": 0, "reports": [{"status": "pass"}] * 60})
        short = json.dumps({"exit": 0, "reports": [{"status": "pass"}] * 59})
        bad = json.dumps({"exit": 1, "reports": [{"status": "pass"}] * 59
                          + [{"status": "fail"}]})
        op = [{"id": "verify/all", "kind": "verify"}]
        self.assertEqual(checks.count_failures(op, [ok], {}), 0)
        self.assertEqual(checks.count_failures(op, [short], {}), 1)
        self.assertEqual(checks.count_failures(op, [bad], {}), 1)

    def test_wrapped_runs_return_identical_results(self):
        for make in (tracer.Tracer, tracer.ScalarCounter):
            with self.subTest(instrument=make.__name__):
                instrument = make()
                instrument.install()
                try:
                    engine = Engine()
                    wrapped = [engine.run(op) for op in self.ops]
                finally:
                    instrument.uninstall()
                self.assertEqual(wrapped, self.outs)


class RepeatTest(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        ops = small_ops()
        for mode in ("trace", "count"):
            first, second = (run.run_worker(mode, ops) for _ in range(2))
            self.assertEqual(first["failed"], 0)
            exact = {k: v for k, v in first["layers"].items()
                     if not k.endswith(("_s", "_ns"))}
            self.assertTrue(any(exact.values()))
            for name, value in exact.items():
                self.assertEqual(second["layers"][name], value, name)


if __name__ == "__main__":
    sys.exit(unittest.main())
