"""Self-test of the benchmark: the correctness gate counts broken ops, and
every workload runs end to end at tiny size with the metric names that
BENCHMARK.json declares.

Run from the repository root::

    python3 benchmarks/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import unittest

import run as bench

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _smoke_instances(name, seed=5):
    workload = bench.SMOKE[name]
    return workload, bench.build_instances(workload, seed, bench.tracing.Tracer(), bench.MachineClock())


class GateTest(unittest.TestCase):
    def test_clean_repeat_passes(self):
        workload, instances = _smoke_instances("bw-lyapunov-n100")
        tally, texts, tracer = bench.Tally(), {}, bench.tracing.Tracer()
        for _ in range(2):
            bench.run_pass(workload, instances, texts, tally, tracer, bench.MachineClock())
        self.assertEqual((tally.attempted, tally.failed), (4, 0))

    def test_corrupted_phi_star_fails_every_op(self):
        for name in ("sphere-com", "bw-lyapunov-diag"):
            workload, instances = _smoke_instances(name)
            instances[0].phi_star += 1e-3 * max(1.0, abs(instances[0].phi_star))
            tally = bench.Tally()
            with contextlib.redirect_stderr(io.StringIO()) as err:
                bench.run_pass(workload, instances, {}, tally, bench.tracing.Tracer(), bench.MachineClock())
            self.assertEqual((tally.attempted, tally.failed), (2, 2), name)
            self.assertIn("gap", err.getvalue())

    def test_perturbed_csv_fails_that_op(self):
        workload, instances = _smoke_instances("bw-lyapunov-diag")
        tally, texts, tracer = bench.Tally(), {}, bench.tracing.Tracer()
        bench.run_pass(workload, instances, texts, tally, tracer, bench.MachineClock())
        # One digit of the last row's phi changes, as a nondeterministic
        # kernel would change it.
        text = texts[(0, 1)]
        head, last = text.rstrip("\n").rsplit("\n", 1)
        fields = last.split(",")
        fields[1] = fields[1][:-1] + ("1" if fields[1][-1] != "1" else "2")
        texts[(0, 1)] = head + "\n" + ",".join(fields) + "\n"
        with contextlib.redirect_stderr(io.StringIO()) as err:
            bench.run_pass(workload, instances, texts, tally, tracer, bench.MachineClock())
        self.assertEqual((tally.attempted, tally.failed), (4, 1))
        self.assertIn("CSV differs", err.getvalue())


class SmokeTest(unittest.TestCase):
    def _result(self, workload, trace):
        out = io.StringIO()
        argv = ["--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--smoke"]
        with contextlib.redirect_stdout(out):
            self.assertEqual(bench.main(argv), 0)
        return json.loads(out.getvalue().splitlines()[-1])

    def test_every_workload_reports_declared_metrics(self):
        self.assertEqual(sorted(w["name"] for w in BENCHMARK["workloads"]),
                         sorted(bench.WORKLOADS))
        for workload in bench.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = self._result(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
                    reported = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(reported, declared)
                    if trace and workload == "sphere-com":
                        for kernel in ("sym_eig", "cholesky", "solve_lyapunov", "spd_sqrt"):
                            self.assertEqual(result["metrics"][f"linalg.{kernel}.calls"]["value"], 0)
                    if trace and workload == "bw-lyapunov-n100":
                        self.assertEqual(result["metrics"]["manifolds.distance.calls"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
