"""Self-tests of the benchmark, on the reduced-size (`--small`) workloads.

    python3 perfbench/selftest.py

Not collected by the repository's pytest run (the file name does not match
test_*.py); it takes about half a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import outputs  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END, run_in_process  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class MetricsAreReported(unittest.TestCase):
    def test_spec_matches_the_code(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]}, layers.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in SPEC["workloads"]), workloads.WORKLOADS)
        from idealhash.checks import ALL_CHECKS

        self.assertEqual(layers.CHECK_NAMES, tuple(fn.__name__ for fn in ALL_CHECKS))

    def test_every_metric_printed_with_its_unit(self):
        for workload in workloads.WORKLOADS:
            for trace, spec in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--small")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, {m["name"]: m["unit"] for m in spec})
                    for name, m in result["metrics"].items():
                        self.assertTrue(math.isfinite(m["value"]), name)
                    if trace == "0":
                        for name in END_TO_END:
                            self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_no_sources_no_result(self):
        bare = ROOT / ".perfbench_selftest"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = _run("--workload", "counting", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class ChecksCatchBadOutput(unittest.TestCase):
    ref = outputs.load_reference()

    def _call(self, workload: str, name: str) -> workloads.Call:
        work = ROOT / ".perfbench_selftest"
        work.mkdir(exist_ok=True)
        try:
            return next(c for c in workloads.build(workload, 1, work) if c.name == name)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def test_wrong_digest_fails(self):
        call = self._call("counting", "check-lemmas")
        _dt, rc, out, err = run_in_process(call)
        self.assertIsNone(outputs.failure_reason(call, rc, out, err, self.ref, small=False))
        tampered = out.replace(b'"all_ok": true', b'"all_ok": true ')
        self.assertIn("sha256", outputs.failure_reason(call, rc, tampered, err, self.ref, small=False))

    def test_estimate_out_of_tolerance_fails(self):
        call = self._call("montecarlo", "ideal-prob-u4096")
        p = self.ref["estimates"]["ideal_prob_u4096"]
        se = math.sqrt(p * (1 - p) / 20000)

        def stdout(mean: float) -> bytes:
            return json.dumps({"mean": mean, "trials": 20000, "seed": 1, "ci95_halfwidth": 1.96 * se}).encode()

        self.assertIsNone(outputs.failure_reason(call, 0, stdout(p + 2 * se), b"", self.ref, small=False))
        self.assertIn("standard errors", outputs.failure_reason(call, 0, stdout(p + 6 * se), b"", self.ref, small=False))

    def test_silent_exit_and_traceback_fail(self):
        call = self._call("counting", "check-lemmas")
        self.assertEqual(outputs.failure_reason(call, 0, b"", b"", self.ref, small=False), "empty stdout")
        trace = b"Traceback (most recent call last):\nZeroDivisionError: float division by zero\n"
        self.assertIn("ZeroDivisionError", outputs.failure_reason(call, 0, b"{}", trace, self.ref, small=False))

    def test_bounds_off_reference_fails(self):
        call = self._call("counting", "bounds-n600")
        _dt, rc, out, err = run_in_process(call)
        self.assertIsNone(outputs.failure_reason(call, rc, out, err, self.ref, small=False))
        doc = json.loads(out)
        tight = next(e for e in doc["bounds"] if e["name"] == "upper.prob.tight")
        tight["ln"] += 1e-5
        bad = json.dumps(doc).encode()
        self.assertIn("upper.prob.tight", outputs.failure_reason(call, rc, bad, err, self.ref, small=False))


class TracedSelfTimes(unittest.TestCase):
    def test_self_times_add_up_to_each_root(self):
        work = ROOT / ".perfbench_selftest"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        try:
            calls = [c for w in workloads.WORKLOADS for c in workloads.build(w, 2, work, small=True)]
            tracer = layers.make_tracer()
            for call in calls:
                with tracer:
                    run_in_process(call)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        self.assertEqual(len(tracer.roots), len(calls))
        for name, duration, self_sum in tracer.roots:
            self.assertEqual(name, "cli.run")
            self.assertAlmostEqual(self_sum, duration, delta=1e-9 * max(1.0, duration))
        total_self = sum(st.self_s for st in tracer.stats.values())
        self.assertAlmostEqual(total_self, sum(d for _n, d, _s in tracer.roots), delta=1e-6)
        self.assertGreater(tracer.stats["oracle.cover_mask"].calls, 0)
        self.assertGreater(tracer.stats["checks.check_tmax_sandwich"].calls, 0)

    def test_uninstall_restores_the_package(self):
        from idealhash import checks, construct, oracle

        before = (oracle.cover_mask, construct.cover_mask, checks.ALL_CHECKS)
        with layers.make_tracer():
            self.assertIsNot(oracle.cover_mask, before[0])
            self.assertIs(construct.cover_mask, oracle.cover_mask)
        self.assertEqual((oracle.cover_mask, construct.cover_mask, checks.ALL_CHECKS), before)


if __name__ == "__main__":
    unittest.main()
