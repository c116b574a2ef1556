#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_bench.py

They build the harness (as run.py does), then check that the op plan and the
fixed op set are a function of the seed alone, and that run.py refuses
reports that are not valid measurements.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

SECONDS = 2
_built = None


def harness():
    global _built
    if _built is None:
        _built = bench.build()
    return _built


def report(workload, seed):
    """Run the harness directly (no result-line validation) and return its
    report, so short runs can be inspected."""
    exe, fzmod = harness()
    env, _ = bench.clean_env()
    d = os.path.join(bench.ROOT, ".perfbench_run", f"test-{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    try:
        common = ["--workload", workload, "--seed", str(seed), "--dir", d]
        subprocess.run([exe, "prepare"] + common, env=env, check=True)
        r = subprocess.run([exe, "run"] + common + ["--seconds", str(SECONDS),
                           "--trace", "0", "--fzmod", fzmod],
                           env=env, check=True, capture_output=True, text=True)
        return json.loads(r.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(d, ignore_errors=True)


def fixed_facts(rep):
    """What must repeat exactly for one seed: the plan, the fixed op set's
    byte counts, compression ratio and PSNR. ("ops" is how many ops the
    time budget allowed, which is allowed to differ.)"""
    f = {k: v for k, v in rep["fixed"].items() if k != "ops"}
    f["compression_ratio"] = rep["metrics"]["compression_ratio"]["value"]
    f["psnr_db"] = rep["metrics"]["psnr_db"]["value"]
    return f


class SeedDeterminism(unittest.TestCase):
    def check(self, workload, changed_key):
        a, b, c = report(workload, 7), report(workload, 7), report(workload, 8)
        for rep in (a, b, c):
            self.assertEqual(rep["failed"], 0, rep["failures"])
            self.assertEqual(rep["violations"], [])
        # Same seed twice: identical op sequence, byte counts, ratio, PSNR.
        self.assertEqual(fixed_facts(a), fixed_facts(b))
        # Another seed: other inputs, same op counts.
        self.assertNotEqual(a["fixed"][changed_key], c["fixed"][changed_key])
        for key in ("fixed_ops", "fixed_compress_ops", "chunks"):
            if key in a["fixed"]:
                self.assertEqual(a["fixed"][key], c["fixed"][key], key)

    def test_cli_oneshot(self):
        self.check("cli-oneshot", "plan_digest")

    def test_serve_mixed(self):
        self.check("serve-mixed", "plan_digest")

    def test_stream_archive(self):
        self.check("stream-archive", "input_digest")


class ReportValidation(unittest.TestCase):
    def setUp(self):
        self.bench = bench.load_benchmark()

    def good(self, trace=False):
        listed = self.bench["per_layer" if trace else "end_to_end"]
        rep = {
            "workload": "serve-mixed", "attempted": 10, "failed": 0,
            "violations": [],
            "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]} for m in listed},
            "samples": {"latency_p90_ms": {"n": 100, "beyond": 10}},
        }
        if trace:
            rep["layers"] = {"workload_layers":
                             {n: 1.0 for n in bench.WORKLOAD_LAYERS["serve-mixed"]}}
        return rep

    def test_valid_report_passes(self):
        self.assertEqual(len(bench.validate(self.good(), False, self.bench)),
                         len(self.bench["end_to_end"]))
        bench.validate(self.good(True), True, self.bench)

    def test_percentile_with_too_few_samples_fails(self):
        rep = self.good()
        rep["samples"]["latency_p90_ms"] = {"n": 99, "beyond": 9}
        with self.assertRaises(bench.InvalidRun):
            bench.validate(rep, False, self.bench)

    def test_harness_violation_fails(self):
        rep = self.good()
        rep["violations"] = ["latency_p90_ms: only 8 of 84 samples beyond"]
        with self.assertRaises(bench.InvalidRun):
            bench.validate(rep, False, self.bench)

    def test_undefined_metric_fails(self):
        rep = self.good()
        rep["metrics"]["read_p50_us"] = {"value": 5.0, "unit": "us"}
        with self.assertRaises(bench.InvalidRun):
            bench.validate(rep, False, self.bench)

    def test_undefined_layer_metric_fails(self):
        rep = self.good(True)
        rep["layers"]["workload_layers"]["core.reader_hit_pct"] = 70.0
        with self.assertRaises(bench.InvalidRun):
            bench.validate(rep, True, self.bench)

    def test_missing_metric_fails(self):
        rep = self.good()
        del rep["metrics"]["psnr_db"]
        with self.assertRaises(bench.InvalidRun):
            bench.validate(rep, False, self.bench)


if __name__ == "__main__":
    unittest.main(verbosity=2)
