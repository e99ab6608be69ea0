#!/usr/bin/env python3
"""Smoke tests of the benchmark itself.

A short run of every workload, untraced and traced, must pass its
correctness check and emit every metric BENCHMARK.json names, with its
unit; the layers each workload exercises must read non-zero; and the
benchmark must fail cleanly in a directory that holds nothing but
BENCHMARK.json and perfbench/.

    python3 perfbench/test_perfbench.py          # about two minutes
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
with open(os.path.join(HERE, "layers.json")) as fh:
    LAYERS = json.load(fh)["layers"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# The named end-to-end figures each workload's report must carry.
NAMED = {
    "gw_sparse": ["goodput_fps", "wideband_msps", "miss_ratio", "phantom_ratio"],
    "gw_collide": ["goodput_fps", "wideband_msps", "miss_ratio", "phantom_ratio"],
    "net_udp": ["accept_p50_us", "accept_p99_us", "capacity_fps",
                "gen.late_p99_us", "gen.late_max_us"],
    "city": ["sim_device_s_per_s"],
}
METADATA = ["commit", "source_digest", "held_out_seed", "simd_isa",
            "build_type", "cxx_flags", "hardware_threads", "seed"]


def run(workload, trace, cwd=ROOT, seconds=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        lines = proc.stdout.strip().splitlines()
        report, result = json.loads(lines[-2]), json.loads(lines[-1])

        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
            elif (workload in LAYERS[m["name"]]["workloads"]
                  and not LAYERS[m["name"]].get("zero_ok")):
                self.assertGreater(got["value"], 0, m["name"])

        for name in NAMED[workload]:
            self.assertIn(name, report["metrics"])
        for key in METADATA:
            self.assertIn(key, report["facts"])
        if trace and workload.startswith("gw_"):
            # The serial decomposition's stages account for its wall time.
            m = result["metrics"]
            staged = m["gateway.channelize_s"]["value"] + m["rt.stream_s"]["value"]
            wall = m["trace.serial_wall_s"]["value"]
            self.assertGreater(staged, 0.9 * wall)
            self.assertLessEqual(staged, wall)

    def test_layer_map_covers_per_layer_metrics(self):
        self.assertEqual(set(LAYERS), {m["name"] for m in SPEC["per_layer"]})
        for name, entry in LAYERS.items():
            self.assertTrue(set(entry["workloads"]) <= set(WORKLOADS), name)

    def test_fails_without_sources(self):
        stripped = os.path.join(ROOT, ".bench_build", "perfbench-selftest")
        shutil.rmtree(stripped, ignore_errors=True)
        os.makedirs(stripped)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
        shutil.copytree(HERE, os.path.join(stripped, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=stripped, env=env, capture_output=True, text=True, timeout=180)
        shutil.rmtree(stripped, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


def _add(workload, trace):
    def test(self):
        self.check(workload, trace)
    setattr(Smoke, f"test_{workload}_{'traced' if trace else 'untraced'}", test)


for _w in WORKLOADS:
    for _t in (0, 1):
        _add(_w, _t)

if __name__ == "__main__":
    unittest.main()
