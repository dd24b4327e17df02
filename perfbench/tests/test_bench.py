"""The benchmark's own tests.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

They build the benchmark once (release) and run it at tiny scale, except
the spill check, which needs the real `orderkey_spill` size.
"""

import json
import math
import os
import shutil
import subprocess
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.dirname(HERE)
REPO = os.path.dirname(PACKAGE)
MANIFEST = os.path.join(PACKAGE, "Cargo.toml")
# Runtime output of the tests, under the benchmark's ignored output dir.
SCRATCH = os.path.join(PACKAGE, "out", "tests")

with open(os.path.join(REPO, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def run(workload, *extra, trace=0, seconds=1, seed=7, out=None, env=None):
    """Run the benchmark through cargo, as the benchmark command does.
    Returns (exit code, last stdout line parsed as JSON or None, out dir)."""
    os.makedirs(SCRATCH, exist_ok=True)
    out = out or tempfile.mkdtemp(dir=SCRATCH)
    cmd = [
        "cargo", "run", "--release", "--offline", "--quiet",
        "--manifest-path", MANIFEST, "--",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", out,
        *extra,
    ]
    proc = subprocess.run(
        cmd, cwd=REPO, capture_output=True, text=True, timeout=600,
        env={**os.environ, **(env or {})},
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result, out


def results_file(out, workload, seed, trace):
    with open(os.path.join(out, f"{workload}-seed{seed}-trace{trace}.json")) as f:
        return json.load(f)


def leftover_temp_roots(out):
    return [e for e in os.listdir(out) if e.startswith("tmp-")]


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)


TINY = ["--sf", "0.01"]
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


class SmokeTest(unittest.TestCase):
    def test_every_workload_emits_every_metric_with_unit(self):
        for workload in WORKLOADS:
            for trace, declared in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result, out = run(workload, *TINY, trace=trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"}
                    )
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in BENCHMARK[declared]}
                    self.assertEqual(set(result["metrics"]), set(want))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], want[name], name)
                        self.assertIsInstance(metric["value"], (int, float), name)
                        self.assertTrue(math.isfinite(metric["value"]), name)
                    self.assertEqual(leftover_temp_roots(out), [])


class CorrectnessGateTest(unittest.TestCase):
    def test_corrupted_expected_answer_fails_the_run(self):
        code, result, out = run("q1_resident", *TINY, "--corrupt-expected")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        # The temp root goes on the failure path too.
        self.assertEqual(leftover_temp_roots(out), [])

    def test_benchmark_alone_fails_without_a_result(self):
        # BENCHMARK.json and the benchmark's directory, without the engine.
        os.makedirs(SCRATCH, exist_ok=True)
        bare = tempfile.mkdtemp(dir=SCRATCH)
        shutil.copy(os.path.join(REPO, "BENCHMARK.json"), bare)
        shutil.copytree(
            PACKAGE,
            os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("out", "target", "__pycache__"),
        )
        proc = subprocess.run(
            ["cargo", "run", "--release", "--offline", "--quiet",
             "--manifest-path", "perfbench/Cargo.toml", "--",
             "--workload", "q1_resident", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=300,
            env={**os.environ, "CARGO_TARGET_DIR": os.path.join(bare, ".bench_build")},
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


class LayerBehaviourTest(unittest.TestCase):
    def test_orderkey_spill_spills_on_every_query(self):
        code, _, out = run("orderkey_spill", seconds=2, seed=3)
        self.assertEqual(code, 0)
        res = results_file(out, "orderkey_spill", 3, 0)
        queries = res["warmup_queries"] + res["queries"]
        self.assertTrue(queries)
        for q in queries:
            self.assertEqual(q["outcome"], "correct")
            self.assertGreater(q["temp_written"], 0)

    def test_q1_resident_neither_spills_nor_evicts(self):
        code, _, out = run("q1_resident", seconds=2, seed=3)
        self.assertEqual(code, 0)
        res = results_file(out, "q1_resident", 3, 0)
        for q in res["warmup_queries"] + res["queries"]:
            self.assertEqual(q["outcome"], "correct")
            self.assertEqual(q["temp_written"], 0)
            self.assertEqual(q["evictions"], 0)


class HygieneTest(unittest.TestCase):
    def test_temp_root_is_gone_and_nothing_lands_in_the_system_temp_dir(self):
        with tempfile.TemporaryDirectory() as inherited:
            code, result, out = run(
                "orderkey_spill", *TINY, trace=1, env={"TMPDIR": inherited}
            )
            self.assertEqual(code, 0)
            self.assertEqual(leftover_temp_roots(out), [])
            # The engine's scratch directories went into the run's temp
            # root, never into the temp directory the process inherited.
            self.assertEqual(
                [e for e in os.listdir(inherited) if e.startswith("rexa-")], []
            )
        self.assertGreaterEqual(
            result["metrics"]["storage.temp_leftover_bytes"]["value"], 0
        )


if __name__ == "__main__":
    unittest.main()
