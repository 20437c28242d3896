"""Tests of the benchmark harness (perfbench/run.py and the perfbench
binary it builds).

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

The first test to run builds perfbench; every workload then runs for the
minimum number of repetitions (--seconds 0.1); the suite takes two to
three minutes on a 4-vCPU box.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCRATCH = ROOT / ".bench_build" / "perfbench-tests"

_runs = {}


def run(*args, cwd=ROOT):
    """Run run.py; returns (status, result, meta, stdout)."""
    p = subprocess.run(RUN + list(args), cwd=cwd, capture_output=True,
                       text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = meta = None
    if lines and lines[-1].startswith('{"correct"'):
        result = json.loads(lines[-1])
    for line in lines:
        if line.startswith('{"meta"'):
            meta = json.loads(line)["meta"]
    return p.returncode, result, meta, p.stdout


def short_run(workload, seed, trace):
    key = (workload, seed, trace)
    if key not in _runs:
        _runs[key] = run("--workload", workload, "--seed", str(seed),
                         "--seconds", "0.1", "--trace", str(trace))
    return _runs[key]


class SpecTest(unittest.TestCase):
    def test_spec_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end",
                                     "per_layer"})
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"]] + \
            [m["name"] for m in SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class HarnessTest(unittest.TestCase):
    def test_every_declared_metric_is_emitted(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    status, result, meta, out = short_run(w, 1, trace)
                    self.assertEqual(status, 0, out)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"]
                           for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for k in got:
                        self.assertRegex(k, NAME)
                    for key in ("build_type", "compiler", "nproc",
                                "campaign_threads", "seed", "run_length",
                                "reps", "source_sha256"):
                        self.assertIn(key, meta)

    def test_end_to_end_metrics_are_never_zero(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, result, _, _ = short_run(w, 1, 0)
                for k, v in result["metrics"].items():
                    self.assertGreater(v["value"], 0, k)

    def test_seed_changes_inputs_not_metric_set(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, r1, m1, _ = short_run(w, 1, 0)
                status, r2, m2, out = short_run(w, 2, 0)
                self.assertEqual(status, 0, out)
                self.assertNotEqual(m1["input_digest"], m2["input_digest"])
                # The digest hashes the seed itself; the simulated
                # counters show that the seed also reaches the program.
                self.assertNotEqual(m1["sim_counters"], m2["sim_counters"])
                self.assertEqual(set(r1["metrics"]), set(r2["metrics"]))

    def test_planted_wrong_verdict_count_fails(self):
        for w, trace in (("litmus_campaign", 0), ("litmus_campaign", 1),
                         ("contract_random", 1), ("replay_sim", 1)):
            with self.subTest(workload=w, trace=trace):
                status, result, _, out = run(
                    "--workload", w, "--seed", "1", "--seconds", "0.1",
                    "--trace", str(trace), "--plant-wrong-count")
                self.assertEqual(status, 1, out)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertIn("CHECK FAILED", out)

    def test_fingerprint_diff_names_the_changed_counter(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        old = SCRATCH / "fp-old.json"
        new = SCRATCH / "fp-new.json"
        status, _, _, out = run("--workload", "replay_sim", "--seed", "1",
                                "--seconds", "0.1", "--fingerprint",
                                str(old))
        self.assertEqual(status, 0, out)
        fp = json.loads(old.read_text())
        self.assertGreater(fp["counters"]["cpu.instructions"], 0)
        self.assertIn("bus.msgs", fp["stats"])

        p = subprocess.run(RUN + ["--fingerprint-diff", str(old), str(old)],
                           capture_output=True, text=True)
        self.assertEqual(p.returncode, 0, p.stdout)

        fp["counters"]["coherence.misses"] += 1
        new.write_text(json.dumps(fp))
        p = subprocess.run(RUN + ["--fingerprint-diff", str(old), str(new)],
                           capture_output=True, text=True)
        self.assertEqual(p.returncode, 1)
        self.assertIn("coherence.misses", p.stdout)
        self.assertNotIn("cpu.instructions", p.stdout)

    def test_committed_fingerprints_cover_every_workload(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                fp = json.loads((ROOT / "perfbench" / "fingerprints" /
                                 (w + ".seed1.json")).read_text())
                self.assertEqual(fp["workload"], w)
                self.assertEqual(fp["seed"], 1)
                self.assertTrue(fp["stats"])

    def test_fails_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "litmus_campaign", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
                env={k: v for k, v in os.environ.items()
                     if k != "CARGO_TARGET_DIR"})
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
