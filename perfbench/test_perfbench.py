#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny inputs.

    python3 perfbench/test_perfbench.py

- Every workload, untraced and traced, emits exactly the metrics
  BENCHMARK.json names for that mode, each with its declared unit, and
  passes its correctness checks.
- run.py's result check rejects a declared metric that was not produced,
  outside the layers a workload leaves idle, and a wrong unit.
- In a traced serve-saturate run the stage spans account for each
  decision's latency: latency from issue minus (observe + submit +
  complete) is a gap of bookkeeping between clock reads. It must stay
  under GAP_TOLERANCE_MS for at least 99% of decisions (a thread
  preempted between two clock reads can widen a rare gap).
"""
import csv
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GAP_TOLERANCE_MS = 0.05

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, spans=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny", "1"]
    if spans:
        cmd += ["--spans", spans]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError("%s failed (%d):\n%s\n%s" % (cmd, out.returncode, out.stdout,
                                                         out.stderr[-4000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        result = run(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])

    def test_workloads_untraced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 0)

    def test_workloads_traced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 1)


def load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class ResultCheck(unittest.TestCase):
    def setUp(self):
        self.run_py = load_run_module()
        self.declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

    def result(self, names):
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {n: {"value": 1.5, "unit": self.declared[n]} for n in names}}

    def produced(self, workload):
        idle = self.run_py.IDLE[workload]
        return [n for n in self.declared if not n.startswith(idle)]

    def test_idle_layers_read_zero(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                out = self.run_py.complete(self.result(self.produced(w["name"])), w["name"],
                                           True, SPEC)["metrics"]
                self.assertEqual(set(out), set(self.declared))
                for name, m in out.items():
                    self.assertEqual(m["unit"], self.declared[name])
                    self.assertEqual(m["value"], 0 if name.startswith(self.run_py.IDLE[w["name"]])
                                     else 1.5, name)

    def test_missing_metric_fails(self):
        for w in SPEC["workloads"]:
            produced = self.produced(w["name"])
            for dropped in (produced[0], produced[-1]):
                with self.subTest(workload=w["name"], dropped=dropped):
                    names = [n for n in produced if n != dropped]
                    with self.assertRaises(ValueError):
                        self.run_py.complete(self.result(names), w["name"], True, SPEC)

    def test_wrong_unit_and_undeclared_fail(self):
        w = SPEC["workloads"][0]["name"]
        bad = self.result(self.produced(w))
        bad["metrics"]["machine.ref_us"]["unit"] = "ms"
        with self.assertRaises(ValueError):
            self.run_py.complete(bad, w, True, SPEC)
        extra = self.result(self.produced(w))
        extra["metrics"]["undeclared"] = {"value": 1, "unit": "s"}
        with self.assertRaises(ValueError):
            self.run_py.complete(extra, w, True, SPEC)


class LatencyAccounting(unittest.TestCase):
    def test_stages_sum_to_latency(self):
        build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        os.makedirs(build_root, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_root) as tmp:
            path = os.path.join(tmp, "spans.csv")
            run("serve-saturate", 1, spans=path)
            with open(path) as f:
                rows = list(csv.DictReader(f))
        roots = {r["id"]: r for r in rows if r["name"] == "bench.decision"}
        stages = {}
        for r in rows:
            if r["parent"] in roots:
                stages.setdefault(r["parent"], {})[r["name"]] = r
        self.assertGreater(len(roots), 100)
        gaps = []
        for rid, root in roots.items():
            s = stages.get(rid, {})
            self.assertEqual(set(s), {"serve.observe", "serve.decide_async_pooled",
                                      "serve.async_get"}, rid)
            dur = lambda r: float(r["end_us"]) - float(r["start_us"])
            accounted = sum(dur(r) for r in s.values())
            gap_ms = (dur(root) - accounted) / 1e3
            self.assertGreaterEqual(gap_ms, -1e-3, rid)  # stages never overlap
            gaps.append(gap_ms)
        within = sum(g <= GAP_TOLERANCE_MS for g in gaps) / len(gaps)
        self.assertGreaterEqual(within, 0.99, "max gap %.4f ms" % max(gaps))


if __name__ == "__main__":
    unittest.main()
