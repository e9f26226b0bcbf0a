#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

They build the benchmark (as perfbench/run.py does) and make smoke-length
runs: every workload emits every metric BENCHMARK.json names, span self
times add up to the traced end-to-end time, a deliberately corrupted
answer is reported as a failure, and a directory without the program's
sources fails without printing a result.
"""

import csv
import json
import math
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCRATCH = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                       ".bench_build", "perfbench-tests")

# Which traced requests a span metric is averaged over.
QUERY_SPANS = ("query.", "exec.")
MUTATION_SPANS = ("graph.commit", "index.apply_delta")


def run(workload, trace, *extra, cwd=ROOT, script=RUN, seconds=1):
    result = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = result.stdout.strip().splitlines()
    return result.returncode, (lines[-1] if lines else ""), result


def result_of(line):
    data = json.loads(line)
    assert set(data) == {"correct", "attempted", "failed", "metrics"}, data
    return data


class MetricsTest(unittest.TestCase):
    def check_metrics(self, data, declared):
        self.assertEqual(set(data["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = data["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_every_workload_emits_every_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                code, line, result = run(workload, 0)
                self.assertEqual(code, 0, result.stderr)
                data = result_of(line)
                self.assertTrue(data["correct"])
                self.assertEqual(data["failed"], 0)
                self.assertGreater(data["attempted"], 0)
                self.check_metrics(data, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(data["metrics"][m["name"]]["value"], 0,
                                       m["name"])
            with self.subTest(workload=workload, trace=1):
                code, line, result = run(workload, 1)
                self.assertEqual(code, 0, result.stderr)
                data = result_of(line)
                self.assertTrue(data["correct"])
                self.check_metrics(data, SPEC["per_layer"])


class TraceTest(unittest.TestCase):
    def test_self_times_and_other_add_up_to_traced_time(self):
        os.makedirs(SCRATCH, exist_ok=True)
        spans_path = os.path.join(SCRATCH, "spans.tsv")
        # serve_ingest has every kind of span: server, query, mutation.
        code, line, result = run("serve_ingest", 1, "--spans-out", spans_path)
        self.assertEqual(code, 0, result.stderr)
        metrics = {k: v["value"] for k, v in result_of(line)["metrics"].items()}

        with open(spans_path) as f:
            spans = list(csv.DictReader(f, delimiter="\t"))
        roots = {}
        children = {}
        for s in spans:
            s["start"], s["end"] = int(s["start_ns"]), int(s["end_ns"])
            if s["parent"] == "-1":
                roots[s["span"]] = s
            else:
                children.setdefault(s["parent"], []).append(s)
        self.assertGreater(len(roots), 10)

        self_ns = {}
        total_ns = 0
        kinds = {"query": 0, "mutation": 0}
        for span_id, root in roots.items():
            kids = sorted(children.get(span_id, []), key=lambda s: s["start"])
            names = {k["name"] for k in kids}
            kinds["mutation" if "graph.commit" in names else "query"] += 1
            # Children lie inside the root and do not overlap each other.
            previous_end = root["start"]
            for kid in kids:
                self.assertGreaterEqual(kid["start"], previous_end)
                self.assertLessEqual(kid["end"], root["end"])
                previous_end = kid["end"]
                self_ns[kid["name"]] = (self_ns.get(kid["name"], 0)
                                        + kid["end"] - kid["start"])
            duration = root["end"] - root["start"]
            covered = sum(k["end"] - k["start"] for k in kids)
            self_ns["request"] = self_ns.get("request", 0) + duration - covered
            total_ns += duration
        self.assertGreater(kinds["mutation"], 0)
        self.assertEqual(sum(self_ns.values()), total_ns)

        # The reported per-layer metrics are these self times, averaged over
        # traced queries, mutations or requests, and the uncovered rest is
        # trace.other_frac; together they give back the traced time.
        requests = kinds["query"] + kinds["mutation"]
        rebuilt = metrics["trace.other_frac"] * total_ns
        self.assertAlmostEqual(metrics["trace.other_frac"],
                               self_ns["request"] / total_ns, places=9)
        for name, ns in self_ns.items():
            if name == "request":
                continue
            if name.startswith(QUERY_SPANS):
                count = kinds["query"]
            elif name.startswith(MUTATION_SPANS):
                count = kinds["mutation"]
            else:
                count = requests
            reported = metrics[name + "_us"]
            self.assertAlmostEqual(reported, ns / 1e3 / count,
                                   delta=1e-9 * max(1.0, reported), msg=name)
            rebuilt += reported * 1e3 * count
        self.assertAlmostEqual(rebuilt / total_ns, 1.0, places=9)


class FailureTest(unittest.TestCase):
    def test_injected_mismatch_is_a_failure(self):
        for workload in ("adhoc_traverse", "serve_zipf"):
            with self.subTest(workload=workload):
                code, line, result = run(workload, 0, "--inject-mismatch")
                self.assertNotEqual(code, 0)
                data = result_of(line)
                self.assertFalse(data["correct"])
                self.assertEqual(data["failed"], 1)

    def test_directory_without_sources_fails_without_result(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"))
        code, line, _ = run("adhoc_traverse", 0, cwd=bare,
                            script=os.path.join(bare, "perfbench", "run.py"))
        shutil.rmtree(bare)
        self.assertNotEqual(code, 0)
        self.assertNotIn("\"correct\"", line)


if __name__ == "__main__":
    unittest.main(verbosity=2)
