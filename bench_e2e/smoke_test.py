#!/usr/bin/env python3
"""bench_e2e_smoke: runs `bench_e2e --workload=all --smoke` on tiny graphs
and asserts that

  * every metric BENCHMARK.json lists is printed for every workload, with
    the listed unit;
  * every oracle check passes and the driver exits 0;
  * the trace file parses, and every layer span lies inside its request's
    root span (layer spans tile the root, so coverage is not asserted: it
    is 1 by construction);
  * --seed=1 and --seed=2 produce different request streams, and two runs
    with --seed=1 report identical deterministic counters.

Registered as a ctest by bench_e2e/CMakeLists.txt.
"""

import argparse
import json
import os
import subprocess
import sys
import unittest

# Counters a fixed seed makes deterministic: they must repeat exactly.
DETERMINISTIC = [
    "index_mb",
    "labeling.bytes",
    "labeling.bp_bytes",
    "delta_cache.bytes",
    "protocol.response_bytes",
    "result_cache.replay_hit_rate",
    "sketch.short_circuit_frac",
    "guided_search.edges_search",
    "guided_search.edges_reverse",
    "guided_search.edges_recover",
    "guided_search.edges_direct",
    "guided_search.lb_prunes",
    "guided_search.landmark_edges_skipped",
    "guided_search.cov_all_frac",
    "guided_search.cov_some_frac",
    "guided_search.cov_none_frac",
    "delta_cache.hits_per_query",
    "spg.edges_per_answer",
    "updatable_index.columns_repaired",
    "updatable_index.columns_rebuilt",
    "baselines.bibfs_edges_per_query",
]

ARGS = None


def run_driver(seed, tag):
    trace = os.path.join(ARGS.work_dir, "trace-%s.json" % tag)
    proc = subprocess.run(
        [ARGS.binary, "--workload=all", "--smoke", "--seed=%d" % seed,
         "--trace=" + trace, "--work-dir=" + ARGS.work_dir],
        stdout=subprocess.PIPE, text=True, timeout=240)
    metrics, checks, meta = {}, [], {}
    for line in proc.stdout.splitlines():
        fields = line.split()
        if fields and fields[0] == "metric":
            metrics[(fields[1], fields[2])] = (float(fields[3]), fields[4])
        elif fields and fields[0] == "check":
            checks.append(line)
        elif fields and fields[0] == "meta":
            kv = dict(f.split("=", 1) for f in fields[1:] if "=" in f)
            meta[kv["workload"]] = kv
    with open(trace) as f:
        spans = json.load(f)
    return proc.returncode, metrics, checks, meta, spans


class SmokeTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        os.makedirs(ARGS.work_dir, exist_ok=True)
        with open(ARGS.benchmark_json) as f:
            cls.spec = json.load(f)
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]
        cls.runs = {tag: run_driver(seed, tag)
                    for tag, seed in (("1a", 1), ("1b", 1), ("2", 2))}

    def test_exit_code_and_oracle_checks(self):
        for tag, (code, _, checks, _, _) in self.runs.items():
            self.assertEqual(code, 0, "run %s exited %d" % (tag, code))
            self.assertTrue(checks, "run %s printed no checks" % tag)
            for line in checks:
                self.assertTrue(line.endswith(" ok"), line)

    def test_every_listed_metric_is_printed(self):
        listed = self.spec["end_to_end"] + self.spec["per_layer"]
        for tag, (_, metrics, _, _, _) in self.runs.items():
            for w in self.workloads:
                for m in listed:
                    key = (w, m["name"])
                    self.assertIn(key, metrics, "run %s: missing %s" %
                                  (tag, key))
                    self.assertEqual(metrics[key][1], m["unit"], key)

    def test_trace_parses_and_nests(self):
        for tag, (_, _, _, _, trace) in self.runs.items():
            runs = {r["workload"]: r["spans"] for r in trace["runs"]}
            self.assertEqual(sorted(runs), sorted(self.workloads))
            for w, spans in runs.items():
                self.assertTrue([s for s in spans if s["parent"] < 0], (tag, w))
                for s in spans:
                    if s["parent"] >= 0:
                        parent = spans[s["parent"]]
                        self.assertLess(parent["parent"], 0, (tag, w))
                        self.assertEqual(parent["request"], s["request"])
                        self.assertGreaterEqual(s["start_ns"],
                                                parent["start_ns"])
                        self.assertLessEqual(s["end_ns"], parent["end_ns"])

    def test_seeds_change_the_stream(self):
        meta1, meta2 = self.runs["1a"][3], self.runs["2"][3]
        for w in self.workloads:
            self.assertNotEqual(meta1[w]["stream_digest"],
                                meta2[w]["stream_digest"], w)
            self.assertEqual(meta1[w]["stream_digest"],
                             self.runs["1b"][3][w]["stream_digest"], w)

    def test_deterministic_counters_repeat(self):
        a, b = self.runs["1a"][1], self.runs["1b"][1]
        for w in self.workloads:
            for name in DETERMINISTIC:
                self.assertEqual(a[(w, name)], b[(w, name)], (w, name))


def main():
    global ARGS
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", required=True)
    parser.add_argument("--benchmark-json", required=True)
    parser.add_argument("--work-dir", required=True)
    ARGS, rest = parser.parse_known_args()
    unittest.main(argv=[sys.argv[0]] + rest)


if __name__ == "__main__":
    main()
