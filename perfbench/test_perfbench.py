"""Self-tests of the benchmark's own helpers (run before every benchmark
run; also `python3 -m unittest test_perfbench` from this directory, with
PERFBENCH_EXE pointing at a built perfbench binary for the oracle test)."""

import os
import subprocess
import unittest

import benchlib
import run

SPEC_WORKLOADS = ["bulk-paper", "roi-random", "serve-mixed"]
# Reported by every workload.
SPEC_END_TO_END = {"setup_s", "peak_rss_mb", "ratio", "latency_ms"}
# bulk-paper layer numbers recorded at 1, 2 and 4 workers (.w1/.w2/.w4).
SPEC_PER_WORKER = [
    "predictor.autotune_s", "predictor.predict_s",
    "predictor.predict_over_memcpy", "predictor.reconstruct_s",
    "huffman.codebook_s", "huffman.encode_s", "huffman.decode_s",
    "lossless.wrap_s", "lossless.unwrap_s",
    "core.compress_s", "core.decompress_s", "core.decompress_wrapped_s",
    "core.stage_coverage.compress", "core.stage_coverage.decompress",
    "core.replay_over_pipeline.compress",
    "core.replay_over_pipeline.decompress",
]
# Layer numbers at the workload's 4 workers.
SPEC_FLAT = [
    "predictor.autotune_s", "predictor.predict_s", "huffman.codebook_s",
    "huffman.encode_s", "quant.outliers", "huffman.codebook_bytes",
    "lossless.method_lzss", "lossless.method_zerorle",
    "lossless.method_bitshuffle",
    "core.roi_ms.16", "core.roi_ms.32", "core.roi_ms.64", "core.roi_ms.128",
    "io.bytes_per_read", "io.read_fraction", "io.indexed_share",
    "device.memcpy_gbps", "device.arena_hits", "device.arena_misses",
    "device.arena_high_water_mb",
    "serve.queue_p50_ms", "serve.queue_p99_ms", "serve.service_p50_ms",
    "serve.service_p99_ms", "serve.waves", "serve.coalesced_share",
    "serve.admission_deferrals", "serve.backlog_max",
    "serve.generator_late_p99_ms",
    "scaling.compress_speedup.w2", "scaling.compress_speedup.w4",
    "scaling.decompress_speedup.w2", "scaling.decompress_speedup.w4",
    "scaling.decompress_wrapped_speedup.w2",
    "scaling.decompress_wrapped_speedup.w4",
    "trace.overhead_s", "trace.span_coverage",
    # Specified as end-to-end, reported per layer (see benchlib.py).
    "compress_gbps", "compress_wrapped_gbps", "decompress_gbps",
    "decompress_wrapped_gbps", "ratio_wrapped", "roi_reads_per_s", "roi_p50_ms", "roi_p99_ms", "serve_p50_ms",
    "serve_p99_ms", "serve_max_rps", "error_rate",
]


class PercentileRule(unittest.TestCase):
    def test_needs_ten_beyond(self):
        v = list(range(1, 1001))
        self.assertEqual(benchlib.percentile(v, 0.99), 990)  # 10 beyond
        self.assertIsNone(benchlib.percentile(v[:999], 0.99))  # 9 beyond
        self.assertEqual(benchlib.percentile(range(20), 0.5), 9)
        self.assertIsNone(benchlib.percentile(range(19), 0.5))
        self.assertIsNone(benchlib.percentile([], 0.5))

    def test_order_independent(self):
        v = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        self.assertEqual(benchlib.percentile(v, 0.5), 3.0)

    def test_failed_requests_count_as_misses(self):
        v = [1.0] * 985 + [float("inf")] * 15
        self.assertEqual(benchlib.percentile(v, 0.99), float("inf"))


class SpanArithmetic(unittest.TestCase):
    @staticmethod
    def ev(cat, ts, dur, id_, parent, pid=0):
        return {"cat": cat, "name": cat + ".x", "ts": ts, "dur": dur,
                "pid": pid, "args": {"id": id_, "parent": parent, "req": 1}}

    def test_self_time_subtracts_clipped_union_of_children(self):
        events = [
            self.ev("core", 0, 100, 1, 0),
            self.ev("huffman", 10, 20, 2, 1),   # [10, 30)
            self.ev("huffman", 20, 30, 3, 1),   # [20, 50), overlaps
            self.ev("io", 90, 30, 4, 1),        # [90, 120), clipped to 100
            self.ev("core", 0, 40, 2, 0, pid=1),  # same id, other process
        ]
        s = benchlib.self_times(events)
        self.assertAlmostEqual(s["core"], (100 - 50 + 40) / 1e6)
        self.assertAlmostEqual(s["huffman"], 50 / 1e6)
        self.assertAlmostEqual(s["io"], 30 / 1e6)

    def test_coverage_skips_benchmark_spans(self):
        events = [self.ev("bench", 0, 100, 1, 0),
                  self.ev("core", 0, 30, 2, 1),
                  self.ev("core", 20, 30, 3, 1)]
        self.assertAlmostEqual(benchlib.span_coverage(events), 0.5)

    def test_union_length(self):
        self.assertEqual(benchlib.union_length([(0, 1), (2, 4), (3, 5)]), 4)
        self.assertEqual(benchlib.union_length([]), 0)


class Schema(unittest.TestCase):
    def test_benchmark_json_names_every_specified_metric(self):
        self.assertEqual(benchlib.WORKLOADS, SPEC_WORKLOADS)
        self.assertEqual(set(benchlib.END_TO_END), SPEC_END_TO_END)
        per_layer = ([f"{n}.w{w}" for n in SPEC_PER_WORKER
                      for w in benchlib.WORKER_COUNTS] + SPEC_FLAT
                     + [f"{layer}.self_s" for layer in benchlib.LAYERS])
        self.assertEqual(sorted(benchlib.PER_LAYER), sorted(per_layer))
        names = [m["name"] for m in benchlib.SPEC["end_to_end"]
                 + benchlib.SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))

    def test_bounds(self):
        bounds = {n: m["bound"] for n, m in benchlib.END_TO_END.items()}
        self.assertLessEqual(max(bounds.values()), 0.25)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertEqual((benchlib.END_TO_END["setup_s"]["unit"],
                          benchlib.END_TO_END["setup_s"]["better"]),
                         ("s", "lower"))

    def test_every_workload_reports_every_end_to_end_metric(self):
        recs = {
            "bulk-paper": {"raw_bytes": 8.0, "peak_rss_mb": 1.0,
                           "compress_s": [1.0], "decompress_s": [1.0],
                           "compress_wrapped_s": [1.0],
                           "decompress_wrapped_s": [1.0],
                           "archive_bytes": 2, "wrapped_bytes": 1},
            "roi-random": {"raw_bytes": 8.0, "peak_rss_mb": 1.0,
                           "roi_ms": list(range(2000)), "reads_per_s": 3.0,
                           "readers": 4, "archive_bytes": 2},
            "serve-mixed": {"raw_bytes": 8.0, "peak_rss_mb": 1.0,
                            "archive_bytes": 2.0,
                            "latency_ms": list(range(1, 2001)),
                            "kind": [i % 4 for i in range(2000)],
                            "late_ms": [0.0], "fields": 12,
                            "inline_mode": 0},
        }
        self.assertEqual(set(recs), set(SPEC_WORKLOADS))
        for wl, rec in recs.items():
            m, _ = run.end_to_end(wl, rec, [1.0, 2.0, 3.0])
            self.assertEqual(set(m), set(benchlib.END_TO_END), wl)
            self.assertTrue(all(v > 0 for v in m.values()), wl)
        self.assertEqual(run.end_to_end("bulk-paper", recs["bulk-paper"],
                                        [1.0])[0]["latency_ms"], 4000.0)


class Oracle(unittest.TestCase):
    def test_planted_faults_are_caught(self):
        exe = os.environ.get("PERFBENCH_EXE")
        if not exe:
            self.skipTest("PERFBENCH_EXE not set (run.py sets it)")
        p = subprocess.run([exe, "selftest"], stdout=subprocess.PIPE, text=True)
        self.assertEqual(p.returncode, 0, p.stdout)
        self.assertIn("oracle self-test: ok", p.stdout)


if __name__ == "__main__":
    unittest.main()
