#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench load generator from this checkout's
sources and runs one workload.

    python3 perfbench/run.py --workload bulk-paper --seed 1 --seconds 10 --trace 0

Workloads, metrics, units and bounds are listed in BENCHMARK.json.
With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics, and the spans
(Chrome trace-event JSON) plus a per-layer summary are written under
.bench_out/<workload>-seed<N>/. Lines before the last one describe the host
and the samples. Every output the program produces is checked; any failure
exits non-zero.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

POOL_WORKERS = 4
CHILD_TIMEOUT = 170
# Cold set-ups timed per run (the measured run's own plus fresh processes);
# setup_s is their median.
SETUP_SAMPLES = 5
# serve-mixed request kinds, in the order of Kind in src/workloads.cc.
SERVE_KINDS = ("compress", "decompress", "roi", "compress_f64")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the load generator; returns its path."""
    if not os.path.exists(os.path.join(ROOT, "src", "core", "cuszi.hh")):
        print("perfbench: library sources (src/) are missing", file=sys.stderr)
        sys.exit(2)
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(ROOT, out)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                    "--target", "perfbench"], check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def self_tests(exe):
    """The benchmark's own helper tests; any failure stops the run."""
    os.environ["PERFBENCH_EXE"] = exe
    suite = unittest.defaultTestLoader.loadTestsFromName("test_perfbench")
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(suite)
    if not result.wasSuccessful() or result.skipped:
        fail("self-tests failed")


def child(exe, cmd, workload, seed, work, *extra, threads=POOL_WORKERS):
    """Runs one perfbench subcommand in its own process; returns its record."""
    env = dict(os.environ, SZI_THREADS=str(threads))
    argv = [exe, cmd, "--workload", workload, "--seed", str(seed),
            "--dir", work, *map(str, extra)]
    try:
        p = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True,
                           timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail(f"'{cmd}' did not finish within {CHILD_TIMEOUT} s")
    if p.returncode != 0:
        fail(f"'{cmd}' exited with {p.returncode}")
    recs = [json.loads(line[len("PERFBENCH "):])
            for line in p.stdout.splitlines() if line.startswith("PERFBENCH ")]
    return recs[-1] if recs else {}


def quantile_or_fail(values, q, what):
    v = benchlib.percentile(values, q)
    if v is None:
        fail(f"{what}: {len(values)} samples leave fewer than "
             f"{benchlib.MIN_BEYOND} beyond the {q:g} quantile")
    return v


# ---- end-to-end ---------------------------------------------------------------

def end_to_end(workload, rec, setups):
    """Every end-to-end metric of one untraced run, plus the figures the
    `# samples` line prints. latency_ms is the median wall time of the
    workload's operation, all in closed loops: a bulk round trip (its four
    calls), a ROI read, a served request."""
    raw = rec["raw_bytes"]
    m = {"setup_s": benchlib.median(setups), "peak_rss_mb": rec["peak_rss_mb"],
         "ratio": raw / rec["archive_bytes"]}
    info = {"setup_samples": len(setups), "setup_s": m["setup_s"]}
    if workload == "bulk-paper":
        walls = [sum(t) for t in zip(rec["compress_s"], rec["decompress_s"],
                                     rec["compress_wrapped_s"],
                                     rec["decompress_wrapped_s"])]
        m["latency_ms"] = benchlib.median(walls) * 1e3
        info.update(round_trips=len(walls), field_bytes=raw,
                    archive_bytes=rec["archive_bytes"],
                    wrapped_bytes=rec["wrapped_bytes"], **bulk_gbps(rec))
    elif workload == "roi-random":
        ms = rec["roi_ms"]
        m["latency_ms"] = quantile_or_fail(ms, 0.5, "roi latency")
        info.update(reads=len(ms), loop="closed", readers=rec["readers"],
                    reads_per_s=rec["reads_per_s"],
                    p99_ms=quantile_or_fail(ms, 0.99, "roi latency"),
                    field_bytes=raw, archive_bytes=rec["archive_bytes"])
    else:
        lat = rec["latency_ms"]
        m["latency_ms"] = quantile_or_fail(lat, 0.5, "serve latency")
        by_kind = {name: benchlib.percentile(
            [x for x, k in zip(lat, rec["kind"]) if k == i], 0.5)
            for i, name in enumerate(SERVE_KINDS)}
        info.update(requests=len(lat), loop="closed", clients=4,
                    latency_from="submit", p50_ms_by_kind=by_kind,
                    p99_ms=benchlib.percentile(lat, 0.99),
                    fields=rec["fields"], inline_mode=rec["inline_mode"])
    return m, info


def bulk_gbps(rec):
    """bulk-paper's per-call raw-input GB/s (medians over round trips) and
    its wrapped ratio."""
    raw = rec["raw_bytes"]
    out = {name: raw / benchlib.median(rec[key]) / 1e9
           for key, name in (("compress_s", "compress_gbps"),
                             ("compress_wrapped_s", "compress_wrapped_gbps"),
                             ("decompress_s", "decompress_gbps"),
                             ("decompress_wrapped_s",
                              "decompress_wrapped_gbps"))}
    out["ratio_wrapped"] = raw / rec["wrapped_bytes"]
    return out


# ---- per-layer ------------------------------------------------------------------

def per_layer(workload, rec, replays, spans):
    """Per-layer metrics of a traced run (0 where the workload does not
    exercise the layer)."""
    m = dict.fromkeys(benchlib.PER_LAYER, 0.0)
    m["device.memcpy_gbps"] = rec["memcpy_gbps"]
    m["device.arena_hits"] = rec["arena_hits"]
    m["device.arena_misses"] = rec["arena_misses"]
    m["device.arena_high_water_mb"] = rec["arena_high_water_mb"]
    m["trace.overhead_s"] = rec.get("trace_overhead_s", 0.0)
    med = benchlib.median

    if workload == "bulk-paper":
        m.update(bulk_gbps(rec))
        t = {}
        for w, r in replays.items():
            raw = r["raw_bytes"]
            t[w] = {k: med(r[k]) for k in (
                "compress_s", "decompress_s", "decompress_wrapped_s",
                "autotune_s", "predict_s", "codebook_s", "encode_s",
                "decode_s", "scatter_s", "reconstruct_s", "wrap_s", "unwrap_s",
                "stage_coverage_compress", "stage_coverage_decompress")}
            x = t[w]
            for name, key in (("predictor.autotune_s", "autotune_s"),
                              ("predictor.predict_s", "predict_s"),
                              ("predictor.reconstruct_s", "reconstruct_s"),
                              ("huffman.codebook_s", "codebook_s"),
                              ("huffman.encode_s", "encode_s"),
                              ("huffman.decode_s", "decode_s"),
                              ("lossless.wrap_s", "wrap_s"),
                              ("lossless.unwrap_s", "unwrap_s"),
                              ("core.compress_s", "compress_s"),
                              ("core.decompress_s", "decompress_s"),
                              ("core.decompress_wrapped_s",
                               "decompress_wrapped_s"),
                              ("core.stage_coverage.compress",
                               "stage_coverage_compress"),
                              ("core.stage_coverage.decompress",
                               "stage_coverage_decompress")):
                m[f"{name}.w{w}"] = x[key]
            m[f"predictor.predict_over_memcpy.w{w}"] = (
                raw / x["predict_s"] / 1e9 / rec["memcpy_gbps"])
            m[f"core.replay_over_pipeline.compress.w{w}"] = (
                x["autotune_s"] + x["predict_s"] + x["codebook_s"]
                + x["encode_s"]) / x["compress_s"]
            m[f"core.replay_over_pipeline.decompress.w{w}"] = (
                x["decode_s"] + x["scatter_s"] + x["reconstruct_s"]
            ) / x["decompress_s"]
        for n in (2, 4):
            m[f"scaling.compress_speedup.w{n}"] = (
                t[1]["compress_s"] / t[n]["compress_s"])
            m[f"scaling.decompress_speedup.w{n}"] = (
                t[1]["decompress_s"] / t[n]["decompress_s"])
            m[f"scaling.decompress_wrapped_speedup.w{n}"] = (
                t[1]["decompress_wrapped_s"] / t[n]["decompress_wrapped_s"])
        r4 = replays[4]
        for name in ("autotune_s", "predict_s"):
            m[f"predictor.{name}"] = t[4][name]
        for name in ("codebook_s", "encode_s"):
            m[f"huffman.{name}"] = t[4][name]
        m["quant.outliers"] = r4["outliers"]
        m["huffman.codebook_bytes"] = r4["codebook_bytes"]
        for k in ("lzss", "zerorle", "bitshuffle"):
            m[f"lossless.method_{k}"] = r4[f"method_{k}"]
    elif workload == "roi-random":
        for e in (16, 32, 64, 128):
            m[f"core.roi_ms.{e}"] = rec[f"roi_ms_{e}"]
        m["io.bytes_per_read"] = rec["io_bytes_read_total"] / rec["reads_total"]
        m["io.read_fraction"] = m["io.bytes_per_read"] / rec["archive_bytes"]
        m["io.indexed_share"] = rec["indexed_share"]
        m["roi_reads_per_s"] = rec["reads_per_s"]
        m["roi_p50_ms"] = benchlib.percentile(rec["roi_ms"], 0.5)
        m["roi_p99_ms"] = benchlib.percentile(rec["roi_ms"], 0.99)
    else:
        pct = benchlib.percentile
        m["serve.queue_p50_ms"] = pct(rec["queue_ms"], 0.5)
        m["serve.queue_p99_ms"] = pct(rec["queue_ms"], 0.99)
        m["serve.service_p50_ms"] = pct(rec["service_ms"], 0.5)
        m["serve.service_p99_ms"] = pct(rec["service_ms"], 0.99)
        m["serve.generator_late_p99_ms"] = pct(rec["late_ms"], 0.99)
        m["serve_p50_ms"] = pct(rec["latency_ms"], 0.5)
        m["serve_p99_ms"] = pct(rec["latency_ms"], 0.99)
        m["serve_max_rps"] = rec["max_rps"]
        m["serve.waves"] = rec["waves"]
        m["serve.coalesced_share"] = (rec["coalesced"]
                                      / max(1, rec["compress_requests"]))
        m["serve.admission_deferrals"] = rec["admission_deferrals"]
        m["serve.backlog_max"] = rec["backlog_max"]
        for name in ("autotune_s", "predict_s"):
            m[f"predictor.{name}"] = rec[name]
        for name in ("codebook_s", "encode_s"):
            m[f"huffman.{name}"] = rec[name]
        m["quant.outliers"] = rec["outliers"]
        m["huffman.codebook_bytes"] = rec["codebook_bytes"]
        m["trace.overhead_s"] = (benchlib.median(rec["traced_latency_ms"])
                                 - benchlib.median(rec["latency_ms"])) / 1e3
    for k, v in m.items():
        if v is None:
            fail(f"{k}: too few samples for the percentile rule")

    self_s = benchlib.self_times(spans)
    for layer in benchlib.LAYERS:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    m["trace.span_coverage"] = benchlib.span_coverage(spans)
    return {k: {"value": v, "unit": benchlib.PER_LAYER[k]["unit"]}
            for k, v in m.items()}, self_s


# ---- main -----------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=benchlib.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    self_tests(exe)
    wl, seed = args.workload, args.seed
    work = os.path.join(ROOT, ".bench_work", f"{wl}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        child(exe, "gen", wl, seed, work)
        if args.trace:
            result = traced(exe, args, work)
        else:
            result = untraced(exe, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    if not result["correct"]:
        sys.exit(1)


def host_line(rec):
    keys = ("nproc", "pool_workers", "l2_bytes", "l3_bytes", "build_type",
            "optimized", "seed")
    host = {k: rec[k] for k in keys}
    if not rec["optimized"]:
        host["warning"] = "non-optimised build: numbers are not comparable"
    return host


def untraced(exe, args, work):
    wl, seed = args.workload, args.seed
    rec = child(exe, "run", wl, seed, work, "--seconds", args.seconds)
    setups = [rec["setup_s"]]
    attempted, failed = rec["attempted"], rec["failed"]
    for _ in range(SETUP_SAMPLES - 1):
        s = child(exe, "setup", wl, seed, work)
        setups.append(s["setup_s"])
        attempted += s["attempted"]
        failed += s["failed"]
    m, info = end_to_end(wl, rec, setups)
    print("# host " + json.dumps(host_line(rec)))
    print("# samples " + json.dumps(info))
    metrics = {k: {"value": v, "unit": benchlib.END_TO_END[k]["unit"]}
               for k, v in m.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def traced(exe, args, work):
    wl, seed = args.workload, args.seed
    out = os.path.join(ROOT, ".bench_out", f"{wl}-seed{seed}")
    os.makedirs(out, exist_ok=True)
    main_trace = os.path.join(out, "trace_main.json")
    rec = child(exe, "run", wl, seed, work, "--seconds", args.seconds,
                 "--trace", 1, "--trace-out", main_trace)
    attempted, failed = rec["attempted"], rec["failed"]
    spans = benchlib.load_trace(main_trace, 0)
    os.remove(main_trace)
    replays = {}
    if wl == "bulk-paper":
        for w in benchlib.WORKER_COUNTS:
            path = os.path.join(out, f"trace_w{w}.json")
            r = child(exe, "replay", wl, seed, work, "--trace-out", path,
                      threads=w)
            replays[w] = r
            attempted += r["attempted"]
            failed += r["failed"]
            spans += benchlib.load_trace(path, w)
            os.remove(path)
        hashes = {w: r["hashes"] for w, r in replays.items()}
        attempted += 1
        if len(set(hashes.values())) != 1:
            failed += 1
            print("# hash mismatch across worker counts " + json.dumps(hashes))
    metrics, self_s = per_layer(wl, rec, replays, spans)
    metrics["error_rate"]["value"] = failed / max(1, attempted)

    with open(os.path.join(out, "trace.json"), "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": spans}, f)
    summary = {
        "workload": wl, "seed": seed, "host": host_line(rec),
        "memcpy_working_set_bytes": rec["memcpy_working_set_bytes"],
        "sizes": {k: rec[k] for k in ("raw_bytes", "archive_bytes",
                                      "wrapped_bytes") if k in rec},
        "ladder_probes_rps": rec.get("ladder_probes"),
        "self_s": self_s,
        "span_coverage": metrics["trace.span_coverage"]["value"],
        "tracing_overhead_s": metrics["trace.overhead_s"]["value"],
        "spans": len(spans),
        "metrics": {k: v["value"] for k, v in metrics.items()},
    }
    with open(os.path.join(out, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1)
    print("# host " + json.dumps(summary["host"]))
    print("# self_s " + json.dumps(self_s))
    print(f"# spans and summary in {os.path.relpath(out, ROOT)}/")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


if __name__ == "__main__":
    main()
