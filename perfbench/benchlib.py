"""Metric tables and the statistics helpers of the repository benchmark.

BENCHMARK.json is the one list of workloads, metrics, units and bounds; this
module reads it and adds only what it does not say. Everything here is pure
Python so that test_perfbench.py can check it without a build: the
percentile rule, span self-time arithmetic, and the schema.
"""

import json
import math
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# name -> {"name", "unit", "better"[, "bound"]}
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

# Every workload reports every end-to-end metric, so they are the ones all
# three share: set-up, peak RSS, ratio and the median latency of the
# workload's operation. The per-call GB/s and ratio_wrapped exist on
# bulk-paper only and error_rate is 0, so they are per-layer, as are the p99s,
# the rates and the open-loop serve latencies: those swing with the shared
# host's load (ROI reads/s 65-199, serve p99 at 40 req/s 36-165 ms across
# runs of one build) beyond any regression bound the gate allows.

LAYERS = ("predictor", "quant", "huffman", "lossless", "core", "io",
          "device", "serve")
# bulk-paper's timed layer numbers carry a .w1/.w2/.w4 suffix.
WORKER_COUNTS = (1, 2, 4)


# ---- statistics -------------------------------------------------------------

MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank q-quantile, reported only when at least MIN_BEYOND
    samples lie beyond it; None otherwise."""
    v = sorted(values)
    if not v:
        return None
    rank = max(1, math.ceil(q * len(v)))
    if len(v) - rank < MIN_BEYOND:
        return None
    return v[rank - 1]


def median(values):
    return statistics.median(values) if values else 0.0


# ---- spans ------------------------------------------------------------------

def union_length(intervals):
    """Total length covered by [start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(events):
    """Per-layer self time (seconds) of Chrome "X" events: each span's
    duration minus the part of it its child spans cover. Layers are the
    event categories; spans are matched to parents within one pid."""
    by_key = {(e["pid"], e["args"]["id"]): e for e in events}
    children = {}
    for e in events:
        parent = (e["pid"], e["args"]["parent"])
        if parent in by_key:
            children.setdefault(parent, []).append(e)
    out = {}
    for key, e in by_key.items():
        s, end = e["ts"], e["ts"] + e["dur"]
        kids = [(max(s, c["ts"]), min(end, c["ts"] + c["dur"]))
                for c in children.get(key, [])]
        covered = union_length([k for k in kids if k[1] > k[0]])
        out[e["cat"]] = out.get(e["cat"], 0.0) + (e["dur"] - covered) / 1e6
    return out


def span_coverage(events, skip=("bench",)):
    """Share of each process's traced wall time (first span start to last
    span end) that spans of the program's layers cover, over all pids."""
    covered = wall = 0.0
    for pid in sorted({e["pid"] for e in events}):
        mine = [e for e in events if e["pid"] == pid]
        wall += (max(e["ts"] + e["dur"] for e in mine)
                 - min(e["ts"] for e in mine))
        covered += union_length([(e["ts"], e["ts"] + e["dur"])
                                 for e in mine if e["cat"] not in skip])
    return covered / wall if wall > 0 else 0.0


def load_trace(path, pid):
    """Events of one Chrome trace file, re-stamped with `pid`."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    for e in events:
        e["pid"] = pid
    return events
