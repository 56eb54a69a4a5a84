#!/usr/bin/env python3
"""Validates BENCH_*.json files: every file must parse as a JSON object with
a "bench" name, a "hardware_threads" integer >= 1 (the machine the numbers
came from) and a non-empty "results" list of objects, and every row of one
file must carry the same keys (a malformed row usually means a broken
fprintf). Benches listed in ROW_SCHEMAS additionally have their row keys
checked against the expected schema, so a renamed or dropped column fails
the pipeline instead of silently rotting dashboards, and benches listed in
TOP_LEVEL_NUMBERS must carry those positive numbers (ci.sh's sharded-decode
gate reads codec_hotpath's usable_lanes). ci.sh runs this after the bench
smoke step.

Usage: check_bench_json.py <file.json> [...]
"""

import json
import sys

# Benches whose row *identity* column is pinned too: the set of values in
# the named column must match exactly, so a silently dropped stage (e.g. a
# bench that stops emitting the gated sharded-decode rows) fails here.
ROW_IDENTITY = {
    "codec_hotpath": (
        "stage",
        {
            "bitstream_write13",
            "bitstream_read13",
            "huffman_encode",
            "huffman_decode",
            "quant_encode",
            "quant_decode",
            "predict_quant_interp",
            "predict_quant_lorenzo",
            "sharded_decode_t1",
            "sharded_decode_t2",
            "sharded_decode_t4",
            "uq_normal_cdf",
        },
    ),
}

# Top-level numbers (> 0) a bench's file must carry besides hardware_threads.
TOP_LEVEL_NUMBERS = {"codec_hotpath": ("usable_lanes",)}

# Required row keys per bench name. Rows may not omit any of these; extra
# keys are reported as errors too, so schema drift is always loud.
ROW_SCHEMAS = {
    "codec_hotpath": {"stage", "baseline_mb_s", "optimized_mb_s", "speedup"},
    "obs_overhead": {
        "mode",
        "compress_mb_s",
        "decompress_mb_s",
        "serve_read_mb_s",
    },
    "progressive_stream": {
        "container",
        "level",
        "cum_bytes",
        "psnr",
        "total_bytes",
        "first_answer_bytes",
    },
    "server_load": {"clients", "trace", "p50_us", "p99_us", "hit_ratio"},
    "tiled_scaling": {
        "threads",
        "pool_threads",
        "brick",
        "compress_mb_s",
        "decompress_mb_s",
        "region_mb_s",
        "ratio",
        "region_tiles",
        "total_tiles",
    },
}


def check(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("top level must be a JSON object")
    for key in ("bench", "results"):
        if key not in doc:
            raise ValueError(f"missing required key '{key}'")
    if not isinstance(doc["bench"], str) or not doc["bench"]:
        raise ValueError("'bench' must be a non-empty string")
    threads = doc.get("hardware_threads")
    if isinstance(threads, bool) or not isinstance(threads, int) or threads < 1:
        raise ValueError("'hardware_threads' must be an integer >= 1")
    for key in TOP_LEVEL_NUMBERS.get(doc["bench"], ()):
        value = doc.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
            raise ValueError(f"'{key}' must be a number > 0")
    rows = doc["results"]
    if not isinstance(rows, list) or not rows:
        raise ValueError("'results' must be a non-empty list")
    keys = None
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or not row:
            raise ValueError(f"results[{i}] must be a non-empty object")
        if keys is None:
            keys = set(row)
        elif set(row) != keys:
            raise ValueError(
                f"results[{i}] keys {sorted(set(row))} differ from "
                f"results[0] keys {sorted(keys)}"
            )
    schema = ROW_SCHEMAS.get(doc["bench"])
    if schema is not None and keys != schema:
        raise ValueError(
            f"bench '{doc['bench']}' row keys {sorted(keys)} do not match "
            f"the expected schema {sorted(schema)}"
        )
    identity = ROW_IDENTITY.get(doc["bench"])
    if identity is not None:
        column, expected = identity
        got = {row.get(column) for row in rows}
        if got != expected:
            raise ValueError(
                f"bench '{doc['bench']}' {column} values {sorted(map(str, got))} "
                f"do not match the expected set {sorted(expected)}"
            )
    return len(rows)


def main(argv):
    if len(argv) < 2:
        print("usage: check_bench_json.py <file.json> [...]", file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        try:
            rows = check(path)
            print(f"{path}: OK ({rows} result rows)")
        except (OSError, ValueError, json.JSONDecodeError) as err:
            print(f"{path}: FAIL: {err}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
