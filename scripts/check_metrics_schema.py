#!/usr/bin/env python3
"""Validate poolnet telemetry output in CI.

Usage:
    scripts/check_metrics_schema.py BENCH_perf.json [metrics.json]

Checks two documents:

* BENCH_perf.json (always): the perf_smoke trend file must carry the
  "metrics" section with the hotspot/energy keys, and the Fig-6(b)
  imbalance claim must hold — DIM's index-node Gini and max load both
  above Pool's under exponential event values.

* metrics.json (optional): a full `--metrics json` Snapshot document.
  Must parse, have the four sections, and contain the namespaced keys
  every instrumented component registers (Pool's route cache, query
  engine, per-node network lanes, storage load report). It must not
  carry a route cache under DIM, GHT or central: each routes faster
  through GPSR's greedy memo alone, so a cache that comes back under one
  of them fails the check.

Exits nonzero with a message on the first violation, so the CI step
fails loudly instead of uploading a silently-empty artifact.
"""
import json
import sys

PERF_METRIC_KEYS = [
    "pool_storage_gini",
    "dim_storage_gini",
    "pool_max_load",
    "dim_max_load",
    "pool_insert_messages",
    "dim_insert_messages",
    "pool_energy_j",
    "dim_energy_j",
]

SNAPSHOT_SECTIONS = ["counters", "gauges", "histograms", "series"]

SNAPSHOT_COUNTERS = [
    "pool.route_cache.hits",
    "pool.route_cache.misses",
    "pool.net.messages",
    "dim.net.messages",
    "pool.store.scan.rows_scanned",
    "pool.store.scan.blocks_skipped",
    "pool.store.scan.bytes_touched",
    "dim.store.scan.rows_scanned",
]

# Route caches of the kinds that route through Gpsr alone (DESIGN.md §7).
SNAPSHOT_ABSENT_COUNTERS = [
    "dim.route_cache.hits",
    "ght.route_cache.hits",
    "central.route_cache.hits",
]

SNAPSHOT_GAUGES = [
    "pool.storage.load.gini",
    "pool.storage.load.gini_loaded",
    "pool.storage.load.max",
    "dim.storage.load.gini_loaded",
    "pool.net.energy_j",
    "pool.net.hop_energy_j",
]

SNAPSHOT_SERIES = ["pool.node.tx", "pool.node.stored", "dim.node.tx"]


def fail(msg):
    print(f"check_metrics_schema: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_perf(path):
    with open(path) as f:
        doc = json.load(f)
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        fail(f"{path}: missing 'metrics' section")
    for key in PERF_METRIC_KEYS:
        if key not in metrics:
            fail(f"{path}: metrics section missing '{key}'")
        if not isinstance(metrics[key], (int, float)):
            fail(f"{path}: metrics['{key}'] is not numeric")
    if metrics["dim_storage_gini"] <= metrics["pool_storage_gini"]:
        fail(
            f"{path}: hotspot claim violated — DIM index-node gini "
            f"{metrics['dim_storage_gini']} <= Pool "
            f"{metrics['pool_storage_gini']}"
        )
    if metrics["dim_max_load"] <= metrics["pool_max_load"]:
        fail(
            f"{path}: hotspot claim violated — DIM max load "
            f"{metrics['dim_max_load']} <= Pool {metrics['pool_max_load']}"
        )
    print(f"check_metrics_schema: {path} OK "
          f"(DIM gini {metrics['dim_storage_gini']} > "
          f"Pool {metrics['pool_storage_gini']}, "
          f"DIM max {metrics['dim_max_load']} > "
          f"Pool {metrics['pool_max_load']})")


def check_snapshot(path):
    with open(path) as f:
        doc = json.load(f)
    for section in SNAPSHOT_SECTIONS:
        if section not in doc or not isinstance(doc[section], dict):
            fail(f"{path}: missing section '{section}'")
    for key in SNAPSHOT_COUNTERS:
        if key not in doc["counters"]:
            fail(f"{path}: counters missing '{key}'")
    for key in SNAPSHOT_ABSENT_COUNTERS:
        if key in doc["counters"]:
            fail(f"{path}: counters carry '{key}', a route cache under a "
                 "system that routes through GPSR alone")
    for key in SNAPSHOT_GAUGES:
        if key not in doc["gauges"]:
            fail(f"{path}: gauges missing '{key}'")
    for key in SNAPSHOT_SERIES:
        lane = doc["series"].get(key)
        if not isinstance(lane, list) or not lane:
            fail(f"{path}: series missing or empty '{key}'")
    tx_sum = sum(doc["series"]["pool.node.tx"])
    if tx_sum <= 0:
        fail(f"{path}: pool.node.tx lane sums to {tx_sum}")
    print(f"check_metrics_schema: {path} OK "
          f"({len(doc['counters'])} counters, {len(doc['gauges'])} gauges, "
          f"{len(doc['series'])} series)")


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    check_perf(argv[1])
    if len(argv) > 2:
        check_snapshot(argv[2])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
