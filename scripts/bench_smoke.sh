#!/usr/bin/env bash
# Perf smoke check: run the four-arm {serial,parallel} x {cache off,on}
# benchmark plus the 1k/10k/100k scale tier and verify it produced its
# machine-readable report, then exercise the unified telemetry surface
# end-to-end — a CLI run writes a full --metrics json snapshot
# (BENCH_metrics.json) and the schema checker validates both documents,
# including the Fig-6(b) hotspot claim (DIM index-node Gini and max load
# above Pool's under exponential events). Finally the regression gate
# compares the fresh report against the committed baseline: speedup must
# stay >= 1.0, the four arms' statistics must be identical, and 100k-node
# insert throughput must not drop more than 10%. Exits nonzero on any
# violation.
#
#   scripts/bench_smoke.sh [build-dir]
set -euo pipefail

BUILD="${1:-build}"
SMOKE="$BUILD/bench/perf_smoke"
CLI="$BUILD/apps/poolnet_cli"
SERVER_LOAD="$BUILD/bench/server_load"
MICRO_OPS="$BUILD/bench/micro_ops"
QUERY_CLASSES="$BUILD/bench/query_classes"

if [[ ! -x "$SMOKE" ]]; then
  echo "error: $SMOKE not built (cmake -B $BUILD && cmake --build $BUILD)" >&2
  exit 1
fi

# Save the committed report before perf_smoke overwrites it — it is the
# baseline the regression gate compares throughput against.
BASELINE="BENCH_perf_baseline.json"
if ! git show HEAD:BENCH_perf.json > "$BASELINE" 2>/dev/null; then
  if [[ -s BENCH_perf.json ]]; then
    cp BENCH_perf.json "$BASELINE"
  else
    rm -f "$BASELINE"
    BASELINE=""
  fi
fi

"$SMOKE" --scale --metrics json:BENCH_smoke_metrics.json

if [[ ! -s BENCH_perf.json ]]; then
  echo "error: perf_smoke did not write BENCH_perf.json" >&2
  exit 1
fi
if [[ ! -s BENCH_smoke_metrics.json ]]; then
  echo "error: perf_smoke --metrics json did not write its snapshot" >&2
  exit 1
fi

# The server sweep: in-process poolnetd core under 1/8/64 concurrent
# connections, every result byte-checked against direct execution plus
# the deterministic admission probe. Its section merges into
# BENCH_perf.json so the regression gate below sees it.
if [[ -x "$SERVER_LOAD" ]]; then
  "$SERVER_LOAD" --json BENCH_server.json
  python3 scripts/merge_perf_section.py BENCH_perf.json BENCH_server.json \
    server
fi

# The columnar scan-kernel arms (1M-event filter at 1%/10%/50%
# selectivity, AoS vs SoA vs SoA+zone-maps): micro_ops verifies all arms
# match the identical event set and its section feeds the >= 2x-at-1%
# gate below.
if [[ -x "$MICRO_OPS" ]]; then
  "$MICRO_OPS" --scan-json BENCH_scan.json
  python3 scripts/merge_perf_section.py BENCH_perf.json BENCH_scan.json scan
fi

# The query-class arm: range vs skyline vs k-NN through the unified
# execute() surface on Pool/DIM/GHT, every result set checked against the
# canonical kernels and Pool's pruning pinned against the flood baseline.
# It writes under the build directory: the committed
# BENCH_query_classes.json is the ledger ctest's query_classes_ledger
# compares against, byte for byte.
if [[ -x "$QUERY_CLASSES" ]]; then
  "$QUERY_CLASSES" --json "$BUILD/BENCH_query_classes.json"
  python3 scripts/merge_perf_section.py BENCH_perf.json \
    "$BUILD/BENCH_query_classes.json" query_classes
fi

if [[ -x "$CLI" ]]; then
  "$CLI" --nodes 300 --queries 20 --systems all \
    --workload exponential --metrics json:BENCH_metrics.json >/dev/null
  python3 scripts/check_metrics_schema.py BENCH_perf.json BENCH_metrics.json
else
  python3 scripts/check_metrics_schema.py BENCH_perf.json
fi

if [[ -n "$BASELINE" ]]; then
  python3 scripts/check_perf_regression.py "$BASELINE" BENCH_perf.json
  rm -f "$BASELINE"
else
  python3 scripts/check_perf_regression.py BENCH_perf.json
fi

echo "bench smoke OK:"
cat BENCH_perf.json
