#!/usr/bin/env bash
# Server smoke check: boot poolnetd on an ephemeral port, drive it with
# server_load over real sockets (2 connections x 100 queries), verify
# every streamed result is byte-identical to direct engine execution,
# churn 200 connections through it one at a time and require that they
# leave no mappings behind and that one thread serves them, then SIGTERM
# the daemon and require a clean drain (exit 0). Exits nonzero on any
# violation.
#
#   scripts/server_smoke.sh [build-dir]
set -euo pipefail

BUILD="${1:-build}"
DAEMON="$BUILD/apps/poolnetd"
LOAD="$BUILD/bench/server_load"

for bin in "$DAEMON" "$LOAD"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built (cmake -B $BUILD && cmake --build $BUILD)" >&2
    exit 1
  fi
done

LOG="$(mktemp)"
trap 'rm -f "$LOG"' EXIT

# The backend flags here MUST match server_load's below — identical
# construction is what makes the cross-process byte comparison valid.
"$DAEMON" --system pool --nodes 300 --dims 3 --events-per-node 3 \
  --seed 1 --batch 16 --port 0 > "$LOG" 2>&1 &
DAEMON_PID=$!
# A failed check below must not leave the daemon running.
trap 'kill "$DAEMON_PID" 2>/dev/null || true; rm -f "$LOG"' EXIT

# The ephemeral port appears on the "listening on" line once the testbed
# is deployed.
PORT=""
for _ in $(seq 1 120); do
  PORT="$(sed -n 's/^poolnetd: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
    "$LOG")"
  [[ -n "$PORT" ]] && break
  if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
    echo "error: poolnetd died during startup:" >&2
    cat "$LOG" >&2
    exit 1
  fi
  sleep 0.5
done
if [[ -z "$PORT" ]]; then
  echo "error: poolnetd never reported its port:" >&2
  cat "$LOG" >&2
  exit 1
fi
echo "server_smoke: poolnetd up on port $PORT"

"$LOAD" --connect "127.0.0.1:$PORT" --connections 2 --queries 100 \
  --system pool --nodes 300 --dims 3 --events-per-node 3 --seed 1 \
  --batch 16 --json BENCH_server_smoke.json

# The new query classes over the same live daemon: mixed SELECT SKYLINE /
# SELECT NEAREST / range statements, every reply byte-checked against
# direct execution on an identically-built backend.
"$LOAD" --connect "127.0.0.1:$PORT" --connections 2 --queries 50 \
  --system pool --nodes 300 --dims 3 --events-per-node 3 --seed 1 \
  --batch 16 --query-class mix --json BENCH_server_smoke_classes.json

# Connection churn: 200 connections opened and closed one at a time must
# be freed as they close, so the daemon's mapping count stays put. Two
# threads serve: main, waiting in sigwait, and the loop. A
# ThreadSanitizer build adds its runtime's background thread.
EXPECTED_THREADS=2
if grep -qa __tsan_init "$DAEMON"; then EXPECTED_THREADS=3; fi
STATUS="/proc/$DAEMON_PID/status"
MAPS_BEFORE="$(wc -l < "/proc/$DAEMON_PID/maps")"
VM_BEFORE="$(awk '/^VmSize:/ {print $2}' "$STATUS")"
for _ in $(seq 1 200); do
  exec 3<>"/dev/tcp/127.0.0.1/$PORT"
  exec 3<&-
done
sleep 0.5  # let the daemon see the last EOFs
MAPS_AFTER="$(wc -l < "/proc/$DAEMON_PID/maps")"
VM_AFTER="$(awk '/^VmSize:/ {print $2}' "$STATUS")"
THREADS="$(awk '/^Threads:/ {print $2}' "$STATUS")"
echo "server_smoke: 200-connection churn: mappings $MAPS_BEFORE -> $MAPS_AFTER," \
  "VmSize $VM_BEFORE -> $VM_AFTER kB, $THREADS threads"
if (( MAPS_AFTER - MAPS_BEFORE >= 16 )); then
  echo "error: connection churn grew the daemon's mappings by" \
    "$((MAPS_AFTER - MAPS_BEFORE))" >&2
  exit 1
fi
if [[ "$THREADS" != "$EXPECTED_THREADS" ]]; then
  echo "error: poolnetd runs $THREADS threads, expected $EXPECTED_THREADS" >&2
  exit 1
fi

# Clean drain: SIGTERM must answer everything in flight and exit 0.
kill -TERM "$DAEMON_PID"
DAEMON_STATUS=0
wait "$DAEMON_PID" || DAEMON_STATUS=$?
if [[ "$DAEMON_STATUS" -ne 0 ]]; then
  echo "error: poolnetd exited $DAEMON_STATUS after SIGTERM:" >&2
  cat "$LOG" >&2
  exit 1
fi
if ! grep -q "^poolnetd: served 204 connections, 300 queries" "$LOG"; then
  echo "error: poolnetd did not report serving the full load:" >&2
  cat "$LOG" >&2
  exit 1
fi

echo "server smoke OK:"
grep "^poolnetd: served" "$LOG"
