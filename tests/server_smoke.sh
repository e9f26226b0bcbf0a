#!/usr/bin/env bash
# Daemon smoke test: start netout_serve on an ephemeral port, drive a
# request mix through netout_client (ping / queries / hostile input /
# admin ops), check the served answer is bitwise identical to
# netout_query --json, then drain cleanly via the wire shutdown op.
set -euo pipefail

TOOLS_DIR="$1"
WORK_DIR="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK_DIR"
}
trap cleanup EXIT

GRAPH="$WORK_DIR/smoke.hin"
QUERY='FIND OUTLIERS FROM author{"star_0"}.paper.author JUDGED BY author.paper.venue TOP 5;'

"$TOOLS_DIR/netout_gen" --kind=biblio --out="$GRAPH" \
    --areas=3 --authors=40 --papers=120 > "$WORK_DIR/gen.log"

"$TOOLS_DIR/netout_serve" "$GRAPH" --cache=16 --port=0 --threads=2 \
    > "$WORK_DIR/serve.out" 2> "$WORK_DIR/serve.err" &
SERVE_PID=$!

# The daemon announces its ephemeral port on stdout once it is ready.
PORT=""
for _ in $(seq 1 50); do
  PORT=$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' \
      "$WORK_DIR/serve.out" 2>/dev/null || true)
  [ -n "$PORT" ] && break
  sleep 0.1
done
[ -n "$PORT" ] || { echo "server never announced its port" >&2; exit 1; }

"$TOOLS_DIR/netout_client" --port="$PORT" --op=ping > "$WORK_DIR/ping.log"
grep -q '"ok":true' "$WORK_DIR/ping.log"

# Served result must match the solo CLI bitwise on the outliers array.
"$TOOLS_DIR/netout_client" --port="$PORT" --query="$QUERY" \
    > "$WORK_DIR/served.log"
"$TOOLS_DIR/netout_query" "$GRAPH" --query="$QUERY" --json \
    2>/dev/null > "$WORK_DIR/solo.log"
served_outliers=$(grep -o '"outliers":\[[^]]*\]' "$WORK_DIR/served.log")
solo_outliers=$(tr -d ' \n' < "$WORK_DIR/solo.log" \
    | grep -o '"outliers":\[[^]]*\]')
[ -n "$served_outliers" ]
[ "$served_outliers" = "$solo_outliers" ]

# A batch of queries through one connection, all answered in order.
printf '%s\n%s\n%s\n' "$QUERY" "$QUERY" "$QUERY" > "$WORK_DIR/batch.txt"
"$TOOLS_DIR/netout_client" --port="$PORT" --file="$WORK_DIR/batch.txt" \
    > "$WORK_DIR/batch.log"
[ "$(grep -c '"ok":true' "$WORK_DIR/batch.log")" = "3" ]

# Hostile input: a garbage line gets an error envelope (exit 1, not a
# protocol break), and the very same daemon keeps serving afterwards.
if "$TOOLS_DIR/netout_client" --port="$PORT" --raw='not json at all' \
    > "$WORK_DIR/garbage.log"; then
  echo "expected garbage request to exit non-zero" >&2
  exit 1
fi
grep -q '"code":"parse-error"' "$WORK_DIR/garbage.log"

# An expired deadline is answered as a degraded partial, not an error.
"$TOOLS_DIR/netout_client" --port="$PORT" --query="$QUERY" \
    --timeout-ms=0 > "$WORK_DIR/degraded.log"
grep -q '"degraded":true' "$WORK_DIR/degraded.log"
grep -q '"stop_reason":"deadline"' "$WORK_DIR/degraded.log"

# STATS reflects the traffic (non-empty counters, cache telemetry).
"$TOOLS_DIR/netout_client" --port="$PORT" --op=stats > "$WORK_DIR/stats.log"
grep -q '"requests"' "$WORK_DIR/stats.log"
grep -q '"cache"' "$WORK_DIR/stats.log"
grep -q '"latency_ms"' "$WORK_DIR/stats.log"
if grep -q '"received":0' "$WORK_DIR/stats.log"; then
  echo "stats counters unexpectedly empty" >&2
  exit 1
fi
"$TOOLS_DIR/netout_client" --port="$PORT" --op=config \
    > "$WORK_DIR/config.log"
grep -q '"num_threads":2' "$WORK_DIR/config.log"

# Clean drain over the wire; the process must exit by itself.
"$TOOLS_DIR/netout_client" --port="$PORT" --op=shutdown \
    > "$WORK_DIR/shutdown.log"
grep -q '"ok":true' "$WORK_DIR/shutdown.log"
for _ in $(seq 1 50); do
  kill -0 "$SERVE_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
  echo "server did not exit after shutdown" >&2
  exit 1
fi
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
grep -q "drained:" "$WORK_DIR/serve.err"

echo "server smoke test passed"
