#!/usr/bin/env bash
# End-to-end smoke of the observability spine:
#   1. start scenario_server under CNTI_TRACE with a fresh disk cache and
#      run a cold study — every tier (solver, rom, cache, engine, service)
#      crosses instrumented span sites;
#   2. scrape `scenario_client --metrics` and require a non-empty
#      Prometheus exposition with live service counters + latencies;
#   3. shut the daemon down through the wire protocol, which flushes the
#      trace at process exit, and validate the file with trace_check
#      (strict JSON, complete "X" events, all five tiers present);
#   4. run the scenario-engine bench WITHOUT tracing and gate on its
#      obs_overhead_pct metric: compiled-in-but-disabled instrumentation
#      must cost < 2% of a warm scenario (skipped with a notice when the
#      bench binary was not built).
#
# usage: trace_smoke.sh <build-dir> [<artifact-dir>]
#        artifact-dir, when given, receives the validated trace JSON.
set -eu
build="${1:-build}"
artifacts="${2:-}"
server="$build/scenario_server"
client="$build/scenario_client"
checker="$build/trace_check"
bench="$build/bench_scenario_engine"
[ -x "$server" ] || { echo "missing $server"; exit 2; }
[ -x "$client" ] || { echo "missing $client"; exit 2; }
[ -x "$checker" ] || { echo "missing $checker"; exit 2; }

work="$(mktemp -d)"
server_pid=""
cleanup() {
  if [ -n "$server_pid" ]; then
    kill "$server_pid" 2> /dev/null || true
    wait "$server_pid" 2> /dev/null || true
  fi
  rm -rf "$work"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

echo "== traced daemon run =="
CNTI_TRACE="$work/trace_%p.json" \
  "$server" --port 0 --cache-dir "$work/cache" --threads 4 \
  > "$work/server.log" 2>&1 &
server_pid=$!
port=""
for _ in $(seq 1 100); do
  port="$(sed -n 's/^SERVICE_PORT=//p' "$work/server.log" | head -1)"
  [ -n "$port" ] && break
  kill -0 "$server_pid" 2> /dev/null || { cat "$work/server.log"; exit 1; }
  sleep 0.1
done
[ -n "$port" ] || { echo "server never reported its port"; exit 1; }

"$client" --port "$port" --demo 4 --csv "$work/demo.csv"

echo "== metrics scrape =="
"$client" --port "$port" --demo 0 --metrics > "$work/metrics.txt"
[ -s "$work/metrics.txt" ] || { echo "--metrics printed nothing"; exit 1; }
grep -q '^cnti_service_requests ' "$work/metrics.txt"
grep -q '^cnti_engine_scenarios ' "$work/metrics.txt"
grep -q '^cnti_service_request_seconds_count ' "$work/metrics.txt"
echo "metrics exposition OK ($(wc -l < "$work/metrics.txt") lines)"

echo "== shutdown flushes the trace =="
"$client" --port "$port" --demo 0 --shutdown
wait "$server_pid" || { echo "server exited non-zero"; exit 1; }
trace="$work/trace_$server_pid.json"
server_pid=""
[ -s "$trace" ] || { echo "no trace written at $trace"; exit 1; }

echo "== trace validation =="
"$checker" --trace "$trace" --min-events 50 \
  --require-tiers solver,rom,cache,engine,service
if [ -n "$artifacts" ]; then
  mkdir -p "$artifacts"
  cp "$trace" "$artifacts/trace_smoke.json"
fi

echo "== disabled-overhead gate (< 2%) =="
if [ -x "$bench" ]; then
  # No CNTI_TRACE here on purpose: the gate measures the *disabled* span
  # fast path, which is the cost every production run pays.
  env -u CNTI_TRACE CNTI_BENCH_JSON="$work/bench.json" \
    "$bench" --benchmark_filter='^$' > "$work/bench.log"
  grep -E "Observability" "$work/bench.log"
  pct="$(sed -n 's/.*"obs_overhead_pct": *\([0-9.eE+-]*\).*/\1/p' \
    "$work/bench.json" | head -1)"
  [ -n "$pct" ] || { echo "obs_overhead_pct missing from bench JSON"; exit 1; }
  awk -v p="$pct" 'BEGIN { exit !(p < 2.0) }' \
    || { echo "disabled observability overhead ${pct}% >= 2%"; exit 1; }
  echo "disabled overhead ${pct}% OK"
else
  echo "bench_scenario_engine not built; overhead gate skipped"
fi

echo "trace smoke OK"
