#!/usr/bin/env bash
# Distributed-serving failover drill (docs/SERVING.md "Distributed topology").
#
# Brings up srna-router with two supervised srna-serve shards, drives a
# closed-loop workload through the router with srna-loadgen, SIGKILLs one
# shard mid-run, and requires:
#
#   1. zero lost responses — every accepted request gets exactly one reply
#      (failed dispatches re-route to the replica or come back as retryable
#      rejections, which the load generator counts as delivered);
#   2. the supervisor restarts the killed shard on its original port;
#   3. srna-trace-collect merges the router's and both shards' /tracez into
#      one clock-aligned Perfetto trace with at least one trace id spanning
#      a router dispatch span and a shard solve span;
#   4. the router's /flightz retains a failover exemplar (attempts >= 2,
#      trace id attached) from the kill.
#
# Wired as the `distributed_smoke` ctest (label: dist); also runnable by hand.
#
# Usage: scripts/check_distributed.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
ROUTER="$BUILD_DIR/tools/srna-router"
LOADGEN="$BUILD_DIR/tools/srna-loadgen"
SERVE="$BUILD_DIR/tools/srna-serve"
COLLECT="$BUILD_DIR/tools/srna-trace-collect"
SHARDCTL="$BUILD_DIR/tools/srna-shardctl"

[ -x "$ROUTER" ] || { echo "missing $ROUTER (build first)"; exit 1; }
[ -x "$LOADGEN" ] || { echo "missing $LOADGEN (build first)"; exit 1; }
[ -x "$SERVE" ] || { echo "missing $SERVE (build first)"; exit 1; }
[ -x "$COLLECT" ] || { echo "missing $COLLECT (build first)"; exit 1; }
[ -x "$SHARDCTL" ] || { echo "missing $SHARDCTL (build first)"; exit 1; }

WORK="$(mktemp -d)"
STATUS="$WORK/topology.json"
ROUTER_PID=""
cleanup() {
  if [ -n "$ROUTER_PID" ] && kill -0 "$ROUTER_PID" 2>/dev/null; then
    kill -TERM "$ROUTER_PID" 2>/dev/null || true
    wait "$ROUTER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

# Ephemeral ports everywhere; the status file carries the resolved topology.
# --trace-live on router and shards keeps every process's span buffer
# scrapeable at GET /tracez for the post-drill trace merge.
"$ROUTER" --port=0 --admin-port=0 --spawn-shards=2 --serve-bin="$SERVE" \
  --status-file="$STATUS" --probe-interval-ms=50 --log-level=warn \
  --trace-live --shard-arg=--log-level=off --shard-arg=--trace-live \
  >"$WORK/router.log" 2>&1 &
ROUTER_PID=$!

# The router writes the status file only once both shards passed /readyz.
for _ in $(seq 1 120); do
  [ -s "$STATUS" ] && break
  if ! kill -0 "$ROUTER_PID" 2>/dev/null; then
    echo "FAIL: router exited before becoming ready"; cat "$WORK/router.log"; exit 1
  fi
  sleep 0.25
done
[ -s "$STATUS" ] || { echo "FAIL: router never became ready"; cat "$WORK/router.log"; exit 1; }

PORT=$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['router']['port'])" "$STATUS")
SHARD0_PID=$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['shards'][0]['pid'])" "$STATUS")
SHARD0_DATA=$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['shards'][0]['data'])" "$STATUS")
echo "router on 127.0.0.1:$PORT, shard0 pid $SHARD0_PID at $SHARD0_DATA"

# Big enough that the kill below always lands mid-run (thousands of
# multi-millisecond solves), small enough to stay a smoke test. 500 requests
# were too few: an idle 4-core host answered them in 0.35 s, inside the
# 0.4 s before the kill.
# --trace-sample=5: every 5th request asks to be traced, which is what makes
# shards record solve spans and responses carry the router hop fields.
"$LOADGEN" --requests=2000 --concurrency=4 --length=400 --structures=64 \
  --seed=7 --trace-sample=5 --connect="127.0.0.1:$PORT" \
  --output="$WORK/report.json" >"$WORK/loadgen.log" 2>&1 &
LOAD_PID=$!

sleep 0.4
kill -0 "$LOAD_PID" 2>/dev/null || { echo "FAIL: load finished before the kill — not a failover drill"; exit 1; }
echo "SIGKILL shard0 (pid $SHARD0_PID) mid-run"
kill -KILL "$SHARD0_PID"

# srna-loadgen exits non-zero when any issued request went unanswered.
if ! wait "$LOAD_PID"; then
  echo "FAIL: lost responses across the shard kill"
  cat "$WORK/loadgen.log"
  exit 1
fi
[ -s "$WORK/report.json" ] || { echo "FAIL: loadgen wrote no report"; exit 1; }

# The supervisor must bring the killed shard back on its original port.
python3 - "$SHARD0_DATA" <<'EOF'
import socket, sys, time
host, port = sys.argv[1].rsplit(":", 1)
deadline = time.time() + 20
while time.time() < deadline:
    try:
        socket.create_connection((host, int(port)), timeout=0.5).close()
        sys.exit(0)
    except OSError:
        time.sleep(0.25)
print("FAIL: killed shard never came back on", sys.argv[1])
sys.exit(1)
EOF

# Cross-process trace collection: scrape every /tracez named in the status
# file and merge on a shared clock. The killed shard restarted with a fresh
# tracer, so its lane may be sparse — but the lane itself must exist, and at
# least one trace id must span a router dispatch span and a shard solve span.
"$COLLECT" --status-file="$STATUS" --output="$WORK/merged_trace.json" \
  2>"$WORK/collect.log" || { echo "FAIL: trace collection"; cat "$WORK/collect.log"; exit 1; }
python3 - "$WORK/merged_trace.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
procs = doc.get("srna_processes", {})
assert len(procs) >= 3, f"want router + 2 shard lanes, got {sorted(procs)}"
assert "router" in procs, sorted(procs)
router_pid = procs["router"]["pid"]
events = [e for e in doc.get("traceEvents", []) if e.get("ph") == "X"]
router_ids = {e["args"]["trace_id"] for e in events
              if e.get("pid") == router_pid and e.get("cat") == "dist"
              and "trace_id" in e.get("args", {})}
shard_ids = {e["args"]["trace_id"] for e in events
             if e.get("pid") != router_pid and e.get("cat") == "serve"
             and "trace_id" in e.get("args", {})}
common = router_ids & shard_ids
assert common, "no trace id spans both a router dispatch and a shard solve"
offsets = {name: p["clock_offset_us"] for name, p in procs.items()}
print(f"merged trace: {len(procs)} process lanes, {len(common)} trace ids "
      f"correlated across router and shards, clock offsets {offsets}")
EOF

# The kill forced in-flight requests to fail over; the router's flight
# recorder must have kept one of them as an exemplar, trace id attached.
# srna-shardctl flightz fetches the router's merged /flightz over HTTP.
"$SHARDCTL" --status-file="$STATUS" flightz >"$WORK/flightz.json" \
  || { echo "FAIL: flightz fetch"; exit 1; }
python3 - "$WORK/flightz.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc.get("processes", 0) >= 3, f"merged flightz spans {doc.get('processes')} processes"
failovers = [r for r in doc.get("exemplars", [])
             if r.get("process") == "router" and r.get("failovers", 0) >= 1]
assert failovers, "no failover exemplar retained on the router"
ex = failovers[-1]
assert ex.get("attempts", 0) >= 2, ex
assert ex.get("trace_id", 0) > 0, ex
# The exemplar's id is a usable handle: the same record is in the merged
# ring, tagged with its process of origin.
ring_ids = {r.get("trace_id") for r in doc.get("records", [])
            if r.get("process") == "router"}
print(f"flightz: failover exemplar trace {ex['trace_id']} "
      f"({ex['attempts']} attempts, answered by {ex.get('shard', 'nobody')}); "
      f"{len(ring_ids)} router records in the merged ring")
EOF

tail -2 "$WORK/loadgen.log" || true
echo "distributed smoke: failover drill passed (zero lost responses, shard"
echo "restarted, merged trace correlated, failover exemplar in /flightz)"
