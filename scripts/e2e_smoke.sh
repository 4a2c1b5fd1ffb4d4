#!/usr/bin/env sh
# End-to-end smoke of the serving layer against the real binaries, in two
# scenarios:
#
# Single daemon:
#   1. build spaceprocd + spaceproc-router + loadgen
#   2. boot the daemon on a free port
#   3. drive one verified loadgen pass (-verify checks every served
#      result bit-identical to an in-process run of the same pipeline)
#   4. SIGTERM the daemon and require a clean "drained" exit
#
# Fleet:
#   5. boot three daemons (each with a telemetry sidecar) and a
#      spaceproc-router in front of them, its own sidecar serving the
#      fleet view from the /metrics pages its prober keeps
#   6. drive a verified loadgen pass through the router and, mid-run,
#      SIGTERM one daemon; require the router to eject it and
#      /fleet/healthz to list it down while it stays dead, the pass to
#      finish with zero failures and zero mismatches (failover + retries
#      absorb the kill), then restart the daemon on its old addresses and
#      require the router to readmit it
#   7. drive a second verified pass over the healed fleet with tracing
#      on; require the slowest request's trace ID to appear in the
#      loadgen trace file AND in the router's and a daemon's
#      /debug/trace — one trace crossing all three process boundaries —
#      and require /fleet/metrics, /fleet/healthz, and /debug/slowest
#      to serve coherent fleet telemetry
#   8. SIGTERM the router and the daemons and require clean drains
#
# No arguments. Exits non-zero on any failure. Used by `make e2e-smoke`
# and the CI e2e job.
set -eu

workdir=$(mktemp -d)
daemon_log="$workdir/spaceprocd.log"
pids=""
cleanup() {
    for pid in $pids; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

# await_line FILE PATTERN: polls FILE until a line matches sed PATTERN,
# prints the first match.
await_line() {
    file=$1
    pattern=$2
    for _ in $(seq 1 300); do
        line=$(sed -n "s/^$pattern//p" "$file" | head -n1)
        if [ -n "$line" ]; then
            echo "$line"
            return 0
        fi
        sleep 0.1
    done
    return 1
}

# await_grep FILE PATTERN: polls FILE until grep matches.
await_grep() {
    file=$1
    pattern=$2
    for _ in $(seq 1 300); do
        grep -q "$pattern" "$file" && return 0
        sleep 0.1
    done
    return 1
}

# await_exit PID: waits for the process to exit.
await_exit() {
    for _ in $(seq 1 300); do
        kill -0 "$1" 2>/dev/null || return 0
        sleep 0.1
    done
    return 1
}

echo "== building binaries"
go build -o "$workdir/spaceprocd" ./cmd/spaceprocd
go build -o "$workdir/spaceproc-router" ./cmd/spaceproc-router
go build -o "$workdir/loadgen" ./cmd/loadgen

echo "== booting spaceprocd"
"$workdir/spaceprocd" -addr 127.0.0.1:0 -workers 4 -tile 32 \
    -max-inflight 8 -drain-timeout 30s >"$daemon_log" 2>&1 &
daemon_pid=$!
pids="$daemon_pid"

if ! addr=$(await_line "$daemon_log" "serving on "); then
    echo "daemon never reported its address:" >&2
    cat "$daemon_log" >&2
    exit 1
fi
echo "daemon at $addr (pid $daemon_pid)"

echo "== loadgen with bit-identical verification"
"$workdir/loadgen" -addr "$addr" -clients 2 -requests 2 \
    -width 64 -height 64 -readouts 8 -verify

echo "== SIGTERM drain"
kill -TERM "$daemon_pid"
if ! await_exit "$daemon_pid"; then
    echo "daemon did not exit after SIGTERM:" >&2
    cat "$daemon_log" >&2
    exit 1
fi
pids=""
if ! grep -q "^drained$" "$daemon_log"; then
    echo "daemon exited without draining:" >&2
    cat "$daemon_log" >&2
    exit 1
fi

echo "== booting a 3-daemon fleet (with telemetry sidecars)"
fleet_addrs=""
fleet_pids=""
for i in 1 2 3; do
    "$workdir/spaceprocd" -addr 127.0.0.1:0 -metrics 127.0.0.1:0 \
        -workers 2 -tile 32 \
        -drain-timeout 30s >"$workdir/node$i.log" 2>&1 &
    pid=$!
    pids="$pids $pid"
    fleet_pids="$fleet_pids $pid"
    if ! naddr=$(await_line "$workdir/node$i.log" "serving on "); then
        echo "fleet node $i never reported its address:" >&2
        cat "$workdir/node$i.log" >&2
        exit 1
    fi
    if ! nmetrics=$(await_line "$workdir/node$i.log" "metrics on http:\/\/"); then
        echo "fleet node $i never reported its sidecar address:" >&2
        cat "$workdir/node$i.log" >&2
        exit 1
    fi
    nmetrics=${nmetrics%/metrics}
    fleet_addrs="$fleet_addrs,$naddr=$nmetrics"
    eval "node${i}_addr=\$naddr"
    eval "node${i}_metrics=\$nmetrics"
    eval "node${i}_pid=\$pid"
    echo "node $i at $naddr (pid $pid, metrics $nmetrics)"
done
fleet_addrs=${fleet_addrs#,}

echo "== booting spaceproc-router"
router_log="$workdir/router.log"
"$workdir/spaceproc-router" -addr 127.0.0.1:0 -metrics 127.0.0.1:0 \
    -nodes "$fleet_addrs" \
    -probe-interval 100ms -probe-failures 2 \
    -drain-timeout 30s >"$router_log" 2>"$workdir/router_err.log" &
router_pid=$!
pids="$pids $router_pid"
if ! raddr=$(await_line "$router_log" "routing on "); then
    echo "router never reported its address:" >&2
    cat "$router_log" "$workdir/router_err.log" >&2
    exit 1
fi
if ! rmetrics=$(await_line "$router_log" "metrics on http:\/\/"); then
    echo "router never reported its sidecar address:" >&2
    cat "$router_log" "$workdir/router_err.log" >&2
    exit 1
fi
rmetrics=${rmetrics%/metrics}
echo "router at $raddr (pid $router_pid, metrics $rmetrics)"

echo "== loadgen through the router, one node killed mid-run"
"$workdir/loadgen" -addr "$raddr" -clients 2 -requests 25 \
    -width 64 -height 64 -readouts 8 -attempts 12 -verify \
    >"$workdir/loadgen_fleet.log" 2>&1 &
loadgen_pid=$!
pids="$pids $loadgen_pid"

sleep 0.3
echo "killing node 2 ($node2_addr)"
kill -TERM "$node2_pid"
if ! await_exit "$node2_pid"; then
    echo "killed node never exited:" >&2
    cat "$workdir/node2.log" >&2
    exit 1
fi
if ! await_grep "$workdir/router_err.log" "fleet node ejected.*node=$node2_addr"; then
    echo "router never ejected the dead node:" >&2
    cat "$workdir/router_err.log" >&2
    exit 1
fi
echo "router ejected node 2"
# The fleet view reads the router's breaker, and node 2 stays dead until
# it is restarted below, so no probe can readmit it before this check.
curl -s "http://$rmetrics/fleet/healthz" >"$workdir/fleet_healthz_down.json" || true
if ! grep -q "\"name\":\"$node2_addr\",\"up\":false" "$workdir/fleet_healthz_down.json" ||
    grep -q '"status":"ok"' "$workdir/fleet_healthz_down.json"; then
    echo "/fleet/healthz does not list the ejected node 2 down:" >&2
    cat "$workdir/fleet_healthz_down.json" >&2
    exit 1
fi
echo "/fleet/healthz lists node 2 down"

echo "restarting node 2 on $node2_addr"
# The router pinned node 2's health address from -nodes, so the restart
# must bring the sidecar back on the same port too.
"$workdir/spaceprocd" -addr "$node2_addr" -metrics "$node2_metrics" \
    -workers 2 -tile 32 \
    -drain-timeout 30s >"$workdir/node2b.log" 2>&1 &
node2_pid=$!
pids="$pids $node2_pid"
if ! await_line "$workdir/node2b.log" "serving on " >/dev/null; then
    echo "restarted node never came up:" >&2
    cat "$workdir/node2b.log" >&2
    exit 1
fi
if ! await_grep "$workdir/router_err.log" "fleet node readmitted"; then
    echo "router never readmitted the restarted node:" >&2
    cat "$workdir/router_err.log" >&2
    exit 1
fi
echo "router readmitted node 2"

if ! wait "$loadgen_pid"; then
    echo "fleet loadgen failed:" >&2
    cat "$workdir/loadgen_fleet.log" >&2
    exit 1
fi
if ! grep -q " 0 failed" "$workdir/loadgen_fleet.log"; then
    echo "fleet loadgen lost requests across the kill:" >&2
    cat "$workdir/loadgen_fleet.log" >&2
    exit 1
fi
if ! grep -q "^verify: 0 mismatched$" "$workdir/loadgen_fleet.log"; then
    echo "fleet results not bit-identical:" >&2
    cat "$workdir/loadgen_fleet.log" >&2
    exit 1
fi

echo "== loadgen over the healed fleet, tracing on"
trace_file="$workdir/loadgen_trace.json"
traced_log="$workdir/loadgen_traced.log"
"$workdir/loadgen" -addr "$raddr" -clients 2 -requests 2 \
    -width 64 -height 64 -readouts 8 -verify \
    -trace "$trace_file" -slowest 3 >"$traced_log" 2>&1
cat "$traced_log"

echo "== one trace crosses client, router, and daemon"
# loadgen printed its slowest requests with their trace IDs; the slowest
# one must appear in the client-side Chrome export and in the /debug/trace
# of the router and of whichever daemon served it.
tid=$(sed -n 's/^slow 1: .*trace \([0-9a-f]\{16\}\).*/\1/p' "$traced_log" | head -n1)
if [ -z "$tid" ]; then
    echo "loadgen printed no slowest-request trace ID:" >&2
    cat "$traced_log" >&2
    exit 1
fi
echo "slowest trace: $tid"
if ! grep -q "\"trace_id\": \"$tid\"" "$trace_file"; then
    echo "trace $tid missing from the loadgen Chrome export $trace_file" >&2
    exit 1
fi
curl -sf "http://$rmetrics/debug/trace" >"$workdir/router_trace.json"
if ! grep -q "\"trace_id\": \"$tid\"" "$workdir/router_trace.json"; then
    echo "trace $tid missing from the router's /debug/trace" >&2
    exit 1
fi
daemon_hit=0
for i in 1 2 3; do
    eval "nmetrics=\$node${i}_metrics"
    if curl -sf "http://$nmetrics/debug/trace" | grep -q "\"trace_id\": \"$tid\""; then
        daemon_hit=1
        echo "trace $tid served by node $i"
    fi
done
if [ "$daemon_hit" != 1 ]; then
    echo "trace $tid missing from every daemon's /debug/trace" >&2
    exit 1
fi

echo "== fleet telemetry endpoints"
curl -sf "http://$rmetrics/fleet/metrics" >"$workdir/fleet_metrics.txt"
for i in 1 2 3; do
    eval "naddr=\$node${i}_addr"
    if ! grep -q "^# node $naddr up " "$workdir/fleet_metrics.txt"; then
        echo "/fleet/metrics does not show node $i ($naddr) up:" >&2
        cat "$workdir/fleet_metrics.txt" >&2
        exit 1
    fi
done
if ! grep -q "^# fleet merged$" "$workdir/fleet_metrics.txt"; then
    echo "/fleet/metrics has no merged section:" >&2
    cat "$workdir/fleet_metrics.txt" >&2
    exit 1
fi
# The merged page is itself a parseable exposition whose counters are the
# per-node sums: check serve_requests_total adds up.
if ! awk '
    /^# fleet merged$/ { merged = 1; next }
    $1 == "counter" && $2 == "serve_requests_total" {
        if (merged) { total = $3 } else { sum += $3 }
    }
    END { exit !(total > 0 && total == sum) }
' "$workdir/fleet_metrics.txt"; then
    echo "merged serve_requests_total does not equal the per-node sum:" >&2
    cat "$workdir/fleet_metrics.txt" >&2
    exit 1
fi
if ! curl -sf "http://$rmetrics/fleet/healthz" | grep -q '"status":"ok"'; then
    echo "/fleet/healthz not ok with the whole fleet up" >&2
    curl -s "http://$rmetrics/fleet/healthz" >&2 || true
    exit 1
fi
if ! curl -sf "http://$rmetrics/debug/slowest" | grep -q "\"trace_id\""; then
    echo "router /debug/slowest lists no traced requests" >&2
    exit 1
fi
echo "fleet telemetry OK"

echo "== SIGTERM drains (router, then fleet)"
kill -TERM "$router_pid"
if ! await_exit "$router_pid"; then
    echo "router did not exit after SIGTERM:" >&2
    cat "$router_log" "$workdir/router_err.log" >&2
    exit 1
fi
if ! grep -q "^drained$" "$router_log"; then
    echo "router exited without draining:" >&2
    cat "$router_log" >&2
    exit 1
fi
for i in 1 3; do
    eval "pid=\$node${i}_pid"
    kill -TERM "$pid"
done
kill -TERM "$node2_pid"
for i in 1 3; do
    eval "pid=\$node${i}_pid"
    if ! await_exit "$pid"; then
        echo "fleet node $i did not exit after SIGTERM" >&2
        exit 1
    fi
done
if ! await_exit "$node2_pid"; then
    echo "restarted node did not exit after SIGTERM" >&2
    exit 1
fi
pids=""
echo "e2e smoke OK"

echo "== crash-recovery scenario (WAL replay + dedupe)"
sh "$(dirname "$0")/e2e_crash.sh"
