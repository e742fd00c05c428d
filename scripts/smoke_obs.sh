#!/bin/sh
# smoke_obs.sh — observability-plane smoke test across a 3-node cluster,
# run by `make smoke-obs` and the CI obs-smoke job:
#
#   1. build layoutd/layoutctl/tracedump and start a 3-node cluster,
#   2. submit a trace to n1 to learn the rendezvous owner from the
#      node-prefixed job ID,
#   3. resubmit through a NON-owner with an injected W3C traceparent
#      header and require end-to-end propagation: the job adopts the
#      caller's 32-hex trace ID, and `layoutctl -trace` against the
#      non-owner renders ONE merged waterfall with per-node lanes for
#      both the forwarding node and the owner,
#   4. require `layoutctl -top` to pass (it hard-fails unless
#      /v1/cluster/metrics lints clean) and to list all three nodes;
#      spot-check the federation header and node labels in the raw
#      exposition,
#   5. probe every endpoint with `layoutctl -health -cluster`,
#   6. SIGKILL n3 and require a survivor's /v1/debug/events ring to
#      record peer_down; restart n3 and require peer_up,
#   7. require /v1/debug/runtime to serve runtime-telemetry samples.
#
# Set SMOKE_WORK to keep the scratch dir (see lib.sh).
set -eu

. "$(dirname "$0")/lib.sh"

PROG=458.sjeng
OPT=func-affinity
# The caller's trace ID: every span in the merged waterfall must live
# under it.
TID=4bf92f3577b34da6a3ce929d0e0e4736

echo "smoke-obs: building binaries"
go build -o "$WORK/layoutd" ./cmd/layoutd
go build -o "$WORK/layoutctl" ./cmd/layoutctl
go build -o "$WORK/tracedump" ./cmd/tracedump

echo "smoke-obs: recording a $PROG trace"
"$WORK/tracedump" -prog "$PROG" -record "$WORK/t" -gran bb

# POST a trace body with a traceparent header; layoutctl has no flag for
# injecting caller trace context, which is the point of this check.
post_traced() {
    # $1 = URL, $2 = body file, $3 = traceparent value
    if command -v curl >/dev/null 2>&1; then
        curl -fsS -X POST -H "traceparent: $3" \
            -H "Content-Type: application/octet-stream" \
            --data-binary "@$2" "$1"
    else
        wget -qO- --header="traceparent: $3" \
            --header="Content-Type: application/octet-stream" \
            --post-file="$2" "$1"
    fi
}

cluster_ports $((22000 + $$ % 20000))
SAMPLE="-runtime-sample 500ms"
start_node n1 "$P1" "$SAMPLE"
start_node n2 "$P2" "$SAMPLE"
start_node n3 "$P3" "$SAMPLE"
echo "smoke-obs: nodes n1=$A1 n2=$A2 n3=$A3"
for id in n1 n2 n3; do wait_healthy "$id"; done
# Membership must converge before writes, or the first health poll
# racing the listeners could suppress forwards and replication.
for id in n1 n2 n3; do wait_converged "$id"; done

echo "smoke-obs: submitting job to n1 to learn the owner"
"$WORK/layoutctl" -addr "$A1" -submit "$WORK/t.trace" \
    -prog "$PROG" -opt "$OPT" -wait >"$WORK/result1.json"
grep -q '"status": "done"' "$WORK/result1.json"
OWNER=$(grep -o '"id": "n[0-9]*\.' "$WORK/result1.json" | head -1 | cut -d'"' -f4 | cut -d. -f1)
[ -n "$OWNER" ] || { echo "smoke-obs: job ID is not node-prefixed" >&2; exit 1; }
if [ "$OWNER" = n1 ]; then NONOWNER=n2 NONOWNER_ADDR=$A2; else NONOWNER=n1 NONOWNER_ADDR=$A1; fi
echo "smoke-obs: owner is $OWNER; resubmitting via $NONOWNER with traceparent 00-$TID-..."

post_traced "$NONOWNER_ADDR/v1/jobs?prog=$PROG&opt=$OPT" "$WORK/t.trace" \
    "00-$TID-00f067aa0ba902b7-01" >"$WORK/result2.json"
# The job — created on the owner, answered through the non-owner —
# must carry the caller's trace ID, not a fresh one.
grep -q "\"traceId\": \"$TID\"" "$WORK/result2.json" || {
    echo "smoke-obs: forwarded job did not adopt the caller's trace ID" >&2
    cat "$WORK/result2.json" >&2
    exit 1
}
JOB=$(grep -o '"id": "n[0-9]*\.job-[0-9]*"' "$WORK/result2.json" | head -1 | cut -d'"' -f4)
[ -n "$JOB" ] || { echo "smoke-obs: no job ID in forwarded response" >&2; exit 1; }
case $JOB in
"$OWNER".*) ;;
*) echo "smoke-obs: forwarded job $JOB is not owned by $OWNER" >&2; exit 1 ;;
esac

echo "smoke-obs: fetching the merged waterfall for $JOB from $NONOWNER"
"$WORK/layoutctl" -addr "$NONOWNER_ADDR" -trace "$JOB" >"$WORK/waterfall.txt"
cat "$WORK/waterfall.txt"
# One merged document: the caller's trace ID in the title, both nodes in
# the "across" list, the owner's pipeline spans in the owner's lane, and
# the forwarding hop in the non-owner's lane.
grep -q "trace $TID" "$WORK/waterfall.txt" || {
    echo "smoke-obs: waterfall is not under the caller's trace ID" >&2
    exit 1
}
grep -q "across" "$WORK/waterfall.txt"
grep -q "\[$OWNER\]" "$WORK/waterfall.txt" || {
    echo "smoke-obs: waterfall has no lane for owner $OWNER" >&2
    exit 1
}
grep -q "\[$NONOWNER\] peer.forward" "$WORK/waterfall.txt" || {
    echo "smoke-obs: waterfall has no peer.forward lane for $NONOWNER" >&2
    exit 1
}

echo "smoke-obs: federated metrics via layoutctl -top (lints the exposition)"
"$WORK/layoutctl" -addr "$A1" -top >"$WORK/top.txt"
cat "$WORK/top.txt"
for id in n1 n2 n3; do
    grep -q "^$id " "$WORK/top.txt" || {
        echo "smoke-obs: -top is missing a row for $id" >&2
        exit 1
    }
done
grep -q 'exposition lint-clean' "$WORK/top.txt"
fetch "$A2/v1/cluster/metrics" >"$WORK/federated.txt"
grep -q '^# federation: layoutd cluster metrics, 3/3 nodes' "$WORK/federated.txt" || {
    echo "smoke-obs: federation header does not report 3/3 nodes" >&2
    head -5 "$WORK/federated.txt" >&2
    exit 1
}
grep -q '^layoutd_jobs_completed_total{node="n3"}' "$WORK/federated.txt"

echo "smoke-obs: cluster health table must cover every endpoint"
"$WORK/layoutctl" -health -cluster "$A1,$A2,$A3" >"$WORK/health.txt"
cat "$WORK/health.txt"
for id in n1 n2 n3; do
    grep -q " $id " "$WORK/health.txt" || {
        echo "smoke-obs: -health -cluster is missing $id" >&2
        exit 1
    }
done
grep -q '^3/3 endpoints live' "$WORK/health.txt"

echo "smoke-obs: runtime telemetry must be sampling"
fetch "$A1/v1/debug/runtime" >"$WORK/runtime.json"
grep -q '"heap_bytes": [1-9]' "$WORK/runtime.json" || {
    echo "smoke-obs: /v1/debug/runtime has no heap sample" >&2
    cat "$WORK/runtime.json" >&2
    exit 1
}
grep -q '"goroutines": [1-9]' "$WORK/runtime.json"

echo "smoke-obs: SIGKILL n3; a survivor's event ring must record peer_down"
eval "kill -9 \$PID_n3"
i=0
while ! fetch "$A1/v1/debug/events" | grep -q '"kind": "peer_down"'; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "smoke-obs: n1 never recorded peer_down for n3" >&2
        fetch "$A1/v1/debug/events" >&2 || true
        exit 1
    fi
    sleep 0.1
done
fetch "$A1/v1/debug/events" | grep -q '"node": "n3"'

echo "smoke-obs: restarting n3; the event ring must record peer_up"
start_node n3 "$P3" "$SAMPLE"
wait_healthy n3
i=0
while ! fetch "$A1/v1/debug/events" | grep -q '"kind": "peer_up"'; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "smoke-obs: n1 never recorded peer_up after n3 restarted" >&2
        fetch "$A1/v1/debug/events" >&2 || true
        exit 1
    fi
    sleep 0.1
done
fetch "$A1/metrics" | grep -q '^layoutd_events_total{kind="peer_down"} [1-9]' || {
    echo "smoke-obs: layoutd_events_total{kind=peer_down} not incremented" >&2
    exit 1
}

echo "smoke-obs: draining nodes"
for id in n1 n2 n3; do
    eval "pid=\$PID_$id"
    kill -TERM "$pid"
    i=0
    while kill -0 "$pid" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "smoke-obs: $id did not exit after SIGTERM" >&2
            cat "$WORK/$id.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    wait "$pid" 2>/dev/null || true
    grep -q 'drained cleanly' "$WORK/$id.log"
done
PIDS=""

echo "smoke-obs: OK"
