#!/bin/sh
# smoke_cluster.sh — 3-node cluster smoke test, run by `make smoke-cluster`
# and the CI cluster-smoke job:
#
#   1. build layoutd/layoutctl/tracedump,
#   2. start a 3-node cluster (static -peers membership, -replicas 2),
#   3. submit a trace to n1 and learn the owner from the node-prefixed
#      job ID; wait for the result to replicate,
#   4. resubmit the identical trace to a NON-owner and require a cache
#      hit served by transparent forwarding (layoutd_peer_forwards_total
#      on the non-owner, zero local recompute),
#   5. SIGKILL the owner,
#   6. require every survivor to still serve the layout by digest —
#      replica reads and peer fetch-through, never a recompute
#      (layoutd_jobs_completed_total stays 0 on survivors) — and the
#      -cluster client flag to skip the dead endpoint.
#
# Set SMOKE_WORK to keep the scratch dir (see lib.sh).
set -eu

. "$(dirname "$0")/lib.sh"

PROG=458.sjeng
OPT=func-affinity

echo "smoke-cluster: building binaries"
go build -o "$WORK/layoutd" ./cmd/layoutd
go build -o "$WORK/layoutctl" ./cmd/layoutctl
go build -o "$WORK/tracedump" ./cmd/tracedump

echo "smoke-cluster: recording a $PROG trace"
"$WORK/tracedump" -prog "$PROG" -record "$WORK/t" -gran bb

cluster_ports $((20000 + $$ % 20000))
start_node n1 "$P1"
start_node n2 "$P2"
start_node n3 "$P3"
echo "smoke-cluster: nodes n1=$A1 n2=$A2 n3=$A3"
for id in n1 n2 n3; do wait_healthy "$id"; done
# Membership must converge before the first write.
for id in n1 n2 n3; do wait_converged "$id"; done

echo "smoke-cluster: submitting job to n1"
"$WORK/layoutctl" -addr "$A1" -submit "$WORK/t.trace" \
    -prog "$PROG" -opt "$OPT" -wait >"$WORK/result1.json"
grep -q '"status": "done"' "$WORK/result1.json"
DIGEST=$(grep -o '"digest": "[0-9a-f]*"' "$WORK/result1.json" | head -1 | cut -d'"' -f4)
[ -n "$DIGEST" ] || { echo "smoke-cluster: no digest in result" >&2; exit 1; }
# Job IDs are node-prefixed: the prefix names the rendezvous owner.
OWNER=$(grep -o '"id": "n[0-9]*\.' "$WORK/result1.json" | head -1 | cut -d'"' -f4 | cut -d. -f1)
[ -n "$OWNER" ] || { echo "smoke-cluster: job ID is not node-prefixed" >&2; exit 1; }
case $OWNER in
n1) OWNER_ADDR=$A1 ;;
n2) OWNER_ADDR=$A2 ;;
n3) OWNER_ADDR=$A3 ;;
*) echo "smoke-cluster: unknown owner $OWNER" >&2; exit 1 ;;
esac
echo "smoke-cluster: digest $DIGEST owned by $OWNER"

echo "smoke-cluster: waiting for write-behind replication from $OWNER"
i=0
while ! fetch "$OWNER_ADDR/metrics" | grep -q '^layoutd_replication_pushed_total [1-9]'; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "smoke-cluster: owner never replicated" >&2
        fetch "$OWNER_ADDR/metrics" >&2 || true
        exit 1
    fi
    sleep 0.1
done
fetch "$OWNER_ADDR/metrics" | grep -q '^layoutd_replication_queue_depth' || {
    echo "smoke-cluster: replication queue depth metric missing" >&2
    exit 1
}

# One non-owner must now hold the result blob durably (RF=2).
if [ "$OWNER" = n1 ]; then NONOWNER=n2 NONOWNER_ADDR=$A2; else NONOWNER=n1 NONOWNER_ADDR=$A1; fi
i=0
while true; do
    for a in "$A1" "$A2" "$A3"; do
        [ "$a" = "$OWNER_ADDR" ] && continue
        if fetch "$a/v1/store/$DIGEST" >/dev/null 2>&1; then
            break 2
        fi
    done
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "smoke-cluster: no replica holds $DIGEST" >&2
        exit 1
    fi
    sleep 0.1
done

echo "smoke-cluster: resubmitting to non-owner $NONOWNER (expect forwarded cache hit)"
"$WORK/layoutctl" -addr "$NONOWNER_ADDR" -submit "$WORK/t.trace" \
    -prog "$PROG" -opt "$OPT" -wait >"$WORK/result2.json"
grep -q '"cached": true' "$WORK/result2.json"
fetch "$NONOWNER_ADDR/metrics" >"$WORK/metrics-nonowner.txt"
grep -q "^layoutd_peer_forwards_total{peer=\"$OWNER\"} [1-9]" "$WORK/metrics-nonowner.txt" || {
    echo "smoke-cluster: non-owner shows no forward to $OWNER" >&2
    cat "$WORK/metrics-nonowner.txt" >&2
    exit 1
}
grep -q '^layoutd_jobs_completed_total 0$' "$WORK/metrics-nonowner.txt" || {
    echo "smoke-cluster: non-owner recomputed instead of forwarding" >&2
    exit 1
}

echo "smoke-cluster: SIGKILL owner $OWNER"
eval "kill -9 \$PID_$OWNER"

echo "smoke-cluster: survivors must keep serving $DIGEST"
for a in "$A1" "$A2" "$A3"; do
    [ "$a" = "$OWNER_ADDR" ] && continue
    i=0
    # The first read may race the down-detection; retry until the
    # survivor falls back to its replica or fetches from one.
    while ! fetch "$a/v1/layouts/$DIGEST" >"$WORK/layout-survivor.json" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "smoke-cluster: survivor $a cannot serve the layout" >&2
            cat "$WORK"/n*.log >&2
            exit 1
        fi
        sleep 0.1
    done
    grep -q "\"digest\": \"$DIGEST\"" "$WORK/layout-survivor.json"
done

# Zero recompute across the failover: no survivor ever ran the job.
for a in "$A1" "$A2" "$A3"; do
    [ "$a" = "$OWNER_ADDR" ] && continue
    fetch "$a/metrics" | grep -q '^layoutd_jobs_completed_total 0$' || {
        echo "smoke-cluster: survivor $a recomputed after failover" >&2
        exit 1
    }
done

echo "smoke-cluster: -cluster client flag must skip the dead endpoint"
"$WORK/layoutctl" -cluster "$OWNER_ADDR,$A1,$A2,$A3" \
    -layout "$DIGEST" >"$WORK/layout-cli.json" 2>"$WORK/cli.log"
grep -q "\"digest\": \"$DIGEST\"" "$WORK/layout-cli.json"
"$WORK/layoutctl" -addr "$NONOWNER_ADDR" -health -json >"$WORK/health.json"
grep -q "\"node_id\": \"$NONOWNER\"" "$WORK/health.json"

echo "smoke-cluster: draining survivors"
for id in n1 n2 n3; do
    [ "$id" = "$OWNER" ] && continue
    eval "pid=\$PID_$id"
    kill -TERM "$pid"
    i=0
    while kill -0 "$pid" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "smoke-cluster: $id did not exit after SIGTERM" >&2
            cat "$WORK/$id.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    wait "$pid" 2>/dev/null || true
    grep -q 'drained cleanly' "$WORK/$id.log"
done
PIDS=""

echo "smoke-cluster: OK"
