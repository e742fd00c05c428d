#!/bin/sh
# smoke_chaos.sh — self-healing chaos smoke test, run by `make smoke-chaos`
# and the CI chaos-smoke job. A 3-node cluster is driven through a seeded
# kill/restart/fault schedule and must converge on its own:
#
#   phase 1 (replication loss + anti-entropy repair):
#     SIGKILL one node (the victim, picked by SMOKE_SEED), submit distinct
#     jobs to a survivor until at least one replication push is
#     short-circuited at the down victim (layoutd_replication_skipped_total),
#     restart the victim on its old store dir, and require the anti-entropy
#     sweeps to re-push the missed blobs: layoutd_antientropy_repaired_total
#     > 0 and every store key present on >= -replicas nodes.
#
#   phase 2 (mid-upload SIGKILL + resume):
#     start a resumable upload on the victim, PATCH the first chunk,
#     SIGKILL the victim mid-session, restart it, and require the session
#     back (recovered: true, durable offset intact, 409 offset resync),
#     then resume with layoutctl -upload-id to a finalize that is a cache
#     hit on the phase-1 digest — the resumed bytes are byte-identical to
#     the buffered oracle, and nothing recomputes.
#
#   phase 3 (fault burst + degraded awareness):
#     SIGKILL the victim again and restart it with -fault-spec so every
#     disk write fails with ENOSPC; the victim must degrade (store state
#     0), the survivors must observe it degraded (peer health 1) so
#     anti-entropy stops pushing at it, and the victim must skip its own
#     sweeps (a degraded store has nothing durable to offer). A final
#     clean restart must converge again.
#
#   throughout: zero recompute — layoutd_jobs_completed_total on every
#   node never moves after the phase-1 submissions.
#
# SMOKE_SEED (default 1) picks the victim and varies the schedule.
# Set SMOKE_WORK to keep the scratch dir (see lib.sh).
set -eu

. "$(dirname "$0")/lib.sh"

PROG=458.sjeng
OPT=func-affinity
RF=2
SEED=${SMOKE_SEED:-1}
VICTIM="n$((SEED % 3 + 1))"
CHUNK1=65536

echo "smoke-chaos: seed $SEED, victim $VICTIM"

echo "smoke-chaos: building binaries"
go build -o "$WORK/layoutd" ./cmd/layoutd
go build -o "$WORK/layoutctl" ./cmd/layoutctl
go build -o "$WORK/tracedump" ./cmd/tracedump

# Distinct traces give distinct content addresses, so the kill schedule
# is guaranteed to strand at least one blob whose replica set includes
# the victim.
echo "smoke-chaos: recording $PROG traces"
for k in 1 2 3 4; do
    "$WORK/tracedump" -prog "$PROG" -record "$WORK/t$k" -gran bb -repeat "$k"
done

cluster_ports $((20000 + ($$ + SEED) % 20000))

# chaos_node starts node $1 on port $2 with anti-entropy and resumable
# uploads on; $3 = extra flags.
chaos_node() {
    start_node "$1" "$2" "-antientropy 500ms -upload-dir $WORK/uploads-$1 ${3:-}"
}

kill_node() {
    # $1 = node ID
    eval "pid=\$PID_$1"
    kill -9 "$pid"
    wait "$pid" 2>/dev/null || true
}

wait_metric() {
    # $1 = node ID, $2 = anchored grep pattern, $3 = failure label
    a=$(addr_of "$1")
    i=0
    while ! fetch "$a/metrics" 2>/dev/null | grep -q "$2"; do
        i=$((i + 1))
        if [ "$i" -gt 200 ]; then
            echo "smoke-chaos: $1 never reached: $3" >&2
            fetch "$a/metrics" 2>/dev/null | grep '^layoutd_' >&2 || true
            cat "$WORK/$1.log" >&2
            exit 1
        fi
        sleep 0.1
    done
}

metric() {
    # $1 = node ID, $2 = metric name (exact, unlabeled); prints 0 if absent
    v=$(fetch "$(addr_of "$1")/metrics" 2>/dev/null | awk -v m="$2" '$1 == m {print $2}')
    echo "${v:-0}"
}

chaos_node n1 "$P1"
chaos_node n2 "$P2"
chaos_node n3 "$P3"
echo "smoke-chaos: nodes n1=$A1 n2=$A2 n3=$A3"
for id in n1 n2 n3; do wait_healthy "$id" node-id-only; done
# Membership must converge before the first write, or a racing health
# probe makes replication skip a live peer.
for id in n1 n2 n3; do
    wait_metric "$id" '^layoutd_peer_health{peer="n[0-9]*"} 2$' "both peers up"
done

SURVIVORS=""
for id in n1 n2 n3; do
    [ "$id" = "$VICTIM" ] || SURVIVORS="$SURVIVORS $id"
done
SUB=${SURVIVORS# }     # first survivor takes the submissions
SUB=${SUB%% *}

echo "smoke-chaos: phase 1: SIGKILL $VICTIM, then write while it is down"
kill_node "$VICTIM"
for id in $SURVIVORS; do
    wait_metric "$id" "^layoutd_peer_health{peer=\"$VICTIM\"} 0$" "$VICTIM seen down"
done

# Four distinct traces write eight blobs (result + trace each) while
# the victim is down. Replication never enqueues to a down peer, so any
# blob whose replica set includes the victim is silently missed — only
# the anti-entropy sweeps can deliver it after the restart. A blob's
# replica set includes the victim with probability 2/3 (RF=2 of 3), so
# eight blobs leave nothing to repair with probability ~(1/3)^8.
for k in 1 2 3 4; do
    "$WORK/layoutctl" -addr "$(addr_of "$SUB")" -submit "$WORK/t$k.trace" \
        -prog "$PROG" -opt "$OPT" -wait >"$WORK/result$k.json"
    grep -q '"status": "done"' "$WORK/result$k.json"
done
DIGEST1=$(grep -o '"digest": "[0-9a-f]*"' "$WORK/result1.json" | head -1 | cut -d'"' -f4)
[ -n "$DIGEST1" ] || { echo "smoke-chaos: no digest in result 1" >&2; exit 1; }
SKIPPED=0
for id in $SURVIVORS; do
    SKIPPED=$((SKIPPED + $(metric "$id" layoutd_replication_skipped_total)))
done
echo "smoke-chaos: 4 jobs done while $VICTIM was down ($SKIPPED racing push(es) short-circuited); oracle digest $DIGEST1"

# The labeled drop counter and the drop/skip warnings are the observable
# end of the repair story; the series must exist even at zero.
fetch "$(addr_of "$SUB")/metrics" >"$WORK/metrics-sub.txt"
grep -q "^layoutd_replication_dropped_total{peer=\"$VICTIM\"} " "$WORK/metrics-sub.txt" || {
    echo "smoke-chaos: no per-peer replication drop series for $VICTIM" >&2
    exit 1
}

echo "smoke-chaos: restarting $VICTIM; anti-entropy must repair it"
chaos_node "$VICTIM" "$(addr_of "$VICTIM" | sed 's/.*://')"
wait_healthy "$VICTIM" node-id-only

wait_repaired() {
    # total layoutd_antientropy_repaired_total across all nodes > 0
    i=0
    while :; do
        total=0
        for id in n1 n2 n3; do
            total=$((total + $(metric "$id" layoutd_antientropy_repaired_total)))
        done
        [ "$total" -gt 0 ] && { echo "smoke-chaos: $total key(s) repaired"; return 0; }
        i=$((i + 1))
        if [ "$i" -gt 200 ]; then
            echo "smoke-chaos: anti-entropy never repaired anything" >&2
            cat "$WORK"/n*.log >&2
            exit 1
        fi
        sleep 0.1
    done
}
wait_repaired

# Convergence: every key any node lists is held by at least RF nodes.
census_converged() {
    : >"$WORK/census.txt"
    for id in n1 n2 n3; do
        fetch "$(addr_of "$id")/v1/store?format=keys" >>"$WORK/census.txt" 2>/dev/null || return 1
    done
    [ -s "$WORK/census.txt" ] || return 1
    sort "$WORK/census.txt" | uniq -c | awk -v rf=$RF '$1 < rf {exit 1}'
}
wait_census() {
    i=0
    while ! census_converged; do
        i=$((i + 1))
        if [ "$i" -gt 300 ]; then
            echo "smoke-chaos: cluster never converged; replica census:" >&2
            sort "$WORK/census.txt" | uniq -c >&2
            cat "$WORK"/n*.log >&2
            exit 1
        fi
        sleep 0.1
    done
}
wait_census
echo "smoke-chaos: every key on >= $RF nodes ($(sort -u "$WORK/census.txt" | wc -l) distinct keys)"

# Zero-recompute baseline: nothing after this point may optimize.
for id in n1 n2 n3; do
    eval "BASE_$id=\$(metric $id layoutd_jobs_completed_total)"
done

echo "smoke-chaos: phase 2: mid-upload SIGKILL on $VICTIM"
VADDR=$(addr_of "$VICTIM")
if command -v curl >/dev/null 2>&1; then
    curl -fsS -X POST "$VADDR/v1/uploads" >"$WORK/session.json"
    UPLOAD_ID=$(grep -o '"id": "[^"]*"' "$WORK/session.json" | head -1 | cut -d'"' -f4)
    [ -n "$UPLOAD_ID" ] || { echo "smoke-chaos: no upload session id" >&2; exit 1; }
    head -c "$CHUNK1" "$WORK/t1.trace" >"$WORK/part1"
    curl -fsS -X PATCH -H "Upload-Offset: 0" \
        --data-binary @"$WORK/part1" "$VADDR/v1/uploads/$UPLOAD_ID" >/dev/null

    kill_node "$VICTIM"
    chaos_node "$VICTIM" "${VADDR##*:}"
    wait_healthy "$VICTIM" node-id-only

    fetch "$VADDR/v1/uploads/$UPLOAD_ID" >"$WORK/recovered.json"
    grep -q "\"offset\": $CHUNK1" "$WORK/recovered.json" || {
        echo "smoke-chaos: recovered session lost its durable offset:" >&2
        cat "$WORK/recovered.json" >&2
        exit 1
    }
    grep -q '"recovered": true' "$WORK/recovered.json"
    if command -v sha256sum >/dev/null 2>&1; then
        WANT_SHA=$(sha256sum "$WORK/part1" | cut -d' ' -f1)
        grep -q "\"sha256\": \"$WANT_SHA\"" "$WORK/recovered.json" || {
            echo "smoke-chaos: recovered prefix digest does not match the sent bytes" >&2
            cat "$WORK/recovered.json" >&2
            exit 1
        }
    fi
    wait_metric "$VICTIM" '^layoutd_upload_sessions_recovered_total 1$' "session recovered"

    # The resuming client's first retry carries the pre-crash offset it
    # last attempted; the daemon must answer 409 with the durable one.
    CODE=$(curl -s -o /dev/null -D "$WORK/conflict.hdr" -w '%{http_code}' \
        -X PATCH -H "Upload-Offset: 0" \
        --data-binary @"$WORK/part1" "$VADDR/v1/uploads/$UPLOAD_ID")
    [ "$CODE" = "409" ] || { echo "smoke-chaos: stale retry got $CODE, want 409" >&2; exit 1; }
    grep -iq "^upload-offset: $CHUNK1" "$WORK/conflict.hdr" || {
        echo "smoke-chaos: 409 did not report durable offset $CHUNK1" >&2
        cat "$WORK/conflict.hdr" >&2
        exit 1
    }
    echo "smoke-chaos: session survived SIGKILL at offset $CHUNK1; resuming"
    "$WORK/layoutctl" -addr "$VADDR" -upload "$WORK/t1.trace" -upload-id "$UPLOAD_ID" \
        -prog "$PROG" -opt "$OPT" -wait >"$WORK/resumed.json"
else
    echo "smoke-chaos: curl not found; restart-only upload check via layoutctl"
    kill_node "$VICTIM"
    chaos_node "$VICTIM" "${VADDR##*:}"
    wait_healthy "$VICTIM" node-id-only
    "$WORK/layoutctl" -addr "$VADDR" -upload "$WORK/t1.trace" \
        -prog "$PROG" -opt "$OPT" -wait >"$WORK/resumed.json"
fi
grep -q '"status": "done"' "$WORK/resumed.json"
grep -q '"cached": true' "$WORK/resumed.json"
DIGEST_RESUMED=$(grep -o '"digest": "[0-9a-f]*"' "$WORK/resumed.json" | head -1 | cut -d'"' -f4)
[ "$DIGEST_RESUMED" = "$DIGEST1" ] || {
    echo "smoke-chaos: resumed digest $DIGEST_RESUMED != oracle $DIGEST1" >&2
    exit 1
}
echo "smoke-chaos: resumed upload finalized to a cache hit on the oracle digest"

if command -v curl >/dev/null 2>&1 && command -v sha256sum >/dev/null 2>&1; then
    echo "smoke-chaos: phase 3: restart $VICTIM with every disk write failing"
    kill_node "$VICTIM"
    chaos_node "$VICTIM" "${VADDR##*:}" "-fault-spec write:every=1,err=ENOSPC"
    wait_healthy "$VICTIM" node-id-only

    # The converged victim holds everything already, so no organic write
    # arrives to trip the breaker; push a fresh content-addressed blob at
    # the replicate endpoint until the failing disk degrades the store.
    # The blob only ever reaches the victim's memory tier (the write
    # fails), so it vanishes at the next restart and never enters the
    # census.
    printf 'chaos-%s' "$SEED" >"$WORK/chaos.blob"
    CHAOS_KEY=$(sha256sum "$WORK/chaos.blob" | cut -d' ' -f1)
    i=0
    while ! fetch "$VADDR/metrics" 2>/dev/null | grep -q '^layoutd_store_state 0$'; do
        curl -s -X PUT -H "X-Layoutd-Digest: $CHAOS_KEY" \
            --data-binary @"$WORK/chaos.blob" \
            "$VADDR/v1/replicate/$CHAOS_KEY" >/dev/null || true
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "smoke-chaos: $VICTIM never degraded under the write fault" >&2
            cat "$WORK/$VICTIM.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    for id in $SURVIVORS; do
        wait_metric "$id" "^layoutd_peer_health{peer=\"$VICTIM\"} 1$" "$VICTIM seen degraded"
    done
    # The degraded victim must refuse to seed repairs from memory.
    i=0
    while ! grep -q 'local store unavailable, skipping sweep' "$WORK/$VICTIM.log"; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "smoke-chaos: degraded $VICTIM never skipped its own sweep" >&2
            cat "$WORK/$VICTIM.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    echo "smoke-chaos: degraded $VICTIM skipped its sweeps; survivors marked it degraded"
else
    echo "smoke-chaos: curl or sha256sum not found; skipping the fault-burst phase"
fi

echo "smoke-chaos: final clean restart of $VICTIM; cluster must converge"
kill_node "$VICTIM"
chaos_node "$VICTIM" "${VADDR##*:}"
wait_healthy "$VICTIM" node-id-only
wait_metric "$VICTIM" '^layoutd_store_state 1$' "store healthy again"
wait_census
echo "smoke-chaos: converged after the fault burst"

# Zero recompute: the whole repair/resume/fault schedule never ran an
# optimization on any node.
for id in n1 n2 n3; do
    eval "want=\$BASE_$id"
    got=$(metric "$id" layoutd_jobs_completed_total)
    [ "$got" = "$want" ] || {
        echo "smoke-chaos: $id recomputed: jobs_completed $want -> $got" >&2
        exit 1
    }
done
echo "smoke-chaos: zero recompute across the schedule"

echo "smoke-chaos: draining all nodes"
for id in n1 n2 n3; do
    eval "pid=\$PID_$id"
    kill -TERM "$pid"
    i=0
    while kill -0 "$pid" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "smoke-chaos: $id did not exit after SIGTERM" >&2
            cat "$WORK/$id.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    wait "$pid" 2>/dev/null || true
    grep -q 'drained cleanly' "$WORK/$id.log"
done
PIDS=""

echo "smoke-chaos: OK"
