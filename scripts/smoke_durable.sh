#!/bin/sh
# smoke_durable.sh — durability smoke test, run by `make smoke-durable`
# and the CI durable-smoke job:
#
#   1. build layoutd/layoutctl/tracedump,
#   2. start layoutd with a persistent store, submit a job, wait for it,
#      fetch the layout by digest,
#   3. SIGKILL the daemon mid-flight (no drain at all),
#   4. restart layoutd on the same store directory, resubmit the
#      identical request, and require a disk cache hit with a
#      byte-identical layout and zero quarantined blobs,
#   5. start a second daemon with -fault-spec forcing every write to
#      ENOSPC and require it to keep serving in degraded mode,
#   6. SIGTERM and require a clean drain.
#
# Set SMOKE_WORK to keep the scratch dir (see lib.sh).
set -eu

. "$(dirname "$0")/lib.sh"

PROG=458.sjeng
OPT=func-affinity

echo "smoke-durable: building binaries"
go build -o "$WORK/layoutd" ./cmd/layoutd
go build -o "$WORK/layoutctl" ./cmd/layoutctl
go build -o "$WORK/tracedump" ./cmd/tracedump

echo "smoke-durable: recording a $PROG trace"
"$WORK/tracedump" -prog "$PROG" -record "$WORK/t" -gran bb

start_daemon() {
    # $1 = extra flags appended verbatim; $2 = log file
    rm -f "$WORK/addr"
    # shellcheck disable=SC2086
    "$WORK/layoutd" -addr 127.0.0.1:0 -jobs 2 -queue 8 \
        -store-dir "$WORK/store" $1 \
        -ready-file "$WORK/addr" >"$2" 2>&1 &
    DAEMON_PID=$!
    PIDS="$PIDS $!"
    i=0
    while [ ! -s "$WORK/addr" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "smoke-durable: layoutd never became ready" >&2
            cat "$2" >&2
            exit 1
        fi
        kill -0 "$DAEMON_PID" 2>/dev/null || {
            echo "smoke-durable: layoutd exited early" >&2
            cat "$2" >&2
            exit 1
        }
        sleep 0.1
    done
    ADDR="http://$(cat "$WORK/addr")"
}

start_daemon "" "$WORK/layoutd1.log"
echo "smoke-durable: layoutd at $ADDR (store $WORK/store)"

echo "smoke-durable: submitting job"
"$WORK/layoutctl" -addr "$ADDR" -submit "$WORK/t.trace" \
    -prog "$PROG" -opt "$OPT" -wait >"$WORK/result1.json"
grep -q '"status": "done"' "$WORK/result1.json"
DIGEST=$(grep -o '"digest": "[0-9a-f]*"' "$WORK/result1.json" | head -1 | cut -d'"' -f4)
[ -n "$DIGEST" ] || { echo "smoke-durable: no digest in result" >&2; exit 1; }

echo "smoke-durable: waiting for the write-behind to land the blobs"
# Two writes per submission: the retained trace and the result.
i=0
while ! fetch "$ADDR/metrics" | grep -q '^layoutd_store_writes_total 2$'; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "smoke-durable: blob never hit disk" >&2
        fetch "$ADDR/metrics" >&2 || true
        exit 1
    fi
    sleep 0.1
done
fetch "$ADDR/v1/layouts/$DIGEST" >"$WORK/layout1.json"

echo "smoke-durable: SIGKILL (simulated crash, no drain)"
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
PIDS=""

echo "smoke-durable: restarting layoutd on the same store"
start_daemon "" "$WORK/layoutd2.log"
echo "smoke-durable: layoutd back at $ADDR"

echo "smoke-durable: resubmitting identical trace (expect disk cache hit)"
"$WORK/layoutctl" -addr "$ADDR" -submit "$WORK/t.trace" \
    -prog "$PROG" -opt "$OPT" -wait >"$WORK/result2.json"
grep -q '"cached": true' "$WORK/result2.json"

fetch "$ADDR/v1/layouts/$DIGEST" >"$WORK/layout2.json"
cmp "$WORK/layout1.json" "$WORK/layout2.json" || {
    echo "smoke-durable: layout changed across the crash" >&2
    exit 1
}

fetch "$ADDR/metrics" >"$WORK/metrics.txt"
grep -q '^layoutd_store_hits_total 1$' "$WORK/metrics.txt"
grep -q '^layoutd_cache_hits_total 1$' "$WORK/metrics.txt"
grep -q '^layoutd_store_quarantined_total 0$' "$WORK/metrics.txt"
grep -q '^layoutd_jobs_completed_total 0$' "$WORK/metrics.txt"

echo "smoke-durable: draining restarted daemon"
kill -TERM "$DAEMON_PID"
i=0
while kill -0 "$DAEMON_PID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "smoke-durable: layoutd did not exit after SIGTERM" >&2
        cat "$WORK/layoutd2.log" >&2
        exit 1
    fi
    sleep 0.1
done
wait "$DAEMON_PID" 2>/dev/null || true
grep -q 'drained cleanly' "$WORK/layoutd2.log"
PIDS=""

echo "smoke-durable: starting layoutd with every disk write failing (ENOSPC)"
rm -rf "$WORK/store"
start_daemon "-fault-spec write:every=1,err=ENOSPC" "$WORK/layoutd3.log"
echo "smoke-durable: faulted layoutd at $ADDR"

"$WORK/layoutctl" -addr "$ADDR" -submit "$WORK/t.trace" \
    -prog "$PROG" -opt "$OPT" -wait >"$WORK/result3.json"
grep -q '"status": "done"' "$WORK/result3.json"

echo "smoke-durable: waiting for degraded health"
i=0
while ! fetch "$ADDR/healthz" | grep -q degraded; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "smoke-durable: daemon never reported degraded" >&2
        cat "$WORK/layoutd3.log" >&2
        exit 1
    fi
    sleep 0.1
done
fetch "$ADDR/metrics" | grep -q '^layoutd_store_state 0$'

# Degraded is not down: the identical resubmit is served from memory.
"$WORK/layoutctl" -addr "$ADDR" -submit "$WORK/t.trace" \
    -prog "$PROG" -opt "$OPT" -wait >"$WORK/result4.json"
grep -q '"cached": true' "$WORK/result4.json"

echo "smoke-durable: draining faulted daemon"
kill -TERM "$DAEMON_PID"
i=0
while kill -0 "$DAEMON_PID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "smoke-durable: faulted layoutd did not exit after SIGTERM" >&2
        cat "$WORK/layoutd3.log" >&2
        exit 1
    fi
    sleep 0.1
done
wait "$DAEMON_PID" 2>/dev/null || true
PIDS=""

echo "smoke-durable: OK"
