#!/bin/sh
# smoke_stream.sh — streaming-pipeline smoke test, run by
# `make smoke-stream` and the CI stream-smoke job:
#
#   1. build layoutd/layoutctl/tracedump,
#   2. record a trace and tile it with -repeat until the decoded form is
#      far larger than the daemon's streaming window,
#   3. start a daemon at the default -stream-window, submit, and keep
#      its result's report and miss ratios as the oracle,
#   4. start a daemon with a small -stream-window, -upload-dir, and
#      GOMEMLIMIT well below the decoded trace size; submit the same
#      trace over a plain POST and require the identical report and miss
#      ratios (the digest alone would prove nothing: it hashes only the
#      inputs),
#   5. check the streaming metrics: at least one streamed job, many
#      chunks, the buffered-bytes gauge back at zero, and the peak gauge
#      within the configured window,
#   6. exercise the resumable upload protocol: create a session, PATCH
#      the first chunk, replay it with a stale offset (the retry a client
#      sends after a dropped connection) and require 409 plus the durable
#      offset in the Upload-Offset header, then hand the half-finished
#      session to `layoutctl -upload -upload-id` to resume, finalize, and
#      wait — requiring a cache hit on the same digest,
#   7. require overlapped stream.decode/stream.feed spans in the job's
#      trace timeline, zero open upload sessions, and a clean drain.
#
# Set SMOKE_WORK to keep the scratch dir (see lib.sh).
set -eu

. "$(dirname "$0")/lib.sh"
command -v jq >/dev/null 2>&1 || { echo "smoke-stream: jq is required" >&2; exit 1; }

PROG=458.sjeng
OPT=func-affinity
REPEAT=32
# 256 KiB of decoded trace in flight per streamed submission; the
# decoded trace itself is ~135x that (REPEAT * 276687 refs * 4 B).
WINDOW=262144
# Soft heap bound far below the decoded trace: a daemon holding the
# decoded trace could not respect this, the streaming pipeline must.
MEMLIMIT=25MiB
CHUNK1=4194304

echo "smoke-stream: building binaries"
go build -o "$WORK/layoutd" ./cmd/layoutd
go build -o "$WORK/layoutctl" ./cmd/layoutctl
go build -o "$WORK/tracedump" ./cmd/tracedump

echo "smoke-stream: recording a $PROG trace tiled x$REPEAT"
"$WORK/tracedump" -prog "$PROG" -record "$WORK/t" -gran bb -repeat "$REPEAT"
TRACE_BYTES=$(wc -c <"$WORK/t.trace")
[ "$TRACE_BYTES" -gt $((8 * WINDOW)) ] || {
    echo "smoke-stream: trace too small ($TRACE_BYTES B) to exercise the window" >&2
    exit 1
}
echo "smoke-stream: trace file is $TRACE_BYTES bytes (window $WINDOW)"

start_daemon() {
    # $1 = extra flags appended verbatim; $2 = log file; $3 = GOMEMLIMIT or ""
    rm -f "$WORK/addr"
    # shellcheck disable=SC2086
    env ${3:+GOMEMLIMIT=$3} "$WORK/layoutd" -addr 127.0.0.1:0 -jobs 2 -queue 8 \
        -opt-workers 4 $1 -ready-file "$WORK/addr" >"$2" 2>&1 &
    DAEMON_PID=$!
    PIDS="$PIDS $!"
    i=0
    while [ ! -s "$WORK/addr" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "smoke-stream: layoutd never became ready" >&2
            cat "$2" >&2
            exit 1
        fi
        kill -0 "$DAEMON_PID" 2>/dev/null || {
            echo "smoke-stream: layoutd exited early" >&2
            cat "$2" >&2
            exit 1
        }
        sleep 0.1
    done
    ADDR="http://$(cat "$WORK/addr")"
}

stop_daemon() {
    kill -TERM "$DAEMON_PID"
    i=0
    while kill -0 "$DAEMON_PID" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 300 ]; then
            echo "smoke-stream: layoutd did not exit after SIGTERM" >&2
            exit 1
        fi
        sleep 0.1
    done
    wait "$DAEMON_PID" 2>/dev/null || true
    PIDS=""
}

# outcome prints what a job computed: the report (sequence included)
# and the simulated miss ratios.
outcome() {
    jq -cS '.result | {report, missBefore, missAfter}' "$1"
}

echo "smoke-stream: oracle run at the default window"
start_daemon "" "$WORK/layoutd-default.log" ""
"$WORK/layoutctl" -addr "$ADDR" -submit "$WORK/t.trace" \
    -prog "$PROG" -opt "$OPT" -wait -json >"$WORK/default.json"
grep -q '"status": "done"' "$WORK/default.json"
DIGEST_REF=$(jq -r .digest "$WORK/default.json")
OUTCOME_REF=$(outcome "$WORK/default.json")
[ -n "$DIGEST_REF" ] && [ "$(jq '.result.report.Sequence | length' "$WORK/default.json")" -gt 0 ] || {
    echo "smoke-stream: oracle run has no digest or sequence" >&2
    exit 1
}
stop_daemon

echo "smoke-stream: streaming daemon (window $WINDOW, GOMEMLIMIT $MEMLIMIT)"
start_daemon "-stream-window $WINDOW -upload-dir $WORK/uploads" \
    "$WORK/layoutd-stream.log" "$MEMLIMIT"

echo "smoke-stream: POST of the same trace"
"$WORK/layoutctl" -addr "$ADDR" -submit "$WORK/t.trace" \
    -prog "$PROG" -opt "$OPT" -wait -json >"$WORK/streamed.json"
grep -q '"status": "done"' "$WORK/streamed.json"
JOB_ID=$(jq -r .id "$WORK/streamed.json")
[ "$(outcome "$WORK/streamed.json")" = "$OUTCOME_REF" ] || {
    echo "smoke-stream: small-window result differs from the default-window oracle" >&2
    outcome "$WORK/streamed.json" >&2
    echo "$OUTCOME_REF" >&2
    exit 1
}
echo "smoke-stream: small-window report and miss ratios match the oracle"

echo "smoke-stream: checking streaming metrics"
fetch "$ADDR/metrics" >"$WORK/metrics1.txt"
grep -q '^layoutd_stream_jobs_total 1$' "$WORK/metrics1.txt"
CHUNKS=$(awk '/^layoutd_stream_chunks_total /{print $2}' "$WORK/metrics1.txt")
[ -n "$CHUNKS" ] && [ "$CHUNKS" -gt 8 ] || {
    echo "smoke-stream: expected many streamed chunks, got '$CHUNKS'" >&2
    exit 1
}
grep -q '^layoutd_stream_buffered_bytes 0$' "$WORK/metrics1.txt"
PEAK=$(awk '/^layoutd_stream_buffered_peak_bytes /{print $2}' "$WORK/metrics1.txt")
[ -n "$PEAK" ] && [ "$PEAK" -gt 0 ] && [ "$PEAK" -le "$WINDOW" ] || {
    echo "smoke-stream: peak buffered bytes '$PEAK' outside (0, $WINDOW]" >&2
    exit 1
}
echo "smoke-stream: $CHUNKS chunks streamed, peak $PEAK B buffered (window $WINDOW)"

if command -v curl >/dev/null 2>&1; then
    echo "smoke-stream: resumable upload with a simulated dropped connection"
    curl -fsS -X POST "$ADDR/v1/uploads" >"$WORK/session.json"
    UPLOAD_ID=$(grep -o '"id": "[^"]*"' "$WORK/session.json" | head -1 | cut -d'"' -f4)
    [ -n "$UPLOAD_ID" ] || { echo "smoke-stream: no upload session id" >&2; exit 1; }

    head -c "$CHUNK1" "$WORK/t.trace" >"$WORK/part1"
    curl -fsS -X PATCH -H "Upload-Offset: 0" \
        --data-binary @"$WORK/part1" "$ADDR/v1/uploads/$UPLOAD_ID" >/dev/null

    # A client that lost the 204 retries the same chunk: the daemon must
    # refuse with 409 and report the durable offset to resync from.
    CODE=$(curl -s -o /dev/null -D "$WORK/conflict.hdr" -w '%{http_code}' \
        -X PATCH -H "Upload-Offset: 0" \
        --data-binary @"$WORK/part1" "$ADDR/v1/uploads/$UPLOAD_ID")
    [ "$CODE" = "409" ] || { echo "smoke-stream: stale retry got $CODE, want 409" >&2; exit 1; }
    grep -iq "^upload-offset: $CHUNK1" "$WORK/conflict.hdr" || {
        echo "smoke-stream: 409 did not report durable offset $CHUNK1" >&2
        cat "$WORK/conflict.hdr" >&2
        exit 1
    }
    echo "smoke-stream: stale retry rejected with 409 at offset $CHUNK1"

    echo "smoke-stream: resuming the session with layoutctl -upload-id"
    "$WORK/layoutctl" -addr "$ADDR" -upload "$WORK/t.trace" -upload-id "$UPLOAD_ID" \
        -prog "$PROG" -opt "$OPT" -wait -json >"$WORK/resumed.json"
    grep -q '"status": "done"' "$WORK/resumed.json"
    grep -q '"cached": true' "$WORK/resumed.json"
    DIGEST_RESUMED=$(jq -r .digest "$WORK/resumed.json")
    [ "$DIGEST_RESUMED" = "$DIGEST_REF" ] || {
        echo "smoke-stream: resumed digest $DIGEST_RESUMED != $DIGEST_REF" >&2
        exit 1
    }
    echo "smoke-stream: resumed upload finalized to a cache hit on the same digest"
else
    echo "smoke-stream: curl not found; driving the full upload through layoutctl"
    "$WORK/layoutctl" -addr "$ADDR" -upload "$WORK/t.trace" \
        -prog "$PROG" -opt "$OPT" -wait -json >"$WORK/resumed.json"
    grep -q '"status": "done"' "$WORK/resumed.json"
    grep -q '"cached": true' "$WORK/resumed.json"
fi

echo "smoke-stream: checking the overlapped span timeline"
"$WORK/layoutctl" -addr "$ADDR" -trace "$JOB_ID" >"$WORK/trace.txt"
grep -q 'stream.decode' "$WORK/trace.txt"
grep -q 'stream.feed' "$WORK/trace.txt"

fetch "$ADDR/metrics" >"$WORK/metrics2.txt"
grep -q '^layoutd_upload_sessions 0$' "$WORK/metrics2.txt"

echo "smoke-stream: draining"
stop_daemon
grep -q 'drained cleanly' "$WORK/layoutd-stream.log"

echo "smoke-stream: OK"
