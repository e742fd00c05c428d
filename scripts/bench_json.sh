#!/bin/sh
# bench_json.sh — bench-regression harness, run by `make bench-json`,
# `make bench-json-ci` and the CI bench-json job.
#
#   bench_json.sh run [out.json]
#       Run the kernel benchmarks (affinity stack passes, TRG
#       construction and reduction, footprint curve, co-run
#       simulation, placement solver, streaming decode and feed) with
#       -benchmem and write one JSON document with ns/op, B/op and
#       allocs/op per benchmark. BENCHTIME overrides -benchtime
#       (default 3x; CI uses 1x).
#
#   bench_json.sh check out.json <benchmark> <max-allocs>
#       Exit non-zero if <benchmark>'s allocs_per_op in out.json exceeds
#       <max-allocs>.
#
#   bench_json.sh gate out.json [gates.txt]
#       Run check for every "<benchmark> <max-allocs>" line of gates.txt
#       (default: scripts/bench_gates.txt; blank lines and # comments are
#       skipped) and exit non-zero if any gate fails. This is the
#       allocation-regression gate of `make bench-json`, `make
#       bench-json-ci` and CI.
#
# Plain shell + awk on `go test -bench` output: no external dependencies.
set -eu

OUT_DEFAULT=BENCH_PR10.json
BENCHTIME=${BENCHTIME:-3x}

# The kernel benchmarks the harness tracks, one per analysis subsystem
# plus the end-to-end worker sweeps in the root package, the
# observability hot paths (span start/end, counter, histogram), which
# ride on every instrumented kernel and must stay allocation-free, and
# the anti-entropy digest-set diff, which runs every sweep on every node
# and must reuse its caller's buffer, the traceparent parse/format pair,
# which runs on every inbound request and every peer hop, and the
# runtime-telemetry sampler tick, which fires for the process lifetime.
BENCH_RE='^(BenchmarkBuildHierarchyWorkers|BenchmarkTRGBuildWorkers|BenchmarkFootprintCurveWorkers|BenchmarkCorunBatchWorkers|BenchmarkShardPairHists|BenchmarkBuildHierarchyArena|BenchmarkBuildShard|BenchmarkBuildArena|BenchmarkReduceProgen|BenchmarkWindowFootprintScratch|BenchmarkSpanStartEnd|BenchmarkSpanStartEndDropped|BenchmarkRegistryCounterInc|BenchmarkRegistryHistogramObserve|BenchmarkScheduleSolve|BenchmarkStreamDecode|BenchmarkStreamFeed|BenchmarkAntiEntropyDiff|BenchmarkTraceparentParse|BenchmarkTraceparentFormat|BenchmarkRuntimeSamplerTick)$'
PKGS='. ./internal/affinity ./internal/trg ./internal/footprint ./internal/obs ./internal/schedule ./internal/trace ./internal/cluster'

run() {
    out=${1:-$OUT_DEFAULT}
    raw=$(mktemp)
    trap 'rm -f "$raw"' EXIT

    echo "bench-json: running kernel benchmarks (benchtime=$BENCHTIME)" >&2
    go test -run='^$' -bench="$BENCH_RE" -benchmem -benchtime="$BENCHTIME" $PKGS | tee "$raw" >&2

    awk -v benchtime="$BENCHTIME" '
    /^pkg: /  { pkg = $2 }
    /^goos: / { goos = $2 }
    /^goarch: / { goarch = $2 }
    /^Benchmark/ && / ns\/op/ {
        name = $1
        sub(/-[0-9]+$/, "", name)      # strip the GOMAXPROCS suffix
        sub(/^Benchmark/, "", name)
        iters = $2
        ns = ""; bytes = ""; allocs = ""
        for (i = 3; i < NF; i++) {
            if ($(i+1) == "ns/op") ns = $i
            if ($(i+1) == "B/op") bytes = $i
            if ($(i+1) == "allocs/op") allocs = $i
        }
        if (ns == "") next
        if (n++) printf ",\n"
        printf "    {\"package\": \"%s\", \"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s",
               pkg, name, iters, ns
        if (bytes != "")  printf ", \"bytes_per_op\": %s", bytes
        if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
        printf "}"
    }
    END {
        printf "\n  ],\n"
        printf "  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n  \"benchtime\": \"%s\"\n}\n",
               goos, goarch, benchtime
        if (n == 0) exit 3
    }
    BEGIN {
        printf "{\n  \"generated_by\": \"scripts/bench_json.sh\",\n"
        printf "  \"benchmarks\": [\n"
    }' "$raw" > "$out" || { echo "bench-json: no benchmark lines parsed" >&2; exit 1; }

    echo "bench-json: wrote $out" >&2
}

check() {
    file=$1 bench=$2 maxallocs=$3
    awk -v bench="$bench" -v maxallocs="$maxallocs" '
    {
        # One benchmark object per line in the generated file.
        if (index($0, "\"name\": \"" bench "\"") == 0) next
        if (match($0, /"allocs_per_op": [0-9.]+/)) {
            allocs = substr($0, RSTART + 17, RLENGTH - 17) + 0
            found = 1
            if (allocs > maxallocs) {
                printf "bench-json: %s allocs/op regressed: %d > budget %d\n",
                       bench, allocs, maxallocs > "/dev/stderr"
                exit 1
            }
            printf "bench-json: %s allocs/op = %d (budget %d): ok\n",
                   bench, allocs, maxallocs > "/dev/stderr"
        }
    }
    END { if (!found) { printf "bench-json: benchmark %s not found in %s\n",
                        bench, FILENAME > "/dev/stderr"; exit 2 } }' "$file"
}

gate() {
    file=$1 gates=${2:-$(dirname "$0")/bench_gates.txt}
    status=0
    while read -r bench maxallocs; do
        case "$bench" in '' | '#'*) continue ;; esac
        check "$file" "$bench" "$maxallocs" || status=1
    done < "$gates"
    return $status
}

cmd=${1:-run}
case "$cmd" in
run)
    shift || true
    run "$@"
    ;;
check)
    [ $# -eq 4 ] || { echo "usage: bench_json.sh check out.json <benchmark> <max-allocs>" >&2; exit 2; }
    shift
    check "$@"
    ;;
gate)
    [ $# -eq 2 ] || [ $# -eq 3 ] || { echo "usage: bench_json.sh gate out.json [gates.txt]" >&2; exit 2; }
    shift
    gate "$@"
    ;;
*)
    echo "usage: bench_json.sh [run [out.json] | check out.json <benchmark> <max-allocs> | gate out.json [gates.txt]]" >&2
    exit 2
    ;;
esac
