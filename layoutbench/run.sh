#!/usr/bin/env bash
# Builds the layoutd benchmark from the enclosing checkout and runs it.
# Run from the checkout root:
#   bash layoutbench/run.sh --workload fresh-func --seed 1 --seconds 10 --trace 0
#   bash layoutbench/run.sh compare -parent <dir> -change <dir>
# Build caches, temp files, stores and result files all stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOTOOLCHAIN=local
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp"

# A checkout without the repository's module (only the benchmark's own
# files) cannot build; go build then fails and so does this script.
(cd "$bench" && go build -o "$build/layoutbench" .) >&2
exec "$build/layoutbench" "$@"
