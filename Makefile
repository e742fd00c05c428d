# Mirrors .github/workflows/ci.yml: `make ci` runs what CI runs.

GO ?= go

.PHONY: all build vet fmt fmt-check test race bench bench-smoke bench-json bench-json-ci smoke-serve smoke-durable smoke-schedule smoke-cluster smoke-stream smoke-chaos smoke-obs ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full benchmark run (slow: regenerates every table and figure).
bench:
	$(GO) test -run='^$$' -bench=. ./...

# One iteration of every benchmark — catches bit-rot cheaply.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Bench-regression harness: run the kernel benchmarks with -benchmem,
# write BENCH_PR10.json (ns/op, B/op, allocs/op per benchmark), and gate
# on the allocation budgets in scripts/bench_gates.txt. BENCH_PR3.json
# (pre-streaming) and BENCH_PR9.json (pre-observability-plane) are
# earlier baselines, kept for comparison.
bench-json:
	sh scripts/bench_json.sh run BENCH_PR10.json
	sh scripts/bench_json.sh gate BENCH_PR10.json

# End-to-end service smoke: start layoutd, submit a recorded trace via
# layoutctl, assert a completed result and a cache hit on resubmission,
# then drain with SIGTERM.
smoke-serve:
	sh scripts/smoke_serve.sh

# Durability smoke: SIGKILL layoutd mid-run, restart on the same store
# directory, require the completed layout back from disk byte-identical;
# then run with every disk write failing and require degraded-but-alive.
smoke-durable:
	sh scripts/smoke_durable.sh

# What the CI bench-json job runs: single-iteration bench sweep into a
# scratch file (the committed BENCH_PR3.json baseline stays untouched),
# then the allocation gates of scripts/bench_gates.txt.
bench-json-ci:
	BENCHTIME=1x sh scripts/bench_json.sh run $(or $(TMPDIR),/tmp)/bench-ci.json
	sh scripts/bench_json.sh gate $(or $(TMPDIR),/tmp)/bench-ci.json

# Scheduling-service smoke: optimize a trace under two optimizers, pair
# them via /v1/corun, place {A, B, A, B} via /v1/schedule, and assert a
# symmetric matrix, a better-than-worst-case placement, and pair-cache
# reuse across both endpoints.
smoke-schedule:
	sh scripts/smoke_schedule.sh

# Cluster smoke: 3 layoutd nodes with static membership, submit to a
# non-owner and require transparent forwarding plus write-behind
# replication, SIGKILL the owner, and require survivors to serve the
# layout with zero recompute.
smoke-cluster:
	sh scripts/smoke_cluster.sh

# Streaming smoke: analyze a trace ~135x larger than the stream window
# while it uploads under a GOMEMLIMIT far below the decoded trace size,
# require digest equality with a buffered run, then resume a half-done
# chunked upload (409 offset resync included) to a cache hit.
smoke-stream:
	sh scripts/smoke_stream.sh

# Chaos smoke: a 3-node cluster under a seeded kill/restart/fault
# schedule — replication losses repaired by anti-entropy, a mid-upload
# SIGKILL resumed across the restart, a write-fault burst degrading one
# node without poisoning the others, and zero recompute throughout.
# SMOKE_SEED varies the victim and the schedule.
smoke-chaos:
	sh scripts/smoke_chaos.sh

# Observability smoke: submit through a non-owner with an injected W3C
# traceparent header and require one merged cross-node waterfall under
# the caller's trace ID; federate /v1/cluster/metrics through
# `layoutctl -top` (lint-gated), tabulate every endpoint with
# `layoutctl -health -cluster`, and require the /v1/debug/events ring to
# record a SIGKILL'd peer going down and coming back.
smoke-obs:
	sh scripts/smoke_obs.sh

ci: build vet fmt-check test race bench-smoke bench-json-ci smoke-serve smoke-durable smoke-schedule smoke-cluster smoke-stream smoke-chaos smoke-obs
