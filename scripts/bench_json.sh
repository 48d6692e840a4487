#!/usr/bin/env sh
# Machine-readable benchmark snapshot, gated: run the core-engine,
# checkpoint, observability-overhead and per-layer (lease ledger, center
# expiry, matcher, neural pretraining) benchmarks with -benchmem,
# condense the output into BENCH_core.json (name -> ns/op, B/op,
# allocs/op) at the repo root, and fail if the fresh numbers regress
# more than the tolerance band against the committed snapshot (see
# scripts/benchgate: allocs/op and B/op gate at 20%, ns/op is a 2x
# load-noise-tolerant tripwire and only applies to benchmarks long
# enough that an iteration is meaningful). Three
# iterations per whole-run benchmark keep this cheap enough for CI
# while damping single-iteration timing wobble; the numbers are a
# smoke-grade snapshot, not a measurement run.
#
# The refreshed BENCH_core.json is written even when the gate fails, so
# an intentional change is accepted by committing the new snapshot.
set -eu
cd "$(dirname "$0")/.."

d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT

go test -run '^$' -bench 'CoreRun|ObsOverhead' -benchtime 3x -benchmem . \
    > "$d/bench.out"
go test -run '^$' -bench Checkpoint -benchtime 3x -benchmem \
    ./internal/operator/ >> "$d/bench.out"
# The per-layer benchmarks run for the default benchtime: one iteration
# takes a few milliseconds, enough for the ns/op tripwire.
go test -run '^$' -bench MatcherAllocate -benchmem . >> "$d/bench.out"
go test -run '^$' -bench LedgerActive -benchmem ./internal/provision/ >> "$d/bench.out"
go test -run '^$' -bench CenterExpire -benchmem ./internal/datacenter/ >> "$d/bench.out"
# Offline pretraining: one iteration takes a few hundred milliseconds.
go test -run '^$' -bench PretrainShared -benchmem . >> "$d/bench.out"

go run ./scripts/benchjson < "$d/bench.out" > "$d/new.json"

status=0
if [ -f BENCH_core.json ]; then
    go run ./scripts/benchgate BENCH_core.json "$d/new.json" || status=$?
fi
cp "$d/new.json" BENCH_core.json
echo "bench-json: wrote BENCH_core.json ($(grep -c '"ns_per_op"' BENCH_core.json) benchmarks)"
exit "$status"
