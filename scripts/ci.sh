#!/usr/bin/env sh
# CI entry point; `make ci` runs this script. Keeps the race detector
# on the full suite so the parallel per-zone engine in internal/core is
# re-proven on every PR.
set -eu
cd "$(dirname "$0")/.."

go vet ./...
go build ./...
go test -race ./...

# Re-run the suite with a shuffled test order (fixed seed so a failure
# reproduces): tests must not depend on the order they are declared in.
go test -shuffle 1 ./...

# Fuzz the operator checkpoint decoder for a minute: untrusted bytes
# must yield an error, never a panic. A finding lands in
# internal/operator/testdata/fuzz and fails the run.
go test -run '^$' -fuzz '^FuzzFromSnapshot$' -fuzztime 60s ./internal/operator/

# The same for the neural network's checkpoint: Restore must reject
# untrusted bytes whole, never panic or leave the network half-restored.
go test -run '^$' -fuzz '^FuzzMLPRestore$' -fuzztime 60s ./internal/neural/

# The same for the engine's own checkpoint: core.Run's resume decoder,
# restoring over freshly built run state, must reject untrusted bytes
# with an error, never panic.
go test -run '^$' -fuzz '^FuzzRestore$' -fuzztime 60s ./internal/core/

# Gated benchmark snapshot: runs the CoreRun/Checkpoint/ObsOverhead
# benchmarks and the per-layer ledger, center-expiry, matcher and
# pretraining ones,
# refreshes BENCH_core.json,
# and fails on a >20% allocs/op or B/op (or >2x ns/op) regression
# against the committed snapshot (scripts/benchgate). Accept an
# intentional change by committing the refreshed BENCH_core.json.
sh scripts/bench_json.sh

# Fault-injection smoke: the stochastic injector plus a correlated
# region blackout under the race detector, gated by mmogaudit — every
# SLA-breach episode must carry a root cause and all consistency
# checks must pass.
sh scripts/chaos_smoke.sh

# Crash-recovery smoke: a run killed at a fixed tick and resumed from
# its checkpoints must print byte-identically to an uninterrupted one.
sh scripts/recovery_smoke.sh

# Observability smoke: scrape /metrics and /debug/pprof from a live
# run, byte-diff obs-on stdout against obs-off (write-only telemetry
# contract), and run the run's artifacts through mmogaudit.
sh scripts/obs_smoke.sh

# Daemon smoke: the full mmogd lifecycle — load, SIGTERM drain,
# checkpoint restart with lease reconciliation (clean and after
# kill -9), hot reload (HTTP + SIGHUP), 10x overload shedding with
# 429s, the blown-drain hard exit, and the mmogaudit load report.
sh scripts/daemon_smoke.sh

# SLO + tracing smoke: a forced breach under an armed burn-rate alert
# with end-to-end traceparent propagation; mmogaudit merges the client
# and server traces, scores the alert against ground truth (perfect
# precision/recall, detection lag <= 2 ticks), and a rules-off control
# run must answer byte-identically (write-only telemetry).
sh scripts/slo_smoke.sh
