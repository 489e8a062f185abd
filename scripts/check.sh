#!/bin/sh
# check.sh is the canonical pre-merge verification: static checks, the
# full test suite under the race detector, and a short run of every
# native fuzz target. CI and `make check` both run exactly this script.
set -eu

cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

# Every Go file must be gofmt-clean. perfbench/run.sh builds under
# .bench_build/, which may hold a module cache; it is not ours to format.
echo "== gofmt =="
unformatted=$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l)
if [ -n "$unformatted" ]; then
  echo "gofmt -l lists:" >&2
  echo "$unformatted" >&2
  exit 1
fi

# staticcheck is optional: offline builders don't have the module. Run
# it whenever the module cache already holds honnef.co (dev machines, CI
# images with a warm cache); skip with a notice otherwise.
if [ -d "$(go env GOMODCACHE)/honnef.co" ]; then
  echo "== staticcheck =="
  go run honnef.co/go/tools/cmd/staticcheck@latest ./...
else
  echo "== staticcheck == (skipped: honnef.co not in the module cache)"
fi

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

# The engine, the sweep, the scenario enumerator,
# the CEGAR oracle pool and the service are documented safe for
# concurrent use, and a solver session panics on concurrent use; hammer
# them under the race detector at both ends of the parallelism range.
echo "== go test -race -cpu=1,4 (epa, hazard, faults, solver, cegar, serve) =="
go test -race -cpu=1,4 -count=1 ./internal/epa ./internal/hazard ./internal/faults ./internal/solver ./internal/cegar ./internal/serve

# The served-vs-CLI report identity tests and the settings tests (one
# core.Settings reaches the same core.Config and the same flags in both
# front ends). A served/CLI divergence has shown only at a width of 2 or
# more, so run them at both ends of the range too.
echo "== go test -race -cpu=1,4 -run TestServedReportMatchesCLI|TestSettings (riskassess, riskserve) =="
go test -race -cpu=1,4 -count=1 -run 'TestServedReportMatchesCLI|TestSettings' ./cmd/riskassess ./cmd/riskserve

# One iteration of the row-path benchmarks (the sweep row's stages,
# Ranked, and Summarize on the sweep-star plant), so the benchmarks
# behind the per-row numbers in EXPERIMENTS.md keep building and running.
echo "== benchmark smoke (SweepRow, Summarize) =="
go test -run '^$' -bench 'SweepRow|Summarize' -benchtime 1x ./internal/hazard ./internal/core

# Differential corpus for delta re-assessment: ~20 scripted model edits,
# each asserting the incremental report is byte-identical to a cold run
# of the edited model, plus warm-hit and ASP delta checks.
echo "== go test -race -cpu=1,4 -run TestDelta|TestArtifact (core) =="
go test -race -cpu=1,4 -count=1 -run 'TestDelta|TestArtifact' ./internal/core

# Differential check: CDCL answer sets vs a brute-force stable-model
# enumerator over a seeded random program battery, always re-run fresh.
# The battery covers the single-shot entry point, an optimize arm
# (brute-force lexicographic optimum and optimal-model set vs Solve and
# a Session query), and the incremental Session arm (assumption queries
# and incremental Add against fresh ground-truth re-solves).
echo "== go test -run TestDifferential (solver) =="
go test -run TestDifferential -count=1 ./internal/solver

# Trace exporter end-to-end: assess the sample plant with tracing on and
# validate the emitted Chrome trace (sorted timestamps, matched B/E
# pairs, every executed pipeline stage present, and the correlation ID
# riding on the root span's args).
echo "== trace exporter (riskassess -trace -trace-id + tracecheck) =="
trace_out="$(mktemp)"
go run ./cmd/riskassess -model models/sme-plant.json -types models/types.json \
  -maxcard 1 -optimize -trace "$trace_out" -trace-id check-e2e >/dev/null
go run ./cmd/tracecheck \
  -require assessment,model,candidates,hazard,sweep,mitigation \
  -trace-id check-e2e "$trace_out"
rm -f "$trace_out"

# Service mode end-to-end: boot riskserve, drive a multi-tenant mix with
# loadgen, assert zero critical events, drain on SIGTERM. Skipped in
# short mode (CHECK_SHORT=1).
if [ -z "${CHECK_SHORT:-}" ]; then
  echo "== service loadtest (scripts/loadtest.sh) =="
  ./scripts/loadtest.sh
else
  echo "== service loadtest == (skipped: CHECK_SHORT set)"
fi

# Crash-safety battery: fault injection, checkpoint corruption, the
# crash matrix, and a real kill-and-resume of the CLI (fixed seeds).
echo "== chaos (scripts/chaos.sh) =="
./scripts/chaos.sh

./scripts/fuzz.sh

echo "OK"
