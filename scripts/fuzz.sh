#!/bin/sh
# fuzz.sh runs a short native fuzz session of every fuzz target in the
# tree. `make fuzz` and scripts/check.sh both call it, so the target list
# lives here only. Set FUZZTIME to change the per-target duration.
set -eu

cd "$(dirname "$0")/.."

fuzztime="${FUZZTIME:-5s}"

echo "== fuzz (${fuzztime} each) =="
go test -run='^$' -fuzz=FuzzParse -fuzztime="$fuzztime" ./internal/logic
go test -run='^$' -fuzz=FuzzParseFormula -fuzztime="$fuzztime" ./internal/temporal
go test -run='^$' -fuzz=FuzzReadJSON -fuzztime="$fuzztime" ./internal/sysmodel
go test -run='^$' -fuzz=FuzzCheckpoint -fuzztime="$fuzztime" ./internal/hazard
go test -run='^$' -fuzz=FuzzOptimalVsBruteForce -fuzztime="$fuzztime" ./internal/optimize
go test -run='^$' -fuzz=FuzzSimulateMatchesReference -fuzztime="$fuzztime" ./internal/plant
go test -run='^$' -fuzz=FuzzEnumerateVsBruteForce -fuzztime="$fuzztime" ./internal/solver
