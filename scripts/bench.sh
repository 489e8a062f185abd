#!/bin/sh
# bench.sh runs the perf-tracked benchmark suite (the scalability sweeps
# S1-S3, the multi-shot solving pair S4, the portfolio hard-instance
# race S5, the artifact-cache delta re-assessment pair S6, the
# served-vs-CLI warm-path pair S7, and the Fig. 1 end-to-end pipeline,
# plus the observability on/off overhead pair) with -benchmem and files
# the numbers into the bench.local.json ledger via cmd/benchjson. CI and
# `make bench` both run exactly this script. benchjson prints the S6
# cold-vs-warm speedup table after the ledger write.
#
# The S5 portfolio benchmark additionally runs pinned to -cpu=1 and
# -cpu=4 (labels <label>-cpu1 / <label>-cpu4): cpu1 shows the governor
# collapsing the portfolio on a single core, cpu4 shows the race on
# multi-core hardware.
#
#   BENCH_LABEL=after ./scripts/bench.sh          # label in the ledger (default: after)
#   BENCH_OUT=run.json ./scripts/bench.sh         # ledger file (default: bench.local.json, untracked)
#   BENCHTIME=2s ./scripts/bench.sh               # per-benchmark time (default: 1s)
set -eu

cd "$(dirname "$0")/.."

label="${BENCH_LABEL:-after}"
out="${BENCH_OUT:-bench.local.json}"
benchtime="${BENCHTIME:-1s}"
pattern='BenchmarkS1_SolverScaling|BenchmarkS2_EPAScaling|BenchmarkS3_ScenarioSpace|BenchmarkS3_PrunedSweep|BenchmarkS4_MultiShot|BenchmarkS5_PortfolioCuts|BenchmarkS6_DeltaReassess|BenchmarkS7_ServedWarmPath|BenchmarkFig1_PipelineEndToEnd|BenchmarkObsOverhead'

echo "== bench (${benchtime} each) -> ${out} [${label}] =="
go test -run='^$' -bench="$pattern" -benchmem -benchtime="$benchtime" . \
  | go run ./cmd/benchjson -label "$label" -out "$out"

for cpus in 1 4; do
  echo "== bench portfolio -cpu=${cpus} -> ${out} [${label}-cpu${cpus}] =="
  go test -run='^$' -bench='BenchmarkS5_PortfolioCuts' -benchmem \
    -benchtime="$benchtime" -cpu="$cpus" . \
    | go run ./cmd/benchjson -label "${label}-cpu${cpus}" -out "$out"
done
