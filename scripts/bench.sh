#!/bin/sh
# bench.sh runs the Go benchmark suite as profiling entry points: the
# scalability sweeps S1-S3, the multi-shot solving pair S4 (and its
# single-shot reference arm, BenchmarkMinimalCutsASP in internal/hazard),
# the portfolio hard-instance race S5, the artifact-cache delta
# re-assessment pair S6, the served-vs-CLI warm-path pair S7, the Fig. 1
# end-to-end pipeline and the observability on/off overhead pair, with
# -benchmem and -count repeats. It keeps no ledger: performance claims
# are measured with perfbench (BENCHMARK.json) through scripts/ab.sh.
#
# The S5 portfolio benchmark additionally runs pinned to -cpu=1 and
# -cpu=4: cpu1 shows the governor collapsing the portfolio on a single
# core, cpu4 shows the race on multi-core hardware.
#
#   BENCHTIME=2s ./scripts/bench.sh     # per-benchmark time (default: 1s)
set -eu

cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-1s}"
count=5
pattern='BenchmarkS1_SolverScaling|BenchmarkS2_EPAScaling|BenchmarkS3_ScenarioSpace|BenchmarkS3_PrunedSweep|BenchmarkS4_MultiShot|BenchmarkMinimalCutsASP|BenchmarkS5_PortfolioCuts|BenchmarkS6_DeltaReassess|BenchmarkS7_ServedWarmPath|BenchmarkFig1_PipelineEndToEnd|BenchmarkObsOverhead'

echo "== bench (${benchtime} x ${count}) =="
go test -run='^$' -bench="$pattern" -benchmem -benchtime="$benchtime" -count="$count" . ./internal/hazard

for cpus in 1 4; do
  echo "== bench portfolio -cpu=${cpus} =="
  go test -run='^$' -bench='BenchmarkS5_PortfolioCuts' -benchmem \
    -benchtime="$benchtime" -count="$count" -cpu="$cpus" .
done
