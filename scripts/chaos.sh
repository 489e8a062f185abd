#!/bin/sh
# chaos.sh is the crash-safety battery: every fault-injection,
# checkpoint-corruption and crash/resume test in the tree, run under the
# race detector with a fixed seed set so failures reproduce exactly. It
# ends with a real kill-and-resume of the CLI binary driven purely
# through the CPSRISK_FAULTS environment, diffing the resumed report
# against an undisturbed baseline. `make chaos` and scripts/check.sh run
# this.
set -eu

cd "$(dirname "$0")/.."

echo "== injector unit tests (-race) =="
go test -race -count=1 ./internal/faultinject

echo "== crash matrix: kill/resume at every injection point (-race -cpu=1,4) =="
go test -race -cpu=1,4 -count=1 \
  -run 'TestCrashMatrix|TestCrashResumeWithPruning|TestBudgetTruncatedSweepMakesProgress|TestTransientRecoveredInFlight|TestResumeSweepsLikeAFreshRun|TestResumeKeepsFrontierWhenCutShort|TestCheckpointCorruptionQuarantined' \
  ./internal/hazard

echo "== CLI chaos tests (-race) =="
go test -race -count=1 \
  -run 'TestChaosResumeMatchesBaseline|TestResumeProvenanceInOutputs' \
  ./cmd/riskassess

# End-to-end: crash the real binary mid-sweep with an env-armed fault,
# resume with the same checkpoint directory, and demand the resumed
# report match the baseline after stripping wall-clock/provenance lines.
echo "== end-to-end kill/resume (env-armed, seed 42) =="
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
strip='/assessed in|sweep:|retries:|resumed from checkpoint/d'
args="-model models/sme-plant.json -types models/types.json -maxcard 2 -parallel 4"

go run ./cmd/riskassess $args > "$work/baseline.txt"

for spec in "epa.run=panic@9" "hazard.checkpoint=torn@1"; do
  ckpt="$work/ckpt-$(echo "$spec" | tr '=@.' '___')"
  # Crash run: failure is the point; a degraded exit is also legal.
  CPSRISK_FAULTS="$spec" CPSRISK_FAULT_SEED=42 \
    go run ./cmd/riskassess $args -checkpoint "$ckpt" >/dev/null 2>&1 || true
  if find "$ckpt" -name '*.tmp' 2>/dev/null | grep -q .; then
    echo "FAIL: stray temp files after $spec" >&2
    exit 1
  fi
  # Clean resume must reproduce the baseline byte for byte.
  go run ./cmd/riskassess $args -checkpoint "$ckpt" > "$work/resumed.txt"
  sed -E "$strip" "$work/baseline.txt" > "$work/baseline.stripped"
  sed -E "$strip" "$work/resumed.txt" > "$work/resumed.stripped"
  if ! diff "$work/baseline.stripped" "$work/resumed.stripped" >&2; then
    echo "FAIL: resumed report diverged from baseline after $spec" >&2
    exit 1
  fi
  echo "   $spec: resumed byte-identical"
done

echo "CHAOS OK"
