package cpsrisk

// Top-level determinism experiment: the scenario sweep must be
// byte-identical at every worker count on the paper's Table II case
// study — same S<n> IDs, same ordering, same risk verdicts, same
// truncation — with and without a tight resource budget. See DESIGN.md,
// "Concurrency model".

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"cpsrisk/internal/budget"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/watertank"
)

// canonicalAnalysis serializes the deterministic part of an Analysis —
// everything except the wall-clock Sweep stats.
func canonicalAnalysis(t *testing.T, a *hazard.Analysis) []byte {
	t.Helper()
	out, err := json.Marshal(struct {
		Scenarios  []hazard.ScenarioResult
		Truncation *budget.Truncation
	}{a.Scenarios, a.Truncation})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestParallelSweep_DeterministicOnTableII (experiment D1): sweep the
// Table II candidate set (all cardinalities) through Analyze and at
// parallelism 1, 4, and NumCPU; every run must produce byte-identical
// results.
func TestParallelSweep_DeterministicOnTableII(t *testing.T) {
	eng, err := watertank.Engine()
	if err != nil {
		t.Fatal(err)
	}
	muts := watertank.PaperCandidates()
	reqs := watertank.Requirements()

	seq, err := hazard.Analyze(eng, muts, -1, reqs)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalAnalysis(t, seq)
	if len(seq.Scenarios) == 0 {
		t.Fatal("empty sequential sweep; fixture broken")
	}
	for _, par := range []int{1, 4, runtime.NumCPU()} {
		got, err := hazard.AnalyzeSweep(eng, muts, -1, reqs, hazard.SweepConfig{Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !bytes.Equal(canonicalAnalysis(t, got), want) {
			t.Errorf("parallelism %d: sweep differs from sequential:\n%s\nvs\n%s",
				par, canonicalAnalysis(t, got), want)
		}
	}
}

// TestParallelSweep_DeterministicUnderTightBudget (experiment D2): a
// scenario cap that trips mid-sweep must leave runs at every worker count
// with the same truncated prefix — the largest fully-completed
// cardinality — and the same truncation report.
func TestParallelSweep_DeterministicUnderTightBudget(t *testing.T) {
	eng, err := watertank.Engine()
	if err != nil {
		t.Fatal(err)
	}
	muts := watertank.PaperCandidates()
	reqs := watertank.Requirements()

	// With 4 candidates there are 4 singletons and 6 pairs; a cap of 7
	// trips inside cardinality 2, forcing the fallback to cardinality 1.
	mk := func() *budget.Budget {
		return budget.New(context.Background(), budget.Limits{MaxScenarios: 7})
	}
	seq, err := hazard.AnalyzeSweep(eng, muts, -1, reqs, hazard.SweepConfig{Budget: mk(), Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Truncation == nil || seq.Truncation.Reason != budget.ReasonScenarios {
		t.Fatalf("truncation = %+v, want a tripped scenario cap", seq.Truncation)
	}
	want := canonicalAnalysis(t, seq)
	for _, par := range []int{1, 4, runtime.NumCPU()} {
		got, err := hazard.AnalyzeSweep(eng, muts, -1, reqs, hazard.SweepConfig{Budget: mk(), Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !bytes.Equal(canonicalAnalysis(t, got), want) {
			t.Errorf("parallelism %d: capped sweep differs:\n%s\nvs\n%s",
				par, canonicalAnalysis(t, got), want)
		}
	}
}
