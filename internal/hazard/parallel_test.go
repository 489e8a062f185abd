package hazard

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"sort"
	"testing"

	"cpsrisk/internal/budget"
)

// canonical serializes the deterministic part of an Analysis (IDs,
// ordering, violations, risks, truncation) — everything except the
// wall-clock Sweep stats — for byte-level comparison between sweeps.
func canonical(t *testing.T, a *Analysis) []byte {
	t.Helper()
	out, err := json.Marshal(struct {
		Scenarios  []ScenarioResult
		Truncation *budget.Truncation
	}{a.Scenarios, a.Truncation})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestParallelSweepMatchesSequential(t *testing.T) {
	eng, muts, reqs := setup(t)
	seq, err := Analyze(eng, muts, -1, reqs)
	if err != nil {
		t.Fatal(err)
	}
	want := canonical(t, seq)
	for _, par := range []int{2, 4, runtime.NumCPU() + 2} {
		got, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !bytes.Equal(canonical(t, got), want) {
			t.Errorf("parallelism %d: output differs from sequential:\n%s\nvs\n%s",
				par, canonical(t, got), want)
		}
		if got.Sweep == nil || got.Sweep.Workers != par {
			t.Errorf("parallelism %d: sweep stats = %+v", par, got.Sweep)
		}
	}
}

func TestParallelSweepScenarioCapMatchesSequential(t *testing.T) {
	eng, muts, reqs := setup(t)
	// Cap of 5 trips inside cardinality 2: both sweeps must fall back to
	// the same completed cardinality <= 1 with the same truncation text.
	mk := func() *budget.Budget {
		return budget.New(context.Background(), budget.Limits{MaxScenarios: 5})
	}
	seq, err := AnalyzeBudget(eng, muts, -1, reqs, mk())
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4} {
		got, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{Budget: mk(), Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !bytes.Equal(canonical(t, got), canonical(t, seq)) {
			t.Errorf("parallelism %d: capped output differs:\n%s\nvs\n%s",
				par, canonical(t, got), canonical(t, seq))
		}
	}
	if seq.Truncation == nil || seq.Truncation.Reason != budget.ReasonScenarios {
		t.Fatalf("truncation = %+v", seq.Truncation)
	}
}

func TestParallelSweepCancelledContext(t *testing.T) {
	eng, muts, reqs := setup(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{Budget: budget.New(ctx, budget.Limits{}), Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.Truncation == nil || a.Truncation.Reason != budget.ReasonCancelled {
		t.Fatalf("truncation = %+v", a.Truncation)
	}
	if len(a.Scenarios) != 0 {
		t.Fatalf("scenarios = %d, want 0 under a pre-cancelled context", len(a.Scenarios))
	}
}

func TestParallelSweepUnknownActivationFails(t *testing.T) {
	eng, muts, reqs := setup(t)
	bad := muts[:1:1]
	bad[0].Component = "ghost"
	if _, err := AnalyzeSweep(eng, bad, -1, reqs, SweepConfig{Parallelism: 4}); err == nil {
		t.Fatal("expected an error for an unknown component")
	}
}

func TestParallelSweepDefaultsToGOMAXPROCS(t *testing.T) {
	eng, muts, reqs := setup(t)
	a, err := AnalyzeSweep(eng, muts, 1, reqs, SweepConfig{Parallelism: 0})
	if err != nil {
		t.Fatal(err)
	}
	if a.Sweep == nil || a.Sweep.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("sweep = %+v, want %d workers", a.Sweep, runtime.GOMAXPROCS(0))
	}
}

func TestViolatedSortedAndBinarySearch(t *testing.T) {
	eng, muts, reqs := setup(t)
	a, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range a.Scenarios {
		if !sort.StringsAreSorted(s.Violated) {
			t.Fatalf("%s: Violated not sorted: %v", s.ID, s.Violated)
		}
		for _, id := range s.Violated {
			if !s.Violates(id) {
				t.Errorf("%s: Violates(%q) = false for a violated requirement", s.ID, id)
			}
		}
		if s.Violates("ZZZ-not-a-requirement") || s.Violates("") {
			t.Errorf("%s: Violates matched an absent requirement", s.ID)
		}
	}
}
