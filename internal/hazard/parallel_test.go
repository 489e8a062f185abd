package hazard

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"sort"
	"testing"

	"cpsrisk/internal/budget"
	"cpsrisk/internal/obs"
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
	ref, err := refAnalyze(eng, muts, -1, reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := canonical(t, ref)
	for _, par := range []int{1, 2, 4, runtime.NumCPU() + 2} {
		// Traced, so every width also shows its worker spans: one worker
		// is a pool of one, not a separate loop.
		tr := obs.New("assessment")
		bud := budget.New(obs.ContextWithSpan(context.Background(), tr.Root()), budget.Limits{})
		got, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{Budget: bud, Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		tr.Finish()
		if !bytes.Equal(canonical(t, got), want) {
			t.Errorf("parallelism %d: output differs from the reference:\n%s\nvs\n%s",
				par, canonical(t, got), want)
		}
		if got.Sweep == nil || got.Sweep.Workers != par || got.Sweep.Executed != int64(len(got.Scenarios)) {
			t.Errorf("parallelism %d: sweep stats = %+v", par, got.Sweep)
		}
		if n := tr.Snapshot().Count("worker#0"); n != 1 {
			t.Errorf("parallelism %d: worker#0 spans = %d, want 1", par, n)
		}
	}
}

func TestParallelSweepScenarioCapMatchesSequential(t *testing.T) {
	eng, muts, reqs := setup(t)
	// Cap of 5 trips inside cardinality 2: every width must fall back to
	// the same completed cardinality <= 1 with the same truncation text.
	mk := func() *budget.Budget {
		return budget.New(context.Background(), budget.Limits{MaxScenarios: 5})
	}
	ref, err := refAnalyze(eng, muts, -1, reqs, mk())
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 4} {
		got, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{Budget: mk(), Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !bytes.Equal(canonical(t, got), canonical(t, ref)) {
			t.Errorf("parallelism %d: capped output differs:\n%s\nvs\n%s",
				par, canonical(t, got), canonical(t, ref))
		}
	}
	if ref.Truncation == nil || ref.Truncation.Reason != budget.ReasonScenarios {
		t.Fatalf("truncation = %+v", ref.Truncation)
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
