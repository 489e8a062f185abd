package hazard

import (
	"context"
	"strings"
	"testing"
	"time"

	"cpsrisk/internal/budget"
)

// budgetWidths are the pool widths the budget tests sweep at: one worker
// and a pool that overlaps budget polls with in-flight chunks.
var budgetWidths = []int{1, 4}

func TestAnalyzeBudgetScenarioCapFallsBackToCompletedCardinality(t *testing.T) {
	eng, muts, reqs := setup(t)
	for _, par := range budgetWidths {
		// Full space with 3 candidates: 1 + 3 + 3 + 1 = 8 scenarios. A cap
		// of 5 interrupts inside cardinality 2 (scenarios 5..7), so the
		// analysis must fall back to cardinality <= 1 (4 scenarios).
		bud := budget.New(context.Background(), budget.Limits{MaxScenarios: 5})
		a, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{Budget: bud, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if a.Truncation == nil {
			t.Fatalf("parallelism %d: expected truncation", par)
		}
		if a.Truncation.Reason != budget.ReasonScenarios {
			t.Errorf("parallelism %d: reason = %q", par, a.Truncation.Reason)
		}
		if len(a.Scenarios) != 4 {
			t.Fatalf("parallelism %d: scenarios = %d, want 4 (cardinality <= 1)", par, len(a.Scenarios))
		}
		for _, s := range a.Scenarios {
			if len(s.Scenario) > 1 {
				t.Errorf("parallelism %d: partial cardinality leaked: %s", par, s.Scenario.Key())
			}
		}
		if !strings.Contains(a.Truncation.Detail, "cardinality <= 1") {
			t.Errorf("parallelism %d: detail = %q", par, a.Truncation.Detail)
		}
		if !strings.Contains(a.Truncation.Detail, "4 of 8") {
			t.Errorf("parallelism %d: detail = %q", par, a.Truncation.Detail)
		}
	}
}

func TestAnalyzeBudgetCapAtCardinalityBoundaryKeepsAll(t *testing.T) {
	eng, muts, reqs := setup(t)
	for _, par := range budgetWidths {
		// Cap exactly at the cardinality-1 boundary: 1 + 3 = 4 scenarios
		// kept, nothing dropped beyond the frontier.
		bud := budget.New(context.Background(), budget.Limits{MaxScenarios: 4})
		a, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{Budget: bud, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if a.Truncation == nil {
			t.Fatalf("parallelism %d: expected truncation", par)
		}
		if len(a.Scenarios) != 4 {
			t.Fatalf("parallelism %d: scenarios = %d, want 4", par, len(a.Scenarios))
		}
	}
}

func TestAnalyzeBudgetCancelledContextReturnsPromptly(t *testing.T) {
	eng, muts, reqs := setup(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range budgetWidths {
		bud := budget.New(ctx, budget.Limits{})
		start := time.Now()
		a, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{Budget: bud, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if time.Since(start) > 5*time.Second {
			t.Fatalf("parallelism %d: cancelled analysis did not return promptly", par)
		}
		if a.Truncation == nil || a.Truncation.Reason != budget.ReasonCancelled {
			t.Fatalf("parallelism %d: truncation = %+v", par, a.Truncation)
		}
		if len(a.Scenarios) != 0 {
			t.Errorf("parallelism %d: scenarios = %d", par, len(a.Scenarios))
		}
		if !strings.Contains(a.Truncation.Detail, "no cardinality completed") {
			t.Errorf("parallelism %d: detail = %q", par, a.Truncation.Detail)
		}
	}
}

func TestAnalyzeBudgetNilBudgetIsExhaustive(t *testing.T) {
	eng, muts, reqs := setup(t)
	for _, par := range budgetWidths {
		a, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if a.Truncation != nil {
			t.Fatalf("parallelism %d: truncation = %+v", par, a.Truncation)
		}
		if len(a.Scenarios) != 8 {
			t.Fatalf("parallelism %d: scenarios = %d", par, len(a.Scenarios))
		}
	}
}

func TestAnalyzeASPBudgetPopulatesSolverStats(t *testing.T) {
	eng, muts, reqs := setup(t)
	a, err := AnalyzeASPOpts(eng, muts, 1, reqs, ASPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.SolverStats == nil {
		t.Fatal("solver stats missing on the ASP path")
	}
	if a.SolverStats.Duration <= 0 {
		t.Errorf("stats = %+v", a.SolverStats)
	}
	if a.Truncation != nil {
		t.Errorf("unexpected truncation: %+v", a.Truncation)
	}
}

func TestAnalyzeASPBudgetGroundCapAborts(t *testing.T) {
	eng, muts, reqs := setup(t)
	bud := budget.New(context.Background(), budget.Limits{MaxGroundRules: 3})
	_, err := AnalyzeASPOpts(eng, muts, 1, reqs, ASPOptions{Budget: bud})
	ex, ok := budget.Exhausted(err)
	if !ok {
		t.Fatalf("err = %v", err)
	}
	if ex.Stage != "ground" {
		t.Errorf("stage = %q", ex.Stage)
	}
}

func TestAnalyzeASPBudgetScenarioCapTruncates(t *testing.T) {
	eng, muts, reqs := setup(t)
	bud := budget.New(context.Background(), budget.Limits{MaxScenarios: 3})
	a, err := AnalyzeASPOpts(eng, muts, -1, reqs, ASPOptions{Budget: bud})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Scenarios) != 3 {
		t.Fatalf("scenarios = %d", len(a.Scenarios))
	}
	if a.Truncation == nil || a.Truncation.Reason != budget.ReasonScenarios {
		t.Fatalf("truncation = %+v", a.Truncation)
	}
}
