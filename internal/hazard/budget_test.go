package hazard

import (
	"context"
	"strings"
	"testing"
	"time"

	"cpsrisk/internal/budget"
)

func TestAnalyzeBudgetScenarioCapFallsBackToCompletedCardinality(t *testing.T) {
	eng, muts, reqs := setup(t)
	// Full space with 3 candidates: 1 + 3 + 3 + 1 = 8 scenarios. A cap of
	// 5 interrupts inside cardinality 2 (scenarios 5..7), so the analysis
	// must fall back to cardinality <= 1 (4 scenarios).
	bud := budget.New(context.Background(), budget.Limits{MaxScenarios: 5})
	a, err := AnalyzeBudget(eng, muts, -1, reqs, bud)
	if err != nil {
		t.Fatal(err)
	}
	if a.Truncation == nil {
		t.Fatal("expected truncation")
	}
	if a.Truncation.Reason != budget.ReasonScenarios {
		t.Errorf("reason = %q", a.Truncation.Reason)
	}
	if len(a.Scenarios) != 4 {
		t.Fatalf("scenarios = %d, want 4 (cardinality <= 1)", len(a.Scenarios))
	}
	for _, s := range a.Scenarios {
		if len(s.Scenario) > 1 {
			t.Errorf("partial cardinality leaked: %s", s.Scenario.Key())
		}
	}
	if !strings.Contains(a.Truncation.Detail, "cardinality <= 1") {
		t.Errorf("detail = %q", a.Truncation.Detail)
	}
	if !strings.Contains(a.Truncation.Detail, "4 of 8") {
		t.Errorf("detail = %q", a.Truncation.Detail)
	}
}

func TestAnalyzeBudgetCapAtCardinalityBoundaryKeepsAll(t *testing.T) {
	eng, muts, reqs := setup(t)
	// Cap exactly at the cardinality-1 boundary: 1 + 3 = 4 scenarios kept,
	// nothing dropped beyond the frontier.
	bud := budget.New(context.Background(), budget.Limits{MaxScenarios: 4})
	a, err := AnalyzeBudget(eng, muts, -1, reqs, bud)
	if err != nil {
		t.Fatal(err)
	}
	if a.Truncation == nil {
		t.Fatal("expected truncation")
	}
	if len(a.Scenarios) != 4 {
		t.Fatalf("scenarios = %d, want 4", len(a.Scenarios))
	}
}

func TestAnalyzeBudgetCancelledContextReturnsPromptly(t *testing.T) {
	eng, muts, reqs := setup(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bud := budget.New(ctx, budget.Limits{})
	start := time.Now()
	a, err := AnalyzeBudget(eng, muts, -1, reqs, bud)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancelled analysis did not return promptly")
	}
	if a.Truncation == nil || a.Truncation.Reason != budget.ReasonCancelled {
		t.Fatalf("truncation = %+v", a.Truncation)
	}
	if len(a.Scenarios) != 0 {
		t.Errorf("scenarios = %d", len(a.Scenarios))
	}
	if !strings.Contains(a.Truncation.Detail, "no cardinality completed") {
		t.Errorf("detail = %q", a.Truncation.Detail)
	}
}

func TestAnalyzeBudgetNilBudgetIsExhaustive(t *testing.T) {
	eng, muts, reqs := setup(t)
	a, err := AnalyzeBudget(eng, muts, -1, reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Truncation != nil {
		t.Fatalf("truncation = %+v", a.Truncation)
	}
	if len(a.Scenarios) != 8 {
		t.Fatalf("scenarios = %d", len(a.Scenarios))
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
