package cegar

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"cpsrisk/internal/budget"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/obs"
)

// cancellingOracle cancels the shared context after n checks, simulating
// the deadline firing mid-validation.
type cancellingOracle struct {
	inner  Oracle
	cancel context.CancelFunc
	left   int
}

func (o *cancellingOracle) Check(f Finding) (Verdict, error) {
	v, err := o.inner.Check(f)
	o.left--
	if o.left == 0 {
		o.cancel()
	}
	return v, err
}

func TestRunBudgetExhaustionRoutesRestToUndetermined(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bud := budget.New(ctx, budget.Limits{})
	oracle := &cancellingOracle{inner: NewPlantOracle(), cancel: cancel, left: 2}

	res, err := RunParallel(levels(t), oracle, -1, bud, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Two findings validated; everything after the cancellation must be
	// routed to expert review rather than dropped.
	und := res.Undetermined()
	if len(und) == 0 {
		t.Fatal("no findings routed to expert review after exhaustion")
	}
	validated := len(res.Findings) - len(und)
	if validated != 2 {
		t.Errorf("validated = %d, want 2", validated)
	}
	found := false
	for _, tr := range res.Truncations {
		if strings.HasSuffix(tr.Stage, "/validate") && tr.Reason == budget.ReasonCancelled {
			found = true
			if !strings.Contains(tr.Detail, "2 findings validated") {
				t.Errorf("detail = %q", tr.Detail)
			}
		}
	}
	if !found {
		t.Errorf("no validate truncation recorded: %+v", res.Truncations)
	}
	// Exhaustion stops refinement: only the first level runs.
	if res.Iterations != 1 {
		t.Errorf("iterations = %d, want 1", res.Iterations)
	}
}

func TestRunBudgetScenarioCapRecordsAnalysisTruncation(t *testing.T) {
	bud := budget.New(context.Background(), budget.Limits{MaxScenarios: 3})
	res, err := RunParallel(levels(t), NewPlantOracle(), -1, bud, 1)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tr := range res.Truncations {
		if strings.Contains(tr.Stage, "cegar/") && tr.Reason == budget.ReasonScenarios {
			found = true
		}
	}
	if !found {
		t.Errorf("no analysis truncation recorded: %+v", res.Truncations)
	}
}

// A nil budget runs the loop exactly as an unlimited one does.
func TestRunBudgetNilBudgetMatchesRun(t *testing.T) {
	want, err := RunParallel(levels(t), NewPlantOracle(), -1, budget.New(context.Background(), budget.Limits{}), 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunParallel(levels(t), NewPlantOracle(), -1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Findings) != len(want.Findings) || got.Iterations != want.Iterations {
		t.Errorf("budgeted run diverged: %d/%d findings, %d/%d iterations",
			len(got.Findings), len(want.Findings), got.Iterations, want.Iterations)
	}
	if len(got.Truncations) != 0 {
		t.Errorf("truncations = %+v", got.Truncations)
	}
}

// Judge validates the analysis it is given and nothing else: its
// findings are the analysis's violations in Hazards() order, and a
// truncated analysis's own truncation is left to whoever produced it.
func TestJudgeValidatesTheGivenAnalysis(t *testing.T) {
	fine := levels(t)[1]
	analysis, err := hazard.AnalyzeSweep(fine.Engine, fine.Mutations, -1, fine.Requirements,
		hazard.SweepConfig{Budget: budget.New(context.Background(), budget.Limits{MaxScenarios: 6}), Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if analysis.Truncation == nil {
		t.Fatal("scenario cap did not truncate the analysis")
	}
	var want []Finding
	for _, s := range analysis.Hazards() {
		for _, req := range s.Violated {
			want = append(want, Finding{Scenario: s.Scenario, ReqID: req})
		}
	}
	if len(want) == 0 {
		t.Fatal("truncated analysis holds no violation")
	}
	for _, par := range []int{1, 4} {
		reg := obs.NewRegistry()
		bud := budget.New(obs.ContextWithRegistry(context.Background(), reg), budget.Limits{})
		res, err := Judge("given", analysis, NewPlantOracle(), bud, par)
		if err != nil {
			t.Fatal(err)
		}
		var got []Finding
		for _, j := range res.Findings {
			got = append(got, j.Finding)
			if j.Level != "given" {
				t.Errorf("parallelism %d: %v judged at level %q", par, j.Finding, j.Level)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d: findings %v, want %v", par, got, want)
		}
		if res.Iterations != 1 || !reflect.DeepEqual(res.PerLevelFindings, []int{len(want)}) {
			t.Errorf("parallelism %d: loop shape %d iterations, %v per level", par, res.Iterations, res.PerLevelFindings)
		}
		if len(res.Truncations) != 0 {
			t.Errorf("parallelism %d: truncations %+v, want none", par, res.Truncations)
		}
		c := reg.Snapshot().Counters
		if c["cegar.levels"] != 1 || c["cegar.findings"] != int64(len(want)) {
			t.Errorf("parallelism %d: counters %v", par, c)
		}
	}
}
