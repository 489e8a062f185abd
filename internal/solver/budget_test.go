package solver

import (
	"context"
	"fmt"
	"testing"
	"time"

	"cpsrisk/internal/budget"
	"cpsrisk/internal/logic"
)

func parseSource(t *testing.T, src string) (*logic.Program, error) {
	t.Helper()
	return logic.Parse(src)
}

// pigeonhole builds the classic UNSAT pigeonhole program: pigeons+1 birds
// into pigeons holes. Chronological backtracking needs exponential effort
// to refute it, which makes it the canonical budget-interruption workload.
func pigeonhole(holes int) string {
	return fmt.Sprintf(`
		hole(1..%d). pigeon(1..%d).
		1 { at(P,H) : hole(H) } 1 :- pigeon(P).
		:- at(P1,H), at(P2,H), P1 < P2.
	`, holes, holes+1)
}

func TestSolveInterruptedByDecisionCap(t *testing.T) {
	bud := budget.New(context.Background(), budget.Limits{MaxDecisions: 10})
	res, err := SolveSource(pigeonhole(7), Options{Budget: bud})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatalf("expected interruption, got %+v", res)
	}
	if res.InterruptReason != budget.ReasonDecisions {
		t.Errorf("reason = %q", res.InterruptReason)
	}
	if res.Stats.Decisions < 10 {
		t.Errorf("partial stats missing: %+v", res.Stats)
	}
	if res.Stats.Duration <= 0 {
		t.Errorf("duration not populated: %+v", res.Stats)
	}
}

func TestSolveInterruptedByConflictCap(t *testing.T) {
	bud := budget.New(context.Background(), budget.Limits{MaxConflicts: 5})
	res, err := SolveSource(pigeonhole(7), Options{Budget: bud})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted || res.InterruptReason != budget.ReasonConflicts {
		t.Fatalf("res = %+v", res)
	}
}

func TestSolveInterruptedByCancelledContext(t *testing.T) {
	prog, err := parseSource(t, pigeonhole(9))
	if err != nil {
		t.Fatal(err)
	}
	gp, err := Ground(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bud := budget.New(ctx, budget.Limits{})
	start := time.Now()
	res, err := Solve(gp, Options{Budget: bud})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled solve took %v", elapsed)
	}
	if !res.Interrupted || res.InterruptReason != budget.ReasonCancelled {
		t.Fatalf("res = %+v", res)
	}
	if len(res.Models) != 0 {
		t.Errorf("cancelled-before-start solve returned models: %d", len(res.Models))
	}
}

func TestSolveEnumerationKeepsPartialModels(t *testing.T) {
	// A satisfiable choice program with many models: a small decision cap
	// interrupts enumeration but keeps whatever was found first.
	src := `item(1..8). { pick(I) : item(I) }.`
	bud := budget.New(context.Background(), budget.Limits{MaxDecisions: 30})
	res, err := SolveSource(src, Options{Budget: bud})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatalf("expected interruption, got %d models", len(res.Models))
	}
	if len(res.Models) == 0 {
		t.Fatal("no partial models preserved")
	}
	if !res.Satisfiable {
		t.Error("partial models must mark the result satisfiable")
	}
}

func TestSolveOptimizeInterruptedReturnsIncumbent(t *testing.T) {
	// Optimization over the pick-set; interrupting branch-and-bound must
	// return the best (possibly non-optimal) model found so far.
	src := `
		item(1..6). cost(1,3). cost(2,1). cost(3,4). cost(4,1). cost(5,5). cost(6,2).
		1 { pick(I) : item(I) }.
		#minimize { C@1,I : pick(I), cost(I,C) }.
	`
	bud := budget.New(context.Background(), budget.Limits{MaxDecisions: 8})
	res, err := SolveSource(src, Options{Budget: bud, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Skip("solver found the optimum inside the cap; nothing to assert")
	}
	if res.Optimal {
		t.Error("interrupted optimization must not claim optimality")
	}
}

func TestGroundBudgetRuleCap(t *testing.T) {
	// num(1..40) x num(1..40) pairs: 1600+ instantiations of p/2.
	src := `
		num(1..40).
		p(X,Y) :- num(X), num(Y).
	`
	bud := budget.New(context.Background(), budget.Limits{MaxGroundRules: 100})
	_, err := SolveSource(src, Options{Budget: bud})
	ex, ok := budget.Exhausted(err)
	if !ok {
		t.Fatalf("err = %v", err)
	}
	if ex.Stage != "ground" || ex.Reason != budget.ReasonGroundRules {
		t.Errorf("ex = %+v", ex)
	}
}

func TestGroundBudgetCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bud := budget.New(ctx, budget.Limits{})
	src := `num(1..100). p(X,Y) :- num(X), num(Y).`
	_, err := SolveSource(src, Options{Budget: bud})
	if ex, ok := budget.Exhausted(err); !ok || ex.Stage != "ground" {
		t.Fatalf("err = %v", err)
	}
}

func TestSolveUnbudgetedPopulatesNewStats(t *testing.T) {
	res, err := SolveSource(`a :- not b. b :- not a.`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted {
		t.Fatal("unbudgeted solve must not be interrupted")
	}
	if res.Stats.Duration <= 0 {
		t.Errorf("duration = %v", res.Stats.Duration)
	}
	if res.Stats.Restarts < 0 {
		t.Errorf("restarts = %d", res.Stats.Restarts)
	}
}
