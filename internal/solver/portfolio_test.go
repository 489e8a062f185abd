package solver

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"cpsrisk/internal/budget"
	"cpsrisk/internal/faultinject"
	"cpsrisk/internal/logic"
)

// TestPortfolioDifferential runs the 600-program differential battery
// with a 4-worker portfolio and cross-checks the answer sets against the
// sequential solver (itself validated against brute force). Model sets
// must agree exactly; only enumeration order may differ across workers.
func TestPortfolioDifferential(t *testing.T) {
	const programs = 600
	rng := rand.New(rand.NewSource(20260806))
	for i := 0; i < programs; i++ {
		src := randomDiffProgram(rng, i)
		prog, err := logic.Parse(src)
		if err != nil {
			t.Fatalf("program %d: parse: %v\n%s", i, err, src)
		}
		gp, err := Ground(prog)
		if err != nil {
			t.Fatalf("program %d: ground: %v\n%s", i, err, src)
		}
		seq, err := Solve(gp, Options{})
		if err != nil {
			t.Fatalf("program %d: sequential solve: %v\n%s", i, err, src)
		}
		par, err := Solve(gp, Options{Workers: 4})
		if err != nil {
			t.Fatalf("program %d: portfolio solve: %v\n%s", i, err, src)
		}
		got, want := renderModelSet(par.Models), renderModelSet(seq.Models)
		if !equalStringSets(got, want) {
			t.Fatalf("program %d: answer sets disagree\nprogram:\n%s\nportfolio (%d): %v\nsequential (%d): %v",
				i, src, len(got), got, len(want), want)
		}
		if par.Satisfiable != seq.Satisfiable {
			t.Fatalf("program %d: Satisfiable=%v, want %v", i, par.Satisfiable, seq.Satisfiable)
		}
		if par.Stats.PortfolioWorkers != 3 {
			t.Fatalf("program %d: PortfolioWorkers=%d, want 3", i, par.Stats.PortfolioWorkers)
		}
	}
}

// TestPortfolioOptimizeDifferential cross-checks optimizing portfolio
// solves — optimum cost and the full optimal model set — against the
// sequential optimizer on a seeded battery with random weights.
func TestPortfolioOptimizeDifferential(t *testing.T) {
	const programs = 200
	rng := rand.New(rand.NewSource(20260808))
	atoms := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < programs; i++ {
		src := randomDiffProgram(rng, i*4) // propositional shapes only
		var min []string
		for _, a := range atoms {
			if rng.Intn(2) == 0 {
				min = append(min, fmt.Sprintf("%d,%s : %s", 1+rng.Intn(5), a, a))
			}
		}
		if len(min) == 0 {
			min = []string{"1,a : a"}
		}
		src += "#minimize { " + strings.Join(min, "; ") + " }.\n"
		seq, err := SolveSource(src, Options{Optimize: true})
		if err != nil {
			t.Fatalf("program %d: sequential solve: %v\n%s", i, err, src)
		}
		par, err := SolveSource(src, Options{Optimize: true, Workers: 4})
		if err != nil {
			t.Fatalf("program %d: portfolio solve: %v\n%s", i, err, src)
		}
		got, want := renderModelSet(par.Models), renderModelSet(seq.Models)
		if !equalStringSets(got, want) {
			t.Fatalf("program %d: optimal model sets disagree\nprogram:\n%s\nportfolio (%d): %v\nsequential (%d): %v",
				i, src, len(got), got, len(want), want)
		}
		if len(seq.Models) > 0 {
			sc, pc := seq.Models[0].Cost, par.Models[0].Cost
			if len(sc) != len(pc) || (len(sc) > 0 && sc[0] != pc[0]) {
				t.Fatalf("program %d: costs disagree: portfolio %+v vs sequential %+v\n%s", i, pc, sc, src)
			}
			if par.Optimal != seq.Optimal {
				t.Fatalf("program %d: Optimal=%v, want %v", i, par.Optimal, seq.Optimal)
			}
		}
	}
}

// TestPortfolioSessionDifferential is the session arm of the battery:
// portfolio sessions (3 engines racing every query, clause exchange
// across queries and Adds) must agree with fresh single-shot solves of
// the flattened program at every step.
func TestPortfolioSessionDifferential(t *testing.T) {
	const programs = 200
	rng := rand.New(rand.NewSource(20260807))
	for i := 0; i < programs; i++ {
		src := randomDiffProgram(rng, i)
		prog, err := logic.Parse(src)
		if err != nil {
			t.Fatalf("program %d: parse: %v\n%s", i, err, src)
		}
		atomPool := []string{"a", "b", "c", "d", "e"}
		if i%4 == 3 {
			atomPool = []string{"pick(1)", "pick(2)", "q(1)", "q(2)"}
		}
		chunks := make([]*logic.Program, 1+1+rng.Intn(3))
		for c := range chunks {
			chunks[c] = &logic.Program{}
		}
		for _, r := range prog.Rules {
			chunks[rng.Intn(len(chunks))].AddRule(r)
		}
		sess, err := NewSession(chunks[0], Options{Workers: 3})
		if err != nil {
			t.Fatalf("program %d: NewSession: %v\n%s", i, err, src)
		}
		flat := &logic.Program{}
		flat.Extend(chunks[0])
		for step := 1; ; step++ {
			var assumps []Assumption
			var constraints []logic.Rule
			for n := rng.Intn(3); n > 0; n-- {
				atom := atomPool[rng.Intn(len(atomPool))]
				var csrc string
				if rng.Intn(2) == 0 {
					assumps = append(assumps, AssumeTrue(atom))
					csrc = ":- not " + atom + "."
				} else {
					assumps = append(assumps, AssumeFalse(atom))
					csrc = ":- " + atom + "."
				}
				cprog, err := logic.Parse(csrc)
				if err != nil {
					t.Fatalf("program %d: parse constraint %q: %v", i, csrc, err)
				}
				constraints = append(constraints, cprog.Rules...)
			}
			want := solveFlattened(t, i, flat, constraints)
			for q := 0; q < 2; q++ { // twice: exercises guard retirement
				res, err := sess.SolveAssuming(assumps, Options{})
				if err != nil {
					t.Fatalf("program %d step %d: SolveAssuming: %v\n%s", i, step, err, src)
				}
				got := renderModelSet(res.Models)
				if !equalStringSets(got, want) {
					t.Fatalf("program %d step %d query %d: answer sets disagree\nprogram:\n%s\nassumptions: %v\nsession (%d): %v\nsingle-shot (%d): %v",
						i, step, q, src, assumps, len(got), got, len(want), want)
				}
			}
			if step >= len(chunks) {
				break
			}
			if err := sess.Add(chunks[step]); err != nil {
				t.Fatalf("program %d step %d: Add: %v\n%s", i, step, err, src)
			}
			flat.Extend(chunks[step])
		}
		sess.Close()
	}
}

// TestPortfolioDeterministicCollapses checks that Deterministic mode
// ignores Workers entirely: search effort (decisions, conflicts,
// restarts) and the model stream must be identical to a Workers=1 solve.
func TestPortfolioDeterministicCollapses(t *testing.T) {
	src := `
		d(1..6).
		{ pick(X) : d(X) }.
		q(X) :- d(X), not pick(X).
		:- pick(X), pick(Y), X < Y.
	`
	one, err := SolveSource(src, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	det, err := SolveSource(src, Options{Workers: 4, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	if det.Stats.PortfolioWorkers != 0 {
		t.Fatalf("deterministic solve launched %d helpers", det.Stats.PortfolioWorkers)
	}
	if det.Stats.Decisions != one.Stats.Decisions || det.Stats.Conflicts != one.Stats.Conflicts ||
		det.Stats.Restarts != one.Stats.Restarts {
		t.Fatalf("deterministic search diverged: det {d=%d c=%d r=%d} vs seq {d=%d c=%d r=%d}",
			det.Stats.Decisions, det.Stats.Conflicts, det.Stats.Restarts,
			one.Stats.Decisions, one.Stats.Conflicts, one.Stats.Restarts)
	}
	for i := range one.Models {
		if strings.Join(one.Models[i].Atoms, ",") != strings.Join(det.Models[i].Atoms, ",") {
			t.Fatalf("model %d differs between deterministic and sequential solve", i)
		}
	}
}

// TestPortfolioCancellationPrompt starts a 4-worker race on a hard
// unsatisfiable instance (pigeonhole, from budget_test.go) under a short
// wall-clock budget and requires the whole portfolio — all workers
// joined, result assembled — to return promptly after the deadline.
func TestPortfolioCancellationPrompt(t *testing.T) {
	prog, err := logic.Parse(pigeonhole(9))
	if err != nil {
		t.Fatal(err)
	}
	bud, cancel := budget.WithTimeout(context.Background(), budget.Limits{Timeout: 100 * time.Millisecond})
	defer cancel()
	start := time.Now()
	res, err := SolveProgram(prog, Options{Workers: 4, Budget: bud})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if !res.Interrupted {
		t.Fatalf("expected an interrupted result under a 100ms budget (elapsed %v)", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("portfolio took %v to unwind after a 100ms deadline", elapsed)
	}
	// Same promptness through a session query.
	sess, err := NewSession(prog, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	bud2, cancel2 := budget.WithTimeout(context.Background(), budget.Limits{Timeout: 100 * time.Millisecond})
	defer cancel2()
	start = time.Now()
	res, err = sess.SolveAssuming(nil, Options{Budget: bud2})
	elapsed = time.Since(start)
	if err != nil {
		t.Fatalf("session solve: %v", err)
	}
	if !res.Interrupted {
		t.Fatalf("expected an interrupted session result (elapsed %v)", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("session portfolio took %v to unwind after a 100ms deadline", elapsed)
	}
}

// TestSessionPortfolioPanicPoisons injects a panic into the first engine
// run and requires the session to surface it as an error and refuse
// further use: a panicked engine's clause database cannot be trusted, so
// the whole session is poisoned, diagnosably. The single-engine session
// runs through the same fault site as a racing portfolio.
func TestSessionPortfolioPanicPoisons(t *testing.T) {
	for _, workers := range []int{3, 1} {
		inj, err := faultinject.New(1, faultinject.SiteSolverWorker+"=panic@1")
		if err != nil {
			t.Fatal(err)
		}
		ctx := faultinject.ContextWith(context.Background(), inj)
		bud := budget.New(ctx, budget.Limits{})
		prog, err := logic.Parse("{ a; b }.\n:- a, b.\n")
		if err != nil {
			t.Fatal(err)
		}
		sess, err := NewSession(prog, Options{Workers: workers, Budget: bud})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.SolveAssuming(nil, Options{}); err == nil {
			t.Fatalf("workers=%d: expected the injected worker panic to surface as an error", workers)
		} else if !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("workers=%d: error does not identify the panic: %v", workers, err)
		}
		if _, err := sess.SolveAssuming(nil, Options{}); err == nil {
			t.Fatalf("workers=%d: session must be poisoned after a worker panic", workers)
		} else if !strings.Contains(err.Error(), "unusable") {
			t.Fatalf("workers=%d: poisoned session error not diagnosable: %v", workers, err)
		}
		sess.Close()
	}
}

// TestPortfolioSharesClauses races four workers on an instance hard
// enough to force real learning and checks the exchange actually carried
// clauses: a dead pipe would silently degrade the portfolio to pure
// competition.
func TestPortfolioSharesClauses(t *testing.T) {
	res, err := SolveSource(pigeonhole(5), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfiable {
		t.Fatal("pigeonhole must be unsatisfiable")
	}
	if res.Stats.ClausesExported == 0 {
		t.Fatalf("no clauses exported across the portfolio: %+v", res.Stats)
	}
}

// TestPortfolioGovernorLimitsHelpers pins a two-worker governor (pool
// of one extra slot) to the budget context and checks that the
// portfolio degrades to primary + 1 helper instead of oversubscribing.
func TestPortfolioGovernorLimitsHelpers(t *testing.T) {
	gov := budget.NewGovernor(2)
	ctx := budget.ContextWithGovernor(context.Background(), gov)
	bud := budget.New(ctx, budget.Limits{})
	res, err := SolveSource("{ a; b; c }.\n:- a, b.\n", Options{Workers: 4, Budget: bud})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PortfolioWorkers != 1 {
		t.Fatalf("PortfolioWorkers=%d, want 1 (pool of 1 extra)", res.Stats.PortfolioWorkers)
	}
	if gov.InUse() != 0 {
		t.Fatalf("governor slots leaked: InUse=%d", gov.InUse())
	}
	if gov.Granted() != 1 || gov.Denied() != 2 {
		t.Fatalf("governor accounting off: granted=%d denied=%d, want 1/2", gov.Granted(), gov.Denied())
	}
	// A single-worker budget (sequential run / one core) must collapse
	// the portfolio entirely: no helpers time-sharing the one core.
	gov1 := budget.NewGovernor(1)
	bud1 := budget.New(budget.ContextWithGovernor(context.Background(), gov1), budget.Limits{})
	res, err = SolveSource("{ a; b; c }.\n:- a, b.\n", Options{Workers: 4, Budget: bud1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PortfolioWorkers != 0 {
		t.Fatalf("PortfolioWorkers=%d, want 0 under a limit-1 governor", res.Stats.PortfolioWorkers)
	}
}
