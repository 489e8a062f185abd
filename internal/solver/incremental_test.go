package solver

import (
	"context"
	"strings"
	"testing"
	"time"

	"cpsrisk/internal/budget"
	"cpsrisk/internal/faultinject"
	"cpsrisk/internal/logic"
)

// mustParse parses src and checks that the compiled and the reference
// grounder agree on it.
func mustParse(t *testing.T, src string) *logic.Program {
	t.Helper()
	prog, err := logic.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	checkGroundersAgree(t, prog)
	return prog
}

func newTestSession(t *testing.T, src string) *Session {
	t.Helper()
	sess, err := NewSession(mustParse(t, src), Options{})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	t.Cleanup(sess.Close)
	return sess
}

// TestSessionUnsatCore checks that a failed assumption set reports the
// responsible assumptions — and only those — in Result.Core.
func TestSessionUnsatCore(t *testing.T) {
	sess := newTestSession(t, `
		p.
		q :- p.
		{ r }.
	`)
	// "r" alone is satisfiable; "not q" alone contradicts the program.
	res, err := sess.SolveAssuming([]Assumption{AssumeTrue("r"), AssumeFalse("q")}, Options{})
	if err != nil {
		t.Fatalf("SolveAssuming: %v", err)
	}
	if res.Satisfiable {
		t.Fatalf("query should be unsatisfiable under 'not q'")
	}
	if len(res.Core) != 1 || res.Core[0] != "not q" {
		t.Fatalf("core = %v, want [not q] (the irrelevant assumption must not appear)", res.Core)
	}
	// The session stays usable: the same query minus the bad assumption.
	res, err = sess.SolveAssuming([]Assumption{AssumeTrue("r")}, Options{})
	if err != nil {
		t.Fatalf("follow-up SolveAssuming: %v", err)
	}
	if !res.Satisfiable || len(res.Models) != 1 || !res.Models[0].Contains("r") {
		t.Fatalf("follow-up query: got %+v, want one model containing r", res.Models)
	}
}

// TestSessionUnsatCoreUnknownAtom: assuming an atom the program never
// derives is immediately unsatisfiable with that atom as the core.
func TestSessionUnsatCoreUnknownAtom(t *testing.T) {
	sess := newTestSession(t, `p.`)
	res, err := sess.SolveAssuming([]Assumption{AssumeTrue("ghost")}, Options{})
	if err != nil {
		t.Fatalf("SolveAssuming: %v", err)
	}
	if res.Satisfiable || len(res.Core) != 1 || res.Core[0] != "ghost" {
		t.Fatalf("got sat=%v core=%v, want unsat with core [ghost]", res.Satisfiable, res.Core)
	}
	// Assuming it false is vacuous.
	res, err = sess.SolveAssuming([]Assumption{AssumeFalse("ghost")}, Options{})
	if err != nil {
		t.Fatalf("SolveAssuming: %v", err)
	}
	if !res.Satisfiable {
		t.Fatalf("assuming an underivable atom false must be vacuous")
	}
}

// TestSessionRetention re-runs a conflict-heavy query (a pigeonhole
// subproblem selected by an assumption) and checks via Stats that the
// second run reuses clauses learned by the first and needs less search.
func TestSessionRetention(t *testing.T) {
	sess := newTestSession(t, `
		pigeon(1..4). hole(1..3).
		{ esc }.
		1 { at(P,H) : hole(H) } 1 :- pigeon(P), not esc.
		:- at(P1,H), at(P2,H), P1 < P2.
	`)
	res1, err := sess.SolveAssuming([]Assumption{AssumeFalse("esc")}, Options{})
	if err != nil {
		t.Fatalf("query 1: %v", err)
	}
	if res1.Satisfiable {
		t.Fatalf("4 pigeons in 3 holes should be unsatisfiable")
	}
	if res1.Stats.LearnedClauses == 0 {
		t.Fatalf("proving the pigeonhole core should learn clauses")
	}
	res2, err := sess.SolveAssuming([]Assumption{AssumeFalse("esc")}, Options{})
	if err != nil {
		t.Fatalf("query 2: %v", err)
	}
	if res2.Satisfiable {
		t.Fatalf("repeat query should stay unsatisfiable")
	}
	if res2.Stats.LearnedReused == 0 {
		t.Fatalf("second query should start with retained learned clauses")
	}
	d1 := res1.Stats.Decisions
	d2 := res2.Stats.Decisions - res1.Stats.Decisions
	if d2 >= d1 {
		t.Fatalf("second proof took %d decisions, first took %d: learned-clause reuse should shrink the search", d2, d1)
	}
	if res2.Stats.Queries != 2 || res2.Stats.Sessions != 1 {
		t.Fatalf("counters: queries=%d sessions=%d, want 2/1", res2.Stats.Queries, res2.Stats.Sessions)
	}
	// The escape hatch is still reachable: the learned clauses must not
	// have over-constrained the program.
	res3, err := sess.SolveAssuming([]Assumption{AssumeTrue("esc")}, Options{})
	if err != nil {
		t.Fatalf("query 3: %v", err)
	}
	if !res3.Satisfiable {
		t.Fatalf("esc assignment should be satisfiable")
	}
}

// TestSessionCardinalityAssumptions: count bounds expressed as
// assumptions select exactly the models in the cardinality band.
func TestSessionCardinalityAssumptions(t *testing.T) {
	sess := newTestSession(t, `
		d(1..4).
		{ p(X) : d(X) }.
	`)
	res, err := sess.SolveAssuming(
		[]Assumption{AssumeCountGE("p", 2), AssumeCountLT("p", 3)}, Options{})
	if err != nil {
		t.Fatalf("SolveAssuming: %v", err)
	}
	if len(res.Models) != 6 {
		t.Fatalf("got %d models, want C(4,2)=6", len(res.Models))
	}
	for _, m := range res.Models {
		if n := len(m.WithPredicate("p")); n != 2 {
			t.Fatalf("model %v has %d p-atoms, want 2", m.Atoms, n)
		}
	}
	// Impossible bound: core names the count assumption.
	res, err = sess.SolveAssuming([]Assumption{AssumeCountGE("p", 5)}, Options{})
	if err != nil {
		t.Fatalf("SolveAssuming: %v", err)
	}
	if res.Satisfiable || len(res.Core) != 1 || res.Core[0] != "#count{p} >= 5" {
		t.Fatalf("got sat=%v core=%v, want unsat with core [#count{p} >= 5]", res.Satisfiable, res.Core)
	}
	// Unbounded query still sees all 16 subsets afterwards.
	res, err = sess.SolveAssuming(nil, Options{})
	if err != nil {
		t.Fatalf("SolveAssuming: %v", err)
	}
	if len(res.Models) != 16 {
		t.Fatalf("got %d models after guard retirement, want 16", len(res.Models))
	}
}

// TestSessionAddRejectsMinimize: deltas cannot introduce objectives.
func TestSessionAddRejectsMinimize(t *testing.T) {
	sess := newTestSession(t, `{ a }.`)
	delta := mustParse(t, `{ b }. #minimize { 1 : b }.`)
	if err := sess.Add(delta); err == nil || !strings.Contains(err.Error(), "#minimize") {
		t.Fatalf("Add with #minimize: err = %v, want minimize rejection", err)
	}
}

// TestSessionConcurrentUseFailsLoudly: a Session is single-goroutine;
// overlapping use must panic rather than corrupt state.
func TestSessionConcurrentUseFailsLoudly(t *testing.T) {
	sess := newTestSession(t, `{ a }.`)
	sess.acquire() // simulate a call in flight on another goroutine
	defer sess.release()
	defer func() {
		if r := recover(); r == nil {
			t.Fatalf("overlapping SolveAssuming should panic")
		}
	}()
	sess.SolveAssuming(nil, Options{}) //nolint:errcheck // must panic first
}

// TestSessionClosed: use after Close errors.
func TestSessionClosed(t *testing.T) {
	sess, err := NewSession(mustParse(t, `{ a }.`), Options{})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	sess.Close()
	if _, err := sess.SolveAssuming(nil, Options{}); err == nil {
		t.Fatalf("SolveAssuming after Close should error")
	}
	if err := sess.Add(mustParse(t, `b.`)); err == nil {
		t.Fatalf("Add after Close should error")
	}
}

// TestSessionOptimizeQueryLocal: optimization bounds from one query must
// not leak into the next (bound clauses are guard-retired).
func TestSessionOptimizeQueryLocal(t *testing.T) {
	sess := newTestSession(t, `
		d(1..3).
		{ p(X) : d(X) }.
		:- not p(1), not p(2), not p(3).
		#minimize { 1,X : p(X) }.
	`)
	res, err := sess.SolveAssuming(nil, Options{Optimize: true})
	if err != nil {
		t.Fatalf("optimize query: %v", err)
	}
	if !res.Optimal || len(res.Models) != 3 {
		t.Fatalf("got optimal=%v models=%d, want 3 optimal singletons", res.Optimal, len(res.Models))
	}
	for _, m := range res.Models {
		if len(m.Cost) != 1 || m.Cost[0].Cost != 1 {
			t.Fatalf("model %v cost %v, want cost 1", m.Atoms, m.Cost)
		}
	}
	// A plain enumeration afterwards sees the full space again.
	res, err = sess.SolveAssuming(nil, Options{})
	if err != nil {
		t.Fatalf("enumeration query: %v", err)
	}
	if len(res.Models) != 7 {
		t.Fatalf("got %d models after optimize, want 7 (bound must not leak)", len(res.Models))
	}
	// And optimization still works on the third query.
	res, err = sess.SolveAssuming([]Assumption{AssumeFalse("p(1)")}, Options{Optimize: true})
	if err != nil {
		t.Fatalf("second optimize query: %v", err)
	}
	if !res.Optimal || len(res.Models) != 2 {
		t.Fatalf("got optimal=%v models=%d, want 2", res.Optimal, len(res.Models))
	}
}

// TestSessionCancellationPrompt runs a session query on a hard
// unsatisfiable instance (pigeonhole, from budget_test.go) under a short
// wall-clock budget and requires it to return an interrupted result
// promptly after the deadline.
func TestSessionCancellationPrompt(t *testing.T) {
	sess := newTestSession(t, pigeonhole(9))
	defer sess.Close()
	bud, cancel := budget.WithTimeout(context.Background(), budget.Limits{Timeout: 100 * time.Millisecond})
	defer cancel()
	start := time.Now()
	res, err := sess.SolveAssuming(nil, Options{Budget: bud})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("session solve: %v", err)
	}
	if !res.Interrupted {
		t.Fatalf("expected an interrupted session result (elapsed %v)", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("session query took %v to unwind after a 100ms deadline", elapsed)
	}
}

// TestSessionPanicPoisons injects a panic into the engine's first query
// and requires the session to surface it as an error and refuse further
// use: a panicked engine's clause database cannot be trusted, so the
// session is poisoned, diagnosably.
func TestSessionPanicPoisons(t *testing.T) {
	inj, err := faultinject.New(1, faultinject.SiteSolverWorker+"=panic@1")
	if err != nil {
		t.Fatal(err)
	}
	bud := budget.New(faultinject.ContextWith(context.Background(), inj), budget.Limits{})
	sess, err := NewSession(mustParse(t, "{ a; b }.\n:- a, b.\n"), Options{Budget: bud})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.SolveAssuming(nil, Options{}); err == nil {
		t.Fatal("expected the injected engine panic to surface as an error")
	} else if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("error does not identify the panic: %v", err)
	}
	if _, err := sess.SolveAssuming(nil, Options{}); err == nil {
		t.Fatal("session must be poisoned after an engine panic")
	} else if !strings.Contains(err.Error(), "unusable") {
		t.Fatalf("poisoned session error not diagnosable: %v", err)
	}
}
