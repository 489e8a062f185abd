package solver

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"cpsrisk/internal/logic"
)

// solve is a test helper: parse, ground, solve, and render each model as a
// sorted comma-joined atom string. The grounders are compared on src
// first.
func solve(t *testing.T, src string, opts Options) []string {
	t.Helper()
	mustParse(t, src)
	res, err := SolveSource(src, opts)
	if err != nil {
		t.Fatalf("SolveSource: %v", err)
	}
	return renderModels(res)
}

// checkedSolveSource is SolveSource after comparing the compiled and the
// reference grounder on src.
func checkedSolveSource(t *testing.T, src string, opts Options) (*Result, error) {
	t.Helper()
	mustParse(t, src)
	return SolveSource(src, opts)
}

func renderModels(res *Result) []string {
	out := make([]string, 0, len(res.Models))
	for _, m := range res.Models {
		out = append(out, strings.Join(m.Atoms, ","))
	}
	sort.Strings(out)
	return out
}

func wantModels(t *testing.T, got []string, want ...string) {
	t.Helper()
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("model count = %d, want %d\ngot:  %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("model[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestFactsOnly(t *testing.T) {
	got := solve(t, `a. b(1). b(2).`, Options{})
	wantModels(t, got, "a,b(1),b(2)")
}

func TestStratifiedDeduction(t *testing.T) {
	got := solve(t, `
		edge(a,b). edge(b,c). edge(c,d).
		reach(a).
		reach(Y) :- reach(X), edge(X,Y).
	`, Options{})
	wantModels(t, got, "edge(a,b),edge(b,c),edge(c,d),reach(a),reach(b),reach(c),reach(d)")
}

func TestNegationDefault(t *testing.T) {
	// Classic: bird flies unless abnormal.
	got := solve(t, `
		bird(tweety). bird(ostrich).
		abnormal(ostrich).
		flies(X) :- bird(X), not abnormal(X).
	`, Options{})
	wantModels(t, got, "abnormal(ostrich),bird(ostrich),bird(tweety),flies(tweety)")
}

func TestEvenLoopTwoModels(t *testing.T) {
	// a :- not b. b :- not a.  => two stable models.
	got := solve(t, `
		a :- not b.
		b :- not a.
	`, Options{})
	wantModels(t, got, "a", "b")
}

func TestOddLoopNoModel(t *testing.T) {
	// a :- not a.  => no stable model.
	got := solve(t, `a :- not a.`, Options{})
	wantModels(t, got)
}

func TestPositiveLoopUnfounded(t *testing.T) {
	// a :- b. b :- a.  => only the empty model; {a,b} is unfounded.
	got := solve(t, `
		a :- b.
		b :- a.
	`, Options{})
	wantModels(t, got, "")
}

func TestPositiveLoopWithExternalSupport(t *testing.T) {
	got := solve(t, `
		a :- b.
		b :- a.
		b :- c.
		c.
	`, Options{})
	wantModels(t, got, "a,b,c")
}

func TestLoopThroughChoice(t *testing.T) {
	// The loop {a,b} must not be self-supporting even when a choice atom
	// feeds it.
	got := solve(t, `
		{ c }.
		a :- b.
		b :- a.
		b :- c.
	`, Options{})
	wantModels(t, got, "", "a,b,c")
}

func TestConstraintPrunes(t *testing.T) {
	got := solve(t, `
		a :- not b.
		b :- not a.
		:- b.
	`, Options{})
	wantModels(t, got, "a")
}

func TestUnsatConstraint(t *testing.T) {
	res, err := checkedSolveSource(t, `a. :- a.`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfiable || len(res.Models) != 0 {
		t.Fatalf("expected UNSAT, got %v", res.Models)
	}
}

func TestChoiceFree(t *testing.T) {
	got := solve(t, `{ a }. { b }.`, Options{})
	wantModels(t, got, "", "a", "a,b", "b")
}

func TestChoiceBounds(t *testing.T) {
	got := solve(t, `1 { a; b } 1.`, Options{})
	wantModels(t, got, "a", "b")
}

func TestChoiceExactlyTwoOfThree(t *testing.T) {
	got := solve(t, `2 { a; b; c } 2.`, Options{})
	wantModels(t, got, "a,b", "a,c", "b,c")
}

func TestChoiceLowerOnly(t *testing.T) {
	got := solve(t, `2 { a; b; c }.`, Options{})
	wantModels(t, got, "a,b", "a,c", "b,c", "a,b,c")
}

func TestChoiceUpperOnly(t *testing.T) {
	got := solve(t, `{ a; b } 1.`, Options{})
	wantModels(t, got, "", "a", "b")
}

func TestChoiceConditional(t *testing.T) {
	got := solve(t, `
		candidate(f1). candidate(f2).
		{ active(F) : candidate(F) }.
	`, Options{})
	wantModels(t, got,
		"candidate(f1),candidate(f2)",
		"active(f1),candidate(f1),candidate(f2)",
		"active(f2),candidate(f1),candidate(f2)",
		"active(f1),active(f2),candidate(f1),candidate(f2)")
}

func TestChoiceConditionDerivedLate(t *testing.T) {
	// The condition atom is derived through a rule chain, exercising the
	// fixpoint re-expansion of choice elements.
	got := solve(t, `
		seed(f1).
		candidate(X) :- seed(X).
		{ active(F) : candidate(F) }.
	`, Options{})
	wantModels(t, got,
		"candidate(f1),seed(f1)",
		"active(f1),candidate(f1),seed(f1)")
}

func TestChoiceWithBodyGuard(t *testing.T) {
	got := solve(t, `
		go.
		1 { pick(a); pick(b) } 1 :- go.
	`, Options{})
	wantModels(t, got, "go,pick(a)", "go,pick(b)")
}

func TestChoiceBodyFalse(t *testing.T) {
	got := solve(t, `
		1 { pick(a); pick(b) } 1 :- go.
	`, Options{})
	// go is not derivable, so the choice never fires; pick atoms stay false.
	wantModels(t, got, "")
}

func TestGraphColoring(t *testing.T) {
	// Triangle with 3 colors: 6 proper colorings.
	src := `
		node(1). node(2). node(3).
		edge(1,2). edge(2,3). edge(1,3).
		col(r). col(g). col(b).
		1 { color(N,C) : col(C) } 1 :- node(N).
		:- edge(X,Y), color(X,C), color(Y,C).
	`
	got := solve(t, src, Options{})
	if len(got) != 6 {
		t.Fatalf("triangle 3-coloring count = %d, want 6\n%v", len(got), got)
	}
	// And with 2 colors it is impossible.
	src2 := strings.Replace(src, "col(r). col(g). col(b).", "col(r). col(g).", 1)
	got2 := solve(t, src2, Options{})
	if len(got2) != 0 {
		t.Fatalf("triangle 2-coloring should be UNSAT, got %d models", len(got2))
	}
}

func TestIndependentSetCount(t *testing.T) {
	// Path a-b-c: independent sets: {}, {a}, {b}, {c}, {a,c} = 5.
	got := solve(t, `
		node(a). node(b). node(c).
		edge(a,b). edge(b,c).
		{ in(N) : node(N) }.
		:- edge(X,Y), in(X), in(Y).
	`, Options{})
	if len(got) != 5 {
		t.Fatalf("independent sets = %d, want 5: %v", len(got), got)
	}
}

func TestArithmeticInRules(t *testing.T) {
	got := solve(t, `
		n(1). n(2). n(3).
		double(X, Y) :- n(X), Y = X * 2.
		big(X) :- n(X), X >= 2.
	`, Options{})
	wantModels(t, got, "big(2),big(3),double(1,2),double(2,4),double(3,6),n(1),n(2),n(3)")
}

func TestIntervalFacts(t *testing.T) {
	got := solve(t, `
		time(0..3).
		last(T) :- time(T), not time(T+1).
	`, Options{})
	wantModels(t, got, "last(3),time(0),time(1),time(2),time(3)")
}

func TestIntervalPairFacts(t *testing.T) {
	res, err := checkedSolveSource(t, `grid(1..2, 1..2).`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) != 1 || len(res.Models[0].Atoms) != 4 {
		t.Fatalf("grid expansion = %v", res.Models)
	}
}

func TestMaxModelsLimit(t *testing.T) {
	got := solve(t, `{ a }. { b }. { c }.`, Options{MaxModels: 3})
	if len(got) != 3 {
		t.Fatalf("MaxModels: got %d", len(got))
	}
}

func TestOptimizeSimple(t *testing.T) {
	res, err := checkedSolveSource(t, `
		item(a, 3). item(b, 5). item(c, 2).
		1 { pick(X) : item(X, W) }.
		#minimize { W,X : pick(X), item(X, W) }.
	`, Options{Optimize: true, MaxModels: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal {
		t.Fatal("expected optimal result")
	}
	got := renderModels(res)
	wantModels(t, got, "item(a,3),item(b,5),item(c,2),pick(c)")
	if res.Models[0].Cost[0].Cost != 2 {
		t.Errorf("cost = %+v, want 2", res.Models[0].Cost)
	}
}

func TestOptimizeCoversAll(t *testing.T) {
	// Weighted vertex cover of path a-b-c with weights a=1,b=5,c=1:
	// optimal cover is {a,c} with cost 2.
	res, err := checkedSolveSource(t, `
		node(a,1). node(b,5). node(c,1).
		edge(a,b). edge(b,c).
		{ in(N) : node(N,W) }.
		:- edge(X,Y), not in(X), not in(Y).
		#minimize { W,N : in(N), node(N,W) }.
	`, Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) != 1 {
		t.Fatalf("models = %v", renderModels(res))
	}
	m := res.Models[0]
	if !m.Contains("in(a)") || !m.Contains("in(c)") || m.Contains("in(b)") {
		t.Errorf("optimal cover = %v", m.Atoms)
	}
	if m.Cost[0].Cost != 2 {
		t.Errorf("cost = %+v", m.Cost)
	}
}

func TestOptimizeEnumeratesAllOptima(t *testing.T) {
	// Two symmetric optima.
	res, err := checkedSolveSource(t, `
		1 { pick(a); pick(b) } 1.
		cost(a, 4). cost(b, 4).
		#minimize { C,X : pick(X), cost(X, C) }.
	`, Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) != 2 {
		t.Fatalf("optima = %v", renderModels(res))
	}
}

func TestOptimizeMultiPriority(t *testing.T) {
	// Higher priority dominates: first minimize violations (prio 2), then
	// cost (prio 1).
	res, err := checkedSolveSource(t, `
		1 { plan(cheap); plan(safe) } 1.
		violation(1) :- plan(cheap).
		price(cheap, 1). price(safe, 10).
		#minimize { 1@2,V : violation(V) }.
		#minimize { P@1,X : plan(X), price(X, P) }.
	`, Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) != 1 || !res.Models[0].Contains("plan(safe)") {
		t.Fatalf("models = %v", renderModels(res))
	}
	costs := res.Models[0].Cost
	if len(costs) != 2 || costs[0].Priority != 2 || costs[0].Cost != 0 || costs[1].Cost != 10 {
		t.Errorf("costs = %+v", costs)
	}
}

func TestOptimizeWithMaximize(t *testing.T) {
	res, err := checkedSolveSource(t, `
		item(a, 3). item(b, 5).
		{ pick(X) : item(X, V) } 1.
		#maximize { V,X : pick(X), item(X, V) }.
	`, Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) != 1 || !res.Models[0].Contains("pick(b)") {
		t.Fatalf("maximize models = %v", renderModels(res))
	}
}

func TestWeakConstraint(t *testing.T) {
	res, err := checkedSolveSource(t, `
		1 { pick(a); pick(b) } 1.
		:~ pick(a). [3@1, a]
		:~ pick(b). [1@1, b]
	`, Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) != 1 || !res.Models[0].Contains("pick(b)") {
		t.Fatalf("weak constraint models = %v", renderModels(res))
	}
}

func TestMinimizeTupleDeduplication(t *testing.T) {
	// Two minimize elements with the same (weight, tuple) must count once.
	res, err := checkedSolveSource(t, `
		a. b.
		hit :- a.
		hit :- b.
		#minimize { 5,t : a ; 5,t : b }.
	`, Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) != 1 {
		t.Fatalf("models = %v", renderModels(res))
	}
	if got := res.Models[0].Cost[0].Cost; got != 5 {
		t.Errorf("deduplicated cost = %d, want 5", got)
	}
}

func TestPaperListing1FaultActivation(t *testing.T) {
	// The paper's Listing 1 shape: a fault is potential when no mitigation
	// is active for it on the component.
	got := solve(t, `
		component(ws).
		fault(malware).
		mitigation(malware, endpoint).
		potential_fault(C, F) :- component(C), fault(F),
			mitigation(F, M), not active_mitigation(C, M).
	`, Options{})
	wantModels(t, got,
		"component(ws),fault(malware),mitigation(malware,endpoint),potential_fault(ws,malware)")
}

func TestPaperListing1WithMitigation(t *testing.T) {
	got := solve(t, `
		component(ws).
		fault(malware).
		mitigation(malware, endpoint).
		active_mitigation(ws, endpoint).
		potential_fault(C, F) :- component(C), fault(F),
			mitigation(F, M), not active_mitigation(C, M).
	`, Options{})
	if len(got) != 1 || strings.Contains(got[0], "potential_fault") {
		t.Fatalf("mitigated fault must not be potential: %v", got)
	}
}

func TestHamiltonianCycleSmall(t *testing.T) {
	// Directed 3-cycle has exactly one Hamiltonian cycle. The reachability
	// part exercises loop formulas on derived predicates under choices.
	got := solve(t, `
		node(a). node(b). node(c).
		arc(a,b). arc(b,c). arc(c,a). arc(a,c).
		1 { in(X,Y) : arc(X,Y) } 1 :- node(X).
		:- in(X,Y), in(Z,Y), X != Z.
		reach(a).
		reach(Y) :- reach(X), in(X,Y).
		:- node(X), not reach(X).
	`, Options{})
	if len(got) != 1 {
		t.Fatalf("hamiltonian cycles = %d: %v", len(got), got)
	}
	if !strings.Contains(got[0], "in(a,b)") || !strings.Contains(got[0], "in(b,c)") || !strings.Contains(got[0], "in(c,a)") {
		t.Errorf("cycle = %v", got[0])
	}
}

func TestStableModelsAreFixpoints(t *testing.T) {
	// Property-style check across a battery of programs: every returned
	// model equals the least model of its reduct.
	programs := []string{
		`a :- not b. b :- not a.`,
		`{ a; b; c }.`,
		`p(1..3). q(X) :- p(X), not r(X). { r(X) : p(X) }.`,
		`a :- b. b :- a. b :- c. { c }.`,
		`1 { x; y } 1. z :- x. z :- y.`,
	}
	for pi, src := range programs {
		prog, err := logic.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		checkGroundersAgree(t, prog)
		gp, err := Ground(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(gp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for mi, m := range res.Models {
			if !isStableModel(gp, m) {
				t.Errorf("program %d model %d (%v) is not a reduct fixpoint", pi, mi, m.Atoms)
			}
		}
		// And no duplicates.
		seen := map[string]bool{}
		for _, m := range res.Models {
			key := strings.Join(m.Atoms, ",")
			if seen[key] {
				t.Errorf("program %d: duplicate model %q", pi, key)
			}
			seen[key] = true
		}
	}
}

// isStableModel independently checks stability: compute the least model of
// the reduct of gp w.r.t. the model and compare.
func isStableModel(gp *GroundProgram, m Model) bool {
	inModel := func(id AtomID) bool {
		name := gp.AtomName(id)
		if gp.IsInternal(id) {
			// Internal guard atoms: derive truth from their defining rules
			// during the fixpoint below; treat as "in model" when derived.
			return true // participation handled conservatively below
		}
		return m.Contains(name)
	}
	_ = inModel
	// Reconstruct the full truth assignment over atoms: non-internal from
	// the model; internal atoms from their defining basic rules, iterated.
	truth := make([]bool, gp.NumAtoms()+1)
	for id := AtomID(1); id <= AtomID(gp.NumAtoms()); id++ {
		if !gp.IsInternal(id) {
			truth[id] = m.Contains(gp.AtomName(id))
		}
	}
	for changed := true; changed; {
		changed = false
		for _, r := range gp.Rules {
			if r.Kind != KindBasic || r.Head == 0 || !gp.IsInternal(r.Head) || truth[r.Head] {
				continue
			}
			ok := true
			for _, p := range r.Pos {
				if !truth[p] {
					ok = false
					break
				}
			}
			for _, n := range r.Neg {
				if truth[n] {
					ok = false
					break
				}
			}
			if ok {
				truth[r.Head] = true
				changed = true
			}
		}
	}
	// Integrity constraints must not fire under the model truth.
	for _, r := range gp.Rules {
		if r.Kind != KindBasic || r.Head != 0 {
			continue
		}
		fires := true
		for _, p := range r.Pos {
			if !truth[p] {
				fires = false
				break
			}
		}
		for _, n := range r.Neg {
			if truth[n] {
				fires = false
				break
			}
		}
		if fires {
			return false
		}
	}

	// Cardinality bounds of choice rules must hold under the model truth.
	for _, r := range gp.Rules {
		if r.Kind != KindChoice {
			continue
		}
		bodyOK := true
		for _, p := range r.Pos {
			if !truth[p] {
				bodyOK = false
				break
			}
		}
		for _, n := range r.Neg {
			if truth[n] {
				bodyOK = false
				break
			}
		}
		if !bodyOK {
			continue
		}
		count := 0
		for i, h := range r.Heads {
			condOK := r.Conds[i] == 0 || truth[r.Conds[i]]
			if condOK && truth[h] {
				count++
			}
		}
		if r.Lower != logic.Unbounded && count < r.Lower {
			return false
		}
		if r.Upper != logic.Unbounded && count > r.Upper {
			return false
		}
	}

	// Least model of the reduct.
	derived := make([]bool, gp.NumAtoms()+1)
	for changed := true; changed; {
		changed = false
		for _, r := range gp.Rules {
			negOK := true
			for _, n := range r.Neg {
				if truth[n] {
					negOK = false
					break
				}
			}
			if !negOK {
				continue
			}
			posOK := true
			for _, p := range r.Pos {
				if !derived[p] {
					posOK = false
					break
				}
			}
			if !posOK {
				continue
			}
			switch r.Kind {
			case KindBasic:
				if r.Head != 0 && !derived[r.Head] {
					derived[r.Head] = true
					changed = true
				}
			case KindChoice:
				for i, h := range r.Heads {
					condOK := r.Conds[i] == 0 || derived[r.Conds[i]]
					if condOK && truth[h] && !derived[h] {
						derived[h] = true
						changed = true
					}
				}
			}
		}
	}
	for id := AtomID(1); id <= AtomID(gp.NumAtoms()); id++ {
		if truth[id] != derived[id] {
			return false
		}
	}
	return true
}

func TestGroundProgramString(t *testing.T) {
	prog := logic.MustParse(`
		a. b :- a, not c. { d } 1.
	`)
	gp, err := Ground(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := gp.String()
	for _, want := range []string{"a.", "b :- a."} {
		if !strings.Contains(s, want) {
			t.Errorf("ground string missing %q:\n%s", want, s)
		}
	}
	// "not c" must be simplified away: c is never derivable.
	if strings.Contains(s, "not c") {
		t.Errorf("underivable negative literal not simplified:\n%s", s)
	}
}

func TestSolverStats(t *testing.T) {
	res, err := checkedSolveSource(t, `{ a; b; c }. :- a, b.`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Atoms == 0 || res.Stats.Vars == 0 || res.Stats.Clauses == 0 {
		t.Errorf("stats not filled: %+v", res.Stats)
	}
	if res.Stats.Decisions == 0 {
		t.Errorf("expected some decisions: %+v", res.Stats)
	}
}

func TestLargeStratifiedChain(t *testing.T) {
	// A long deduction chain exercises semi-naive grounding.
	var sb strings.Builder
	sb.WriteString("p(0).\n")
	sb.WriteString("p(Y) :- p(X), Y = X + 1, Y <= 200.\n")
	res, err := checkedSolveSource(t, sb.String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) != 1 || len(res.Models[0].Atoms) != 201 {
		t.Fatalf("chain length = %d", len(res.Models[0].Atoms))
	}
}

func TestModelWithPredicate(t *testing.T) {
	res, err := checkedSolveSource(t, `p(1). p(2). pq(3). q.`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Models[0]
	if got := m.WithPredicate("p"); len(got) != 2 {
		t.Errorf("WithPredicate(p) = %v", got)
	}
	if got := m.WithPredicate("q"); len(got) != 1 || got[0] != "q" {
		t.Errorf("WithPredicate(q) = %v", got)
	}
}

func TestNoModelsForContradictoryFacts(t *testing.T) {
	res, err := checkedSolveSource(t, `a. b. :- a, b.`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfiable {
		t.Fatal("expected UNSAT")
	}
}

func TestQueensFour(t *testing.T) {
	// 4-queens has 2 solutions.
	src := `
		row(1..4). colnum(1..4).
		1 { q(R,C) : colnum(C) } 1 :- row(R).
		:- q(R1,C), q(R2,C), R1 < R2.
		:- q(R1,C1), q(R2,C2), R1 < R2, C2 = C1 + (R2 - R1).
		:- q(R1,C1), q(R2,C2), R1 < R2, C2 = C1 - (R2 - R1).
	`
	got := solve(t, src, Options{})
	if len(got) != 2 {
		t.Fatalf("4-queens solutions = %d, want 2\n%s", len(got), strings.Join(got, "\n"))
	}
}

func BenchmarkSolveColoring(b *testing.B) {
	// Ring of n nodes, 3 colors, count one model.
	for _, n := range []int{10, 20, 40} {
		b.Run(fmt.Sprintf("ring%d", n), func(b *testing.B) {
			var sb strings.Builder
			for i := 0; i < n; i++ {
				fmt.Fprintf(&sb, "node(%d). edge(%d,%d).\n", i, i, (i+1)%n)
			}
			sb.WriteString("col(r). col(g). col(b).\n")
			sb.WriteString("1 { color(N,C) : col(C) } 1 :- node(N).\n")
			sb.WriteString(":- edge(X,Y), color(X,C), color(Y,C).\n")
			src := sb.String()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := SolveSource(src, Options{MaxModels: 1})
				if err != nil || !res.Satisfiable {
					b.Fatalf("err=%v sat=%v", err, res != nil && res.Satisfiable)
				}
			}
		})
	}
}

func BenchmarkGroundChain(b *testing.B) {
	src := "p(0).\np(Y) :- p(X), Y = X + 1, Y <= 500.\n"
	prog := logic.MustParse(src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Ground(prog, nil); err != nil {
			b.Fatal(err)
		}
	}
}
