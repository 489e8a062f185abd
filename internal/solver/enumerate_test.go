package solver

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestSessionCountSweepVsBruteForce checks session enumeration under
// count assumptions against brute force. Each seeded program with a
// choice predicate is swept the way hazard analysis sweeps cardinality
// levels: one Session, one query per k under #count >= k and
// #count < k+1, each k queried twice so guard retirement is exercised.
// Every query must return exactly the brute-force models with k true
// atoms of the predicate, with no model repeated, and the levels must
// add up to the whole brute-force set. A MaxModels query per level must
// return that many distinct models, all from the level's set.
func TestSessionCountSweepVsBruteForce(t *testing.T) {
	const programs = 400
	rng := rand.New(rand.NewSource(20261018))
	checked := 0
	for i := 0; i < programs; i++ {
		src := randomDiffProgram(rng, i)
		pred := choicePred(src)
		if pred == "" {
			continue
		}
		checkCountSweep(t, src, pred, rng)
		checked++
	}
	if checked < 200 {
		t.Fatalf("only %d programs with a choice predicate checked, want >= 200", checked)
	}
}

// FuzzEnumerateVsBruteForce compares single-shot Solve, the
// cone-checking enumeration and the count-assumption session sweep
// against brute force on the program the seed generates, drawn from the
// differential battery or its non-tight arm.
func FuzzEnumerateVsBruteForce(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 7, 42, 20261018} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		// Four shapes of the differential battery, two of its non-tight
		// arm.
		k := rng.Intn(6)
		var src string
		if k < 4 {
			src = randomDiffProgram(rng, k)
		} else {
			src = randomNonTightProgram(rng, k)
		}
		gp, err := Ground(mustParse(t, src), nil)
		if err != nil {
			t.Fatalf("ground: %v\n%s", err, src)
		}
		res, err := Solve(gp, Options{})
		if err != nil {
			t.Fatalf("solve: %v\n%s", err, src)
		}
		want := bruteForceModels(gp)
		if got := renderModelSet(res.Models); !equalStringSets(got, want) {
			t.Fatalf("answer sets disagree\nprogram:\n%s\nsolve (%d): %v\nbrute force (%d): %v",
				src, len(got), got, len(want), want)
		}
		if got, _, _ := enumerateCheckingCone(t, gp, src); !equalStringSets(got, want) {
			t.Fatalf("checked enumeration disagrees\nprogram:\n%s\ngot (%d): %v\nbrute force (%d): %v",
				src, len(got), got, len(want), want)
		}
		if pred := choicePred(src); pred != "" {
			checkCountSweep(t, src, pred, rng)
		}
	})
}

// checkCountSweep runs the per-k count-assumption sweep over pred on a
// fresh session and compares it with brute force; rng draws the MaxModels
// caps.
func checkCountSweep(t *testing.T, src, pred string, rng *rand.Rand) {
	t.Helper()
	prog := mustParse(t, src)
	gp, err := Ground(prog, nil)
	if err != nil {
		t.Fatalf("ground: %v\n%s", err, src)
	}
	want := bruteForceModels(gp)
	byK := map[int][]string{}
	for _, m := range want {
		k := predCount(m, pred)
		byK[k] = append(byK[k], m)
	}
	maxK := 0
	for id := AtomID(1); id <= AtomID(gp.NumAtoms()); id++ {
		if !gp.IsInternal(id) && predCount(gp.AtomName(id), pred) == 1 {
			maxK++
		}
	}
	sess, err := NewSession(prog, Options{})
	if err != nil {
		t.Fatalf("NewSession: %v\n%s", err, src)
	}
	defer sess.Close()
	var union []string
	for k := 0; k <= maxK+1; k++ {
		assumps := []Assumption{AssumeCountGE(pred, k), AssumeCountLT(pred, k+1)}
		for q := 0; q < 2; q++ {
			res, err := sess.SolveAssuming(assumps, Options{})
			if err != nil {
				t.Fatalf("k=%d query %d: %v\n%s", k, q, err, src)
			}
			got := renderModelSet(res.Models)
			if !equalStringSets(got, byK[k]) {
				t.Fatalf("#count{%s}=%d query %d: answer sets disagree\nprogram:\n%s\nsession (%d): %v\nbrute force (%d): %v",
					pred, k, q, src, len(got), got, len(byK[k]), byK[k])
			}
			if q == 0 {
				union = append(union, got...)
			}
		}
		n := len(byK[k])
		if n < 2 {
			continue
		}
		limit := 1 + rng.Intn(n-1)
		res, err := sess.SolveAssuming(assumps, Options{MaxModels: limit})
		if err != nil {
			t.Fatalf("k=%d MaxModels=%d: %v\n%s", k, limit, err, src)
		}
		got := renderModelSet(res.Models)
		if len(got) != limit {
			t.Fatalf("k=%d: MaxModels=%d returned %d models\n%s", k, limit, len(got), src)
		}
		level := map[string]bool{}
		for _, m := range byK[k] {
			level[m] = true
		}
		for j, m := range got {
			if !level[m] || (j > 0 && got[j-1] == m) {
				t.Fatalf("k=%d MaxModels=%d: model %q repeated or not stable with count %d\nprogram:\n%s\ngot: %v",
					k, limit, m, k, src, got)
			}
		}
	}
	sort.Strings(union)
	if !equalStringSets(union, want) {
		t.Fatalf("count levels 0..%d union to %d models, brute force has %d\nprogram:\n%s",
			maxK+1, len(union), len(want), src)
	}
}

// choicePred names the predicate a count sweep ranges over: pick/1 for
// the first-order template, otherwise the first head of the program's
// choice rule; "" when the program has no choice rule.
func choicePred(src string) string {
	if strings.Contains(src, "pick(X)") {
		return "pick"
	}
	i := strings.Index(src, "{ ")
	if i < 0 {
		return ""
	}
	head := src[i+2:]
	return head[:strings.IndexAny(head, "; ")]
}

// predCount counts the atoms of pred in a model rendered by
// renderModelSet (atoms here take at most one argument, so commas only
// separate atoms).
func predCount(model, pred string) int {
	n := 0
	for _, a := range strings.Split(model, ",") {
		if a == pred || strings.HasPrefix(a, pred+"(") {
			n++
		}
	}
	return n
}

// TestBlockingClauseWidth pins the width of enumeration's blocking
// clauses: three free choices feed a chain of 200 derived atoms, and
// each model must be blocked by its decision literals plus the query
// guard — at most decisionLevel()+1 literals — rather than by every
// ground atom.
func TestBlockingClauseWidth(t *testing.T) {
	const src = `
		n(1..200).
		{ x(1); x(2); x(3) }.
		c(1) :- x(1).
		c(N+1) :- c(N), n(N+1).
		e(N) :- c(N), x(2), not x(3).
	`
	gp, err := Ground(mustParse(t, src), nil)
	if err != nil {
		t.Fatalf("ground: %v", err)
	}
	if gp.NumAtoms() < 400 {
		t.Fatalf("program has %d atoms, want >= 400", gp.NumAtoms())
	}

	// The enumeration loop of enumerateOn, checking each clause's width
	// at the moment the model is blocked.
	tr, err := translate(gp)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	st := tr.s
	qg := lit(st.newVar())
	st.assumps = []lit{-qg}
	models := 0
	var searchErr error
	err = st.search(func() bool {
		if searchErr = st.validateTotal(); searchErr != nil {
			return true
		}
		c := append(tr.blockingClause(), qg)
		if len(c) > st.decisionLevel()+1 {
			t.Fatalf("model %d: blocking clause has %d literals at decision level %d (%d atoms)",
				models, len(c), st.decisionLevel(), gp.NumAtoms())
		}
		models++
		tr.addSearchClause(c)
		return false
	})
	if err != nil || searchErr != nil {
		t.Fatalf("search: %v %v", err, searchErr)
	}
	if models != 8 {
		t.Fatalf("enumerated %d models, want 8", models)
	}

	// Through a real session query: every clause the query stores is a
	// blocking clause (the program is tight, so no loop clauses), carries
	// the query guard — the first variable allocated after translation —
	// and holds at most one decision per choice plus the guard.
	sess, err := NewSession(mustParse(t, src), Options{})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer sess.Close()
	st = sess.tr.s
	translated, guard := len(st.clauses), lit(st.nVars)
	res, err := sess.SolveAssuming(nil, Options{})
	if err != nil {
		t.Fatalf("SolveAssuming: %v", err)
	}
	if len(res.Models) != 8 {
		t.Fatalf("session enumerated %d models, want 8", len(res.Models))
	}
	blocking := 0
	for _, c := range st.clauses[translated:] {
		blocking++
		guarded := false
		for _, l := range c.lits {
			guarded = guarded || l == guard
		}
		if !guarded {
			t.Fatalf("stored clause %v lacks the query guard %d", c.lits, guard)
		}
		if len(c.lits) > 4 {
			t.Fatalf("stored blocking clause has %d literals, want <= 4 (3 choices + guard)", len(c.lits))
		}
	}
	if blocking == 0 {
		t.Fatalf("no blocking clause stored")
	}
}
