package solver

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"cpsrisk/internal/logic"
)

// TestDifferentialCDCLvsBruteForce cross-checks the CDCL pipeline against
// a brute-force stable-model enumerator on randomly generated small
// programs covering facts, normal rules with negation, integrity
// constraints, and choice rules (plus a first-order template so the
// grounder join/dedup path is exercised too). The generator is seeded,
// so every run checks the same program battery.
//
// The optimize arm gives a seeded share of the programs #minimize
// statements (mixed-sign weights, several priorities, duplicate tuples)
// and checks the lexicographic optimum and the full optimal-model set
// computed by brute force against single-shot Solve and a Session query.
func TestDifferentialCDCLvsBruteForce(t *testing.T) {
	const programs = 600
	const maxBruteAtoms = 14

	rng := rand.New(rand.NewSource(20260806))
	// A separate stream, so the base battery stays the same programs.
	optRng := rand.New(rand.NewSource(20261017))
	checked, optimized := 0, 0
	for i := 0; i < programs; i++ {
		src := randomDiffProgram(rng, i)
		prog, err := logic.Parse(src)
		if err != nil {
			t.Fatalf("program %d: generated unparsable source:\n%s\n%v", i, src, err)
		}
		gp, err := Ground(prog, nil)
		if err != nil {
			t.Fatalf("program %d: ground: %v\n%s", i, err, src)
		}
		if gp.NumAtoms() > maxBruteAtoms {
			t.Fatalf("program %d: %d ground atoms exceeds brute-force budget:\n%s", i, gp.NumAtoms(), src)
		}
		res, err := Solve(gp, Options{})
		if err != nil {
			t.Fatalf("program %d: solve: %v\n%s", i, err, src)
		}
		got := renderModelSet(res.Models)
		want := bruteForceModels(gp)
		if !equalStringSets(got, want) {
			t.Fatalf("program %d: answer sets disagree\nprogram:\n%s\nCDCL (%d): %v\nbrute force (%d): %v",
				i, src, len(got), got, len(want), want)
		}
		checked++
		if optRng.Intn(3) == 0 {
			checkOptimizeArm(t, i, src+randomMinimize(optRng, i))
			optimized++
		}
	}
	if checked < 500 {
		t.Fatalf("only %d programs checked, want >= 500", checked)
	}
	if optimized < 150 {
		t.Fatalf("only %d programs optimized, want >= 150", optimized)
	}
}

// randomMinimize builds one or two #minimize statements over the
// program's visible atoms: weights in -3..5 (zero and negative
// included), priorities 0..2, and tuples drawn from a tiny pool so equal
// (weight, priority, tuple) elements collapse into one counted guard.
func randomMinimize(rng *rand.Rand, i int) string {
	conds := []string{"a", "b", "c", "d", "e", "not a", "b, not c"}
	if i%4 == 3 {
		conds = []string{"pick(1)", "pick(2)", "q(1)", "not q(2)", "pick(X)", "q(X)"}
	}
	tuples := []string{"t", "u", "X"}
	stmts := 1 + rng.Intn(2)
	if i%4 == 3 {
		stmts = 1 // X-tuples ground to one guard per domain element
	}
	var sb strings.Builder
	for s := stmts; s > 0; s-- {
		var elems []string
		for e := 1 + rng.Intn(3); e > 0; e-- {
			cond := conds[rng.Intn(len(conds))]
			tuple := tuples[rng.Intn(2)]
			if strings.Contains(cond, "X") {
				tuple = tuples[rng.Intn(3)]
			}
			elems = append(elems, fmt.Sprintf("%d@%d,%s : %s", rng.Intn(9)-3, rng.Intn(3), tuple, cond))
		}
		fmt.Fprintf(&sb, "#minimize { %s }.\n", strings.Join(elems, "; "))
	}
	return sb.String()
}

// checkOptimizeArm compares the brute-force lexicographic optimum and
// optimal-model set of src against every optimizing entry point.
func checkOptimizeArm(t *testing.T, i int, src string) {
	t.Helper()
	const maxBruteAtoms = 18
	prog, err := logic.Parse(src)
	if err != nil {
		t.Fatalf("program %d: generated unparsable source:\n%s\n%v", i, src, err)
	}
	gp, err := Ground(prog, nil)
	if err != nil {
		t.Fatalf("program %d: ground: %v\n%s", i, err, src)
	}
	if gp.NumAtoms() > maxBruteAtoms {
		t.Fatalf("program %d: %d ground atoms exceeds brute-force budget:\n%s", i, gp.NumAtoms(), src)
	}
	want, wantCost := bruteForceOptimal(gp)
	// Elements whose condition can never hold ground away; a program left
	// with no minimize statement is solved as a plain enumeration.
	wantOptimal := len(want) > 0 && len(gp.Minimize) > 0

	check := func(arm string, res *Result) {
		t.Helper()
		got := renderModelSet(res.Models)
		if !equalStringSets(got, want) {
			t.Fatalf("program %d (%s): optimal model sets disagree\nprogram:\n%s\nCDCL (%d): %v\nbrute force (%d): %v",
				i, arm, src, len(got), got, len(want), want)
		}
		if res.Satisfiable != (len(want) > 0) || res.Optimal != wantOptimal {
			t.Fatalf("program %d (%s): Satisfiable=%v Optimal=%v, want %v/%v\n%s",
				i, arm, res.Satisfiable, res.Optimal, len(want) > 0, wantOptimal, src)
		}
		for _, m := range res.Models {
			if fmt.Sprint(m.Cost) != fmt.Sprint(wantCost) {
				t.Fatalf("program %d (%s): model cost %v, brute-force optimum %v\n%s", i, arm, m.Cost, wantCost, src)
			}
		}
	}
	res, err := Solve(gp, Options{Optimize: true})
	if err != nil {
		t.Fatalf("program %d: solve: %v\n%s", i, err, src)
	}
	check("Solve", res)
	sess, err := NewSession(prog, Options{})
	if err != nil {
		t.Fatalf("program %d: NewSession: %v\n%s", i, err, src)
	}
	res, err = sess.SolveAssuming(nil, Options{Optimize: true})
	sess.Close()
	if err != nil {
		t.Fatalf("program %d: SolveAssuming: %v\n%s", i, err, src)
	}
	check("Session", res)
}

// bruteForceOptimal enumerates the stable truth assignments like
// bruteForceModels and keeps those whose cost vector (one sum per
// priority over the true minimize guards, highest priority first) is
// lexicographically least. It returns the optimal models rendered like
// renderModelSet and the optimal cost vector.
func bruteForceOptimal(gp *GroundProgram) ([]string, []PriorityCost) {
	var prios []int
	seen := map[int]bool{}
	for _, m := range gp.Minimize {
		if !seen[m.Priority] {
			seen[m.Priority] = true
			prios = append(prios, m.Priority)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(prios)))
	n := gp.NumAtoms()
	truth := make([]bool, n+1)
	derived := make([]bool, n+1)
	var best []PriorityCost
	var out []string
	for mask := 0; mask < 1<<n; mask++ {
		for id := 1; id <= n; id++ {
			truth[id] = mask&(1<<(id-1)) != 0
		}
		if !isStableTruth(gp, truth, derived) {
			continue
		}
		cost := make([]PriorityCost, len(prios))
		for k, p := range prios {
			cost[k].Priority = p
			for _, m := range gp.Minimize {
				if m.Priority == p && truth[m.Guard] {
					cost[k].Cost += m.Weight
				}
			}
		}
		cmp := -1 // against no model yet, every model is better
		if best != nil {
			cmp = 0
			for k := 0; k < len(cost) && cmp == 0; k++ {
				switch {
				case cost[k].Cost < best[k].Cost:
					cmp = -1
				case cost[k].Cost > best[k].Cost:
					cmp = 1
				}
			}
		}
		if cmp > 0 {
			continue
		}
		if cmp < 0 {
			best, out = cost, nil
		}
		atoms := make([]string, 0, n)
		for id := AtomID(1); id <= AtomID(n); id++ {
			if truth[id] && !gp.IsInternal(id) {
				atoms = append(atoms, gp.AtomName(id))
			}
		}
		sort.Strings(atoms)
		out = append(out, strings.Join(atoms, ","))
	}
	sort.Strings(out)
	return out, best
}

// renderModelSet renders each model as its sorted atom list joined by
// commas, sorted overall for set comparison.
func renderModelSet(models []Model) []string {
	out := make([]string, 0, len(models))
	for _, m := range models {
		out = append(out, strings.Join(m.Atoms, ","))
	}
	sort.Strings(out)
	return out
}

func equalStringSets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// bruteForceModels enumerates every truth assignment over all ground
// atoms (internal ones included) and keeps the stable ones, rendered
// like renderModelSet.
func bruteForceModels(gp *GroundProgram) []string {
	n := gp.NumAtoms()
	truth := make([]bool, n+1)
	derived := make([]bool, n+1)
	var out []string
	for mask := 0; mask < 1<<n; mask++ {
		for id := 1; id <= n; id++ {
			truth[id] = mask&(1<<(id-1)) != 0
		}
		if !isStableTruth(gp, truth, derived) {
			continue
		}
		atoms := make([]string, 0, n)
		for id := AtomID(1); id <= AtomID(n); id++ {
			if truth[id] && !gp.IsInternal(id) {
				atoms = append(atoms, gp.AtomName(id))
			}
		}
		sort.Strings(atoms)
		out = append(out, strings.Join(atoms, ","))
	}
	sort.Strings(out)
	// Distinct truth assignments can project to the same visible model
	// only through internal atoms, which are functionally determined —
	// no dedup needed; keep duplicates so a solver bug that splits a
	// model would be caught as a count mismatch.
	return out
}

// isStableTruth checks the stable-model conditions for a full truth
// assignment: no firing constraint, choice bounds respected, and the
// least model of the reduct equal to the assignment. derived is caller
// scratch of size NumAtoms+1.
func isStableTruth(gp *GroundProgram, truth, derived []bool) bool {
	bodyHolds := func(pos, neg []AtomID) bool {
		for _, p := range pos {
			if !truth[p] {
				return false
			}
		}
		for _, x := range neg {
			if truth[x] {
				return false
			}
		}
		return true
	}
	for _, r := range gp.Rules {
		switch r.Kind {
		case KindBasic:
			if r.Head == 0 && bodyHolds(r.Pos, r.Neg) {
				return false // constraint fires
			}
		case KindChoice:
			if !bodyHolds(r.Pos, r.Neg) {
				continue
			}
			count := 0
			for i, h := range r.Heads {
				if (r.Conds[i] == 0 || truth[r.Conds[i]]) && truth[h] {
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
	}

	// Least model of the reduct w.r.t. truth.
	for i := range derived {
		derived[i] = false
	}
	for changed := true; changed; {
		changed = false
		for _, r := range gp.Rules {
			negOK := true
			for _, x := range r.Neg {
				if truth[x] {
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
	for id := 1; id <= gp.NumAtoms(); id++ {
		if truth[id] != derived[id] {
			return false
		}
	}
	return true
}

// randomProgram generates one small random program. Three out of four
// programs are propositional over a 5-atom pool; every fourth uses a
// first-order template over a tiny domain so variable joins, arithmetic
// and choice-element conditions go through the grounder.
func randomDiffProgram(rng *rand.Rand, i int) string {
	if i%4 == 3 {
		return randomFirstOrderProgram(rng)
	}
	atoms := []string{"a", "b", "c", "d", "e"}
	pick := func() string { return atoms[rng.Intn(len(atoms))] }
	var sb strings.Builder

	// Facts.
	for k := rng.Intn(3); k > 0; k-- {
		fmt.Fprintf(&sb, "%s.\n", pick())
	}
	// Normal rules: head :- [pos...], [not neg...].
	for k := 1 + rng.Intn(4); k > 0; k-- {
		head := pick()
		var body []string
		for p := rng.Intn(3); p > 0; p-- {
			body = append(body, pick())
		}
		for nn := rng.Intn(3); nn > 0; nn-- {
			body = append(body, "not "+pick())
		}
		if len(body) == 0 {
			fmt.Fprintf(&sb, "%s.\n", head)
			continue
		}
		fmt.Fprintf(&sb, "%s :- %s.\n", head, strings.Join(body, ", "))
	}
	// Choice rule with optional bounds and optional body.
	if rng.Intn(2) == 0 {
		h1, h2 := pick(), pick()
		elems := h1
		if h2 != h1 {
			elems = h1 + "; " + h2
		}
		lower, upper := "", ""
		if rng.Intn(2) == 0 {
			lower = fmt.Sprintf("%d ", rng.Intn(2))
		}
		if rng.Intn(2) == 0 {
			upper = fmt.Sprintf(" %d", 1+rng.Intn(2))
		}
		body := ""
		if rng.Intn(3) == 0 {
			body = " :- not " + pick()
		}
		fmt.Fprintf(&sb, "%s{ %s }%s%s.\n", lower, elems, upper, body)
	}
	// Constraint.
	if rng.Intn(2) == 0 {
		var body []string
		for p := 1 + rng.Intn(2); p > 0; p-- {
			if rng.Intn(2) == 0 {
				body = append(body, "not "+pick())
			} else {
				body = append(body, pick())
			}
		}
		fmt.Fprintf(&sb, ":- %s.\n", strings.Join(body, ", "))
	}
	return sb.String()
}

// randomFirstOrderProgram builds a template instance over a domain of
// 2-3 elements: a choice over the domain, a derived predicate with
// negation, sometimes arithmetic or a constraint.
func randomFirstOrderProgram(rng *rand.Rand) string {
	n := 2 + rng.Intn(2)
	var sb strings.Builder
	fmt.Fprintf(&sb, "d(1..%d).\n", n)
	fmt.Fprintf(&sb, "{ pick(X) : d(X) }.\n")
	switch rng.Intn(3) {
	case 0:
		sb.WriteString("q(X) :- d(X), not pick(X).\n")
	case 1:
		fmt.Fprintf(&sb, "q(X) :- pick(X), X < %d.\n", n)
	default:
		sb.WriteString("q(Y) :- pick(X), Y = X + 1, d(Y).\n")
	}
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&sb, ":- pick(%d).\n", 1+rng.Intn(n))
	}
	if rng.Intn(2) == 0 {
		sb.WriteString(":- not pick(1), not q(1).\n")
	}
	return sb.String()
}

// TestDifferentialIncrementalVsSingleShot cross-checks multi-shot
// Sessions against fresh single-shot solves: each seeded program is split
// into a random base plus 1-3 deltas, fed to one Session through
// Add/SolveAssuming sequences with randomized atom assumptions, and after
// every step the answer sets must match a single-shot SolveProgram call
// on the equivalent flattened program (assumptions encoded as integrity
// constraints: a=true ≡ ":- not a."; a=false ≡ ":- a."). This drives all
// three Add classifications — constraints-only, fresh-heads, and the
// retraction/rebuild slow path via choice-element growth — plus query
// guard retirement (every step queries twice).
func TestDifferentialIncrementalVsSingleShot(t *testing.T) {
	const programs = 300

	rng := rand.New(rand.NewSource(20260807))
	checked := 0
	for i := 0; i < programs; i++ {
		src := randomDiffProgram(rng, i)
		prog, err := logic.Parse(src)
		if err != nil {
			t.Fatalf("program %d: generated unparsable source:\n%s\n%v", i, src, err)
		}
		atomPool := []string{"a", "b", "c", "d", "e"}
		if i%4 == 3 {
			atomPool = []string{"pick(1)", "pick(2)", "q(1)", "q(2)"}
		}

		// Random partition of the rules into base + deltas. Per-rule
		// safety means every partition is itself a valid program.
		chunks := make([]*logic.Program, 1+1+rng.Intn(3))
		for c := range chunks {
			chunks[c] = &logic.Program{}
		}
		for _, r := range prog.Rules {
			chunks[rng.Intn(len(chunks))].AddRule(r)
		}

		sess, err := NewSession(chunks[0], Options{})
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
					t.Fatalf("program %d step %d query %d: answer sets disagree\nprogram:\n%s\nbase+deltas:\n%s\nassumptions: %v\nsession (%d): %v\nsingle-shot (%d): %v",
						i, step, q, src, flat, assumps, len(got), got, len(want), want)
				}
				if res.Satisfiable != (len(want) > 0) {
					t.Fatalf("program %d step %d: Satisfiable=%v, want %v", i, step, res.Satisfiable, len(want) > 0)
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
		checked++
	}
	if checked < 250 {
		t.Fatalf("only %d programs checked, want >= 250", checked)
	}
}

// solveFlattened single-shot-solves base plus assumption constraints.
func solveFlattened(t *testing.T, i int, base *logic.Program, constraints []logic.Rule) []string {
	t.Helper()
	full := &logic.Program{}
	full.Extend(base)
	for _, c := range constraints {
		full.AddRule(c)
	}
	res, err := SolveProgram(full, Options{})
	if err != nil {
		t.Fatalf("program %d: single-shot solve: %v", i, err)
	}
	return renderModelSet(res.Models)
}

// TestPortfolioDifferential runs the 600-program differential battery
// through every way one engine answers a plain query: two single-shot
// solves of the same ground program and a one-query Session. The name
// dates from the racing portfolio this battery once checked; with one
// engine per session the property it guards is that no entry point
// changes the answer, and that a repeated solve repeats the search
// exactly (same models in the same order, same decisions, conflicts and
// restarts), which is what makes ASP reports deterministic.
func TestPortfolioDifferential(t *testing.T) {
	const programs = 600
	rng := rand.New(rand.NewSource(20260806))
	for i := 0; i < programs; i++ {
		src := randomDiffProgram(rng, i)
		prog, err := logic.Parse(src)
		if err != nil {
			t.Fatalf("program %d: parse: %v\n%s", i, err, src)
		}
		gp, err := Ground(prog, nil)
		if err != nil {
			t.Fatalf("program %d: ground: %v\n%s", i, err, src)
		}
		first, err := Solve(gp, Options{})
		if err != nil {
			t.Fatalf("program %d: first solve: %v\n%s", i, err, src)
		}
		again, err := Solve(gp, Options{})
		if err != nil {
			t.Fatalf("program %d: repeated solve: %v\n%s", i, err, src)
		}
		if got, want := strings.Join(renderModelSet(again.Models), "|"), strings.Join(renderModelSet(first.Models), "|"); got != want {
			t.Fatalf("program %d: repeated solve disagrees\nprogram:\n%s\nrepeated: %s\nfirst: %s", i, src, got, want)
		}
		for m := range first.Models {
			if strings.Join(again.Models[m].Atoms, ",") != strings.Join(first.Models[m].Atoms, ",") {
				t.Fatalf("program %d: model %d order differs on a repeated solve\n%s", i, m, src)
			}
		}
		fs, as := first.Stats, again.Stats
		if as.Decisions != fs.Decisions || as.Conflicts != fs.Conflicts || as.Restarts != fs.Restarts {
			t.Fatalf("program %d: repeated search diverged: {d=%d c=%d r=%d} vs {d=%d c=%d r=%d}\n%s",
				i, as.Decisions, as.Conflicts, as.Restarts, fs.Decisions, fs.Conflicts, fs.Restarts, src)
		}
		sess, err := NewSession(prog, Options{})
		if err != nil {
			t.Fatalf("program %d: NewSession: %v\n%s", i, err, src)
		}
		sres, err := sess.SolveAssuming(nil, Options{})
		sess.Close()
		if err != nil {
			t.Fatalf("program %d: SolveAssuming: %v\n%s", i, err, src)
		}
		got, want := renderModelSet(sres.Models), renderModelSet(first.Models)
		if !equalStringSets(got, want) {
			t.Fatalf("program %d: answer sets disagree\nprogram:\n%s\nsession (%d): %v\nsingle-shot (%d): %v",
				i, src, len(got), got, len(want), want)
		}
		if sres.Satisfiable != first.Satisfiable {
			t.Fatalf("program %d: session Satisfiable=%v, single-shot %v", i, sres.Satisfiable, first.Satisfiable)
		}
	}
}

// TestPortfolioOptimizeDifferential is the seeded battery with random
// positive weights that once compared racing optimizers with the
// sequential one. Each program's optimum cost and full optimal model set
// from single-shot Solve and from a Session query are checked against
// the brute-force optimum.
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
		checkOptimizeArm(t, i, src+"#minimize { "+strings.Join(min, "; ")+" }.\n")
	}
}

// TestPortfolioSessionDifferential drives the seeded session battery
// (random base plus 1-3 Adds, random assumptions at every step) with a
// capped query before each full one: a MaxModels=1 query stops its
// enumeration early, and the full query that follows must still see the
// whole answer set of a fresh single-shot solve of the flattened
// program, so nothing the cut-short query learned or blocked may outlive
// it.
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
		sess, err := NewSession(chunks[0], Options{})
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
			capped, err := sess.SolveAssuming(assumps, Options{MaxModels: 1})
			if err != nil {
				t.Fatalf("program %d step %d: capped SolveAssuming: %v\n%s", i, step, err, src)
			}
			if got := renderModelSet(capped.Models); len(got) != min(1, len(want)) || (len(got) == 1 && !slices.Contains(want, got[0])) {
				t.Fatalf("program %d step %d: capped query returned %v, want one of %v\n%s", i, step, got, want, src)
			}
			if capped.Satisfiable != (len(want) > 0) {
				t.Fatalf("program %d step %d: capped Satisfiable=%v, want %v", i, step, capped.Satisfiable, len(want) > 0)
			}
			res, err := sess.SolveAssuming(assumps, Options{})
			if err != nil {
				t.Fatalf("program %d step %d: SolveAssuming: %v\n%s", i, step, err, src)
			}
			if got := renderModelSet(res.Models); !equalStringSets(got, want) {
				t.Fatalf("program %d step %d: answer sets disagree after a capped query\nprogram:\n%s\nassumptions: %v\nsession (%d): %v\nsingle-shot (%d): %v",
					i, step, src, assumps, len(got), got, len(want), want)
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

// nonTightPrograms sizes the non-tight arm.
const nonTightPrograms = 300

// minNonTightLoopClauses is the arm's floor on loop clauses: measured
// 58 over its 300 programs (275 of them non-tight) with the seed below;
// the floor is four fifths of that, so an arm that stops reaching
// unfounded sets fails.
const minNonTightLoopClauses = 46

// randomNonTightProgram generates a small program with real positive
// cycles. Two of three programs are propositional: one or two positive
// loops (self-loops included) over a six-atom pool, each loop atom with
// a chance of external support through negation, a choice or a
// conditional rule, plus random rules and constraints. Every third is
// first-order reachability over a three-node graph whose edge facts
// always hold a cycle, with the start nodes chosen or a node cut.
func randomNonTightProgram(rng *rand.Rand, i int) string {
	if i%3 == 2 {
		return randomReachProgram(rng)
	}
	atoms := []string{"a", "b", "c", "d", "e", "f"}
	pick := func() string { return atoms[rng.Intn(len(atoms))] }
	var sb strings.Builder
	for loops := 1 + rng.Intn(2); loops > 0; loops-- {
		perm := rng.Perm(len(atoms))
		cycle := perm[:1+rng.Intn(3)]
		for k, a := range cycle {
			next := atoms[cycle[(k+1)%len(cycle)]]
			fmt.Fprintf(&sb, "%s :- %s.\n", next, atoms[a])
		}
		for _, a := range cycle {
			switch rng.Intn(4) {
			case 0:
				fmt.Fprintf(&sb, "%s :- not %s.\n", atoms[a], pick())
			case 1:
				fmt.Fprintf(&sb, "{ %s }.\n", atoms[a])
			case 2:
				fmt.Fprintf(&sb, "%s :- %s, not %s.\n", atoms[a], pick(), pick())
			}
		}
	}
	for k := rng.Intn(3); k > 0; k-- {
		head, body := pick(), pick()
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&sb, "%s :- %s, not %s.\n", head, body, pick())
		} else {
			fmt.Fprintf(&sb, "%s :- not %s.\n", head, body)
		}
	}
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&sb, "{ %s; %s }.\n", pick(), pick())
	}
	if rng.Intn(2) == 0 {
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&sb, ":- %s, not %s.\n", pick(), pick())
		} else {
			fmt.Fprintf(&sb, ":- not %s.\n", pick())
		}
	}
	return sb.String()
}

// randomReachProgram is the first-order arm: reachability over cyclic
// edge facts on nodes 1..3.
func randomReachProgram(rng *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("node(1..3).\n")
	// A cycle through two or three nodes, plus maybe one more edge.
	edges := map[[2]int]bool{}
	if rng.Intn(2) == 0 {
		edges[[2]int{1, 2}], edges[[2]int{2, 3}], edges[[2]int{3, 1}] = true, true, true
	} else {
		a := 1 + rng.Intn(3)
		b := 1 + (a+rng.Intn(2))%3
		edges[[2]int{a, b}], edges[[2]int{b, a}] = true, true
	}
	if rng.Intn(2) == 0 {
		edges[[2]int{1 + rng.Intn(3), 1 + rng.Intn(3)}] = true
	}
	for x := 1; x <= 3; x++ {
		for y := 1; y <= 3; y++ {
			if edges[[2]int{x, y}] {
				fmt.Fprintf(&sb, "edge(%d,%d).\n", x, y)
			}
		}
	}
	if rng.Intn(2) == 0 {
		sb.WriteString("{ start(X) : node(X) }.\nreach(X) :- start(X).\n")
		sb.WriteString("reach(Y) :- reach(X), edge(X,Y).\n")
	} else {
		fmt.Fprintf(&sb, "reach(%d).\n{ cut(X) : node(X) } 1.\n", 1+rng.Intn(3))
		sb.WriteString("reach(Y) :- reach(X), edge(X,Y), not cut(Y).\n")
	}
	switch rng.Intn(3) {
	case 0:
		sb.WriteString(":- node(X), not reach(X).\n")
	case 1:
		fmt.Fprintf(&sb, ":- reach(%d).\n", 1+rng.Intn(3))
	}
	return sb.String()
}

// TestDifferentialNonTightVsBruteForce is the differential battery's
// non-tight arm. Each program's answer sets from Solve must match brute
// force, and an enumeration that follows enumerateOn's loop must find
// the same ones while, at every total assignment, the cone-restricted
// unfounded set equals the whole-program reference fixpoint. The arm
// must add at least minNonTightLoopClauses loop clauses, so it keeps
// reaching unfounded sets.
func TestDifferentialNonTightVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	var loops int64
	nonTight := 0
	for i := 0; i < nonTightPrograms; i++ {
		src := randomNonTightProgram(rng, i)
		gp, err := Ground(mustParse(t, src), nil)
		if err != nil {
			t.Fatalf("program %d: ground: %v\n%s", i, err, src)
		}
		want := bruteForceModels(gp)
		res, err := Solve(gp, Options{})
		if err != nil {
			t.Fatalf("program %d: solve: %v\n%s", i, err, src)
		}
		if got := renderModelSet(res.Models); !equalStringSets(got, want) {
			t.Fatalf("program %d: answer sets disagree\nprogram:\n%s\nCDCL (%d): %v\nbrute force (%d): %v",
				i, src, len(got), got, len(want), want)
		}
		got, added, cone := enumerateCheckingCone(t, gp, src)
		if !equalStringSets(got, want) {
			t.Fatalf("program %d: checked enumeration disagrees\nprogram:\n%s\ngot (%d): %v\nbrute force (%d): %v",
				i, src, len(got), got, len(want), want)
		}
		loops += added
		if cone > 0 {
			nonTight++
		}
	}
	t.Logf("%d of %d programs non-tight, %d loop clauses", nonTight, nonTightPrograms, loops)
	if loops < minNonTightLoopClauses {
		t.Fatalf("the arm added %d loop clauses, want >= %d", loops, minNonTightLoopClauses)
	}
}

// enumerateCheckingCone enumerates gp's stable models with the loop of
// enumerateOn (no query guard), checking at every total assignment that
// unfoundedSet returns what the whole-program reference fixpoint does.
// It returns the models rendered like renderModelSet, the loop clauses
// added and the size of the cone.
func enumerateCheckingCone(t *testing.T, gp *GroundProgram, src string) ([]string, int64, int) {
	t.Helper()
	tr, err := translate(gp)
	if err != nil {
		t.Fatalf("translate: %v\n%s", err, src)
	}
	st := tr.s
	var models []Model
	err = st.search(func() bool {
		if err := st.validateTotal(); err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		u, ref := tr.unfoundedSet(), refUnfoundedSet(tr)
		if !slices.Equal(u, ref) {
			t.Fatalf("unfounded set %v, whole-program reference %v\n%s", u, ref, src)
		}
		if len(u) > 0 {
			tr.loopAdds++
			tr.addSearchClause(tr.loopClause(u))
			return false
		}
		models = append(models, tr.extractModel())
		tr.addSearchClause(tr.blockingClause())
		return false
	})
	if err != nil {
		t.Fatalf("search: %v\n%s", err, src)
	}
	return renderModelSet(models), tr.loopAdds, len(tr.cone)
}

// refUnfoundedSet is the whole-program unfounded-set fixpoint the
// cone-restricted check replaced: every derivation rule, every atom.
func refUnfoundedSet(tr *translation) []AtomID {
	derived := make([]bool, tr.gp.NumAtoms()+1)
	remaining := make([]int, len(tr.deriv))
	var queue []AtomID
	fire := func(ri int) {
		dr := &tr.deriv[ri]
		for _, n := range dr.neg {
			if tr.atomTrue(n) {
				return
			}
		}
		if id := dr.head; id != 0 && !derived[id] && tr.atomTrue(id) {
			derived[id] = true
			queue = append(queue, id)
		}
	}
	for ri := range tr.deriv {
		for _, p := range tr.deriv[ri].pos {
			if !derived[p] {
				remaining[ri]++
			}
		}
		if remaining[ri] == 0 {
			fire(ri)
		}
	}
	for len(queue) > 0 {
		a := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ri := range tr.posOcc[a] {
			dr := &tr.deriv[ri]
			for _, p := range dr.pos {
				if p == a {
					remaining[ri]--
				}
			}
			if remaining[ri] <= 0 {
				ok := true
				for _, p := range dr.pos {
					if !derived[p] {
						ok = false
						break
					}
				}
				if ok {
					fire(int(ri))
				}
			}
		}
	}
	var unfounded []AtomID
	for id := AtomID(1); id <= AtomID(tr.gp.NumAtoms()); id++ {
		if tr.atomTrue(id) && !derived[id] {
			unfounded = append(unfounded, id)
		}
	}
	return unfounded
}
