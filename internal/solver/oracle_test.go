package solver

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cpsrisk/internal/logic"
)

// bruteForceStableModels enumerates all subsets of (non-internal) atoms of
// the ground program and keeps those that are stable models, using the
// independent reduct fixpoint check from solver_test.go. It is the
// exponential reference oracle for randomized cross-checking.
func bruteForceStableModels(t *testing.T, gp *GroundProgram) []string {
	t.Helper()
	var external []AtomID
	for id := AtomID(1); id <= AtomID(gp.NumAtoms()); id++ {
		if !gp.IsInternal(id) {
			external = append(external, id)
		}
	}
	if len(external) > 16 {
		t.Fatalf("oracle limited to 16 atoms, got %d", len(external))
	}
	// Internal atoms (aux guards) are defined by basic rules from the
	// external ones, handled inside isStableModel's truth completion.
	var out []string
	for mask := 0; mask < 1<<uint(len(external)); mask++ {
		var atoms []string
		for i, id := range external {
			if mask>>uint(i)&1 == 1 {
				atoms = append(atoms, gp.AtomName(id))
			}
		}
		sort.Strings(atoms)
		m := Model{Atoms: atoms}
		if isStableModel(gp, m) {
			out = append(out, strings.Join(atoms, ","))
		}
	}
	sort.Strings(out)
	return out
}

// randomProgram generates a small random normal program with facts,
// rules with default negation, choice rules, and constraints over
// propositional atoms a0..a(n-1).
func randomProgram(rng *rand.Rand, n int) string {
	atom := func() string { return fmt.Sprintf("a%d", rng.Intn(n)) }
	var sb strings.Builder
	// A couple of facts.
	for i := 0; i < 1+rng.Intn(2); i++ {
		fmt.Fprintf(&sb, "%s.\n", atom())
	}
	// A free choice over one or two atoms.
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&sb, "{ %s }.\n", atom())
	} else {
		fmt.Fprintf(&sb, "{ %s; %s } 1.\n", atom(), atom())
	}
	// Random rules.
	rules := 2 + rng.Intn(4)
	for i := 0; i < rules; i++ {
		head := atom()
		nBody := 1 + rng.Intn(2)
		var body []string
		for j := 0; j < nBody; j++ {
			lit := atom()
			if rng.Intn(3) == 0 {
				lit = "not " + lit
			}
			body = append(body, lit)
		}
		fmt.Fprintf(&sb, "%s :- %s.\n", head, strings.Join(body, ", "))
	}
	// Occasionally a constraint.
	if rng.Intn(3) == 0 {
		fmt.Fprintf(&sb, ":- %s, %s.\n", atom(), atom())
	}
	return sb.String()
}

// TestSolverAgreesWithBruteForce cross-checks the DPLL+loop-formula engine
// against exhaustive subset enumeration on 200 random programs. This is
// the strongest correctness test of the stable-model semantics, covering
// positive loops through choices, double negation effects, and
// constraint pruning.
func TestSolverAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		src := randomProgram(rng, 4+rng.Intn(3))
		prog, err := logic.Parse(src)
		if err != nil {
			t.Fatalf("trial %d: parse: %v\n%s", trial, err, src)
		}
		gp, err := Ground(prog, nil)
		if err != nil {
			t.Fatalf("trial %d: ground: %v\n%s", trial, err, src)
		}
		res, err := Solve(gp, Options{})
		if err != nil {
			t.Fatalf("trial %d: solve: %v\n%s", trial, err, src)
		}
		got := renderModels(res)
		want := bruteForceStableModels(t, gp)
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("trial %d: models differ\nprogram:\n%s\ngot:  %v\nwant: %v",
				trial, src, got, want)
		}
	}
}

// TestOptimizeAgreesWithBruteForce: for random programs with random
// weights, the optimizer's cost equals the minimum cost over the
// brute-force model set.
func TestOptimizeAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 80; trial++ {
		n := 4 + rng.Intn(2)
		src := randomProgram(rng, n)
		// Weigh every atom.
		var weights []string
		costOf := map[string]int{}
		for i := 0; i < n; i++ {
			w := 1 + rng.Intn(9)
			costOf[fmt.Sprintf("a%d", i)] = w
			weights = append(weights, fmt.Sprintf("%d,a%d : a%d", w, i, i))
		}
		src += "#minimize { " + strings.Join(weights, "; ") + " }.\n"

		prog, err := logic.Parse(src)
		if err != nil {
			t.Fatalf("trial %d: parse: %v\n%s", trial, err, src)
		}
		gp, err := Ground(prog, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		all, err := Solve(gp, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(all.Models) == 0 {
			continue // UNSAT instance: optimization has nothing to do
		}
		best := 1 << 30
		for _, m := range all.Models {
			cost := 0
			for _, a := range m.Atoms {
				cost += costOf[a]
			}
			if cost < best {
				best = cost
			}
		}
		opt, err := Solve(gp, Options{Optimize: true, MaxModels: 1})
		if err != nil {
			t.Fatalf("trial %d: optimize: %v", trial, err)
		}
		if len(opt.Models) != 1 {
			t.Fatalf("trial %d: no optimal model\n%s", trial, src)
		}
		gotCost := 0
		for _, pc := range opt.Models[0].Cost {
			gotCost += pc.Cost
		}
		if gotCost != best {
			t.Fatalf("trial %d: optimum %d, brute force %d\n%s\nmodel: %v",
				trial, gotCost, best, src, opt.Models[0].Atoms)
		}
	}
}

// TestEnumerationCountStress: on slightly larger random programs, model
// enumeration must terminate and return a duplicate-free set where every
// returned model passes the independent stability check.
func TestEnumerationCountStress(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		src := randomProgram(rng, 8)
		src += "{ a6; a7 }.\n"
		prog, err := logic.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		gp, err := Ground(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(gp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, m := range res.Models {
			key := strings.Join(m.Atoms, ",")
			if seen[key] {
				t.Fatalf("trial %d: duplicate model %q", trial, key)
			}
			seen[key] = true
			if !isStableModel(gp, m) {
				t.Fatalf("trial %d: unstable model %q\n%s", trial, key, src)
			}
		}
	}
}
