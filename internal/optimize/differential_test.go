package optimize

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cpsrisk/internal/mitigation"
	"cpsrisk/internal/solver"
)

// refBlockedBy is the map-based blocking rule the compiled masks must
// agree with: some activation with sources has every source blocked by a
// selected ID.
func refBlockedBy(s mitigation.ScenarioLoss, selected map[string]bool) bool {
	for _, sources := range s.Activations {
		if len(sources) == 0 {
			continue
		}
		all := true
		for _, blockers := range sources {
			one := false
			for _, m := range blockers {
				if selected[m] {
					one = true
					break
				}
			}
			if !one {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// refEvaluate scores a selection of option IDs by string lookups.
func refEvaluate(p *Problem, selected map[string]bool) Plan {
	plan := Plan{}
	for _, o := range p.Options {
		if selected[o.ID] {
			plan.Selected = append(plan.Selected, o.ID)
			plan.Cost += o.Cost
		}
	}
	sort.Strings(plan.Selected)
	for _, s := range p.Scenarios {
		if refBlockedBy(s, selected) {
			plan.Blocked = append(plan.Blocked, s.ID)
		} else {
			plan.ResidualLoss += s.Loss
		}
	}
	sort.Strings(plan.Blocked)
	plan.Total = plan.Cost + plan.ResidualLoss
	return plan
}

// bruteOptimal enumerates every selection within budget, include-first
// like Optimal, and keeps the better-minimum starting from the empty
// selection.
func bruteOptimal(p *Problem) (Plan, error) {
	if err := p.validate(); err != nil {
		return Plan{}, err
	}
	selected := map[string]bool{}
	best := refEvaluate(p, selected)
	var rec func(i, cost int)
	rec = func(i, cost int) {
		if i == len(p.Options) {
			if p.Budget >= 0 && cost > p.Budget {
				return
			}
			if plan := refEvaluate(p, selected); better(plan, best) {
				best = plan
			}
			return
		}
		o := p.Options[i]
		selected[o.ID] = true
		rec(i+1, cost+o.Cost)
		delete(selected, o.ID)
		rec(i+1, cost)
	}
	rec(0, 0)
	return best, nil
}

// refMultiPhase is the string-keyed greedy planner the compiled
// MultiPhase replaced; phases and final plan must match it exactly.
func refMultiPhase(p *Problem) ([]Phase, Plan, error) {
	if err := p.validate(); err != nil {
		return nil, Plan{}, err
	}
	costOf := map[string]int{}
	for _, o := range p.Options {
		costOf[o.ID] = o.Cost
	}
	selected := map[string]bool{}
	remaining := p.Budget
	var phases []Phase
	current := refEvaluate(p, selected)
	for {
		moves := refCandidateMoves(p, selected, costOf)
		bestIdx := -1
		var bestGain float64
		var bestReduction, bestCost int
		for i, move := range moves {
			cost := 0
			for _, id := range move {
				cost += costOf[id]
			}
			if p.Budget >= 0 && cost > remaining {
				continue
			}
			for _, id := range move {
				selected[id] = true
			}
			trial := refEvaluate(p, selected)
			for _, id := range move {
				delete(selected, id)
			}
			reduction := current.ResidualLoss - trial.ResidualLoss
			if reduction <= 0 {
				continue
			}
			gain := float64(reduction) / math.Max(float64(cost), 0.5)
			if bestIdx < 0 || gain > bestGain ||
				(gain == bestGain && strings.Join(move, "+") < strings.Join(moves[bestIdx], "+")) {
				bestGain = gain
				bestIdx = i
				bestReduction = reduction
				bestCost = cost
			}
		}
		if bestIdx < 0 {
			break
		}
		for mi, id := range moves[bestIdx] {
			selected[id] = true
			reduction := 0
			if mi == 0 {
				reduction = bestReduction
			}
			phases = append(phases, Phase{MitigationID: id, Cost: costOf[id], LossReduction: reduction})
		}
		if p.Budget >= 0 {
			remaining -= bestCost
		}
		current = refEvaluate(p, selected)
	}
	return phases, current, nil
}

func refCandidateMoves(p *Problem, selected map[string]bool, costOf map[string]int) [][]string {
	var moves [][]string
	seen := map[string]bool{}
	add := func(move []string) {
		filtered := make([]string, 0, len(move))
		for _, id := range move {
			if _, known := costOf[id]; known && !selected[id] {
				filtered = append(filtered, id)
			}
		}
		if len(filtered) == 0 {
			return
		}
		sort.Strings(filtered)
		key := strings.Join(filtered, "+")
		if !seen[key] {
			seen[key] = true
			moves = append(moves, filtered)
		}
	}
	for _, o := range p.Options {
		add([]string{o.ID})
	}
	for _, s := range p.Scenarios {
		if refBlockedBy(s, selected) {
			continue
		}
		for _, sources := range s.Activations {
			if len(sources) == 0 {
				continue
			}
			bundles := [][]string{{}}
			feasible := true
			for _, blockers := range sources {
				if len(blockers) == 0 {
					feasible = false
					break
				}
				var grown [][]string
				for _, b := range bundles {
					for _, m := range blockers {
						grown = append(grown, append(append([]string(nil), b...), m))
					}
					if len(grown) > 64 {
						break
					}
				}
				bundles = grown
			}
			if !feasible {
				continue
			}
			for _, b := range bundles {
				add(b)
			}
		}
	}
	return moves
}

// randomProblem draws a problem with up to maxOpts options whose IDs sort
// differently from their order, small integer costs and losses (so ties
// are frequent), blockers that are not options, activations without
// sources, sources without blockers, activations shared by several
// scenarios, and a budget half of the time.
func randomProblem(rng *rand.Rand, maxOpts int) *Problem {
	p := &Problem{Budget: -1}
	if rng.Intn(2) == 0 {
		p.Budget = rng.Intn(16)
	}
	n := rng.Intn(maxOpts + 1)
	for _, i := range rng.Perm(n) {
		p.Options = append(p.Options, Option{ID: fmt.Sprintf("m%d", i), Cost: rng.Intn(6)})
	}
	blocker := func() string {
		if n == 0 || rng.Intn(5) == 0 {
			return fmt.Sprintf("x%d", rng.Intn(2)) // not an option
		}
		return p.Options[rng.Intn(n)].ID
	}
	var drawn [][][]string
	for s, scens := 0, rng.Intn(9); s < scens; s++ {
		sl := mitigation.ScenarioLoss{ID: fmt.Sprintf("s%d", s), Loss: rng.Intn(12)}
		for a, acts := 0, 1+rng.Intn(3); a < acts; a++ {
			if len(drawn) > 0 && rng.Intn(3) == 0 {
				sl.Activations = append(sl.Activations, drawn[rng.Intn(len(drawn))])
				continue
			}
			var sources [][]string
			for j, srcs := 0, rng.Intn(3); j < srcs; j++ {
				var blockers []string
				for b, bs := 0, rng.Intn(4); b < bs; b++ {
					blockers = append(blockers, blocker())
				}
				sources = append(sources, blockers)
			}
			drawn = append(drawn, sources)
			sl.Activations = append(sl.Activations, sources)
		}
		p.Scenarios = append(p.Scenarios, sl)
	}
	return p
}

// TestDifferentialOptimizer checks the compiled optimizer against its
// references on seeded random problems: Optimal against the brute-force
// better-minimum, MultiPhase against the string-keyed planner, and, with
// unlimited budget, Optimal's total against the ASP #minimize encoding.
func TestDifferentialOptimizer(t *testing.T) {
	const problems = 1500
	rng := rand.New(rand.NewSource(20261017))
	solved := 0
	for i := 0; i < problems; i++ {
		p := randomProblem(rng, 12)
		got, err := p.Optimal()
		if err != nil {
			t.Fatalf("problem %d: %v", i, err)
		}
		want, _ := bruteOptimal(p)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("problem %d: Optimal = %+v, brute force %+v\n%+v", i, got, want, p)
		}
		checkMultiPhase(t, fmt.Sprint("problem ", i), p)
		if p.Budget < 0 && i%5 == 0 {
			checkASPTotal(t, i, p, got.Total)
			solved++
		}
	}
	if solved < 100 {
		t.Fatalf("only %d problems cross-checked through ASP, want >= 100", solved)
	}
}

func checkMultiPhase(t *testing.T, name string, p *Problem) {
	t.Helper()
	phases, final, err := p.MultiPhase()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	wantPhases, wantFinal, _ := refMultiPhase(p)
	if !reflect.DeepEqual(phases, wantPhases) || !reflect.DeepEqual(final, wantFinal) {
		t.Fatalf("%s: MultiPhase = %+v, %+v\nreference %+v, %+v\n%+v",
			name, phases, final, wantPhases, wantFinal, p)
	}
}

func checkASPTotal(t *testing.T, i int, p *Problem, want int) {
	t.Helper()
	prog, err := p.EncodeASP()
	if err != nil {
		t.Fatalf("problem %d: encode: %v", i, err)
	}
	res, err := solver.SolveProgram(prog, solver.Options{Optimize: true, MaxModels: 1})
	if err != nil {
		t.Fatalf("problem %d: solve: %v", i, err)
	}
	if len(res.Models) != 1 {
		t.Fatalf("problem %d: ASP models = %d", i, len(res.Models))
	}
	total := 0
	for _, c := range res.Models[0].Cost {
		total += c.Cost
	}
	if total != want {
		t.Fatalf("problem %d: ASP optimum %d != Optimal %d\n%+v", i, total, want, p)
	}
}

// More than 64 options spread selections over several words; wide
// sources also trip the 64-bundle growth cap.
func TestMultiPhaseWideBitset(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for i := 0; i < 20; i++ {
		p := &Problem{Budget: -1}
		if i%2 == 1 {
			p.Budget = 40 + rng.Intn(80)
		}
		n := 65 + rng.Intn(70)
		for k := 0; k < n; k++ {
			p.Options = append(p.Options, Option{ID: fmt.Sprintf("m%d", (k*37)%n), Cost: 1 + rng.Intn(9)})
		}
		blocker := func() string {
			if rng.Intn(8) == 0 {
				return "x"
			}
			return p.Options[rng.Intn(n)].ID
		}
		for s := 0; s < 12; s++ {
			sl := mitigation.ScenarioLoss{ID: fmt.Sprintf("s%d", s), Loss: 5 + rng.Intn(60)}
			for a, acts := 0, 1+rng.Intn(2); a < acts; a++ {
				sources := make([][]string, 1+rng.Intn(3))
				for j := range sources {
					for b, bs := 0, 1+rng.Intn(5); b < bs; b++ {
						sources[j] = append(sources[j], blocker())
					}
				}
				sl.Activations = append(sl.Activations, sources)
			}
			p.Scenarios = append(p.Scenarios, sl)
		}
		checkMultiPhase(t, fmt.Sprint("wide problem ", i), p)
		// Evaluate reads the same multi-word masks.
		for k := 0; k < 20; k++ {
			sel := map[string]bool{}
			for _, o := range p.Options {
				if rng.Intn(3) == 0 {
					sel[o.ID] = true
				}
			}
			if got, want := p.Evaluate(sel), refEvaluate(p, sel); !reflect.DeepEqual(got, want) {
				t.Fatalf("wide problem %d: Evaluate = %+v, reference %+v", i, got, want)
			}
		}
	}
}

// fuzzNames holds option IDs whose string order differs from their
// order in the problem, including one that Sprint renders like two.
var fuzzNames = []string{"a", "b", "a b", "m10", "m2", "m1", "c", "ab", "b a", "z", "m"}

// FuzzOptimalVsBruteForce decodes bytes into a problem with at most ten
// options and checks Optimal against the brute-force enumerator.
func FuzzOptimalVsBruteForce(f *testing.F) {
	f.Add([]byte{2, 0, 5, 5, 1, 100, 1, 1, 2, 2, 3, 1})
	f.Add([]byte{10, 3, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 6, 9, 2, 2, 3, 1, 2, 3, 3, 4, 5, 6})
	f.Add([]byte{7, 4, 0, 0, 0, 0, 0, 0, 0, 5, 1, 2, 2, 3, 0, 1, 2, 9, 9, 8, 7, 2, 40})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		p := &Problem{Budget: -1}
		n := next() % 11
		start, step := next(), 1+next()%10 // step is coprime to len(fuzzNames)
		for i := 0; i < n; i++ {
			p.Options = append(p.Options, Option{
				ID:   fuzzNames[(start+i*step)%len(fuzzNames)],
				Cost: next() % 8,
			})
		}
		for s, scens := 0, next()%7; s < scens; s++ {
			sl := mitigation.ScenarioLoss{ID: fmt.Sprint("s", s), Loss: next() % 16}
			for a, acts := 0, next()%3; a < acts; a++ {
				var sources [][]string
				for j, srcs := 0, next()%3; j < srcs; j++ {
					var blockers []string
					for b, bs := 0, next()%4; b < bs; b++ {
						if k := next() % (n + 1); k < n {
							blockers = append(blockers, p.Options[k].ID)
						} else {
							blockers = append(blockers, "x")
						}
					}
					sources = append(sources, blockers)
				}
				sl.Activations = append(sl.Activations, sources)
			}
			p.Scenarios = append(p.Scenarios, sl)
		}
		if b := next(); b%2 == 1 {
			p.Budget = b / 2 % 20
		}
		got, err := p.Optimal()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := bruteOptimal(p)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Optimal = %+v, brute force %+v\n%+v", got, want, p)
		}
	})
}
