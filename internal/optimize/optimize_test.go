package optimize

import (
	"strings"
	"testing"

	"cpsrisk/internal/mitigation"
	"cpsrisk/internal/solver"
)

// sample problem: three mitigations, three scenarios.
//
//	m1 (cost 20) blocks s1 (loss 100)
//	m2 (cost 45) blocks s2 (loss 200)
//	m3 (cost 90) blocks s3 (loss 50)  -> not worth buying
func sample() *Problem {
	return &Problem{
		Options: []Option{
			{ID: "m1", Cost: 20},
			{ID: "m2", Cost: 45},
			{ID: "m3", Cost: 90},
		},
		Scenarios: []mitigation.ScenarioLoss{
			{ID: "s1", Loss: 100, Activations: [][][]string{{{"m1"}}}},
			{ID: "s2", Loss: 200, Activations: [][][]string{{{"m2"}}}},
			{ID: "s3", Loss: 50, Activations: [][][]string{{{"m3"}}}},
		},
		Budget: -1,
	}
}

func TestOptimalUnlimitedBudget(t *testing.T) {
	p := sample()
	plan, err := p.Optimal()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(plan.Selected, ",") != "m1,m2" {
		t.Fatalf("selected = %v", plan.Selected)
	}
	if plan.Cost != 65 || plan.ResidualLoss != 50 || plan.Total != 115 {
		t.Fatalf("plan = %+v", plan)
	}
	if strings.Join(plan.Blocked, ",") != "s1,s2" {
		t.Fatalf("blocked = %v", plan.Blocked)
	}
}

func TestOptimalBudgetConstrained(t *testing.T) {
	p := sample()
	p.Budget = 50
	plan, err := p.Optimal()
	if err != nil {
		t.Fatal(err)
	}
	// Within 50 the best single purchase is m2 (blocks 200 for 45).
	if strings.Join(plan.Selected, ",") != "m2" {
		t.Fatalf("selected = %v (plan %+v)", plan.Selected, plan)
	}
	if plan.Cost > 50 {
		t.Fatalf("budget violated: %+v", plan)
	}
}

func TestOptimalZeroBudgetBuysNothing(t *testing.T) {
	p := sample()
	p.Budget = 0
	plan, err := p.Optimal()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Selected) != 0 || plan.ResidualLoss != 350 {
		t.Fatalf("plan = %+v", plan)
	}
}

// Under unlimited budget every blockable scenario whose loss exceeds its
// blocking cost gets blocked.
func TestOptimalBlocksWorthwhileScenarios(t *testing.T) {
	p := sample()
	plan, err := p.Optimal()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"s1", "s2"} {
		found := false
		for _, b := range plan.Blocked {
			if b == s {
				found = true
			}
		}
		if !found {
			t.Errorf("worthwhile scenario %s unblocked", s)
		}
	}
}

func TestOptimalSharedMitigation(t *testing.T) {
	// One mitigation blocks two scenarios: cheaper than the sum.
	p := &Problem{
		Options: []Option{
			{ID: "shared", Cost: 60},
			{ID: "single", Cost: 10},
		},
		Scenarios: []mitigation.ScenarioLoss{
			{ID: "a", Loss: 50, Activations: [][][]string{{{"shared"}}}},
			{ID: "b", Loss: 50, Activations: [][][]string{{{"shared", "single"}}}},
		},
		Budget: -1,
	}
	plan, err := p.Optimal()
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: single (10) blocks b; shared(60) would additionally block a
	// (50): buying shared instead costs 60 and blocks both: total 60.
	// Buying both: 70, residual 0 -> total 70. Buying single only:
	// 10 + 50 = 60. Tie between {shared} and {single}: cheaper wins.
	if strings.Join(plan.Selected, ",") != "single" || plan.Total != 60 {
		t.Fatalf("plan = %+v", plan)
	}
}

// Ties on Total and Cost go to the lexicographically smaller selection,
// also when the incumbent's total already equals the tying branch's cost.
func TestOptimalTieBreaksLexicographically(t *testing.T) {
	p := &Problem{
		Options: []Option{{ID: "b", Cost: 5}, {ID: "a", Cost: 5}},
		Scenarios: []mitigation.ScenarioLoss{
			{ID: "s", Loss: 100, Activations: [][][]string{{{"a", "b"}}}},
		},
		Budget: -1,
	}
	plan, err := p.Optimal()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(plan.Selected, ",") != "a" || plan.Total != 5 {
		t.Fatalf("plan = %+v, want [a] with total 5", plan)
	}
}

// The compiled masks block a scenario iff some activation with sources
// has every source blocked by a selected option; blocker IDs that are
// not options never block.
func TestCompiledBlocking(t *testing.T) {
	p := &Problem{
		Options: []Option{{ID: "c"}, {ID: "a"}, {ID: "b"}},
		Scenarios: []mitigation.ScenarioLoss{{
			ID: "S2",
			Activations: [][][]string{
				// activation 0: two sources, blockable by {a} and {b,c}
				{{"a"}, {"b", "c"}},
				// activation 1: unblockable source
				{{}},
			},
		}, {
			ID: "S0", // no activations
		}, {
			ID: "S1", Activations: [][][]string{{{}}}, // unblockable activation
		}, {
			ID: "S3", Activations: [][][]string{{}}, // activation without sources
		}, {
			ID: "S4", Activations: [][][]string{{{"a"}, {"x"}}, {{"x", "b"}}}, // x is no option
		}},
	}
	c := p.compile()
	for _, tc := range []struct {
		sel  []string
		want string // blocked scenario IDs
	}{
		{nil, ""},
		{[]string{"a"}, ""},        // one blocked source of two is not enough
		{[]string{"a", "c"}, "S2"}, // all sources of one activation
		{[]string{"b", "c"}, "S4"}, // source {a} unblocked; b alone covers S4
		{[]string{"a", "b", "c"}, "S2,S4"},
	} {
		sel := newBitset(len(c.opts))
		for _, id := range tc.sel {
			sel.set(c.index[id])
		}
		var got []string
		for i := range c.scens {
			if c.blocked(&c.scens[i], sel) {
				got = append(got, c.scens[i].id)
			}
		}
		if strings.Join(got, ",") != tc.want {
			t.Errorf("selection %v blocks %v, want %q", tc.sel, got, tc.want)
		}
	}
}

func TestValidation(t *testing.T) {
	bad := []*Problem{
		{Options: []Option{{ID: ""}}},
		{Options: []Option{{ID: "a"}, {ID: "a"}}},
		{Options: []Option{{ID: "a", Cost: -1}}},
		{Scenarios: []mitigation.ScenarioLoss{{ID: "s", Loss: -5}}},
	}
	for i, p := range bad {
		p.Budget = -1
		if _, err := p.Optimal(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
		if _, _, err := p.MultiPhase(); err == nil {
			t.Errorf("case %d (multiphase): expected error", i)
		}
	}
}

func TestMultiPhaseOrdering(t *testing.T) {
	p := sample()
	phases, final, err := p.MultiPhase()
	if err != nil {
		t.Fatal(err)
	}
	// Greedy efficiency: m1 (100/20=5) before m2 (200/45≈4.4); m3 never
	// (50/90 reduces total? reduction 50 > 0, gain 0.55 — greedy still
	// takes any positive reduction, by design the paper's staged plan
	// keeps deploying while something improves loss).
	if len(phases) < 2 || phases[0].MitigationID != "m1" || phases[1].MitigationID != "m2" {
		t.Fatalf("phases = %+v", phases)
	}
	if final.ResidualLoss > 50 && len(phases) == 2 {
		t.Fatalf("final = %+v", final)
	}
	// Loss reductions must be recorded.
	if phases[0].LossReduction != 100 || phases[1].LossReduction != 200 {
		t.Fatalf("reductions = %+v", phases)
	}
}

func TestMultiPhaseBudget(t *testing.T) {
	p := sample()
	p.Budget = 25
	phases, final, err := p.MultiPhase()
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 1 || phases[0].MitigationID != "m1" {
		t.Fatalf("phases = %+v", phases)
	}
	if final.Cost > 25 {
		t.Fatalf("budget violated: %+v", final)
	}
}

// The greedy plan never beats the exact optimum.
func TestGreedyNeverBeatsOptimal(t *testing.T) {
	p := sample()
	opt, err := p.Optimal()
	if err != nil {
		t.Fatal(err)
	}
	_, greedy, err := p.MultiPhase()
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Total < opt.Total {
		t.Fatalf("greedy %d beat optimal %d", greedy.Total, opt.Total)
	}
}

// Cross-check the native optimum against the ASP #minimize encoding.
func TestASPAgreesWithNative(t *testing.T) {
	p := sample()
	native, err := p.Optimal()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.EncodeASP()
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.SolveProgram(prog, solver.Options{Optimize: true, MaxModels: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) != 1 {
		t.Fatalf("ASP models = %d", len(res.Models))
	}
	total := 0
	for _, c := range res.Models[0].Cost {
		total += c.Cost
	}
	if total != native.Total {
		t.Fatalf("ASP optimum %d != native %d", total, native.Total)
	}
	for _, id := range native.Selected {
		if !res.Models[0].Contains("select(" + id + ")") {
			// Different optimal selections with equal totals are possible;
			// only flag when totals diverge (already checked) or the ASP
			// selection is not optimal under native evaluation.
			sel := map[string]bool{}
			for _, a := range res.Models[0].WithPredicate("select") {
				sel[strings.TrimSuffix(strings.TrimPrefix(a, "select("), ")")] = true
			}
			if p.Evaluate(sel).Total != native.Total {
				t.Fatalf("ASP selection %v not optimal", res.Models[0].Atoms)
			}
			break
		}
	}
}

func TestMultiActivationScenario(t *testing.T) {
	// A combined scenario is prevented by blocking any one of its
	// activations.
	p := &Problem{
		Options: []Option{{ID: "x", Cost: 5}, {ID: "y", Cost: 5}},
		Scenarios: []mitigation.ScenarioLoss{
			{ID: "combo", Loss: 100, Activations: [][][]string{
				{{"x"}}, // activation 1 blockable by x
				{{"y"}}, // activation 2 blockable by y
			}},
		},
		Budget: -1,
	}
	plan, err := p.Optimal()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Selected) != 1 || plan.Total != 5 {
		t.Fatalf("plan = %+v", plan)
	}
}

func BenchmarkOptimal(b *testing.B) {
	// 12 options, 20 scenarios with random-ish structure.
	p := &Problem{Budget: -1}
	for i := 0; i < 12; i++ {
		p.Options = append(p.Options, Option{ID: string(rune('a' + i)), Cost: 10 + i*7})
	}
	for i := 0; i < 20; i++ {
		m1 := string(rune('a' + i%12))
		m2 := string(rune('a' + (i*5+3)%12))
		p.Scenarios = append(p.Scenarios, mitigation.ScenarioLoss{
			ID: string(rune('A' + i)), Loss: 30 + i*13,
			Activations: [][][]string{{{m1, m2}}},
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Optimal(); err != nil {
			b.Fatal(err)
		}
	}
}
