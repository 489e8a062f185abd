package hazard

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cpsrisk/internal/epa"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/qual"
	"cpsrisk/internal/risk"
	"cpsrisk/internal/sysmodel"
)

// setup builds src -> guard -> sink where the guard masks value errors
// unless bypassed, plus requirements over the sink.
func setup(t testing.TB) (*epa.Engine, []faults.Mutation, []Requirement) {
	t.Helper()
	types := sysmodel.NewTypeLibrary()
	types.MustAdd(&sysmodel.ComponentType{
		Name: "node",
		Ports: []sysmodel.PortSpec{
			{Name: "in", Dir: sysmodel.In, Flow: sysmodel.SignalFlow},
			{Name: "out", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow},
		},
		FaultModes: []sysmodel.FaultModeSpec{
			{Name: "corrupt", Likelihood: "M"},
			{Name: "bypass", Likelihood: "L"},
		},
	})
	m := sysmodel.NewModel("guarded-chain")
	for _, id := range []string{"src", "guard", "sink"} {
		m.MustAddComponent(&sysmodel.Component{ID: id, Type: "node"})
	}
	m.Connect("src", "out", "guard", "in", sysmodel.SignalFlow)
	m.Connect("guard", "out", "sink", "in", sysmodel.SignalFlow)

	lib := epa.NewBehaviorLibrary(types)
	lib.MustRegister(&epa.TypeBehavior{
		Type: "node",
		Effects: []epa.FaultEffect{
			{Fault: "corrupt", Port: "out", Emit: epa.StateOf(epa.ErrValue)},
		},
		Transfers: []epa.TransferRule{
			{From: "in", Match: epa.StateOf(epa.ErrValue), To: "out",
				Emit: epa.StateOf(epa.ErrValue), WhenFault: "bypass"},
		},
	})
	eng, err := epa.NewEngine(m, lib)
	if err != nil {
		t.Fatal(err)
	}
	// Candidates: only the interesting ones to keep the space small.
	muts := []faults.Mutation{
		{Activation: epa.Activation{Component: "src", Fault: "corrupt"},
			Likelihood: qual.Medium, Sources: []string{"fault_mode"}},
		{Activation: epa.Activation{Component: "guard", Fault: "bypass"},
			Likelihood: qual.Low, Sources: []string{"fault_mode"}},
		{Activation: epa.Activation{Component: "sink", Fault: "corrupt"},
			Likelihood: qual.VeryLow, Sources: []string{"fault_mode"}},
	}
	reqs := []Requirement{
		{ID: "R1", Description: "sink integrity", Severity: qual.High,
			Condition: Comp("sink", epa.ErrValue)},
		{ID: "R2", Description: "guard must not be bypassed while corrupt flows", Severity: qual.Medium,
			Condition: All(Fault("guard", "bypass"), Comp("guard", epa.ErrValue))},
	}
	return eng, muts, reqs
}

func TestAnalyzeExhaustive(t *testing.T) {
	eng, muts, reqs := setup(t)
	a, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Scenarios) != 8 {
		t.Fatalf("scenarios = %d, want 8", len(a.Scenarios))
	}
	// The fault-free scenario is clean.
	if a.Scenarios[0].IsHazardous() || a.Scenarios[0].ID != "S1" {
		t.Errorf("S1 = %+v", a.Scenarios[0])
	}
	// sink corrupt alone violates R1 (its own output emits value errors).
	r, ok := a.ByScenario(epa.Scenario{{Component: "sink", Fault: "corrupt"}})
	if !ok || !r.Violates("R1") || r.Violates("R2") {
		t.Errorf("sink corrupt = %+v", r)
	}
	// src corrupt alone: guard masks -> no violation.
	r, ok = a.ByScenario(epa.Scenario{{Component: "src", Fault: "corrupt"}})
	if !ok || r.IsHazardous() {
		t.Errorf("src corrupt = %+v", r)
	}
	// src corrupt + guard bypass: R1 and R2 both violated.
	r, ok = a.ByScenario(epa.Scenario{
		{Component: "src", Fault: "corrupt"},
		{Component: "guard", Fault: "bypass"},
	})
	if !ok || !r.Violates("R1") || !r.Violates("R2") {
		t.Errorf("src+bypass = %+v", r)
	}
	if got := len(a.Hazards()); got != 5 {
		t.Errorf("hazard count = %d\n%s", got, a.Summary())
	}
}

func TestAnalyzeCardinalityBound(t *testing.T) {
	eng, muts, reqs := setup(t)
	a, err := AnalyzeSweep(eng, muts, 1, reqs, SweepConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Scenarios) != 4 { // empty + 3 singletons
		t.Fatalf("scenarios = %d", len(a.Scenarios))
	}
}

// The central cross-check: the ASP path and the native path produce the
// same rows — same S<n> IDs, scenarios and violations — over the whole
// space, for every order of the candidate set (IDs follow it).
func TestASPAgreesWithNative(t *testing.T) {
	eng, muts, reqs := setup(t)
	for _, perm := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		t.Run(fmt.Sprint(perm), func(t *testing.T) {
			pm := make([]faults.Mutation, len(perm))
			for i, j := range perm {
				pm[i] = muts[j]
			}
			native, err := AnalyzeSweep(eng, pm, -1, reqs, SweepConfig{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			asp, err := AnalyzeASPOpts(eng, pm, -1, reqs, ASPOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(native.Scenarios) != len(asp.Scenarios) {
				t.Fatalf("scenario counts differ: native %d vs asp %d",
					len(native.Scenarios), len(asp.Scenarios))
			}
			for i, ns := range native.Scenarios {
				as := asp.Scenarios[i]
				if ns.ID != as.ID || ns.Scenario.Key() != as.Scenario.Key() {
					t.Errorf("row %d: native %s %s vs asp %s %s", i, ns.ID, ns.Scenario, as.ID, as.Scenario)
				}
				if strings.Join(ns.Violated, ",") != strings.Join(as.Violated, ",") || ns.Risk != as.Risk {
					t.Errorf("%s: native %v %+v vs asp %v %+v", ns.ID, ns.Violated, ns.Risk, as.Violated, as.Risk)
				}
			}
		})
	}
}

func TestRanked(t *testing.T) {
	eng, muts, reqs := setup(t)
	a, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ranked := a.Ranked()
	if len(ranked) != len(a.Scenarios) {
		t.Fatal("ranking dropped scenarios")
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i-1].Risk.Risk < ranked[i].Risk.Risk {
			t.Fatalf("ranking not descending at %d", i)
		}
	}
	// The top scenario must be hazardous.
	if !ranked[0].IsHazardous() {
		t.Errorf("top ranked = %+v", ranked[0])
	}
}

// TestRankedTies pins Ranked on rows that tie at every level of the
// order: risk, severity, likelihood, fault count, and finally the ID as a
// plain string, so S10 ranks before S2.
func TestRankedTies(t *testing.T) {
	rows := []risk.ScenarioRisk{
		{ID: "S1", Risk: qual.Low, Severity: qual.Low, Likelihood: qual.Low, Faults: 1},
		{ID: "S2", Risk: qual.High, Severity: qual.High, Likelihood: qual.Low, Faults: 2},
		{ID: "S3", Risk: qual.High, Severity: qual.Medium, Likelihood: qual.High, Faults: 1},
		{ID: "S4", Risk: qual.High, Severity: qual.High, Likelihood: qual.Medium, Faults: 3},
		{ID: "S5", Risk: qual.High, Severity: qual.High, Likelihood: qual.Low, Faults: 1},
		{ID: "S10", Risk: qual.High, Severity: qual.High, Likelihood: qual.Low, Faults: 2},
		{ID: "S11", Risk: qual.VeryHigh, Severity: qual.Low, Likelihood: qual.Low, Faults: 4},
	}
	a := &Analysis{}
	for _, r := range rows {
		a.Scenarios = append(a.Scenarios, ScenarioResult{ID: r.ID, Risk: r})
	}
	var got []string
	for _, s := range a.Ranked() {
		got = append(got, s.ID)
	}
	want := "S11 S4 S5 S10 S2 S3 S1"
	if strings.Join(got, " ") != want {
		t.Fatalf("Ranked = %v, want %s", got, want)
	}
}

// TestRankedMatchesRiskRank: Ranked orders rows exactly as a stable
// risk.Compare sort orders them. The seeded rows tie densely on every
// field of the packed key, repeat whole rows (which only the row index
// orders), and carry IDs on both sides of the eight-byte prefix Ranked
// sorts by: S99999999 against S100000000, S10 against S2, and prefixes
// that tie with lengths that differ. An empty analysis and the rows of a
// real sweep are checked too.
func TestRankedMatchesRiskRank(t *testing.T) {
	stableRank := func(rows []ScenarioResult) []ScenarioResult {
		out := slices.Clone(rows)
		slices.SortStableFunc(out, func(x, y ScenarioResult) int { return risk.Compare(x.Risk, y.Risk) })
		return out
	}
	check := func(name string, a *Analysis) {
		t.Helper()
		got, want := a.Ranked(), stableRank(a.Scenarios)
		if len(got) != len(want) {
			t.Fatalf("%s: Ranked has %d rows, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || got[i].Risk != want[i].Risk {
				t.Fatalf("%s position %d: Ranked %+v, stable risk.Compare sort %+v", name, i, got[i].Risk, want[i].Risk)
			}
		}
	}
	check("empty", &Analysis{})

	ids := []string{"S1", "S2", "S10", "S9999999", "S1000000", "S10000000",
		"S99999999", "S100000000", "S100000001", "S1\x00"}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		a := &Analysis{}
		for i, n := 0, rng.Intn(300); i < n; i++ {
			id := ids[rng.Intn(len(ids))]
			if rng.Intn(2) == 0 {
				id = fmt.Sprintf("S%d", rng.Intn(200_000_000)+1)
			}
			// Violations is outside the order, so it marks the row: a
			// stable sort keeps repeated rows in index order.
			r := risk.ScenarioRisk{
				ID:         id,
				Risk:       qual.Level(rng.Intn(3)),
				Severity:   qual.Level(rng.Intn(3)),
				Likelihood: qual.Level(rng.Intn(3)),
				Faults:     rng.Intn(3),
				Violations: i,
			}
			a.Scenarios = append(a.Scenarios, ScenarioResult{ID: id, Risk: r})
		}
		check(fmt.Sprintf("trial %d", trial), a)
	}

	eng, muts, reqs := setup(t)
	a, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{Parallelism: 2, Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	check("sweep", a)
}

func TestMinimalCuts(t *testing.T) {
	eng, muts, reqs := setup(t)
	a, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	cuts := a.MinimalCuts("R1")
	// Minimal R1 violators: {sink corrupt} and {src corrupt, guard bypass}.
	if len(cuts) != 2 {
		var keys []string
		for _, c := range cuts {
			keys = append(keys, c.Scenario.Key())
		}
		t.Fatalf("minimal cuts = %v", keys)
	}
	for _, c := range cuts {
		switch c.Scenario.Key() {
		case "{sink:corrupt}", "{guard:bypass,src:corrupt}":
		default:
			t.Errorf("unexpected minimal cut %s", c.Scenario.Key())
		}
	}
}

func TestRequirementValidation(t *testing.T) {
	eng, muts, _ := setup(t)
	bad := [][]Requirement{
		{{ID: "", Condition: Comp("x", epa.ErrValue)}},
		{{ID: "R", Condition: nil}},
		{{ID: "R", Condition: Comp("x", epa.ErrValue)},
			{ID: "R", Condition: Comp("y", epa.ErrValue)}},
	}
	for i, reqs := range bad {
		if _, err := AnalyzeSweep(eng, muts, 0, reqs, SweepConfig{Parallelism: 1}); err == nil {
			t.Errorf("case %d: expected error", i)
		}
		if _, err := AnalyzeASPOpts(eng, muts, 0, reqs, ASPOptions{}); err == nil {
			t.Errorf("case %d (asp): expected error", i)
		}
	}
}

func TestConditionEval(t *testing.T) {
	eng, _, _ := setup(t)
	sc := epa.Scenario{{Component: "src", Fault: "corrupt"}}
	res, err := eng.RunBudget(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		cond Condition
		want bool
	}{
		{Comp("src", epa.ErrValue), true},
		{Comp("sink", epa.ErrValue), false},
		{Port("guard", "in", epa.ErrValue), true},
		{Port("guard", "out", epa.ErrValue), false},
		{Fault("src", "corrupt"), true},
		{Fault("guard", "bypass"), false},
		{Not(Fault("guard", "bypass")), true},
		{All(Comp("src", epa.ErrValue), Not(Comp("sink", epa.ErrValue))), true},
		{Any(Comp("sink", epa.ErrValue), Fault("src", "corrupt")), true},
		{All(), true},
		{Any(), false},
	}
	for _, tt := range tests {
		if got := Eval(tt.cond, sc, res); got != tt.want {
			t.Errorf("Eval(%s) = %v, want %v", tt.cond, got, tt.want)
		}
	}
}

func TestConditionStrings(t *testing.T) {
	c := All(Comp("a", epa.ErrValue), Not(Any(Fault("b", "f"), Port("c", "p", epa.ErrOmission))))
	s := c.String()
	for _, want := range []string{"err(a,value_err)", "active(b,f)", "err(c.p,omission)", "!"} {
		if !strings.Contains(s, want) {
			t.Errorf("condition string %q missing %q", s, want)
		}
	}
}

func BenchmarkAnalyzeNative(b *testing.B) {
	eng, muts, reqs := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{Parallelism: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeASP(b *testing.B) {
	eng, muts, reqs := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeASPOpts(eng, muts, -1, reqs, ASPOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
