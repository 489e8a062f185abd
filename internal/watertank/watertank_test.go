package watertank

import (
	"strings"
	"testing"

	"cpsrisk/internal/epa"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/kb"
	"cpsrisk/internal/mitigation"
	"cpsrisk/internal/plant"
	"cpsrisk/internal/sysmodel"
)

func TestModelsValidate(t *testing.T) {
	types := Types()
	if err := Model().Validate(types); err != nil {
		t.Fatalf("flat model: %v", err)
	}
	h := HierarchicalModel()
	if err := h.Validate(types); err != nil {
		t.Fatalf("hierarchical model: %v", err)
	}
	if len(h.Composites()) != 1 {
		t.Fatalf("composites = %v", h.Composites())
	}
	if err := h.RefineAll(); err != nil {
		t.Fatalf("refine: %v", err)
	}
	if err := h.Validate(types); err != nil {
		t.Fatalf("refined model: %v", err)
	}
	if _, ok := h.Component("ews.os"); !ok {
		t.Error("refined model missing ews.os")
	}
}

// paperRows defines Table II of the paper: the fault-mode combinations and
// the expected violation vectors. Mitigations M1/M2 are "Active" in every
// row except S2 (the compromised-workstation attack is only possible
// without them); the mitigated analysis excludes S2, the unmitigated one
// contains it.
var paperRows = []struct {
	id       string
	faults   []string
	violated []string
}{
	{"S1", nil, nil},
	{"S2", []string{"F4"}, []string{"R1", "R2"}},
	{"S3", []string{"F1"}, nil},
	{"S4", []string{"F2"}, []string{"R1"}},
	{"S5", []string{"F2", "F3"}, []string{"R1", "R2"}},
	{"S6", []string{"F1", "F3"}, nil},
	{"S7", []string{"F1", "F2", "F3"}, []string{"R1", "R2"}},
}

func scenarioFor(labels []string) epa.Scenario {
	var sc epa.Scenario
	for _, l := range labels {
		sc = append(sc, FaultLabels[l])
	}
	return sc
}

// TestTableIIMatchesPaper reproduces every row of the paper's Table II
// with the native exhaustive analysis.
func TestTableIIMatchesPaper(t *testing.T) {
	eng, err := Engine()
	if err != nil {
		t.Fatal(err)
	}
	analysis, err := hazard.AnalyzeSweep(eng, PaperCandidates(), -1, Requirements(), hazard.SweepConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(analysis.Scenarios) != 16 { // 2^4 combinations of F1..F4
		t.Fatalf("scenario count = %d", len(analysis.Scenarios))
	}
	for _, row := range paperRows {
		sc := scenarioFor(row.faults)
		got, ok := analysis.ByScenario(sc)
		if !ok {
			t.Fatalf("row %s: scenario %v missing", row.id, sc)
		}
		if strings.Join(got.Violated, ",") != strings.Join(row.violated, ",") {
			t.Errorf("row %s (%v): violated = %v, want %v",
				row.id, row.faults, got.Violated, row.violated)
		}
	}
}

// The same rows through the ASP path (the paper's actual toolchain shape).
func TestTableIIViaASP(t *testing.T) {
	eng, err := Engine()
	if err != nil {
		t.Fatal(err)
	}
	analysis, err := hazard.AnalyzeASPOpts(eng, PaperCandidates(), -1, Requirements(), hazard.ASPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range paperRows {
		got, ok := analysis.ByScenario(scenarioFor(row.faults))
		if !ok {
			t.Fatalf("row %s missing", row.id)
		}
		if strings.Join(got.Violated, ",") != strings.Join(row.violated, ",") {
			t.Errorf("row %s: ASP violated = %v, want %v", row.id, got.Violated, row.violated)
		}
	}
}

// TestMitigationsExcludeS2 reproduces the mitigation columns of Table II:
// with M1 (user training) and M2 (endpoint security) active, the
// F4 candidate is blocked (paper: "if the analyst activates the potential
// mitigation in the model, it allows excluding this specific scenario").
func TestMitigationsExcludeS2(t *testing.T) {
	k := kb.MustDefaultKB()
	active := map[string]bool{"M-0917": true, "M-0949": true} // M1, M2
	remaining := mitigation.Filter(k, PaperCandidates(), active)
	if len(remaining) != 3 {
		t.Fatalf("remaining candidates = %v", remaining)
	}
	for _, m := range remaining {
		if m.Component == plant.CompEWS {
			t.Error("F4 must be blocked by M1+M2")
		}
	}
	// Without M2 the drive-by path stays open, so F4 remains potential.
	partial := mitigation.Filter(k, PaperCandidates(), map[string]bool{"M-0917": true})
	if len(partial) != 4 {
		t.Errorf("partial mitigation must keep F4: %v", partial)
	}
}

// TestEPAOverapproximatesPlant is the framework's central soundness
// property ("the method guarantees that no actual hazardous attack is
// overlooked"): every requirement violation observed on the concrete
// plant simulation under a scenario is flagged by the qualitative EPA
// analysis of the same scenario.
func TestEPAOverapproximatesPlant(t *testing.T) {
	eng, err := Engine()
	if err != nil {
		t.Fatal(err)
	}
	reqs := Requirements()
	injectables := []epa.Activation{
		{Component: plant.CompInValve, Fault: plant.FaultStuckOpen},
		{Component: plant.CompInValve, Fault: plant.FaultStuckClosed},
		{Component: plant.CompOutValve, Fault: plant.FaultStuckOpen},
		{Component: plant.CompOutValve, Fault: plant.FaultStuckClosed},
		{Component: plant.CompLevelSensor, Fault: plant.FaultNoSignal},
		{Component: plant.CompHMI, Fault: plant.FaultNoSignal},
		{Component: plant.CompEWS, Fault: plant.FaultCompromised},
		{Component: plant.CompInValveCtl, Fault: plant.FaultBadCommand},
		{Component: plant.CompOutValveCtl, Fault: plant.FaultBadCommand},
	}
	cfg := plant.DefaultConfig()
	n := len(injectables)
	for mask := 0; mask < 1<<uint(n); mask++ {
		var sc epa.Scenario
		var injs []plant.Injection
		for i := 0; i < n; i++ {
			if mask>>uint(i)&1 == 1 {
				a := injectables[i]
				sc = append(sc, a)
				injs = append(injs, plant.Injection{Component: a.Component, Fault: a.Fault})
			}
		}
		tr, err := plant.Simulate(cfg, injs)
		if err != nil {
			t.Fatal(err)
		}
		concreteR1 := tr.Overflowed()
		concreteR2 := concreteR1 && !tr.AlertedAfterOverflow()
		if !concreteR1 && !concreteR2 {
			continue
		}
		res, err := eng.RunBudget(sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if concreteR1 && !hazard.Eval(reqs[0].Condition, sc, res) {
			t.Fatalf("scenario %s: concrete overflow not flagged by EPA", sc)
		}
		if concreteR2 && !hazard.Eval(reqs[1].Condition, sc, res) {
			t.Fatalf("scenario %s: concrete silent overflow not flagged by EPA", sc)
		}
	}
}

// Timed sensor loss overflows concretely; the qualitative analysis must
// flag it too (it abstracts from timing, so the scenario is flagged
// regardless of the injection step).
func TestEPAFlagsTimedSensorLoss(t *testing.T) {
	eng, err := Engine()
	if err != nil {
		t.Fatal(err)
	}
	cfg := plant.DefaultConfig()
	nominal, err := plant.Simulate(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	fillStep := -1
	for _, s := range nominal.Steps {
		if s.InFlow > 0 {
			fillStep = s.T
			break
		}
	}
	tr, err := plant.Simulate(cfg, []plant.Injection{{
		Component: plant.CompLevelSensor, Fault: plant.FaultNoSignal, AtStep: fillStep + 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Overflowed() {
		t.Fatal("expected concrete overflow")
	}
	sc := epa.Scenario{{Component: plant.CompLevelSensor, Fault: plant.FaultNoSignal}}
	res, err := eng.RunBudget(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hazard.Eval(Requirements()[0].Condition, sc, res) {
		t.Fatal("EPA must flag sensor loss as a potential overflow")
	}
}

// The refined workstation (Fig. 4): compromising the e-mail client alone
// propagates through browser and OS to the actuators, violating both
// requirements — the hierarchical counterpart of row S2.
func TestHierarchicalCompromiseChain(t *testing.T) {
	types := Types()
	m := HierarchicalModel()
	if err := m.RefineAll(); err != nil {
		t.Fatal(err)
	}
	eng, err := epa.NewEngine(m, Behaviors(types))
	if err != nil {
		t.Fatal(err)
	}
	sc := epa.Scenario{{Component: "ews.email_client", Fault: plant.FaultCompromised}}
	res, err := eng.RunBudget(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	reqs := Requirements()
	if !hazard.Eval(reqs[0].Condition, sc, res) {
		t.Error("refined chain must reach R1 violation")
	}
	if !hazard.Eval(reqs[1].Condition, sc, res) {
		t.Error("refined chain must reach R2 violation")
	}
	// The propagation path is explainable end to end.
	path := res.Path(plant.CompOutValve, "cmd", epa.ErrCompromise)
	if len(path) == 0 {
		t.Fatal("no provenance path")
	}
	var comps []string
	for _, st := range path {
		comps = append(comps, st.Port.Component)
	}
	joined := strings.Join(comps, ">")
	for _, want := range []string{"ews.email_client", "ews.browser", "ews.os", "out_valve_ctrl"} {
		if !strings.Contains(joined, want) {
			t.Errorf("path %s missing %s", joined, want)
		}
	}
}

// Risk ranking over the full candidate space: the attack scenario S2 (F4,
// single activation, medium likelihood) must outrank the triple physical
// coincidence S7.
func TestRiskRankingS2OverS7(t *testing.T) {
	eng, err := Engine()
	if err != nil {
		t.Fatal(err)
	}
	analysis, err := hazard.AnalyzeSweep(eng, PaperCandidates(), -1, Requirements(), hazard.SweepConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := analysis.ByScenario(scenarioFor([]string{"F4"}))
	s7, _ := analysis.ByScenario(scenarioFor([]string{"F1", "F2", "F3"}))
	if s2.Risk.Risk <= s7.Risk.Risk {
		t.Errorf("S2 risk %v must exceed S7 risk %v", s2.Risk.Risk, s7.Risk.Risk)
	}
	ranked := analysis.Ranked()
	if ranked[0].Scenario.Key() != scenarioFor([]string{"F4"}).Key() {
		t.Errorf("top-ranked scenario = %s", ranked[0].Scenario.Key())
	}
}

// The candidate generator derives the paper's candidates (plus more) from
// the model and the default KB.
func TestCandidatesFromModelAndKB(t *testing.T) {
	types := Types()
	m := Model()
	k := kb.MustDefaultKB()
	muts, err := faults.Candidates(m, types, k, faults.AllSources())
	if err != nil {
		t.Fatal(err)
	}
	byAct := map[epa.Activation]faults.Mutation{}
	for _, mu := range muts {
		byAct[mu.Activation] = mu
	}
	for label, act := range FaultLabels {
		if _, ok := byAct[act]; !ok {
			t.Errorf("candidate %s (%v) missing", label, act)
		}
	}
	// The public workstation's compromise candidate carries KB sources.
	f4 := byAct[FaultLabels["F4"]]
	hasKB := false
	for _, s := range f4.Sources {
		if s != "fault_mode" {
			hasKB = true
		}
	}
	if !hasKB {
		t.Errorf("F4 sources = %v", f4.Sources)
	}
	_ = sysmodel.SignalFlow // keep import if assertions change
}

func BenchmarkTableIINative(b *testing.B) {
	eng, err := Engine()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hazard.AnalyzeSweep(eng, PaperCandidates(), -1, Requirements(), hazard.SweepConfig{Parallelism: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIIASP(b *testing.B) {
	eng, err := Engine()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hazard.AnalyzeASPOpts(eng, PaperCandidates(), -1, Requirements(), hazard.ASPOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
