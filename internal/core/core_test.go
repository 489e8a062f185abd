package core

import (
	"sort"
	"strings"
	"testing"

	"cpsrisk/internal/budget"
	"cpsrisk/internal/cegar"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/kb"
	"cpsrisk/internal/plant"
	"cpsrisk/internal/watertank"
)

func caseStudyConfig() Config {
	types := watertank.Types()
	return Config{
		Model:           watertank.Model(),
		Types:           types,
		Behaviors:       watertank.Behaviors(types),
		KB:              kb.MustDefaultKB(),
		Requirements:    watertank.Requirements(),
		ExtraMutations:  watertank.PaperCandidates(),
		MaxCardinality:  2,
		MutationSources: faults.Options{}, // paper candidates only
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	cfg := caseStudyConfig()
	cfg.Optimize = true
	cfg.Budget = -1
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.ModelStats.Components != 9 {
		t.Errorf("model stats = %+v", a.ModelStats)
	}
	if len(a.Candidates) != 4 {
		t.Errorf("candidates = %v", a.Candidates)
	}
	// Attack graph: the public workstation is compromisable.
	found := false
	for _, c := range a.Compromisable {
		if c == plant.CompEWS {
			found = true
		}
	}
	if !found {
		t.Errorf("compromisable = %v", a.Compromisable)
	}
	// Scenario space: 1 + 4 + 6 = 11 with cardinality 2.
	if len(a.Analysis.Scenarios) != 11 {
		t.Errorf("scenarios = %d", len(a.Analysis.Scenarios))
	}
	if len(a.Ranked) != len(a.Analysis.Scenarios) {
		t.Error("ranking incomplete")
	}
	// F4 (the attack) ranks first.
	if !a.Ranked[0].Scenario.Has(plant.CompEWS, plant.FaultCompromised) {
		t.Errorf("top scenario = %s", a.Ranked[0].Scenario.Key())
	}
	if len(a.RelevantMitigations) == 0 {
		t.Error("no relevant mitigations")
	}
	// The optimizer buys something: blocking F4 scenarios is worthwhile.
	if len(a.Plan.Selected) == 0 {
		t.Errorf("plan = %+v", a.Plan)
	}
	if len(a.Phases) == 0 {
		t.Error("no phases")
	}
}

func TestPipelineWithActiveMitigations(t *testing.T) {
	cfg := caseStudyConfig()
	// M1 + M2 block the paper's F4 paths; MFA additionally blocks the
	// valid-accounts entry the KB knows about, closing the attack graph.
	cfg.ActiveMitigations = map[string]bool{"M-0917": true, "M-0949": true, "M-0932": true}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// F4 filtered: only the three physical faults remain.
	if len(a.Analyzed) != 3 {
		t.Fatalf("analyzed = %v", a.Analyzed)
	}
	for _, s := range a.Analysis.Scenarios {
		if s.Scenario.Has(plant.CompEWS, plant.FaultCompromised) {
			t.Error("mitigated attack scenario still analyzed")
		}
	}
	// The attack graph shrinks too.
	for _, c := range a.Compromisable {
		if c == plant.CompEWS {
			t.Error("mitigations must remove the workstation entry")
		}
	}
}

func TestPipelineASPPathAgrees(t *testing.T) {
	native, err := Run(caseStudyConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := caseStudyConfig()
	cfg.UseASP = true
	asp, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(native.Analysis.Scenarios) != len(asp.Analysis.Scenarios) {
		t.Fatalf("scenario counts differ: %d vs %d",
			len(native.Analysis.Scenarios), len(asp.Analysis.Scenarios))
	}
	for _, ns := range native.Analysis.Scenarios {
		as, ok := asp.Analysis.ByScenario(ns.Scenario)
		if !ok {
			t.Fatalf("ASP missing %s", ns.Scenario.Key())
		}
		if strings.Join(ns.Violated, ",") != strings.Join(as.Violated, ",") {
			t.Errorf("%s: %v vs %v", ns.Scenario.Key(), ns.Violated, as.Violated)
		}
	}
}

func TestPipelineWithOracle(t *testing.T) {
	cfg := caseStudyConfig()
	cfg.Oracle = cegar.NewPlantOracle()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Refinement == nil {
		t.Fatal("refinement missing")
	}
	if len(a.Refinement.Confirmed()) == 0 {
		t.Error("F4 finding must be confirmed")
	}
	if len(a.Refinement.Spurious()) == 0 {
		t.Error("F2-alone finding must be spurious")
	}
}

// The validate stage must judge the same findings on both hazard paths:
// on Fig. 1 over the full mutation surface with the plant oracle, the
// ASP path's Refinement.Findings (scenario, requirement and verdict)
// equal the native path's, and they are exactly the violations the ASP
// hazard analysis reported.
func TestRefinementASPMatchesNative(t *testing.T) {
	run := func(useASP bool) *Assessment {
		t.Helper()
		cfg := caseStudyConfig()
		cfg.MutationSources = faults.AllSources()
		cfg.MaxCardinality = 3
		cfg.Oracle = cegar.NewPlantOracle()
		cfg.UseASP = useASP
		a, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	native, asp := run(false), run(true)
	judged := func(a *Assessment) []string {
		var out []string
		for _, j := range a.Refinement.Findings {
			out = append(out, j.Finding.String()+": "+j.Verdict.String()+" @"+j.Level)
		}
		return out
	}
	want, got := judged(native), judged(asp)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("ASP findings:\n%s\nnative findings:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	verdicts := map[cegar.Verdict]int{}
	for _, j := range asp.Refinement.Findings {
		verdicts[j.Verdict]++
	}
	if verdicts[cegar.Confirmed] == 0 || verdicts[cegar.Spurious] == 0 || verdicts[cegar.Undetermined] == 0 {
		t.Errorf("verdict mix %v: want every verdict represented", verdicts)
	}

	var violations []string
	for _, s := range asp.Analysis.Hazards() {
		for _, req := range s.Violated {
			violations = append(violations, cegar.Finding{Scenario: s.Scenario, ReqID: req}.String())
		}
	}
	var findings []string
	for _, j := range asp.Refinement.Findings {
		findings = append(findings, j.Finding.String())
	}
	sort.Strings(violations)
	sort.Strings(findings)
	if strings.Join(findings, "\n") != strings.Join(violations, "\n") {
		t.Errorf("refinement findings %v != ASP analysis violations %v", findings, violations)
	}
}

// The validate stage judges the analysis the report holds, not a second
// sweep of its own: on Fig. 1 over the full mutation surface with the
// plant oracle, under a scenario cap on both hazard paths,
// Refinement.Findings are exactly the reported analysis's violations in
// Hazards() order, and no truncation of a re-analysis inside validation
// is recorded.
func TestRefinementJudgesTheReport(t *testing.T) {
	for _, arm := range []struct {
		name string
		set  func(*Config)
	}{
		{"native-capped", func(c *Config) { c.Resources = budget.Limits{MaxScenarios: 40} }},
		{"asp-capped", func(c *Config) { c.UseASP = true; c.Resources = budget.Limits{MaxScenarios: 40} }},
	} {
		t.Run(arm.name, func(t *testing.T) {
			cfg := caseStudyConfig()
			cfg.MutationSources = faults.AllSources()
			cfg.MaxCardinality = 3
			cfg.Oracle = cegar.NewPlantOracle()
			arm.set(&cfg)
			a, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			for _, s := range a.Analysis.Hazards() {
				for _, req := range s.Violated {
					want = append(want, cegar.Finding{Scenario: s.Scenario, ReqID: req}.String())
				}
			}
			if len(want) == 0 {
				t.Fatal("the report holds no violation")
			}
			var got []string
			for _, j := range a.Refinement.Findings {
				got = append(got, j.Finding.String())
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("judged %d findings, report holds %d violations:\njudged:\n%s\nreported:\n%s",
					len(got), len(want), strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
			for _, tr := range a.Degradation.Truncations {
				if strings.HasPrefix(tr.Stage, "cegar/") && strings.HasSuffix(tr.Stage, "/hazard") {
					t.Errorf("validation re-analyzed the plant: %+v", tr)
				}
			}
		})
	}
}

func TestPipelineHierarchicalModel(t *testing.T) {
	cfg := caseStudyConfig()
	cfg.Model = watertank.HierarchicalModel()
	cfg.ExtraMutations = nil
	cfg.MutationSources = faults.AllSources()
	cfg.MaxCardinality = 1
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The inner chain produced candidates on the refined components.
	foundInner := false
	for _, m := range a.Candidates {
		if strings.HasPrefix(m.Component, "ews.") {
			foundInner = true
		}
	}
	if !foundInner {
		t.Errorf("no inner candidates: %v", a.Candidates)
	}
	// Compromising the e-mail client is a hazardous singleton scenario.
	hazardous := false
	for _, s := range a.Analysis.Hazards() {
		if s.Scenario.Has("ews.email_client", plant.FaultCompromised) {
			hazardous = true
		}
	}
	if !hazardous {
		t.Error("refined e-mail compromise must be hazardous")
	}
	// The original model is untouched (Run clones).
	if len(cfg.Model.Composites()) != 1 {
		t.Error("Run mutated the input model")
	}
}

func TestPipelineValidation(t *testing.T) {
	cfg := caseStudyConfig()
	cfg.Model = nil
	if _, err := Run(cfg); err == nil {
		t.Error("nil model must fail")
	}
	cfg = caseStudyConfig()
	cfg.Requirements = nil
	if _, err := Run(cfg); err == nil {
		t.Error("no requirements must fail")
	}
}

func TestPipelineBudgetedOptimization(t *testing.T) {
	cfg := caseStudyConfig()
	cfg.Optimize = true
	cfg.Budget = 30 // only user training (20+5) fits
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Plan.Cost > 30 {
		t.Errorf("budget violated: %+v", a.Plan)
	}
}

func BenchmarkPipelineEndToEnd(b *testing.B) {
	cfg := caseStudyConfig()
	cfg.Optimize = true
	cfg.Budget = -1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMergeMutationsOverlap(t *testing.T) {
	// Generated candidates and extra candidates overlap on the ews
	// compromise: sources union, max likelihood wins.
	cfg := caseStudyConfig()
	cfg.MutationSources = faults.AllSources()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var f4 *faults.Mutation
	for i := range a.Candidates {
		if a.Candidates[i].Component == plant.CompEWS &&
			a.Candidates[i].Fault == plant.FaultCompromised {
			f4 = &a.Candidates[i]
		}
	}
	if f4 == nil {
		t.Fatal("merged F4 candidate missing")
	}
	// Sources from both the generator (vulnerabilities, techniques) and
	// the hand-written paper candidates (T-1566, T-1189), deduplicated.
	seen := map[string]bool{}
	for _, s := range f4.Sources {
		if seen[s] {
			t.Fatalf("duplicate source %q after merge: %v", s, f4.Sources)
		}
		seen[s] = true
	}
	if !seen["T-1566"] || !seen["V-2023-0104"] {
		t.Errorf("merged sources incomplete: %v", f4.Sources)
	}
}
