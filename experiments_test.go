package cpsrisk

// Top-level experiment index tests: one named test per paper artifact,
// exercising the public API end to end (see DESIGN.md and EXPERIMENTS.md).
// Deeper unit and property tests live next to each package.

import (
	"strings"
	"testing"

	"cpsrisk/internal/cegar"
	"cpsrisk/internal/dynamics"
	"cpsrisk/internal/epa"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/plant"
	"cpsrisk/internal/qual"
	"cpsrisk/internal/report"
	"cpsrisk/internal/risk"
	"cpsrisk/internal/rough"
	"cpsrisk/internal/sensitivity"
	"cpsrisk/internal/watertank"
)

// TestTableI_MatchesPaper (experiment T1): the rendered Table I equals the
// paper cell for cell.
func TestTableI_MatchesPaper(t *testing.T) {
	want := [][]string{
		{"VH", "M", "H", "VH", "VH", "VH"},
		{"H", "L", "M", "H", "VH", "VH"},
		{"M", "VL", "L", "M", "H", "VH"},
		{"L", "VL", "VL", "L", "M", "H"},
		{"VL", "VL", "VL", "VL", "L", "M"},
	}
	lines := strings.Split(report.TableI(), "\n")
	for i, row := range want {
		got := strings.Fields(lines[2+i])
		if strings.Join(got, " ") != strings.Join(row, " ") {
			t.Errorf("Table I row %d = %v, want %v", i, got, row)
		}
	}
}

// TestTableII_MatchesPaper (experiment T2): the rendered Table II carries
// the paper's violation vector in every row, via both engines.
func TestTableII_MatchesPaper(t *testing.T) {
	wantRows := map[string][2]string{
		"S1": {"-", "-"},
		"S2": {"Violated", "Violated"},
		"S3": {"-", "-"},
		"S4": {"Violated", "-"},
		"S5": {"Violated", "Violated"},
		"S6": {"-", "-"},
		"S7": {"Violated", "Violated"},
	}
	for _, useASP := range []bool{false, true} {
		table, err := watertank.PaperTableII(useASP)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(table, "\n") {
			fields := strings.Fields(line)
			if len(fields) == 0 {
				continue
			}
			want, ok := wantRows[fields[0]]
			if !ok {
				continue
			}
			r2 := fields[len(fields)-1]
			r1 := fields[len(fields)-2]
			if r1 != want[0] || r2 != want[1] {
				t.Errorf("asp=%v row %s: R1=%s R2=%s, want %v", useASP, fields[0], r1, r2, want)
			}
		}
	}
}

// TestFig2_DerivationConsistency (experiment F2): the attribute tree is
// internally consistent — the final risk equals the Table I lookup of its
// own derived LM and LEF, for every leaf combination of the primary
// branch.
func TestFig2_DerivationConsistency(t *testing.T) {
	s := qual.FiveLevel()
	for cf := s.Min(); cf <= s.Max(); cf++ {
		for tc := s.Min(); tc <= s.Max(); tc++ {
			for pl := s.Min(); pl <= s.Max(); pl++ {
				d := risk.Derive(risk.Attributes{
					ContactFrequency:    cf,
					ProbabilityOfAction: qual.Medium,
					ThreatCapability:    tc,
					ResistanceStrength:  qual.Medium,
					PrimaryLoss:         pl,
				})
				if d.Risk != risk.ORARisk(d.LossMagnitude, d.LossEventFrequency) {
					t.Fatalf("inconsistent derivation: %s", d)
				}
			}
		}
	}
}

// TestSectionVA_SensitivityClaim (experiment X1): the paper's exact §V-A
// worked example.
func TestSectionVA_SensitivityClaim(t *testing.T) {
	out := func(a sensitivity.Assignment) qual.Level {
		return risk.ORARisk(a["LM"], a["LEF"])
	}
	base := sensitivity.Assignment{"LEF": qual.Low, "LM": qual.Low}
	narrow, err := sensitivity.Analyze(base,
		[]sensitivity.Factor{{Name: "LM", Levels: []qual.Level{qual.VeryLow, qual.Low}}}, out)
	if err != nil {
		t.Fatal(err)
	}
	if narrow[0].Sensitive {
		t.Error("LM in {VL,L} at LEF=L must be insensitive (paper §V-A)")
	}
	wide, err := sensitivity.Analyze(base,
		[]sensitivity.Factor{{Name: "LM",
			Levels: []qual.Level{qual.Low, qual.Medium, qual.High, qual.VeryHigh}}}, out)
	if err != nil {
		t.Fatal(err)
	}
	if !wide[0].Sensitive {
		t.Error("LM in L..VH at LEF=L must be sensitive (paper §V-A)")
	}
}

// TestSectionVII_S5OutranksS7 (experiment X2): S5 and S7 violate the same
// requirements, but S7's triple coincidence is less probable, so S5 ranks
// at least as high and never below it.
func TestSectionVII_S5OutranksS7(t *testing.T) {
	eng, err := watertank.Engine()
	if err != nil {
		t.Fatal(err)
	}
	analysis, err := hazard.AnalyzeSweep(eng, watertank.PaperCandidates(), -1, watertank.Requirements(), hazard.SweepConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	s5 := epa.Scenario{watertank.FaultLabels["F2"], watertank.FaultLabels["F3"]}
	s7 := epa.Scenario{watertank.FaultLabels["F1"], watertank.FaultLabels["F2"], watertank.FaultLabels["F3"]}
	r5, _ := analysis.ByScenario(s5)
	r7, _ := analysis.ByScenario(s7)
	if strings.Join(r5.Violated, ",") != strings.Join(r7.Violated, ",") {
		t.Fatalf("S5 and S7 must violate the same requirements: %v vs %v", r5.Violated, r7.Violated)
	}
	ranked := analysis.Ranked()
	pos := map[string]int{}
	for i, s := range ranked {
		pos[s.Scenario.Key()] = i
	}
	if pos[s5.Key()] > pos[s7.Key()] {
		t.Errorf("S5 (rank %d) must not rank below S7 (rank %d)", pos[s5.Key()], pos[s7.Key()])
	}
}

// TestRST_RegionsFilterSpurious (experiment X3): dropping the LM factor
// from the risk decision table moves every VH-risk verdict out of the
// certain region — the boundary region flags exactly the undecidable
// cells.
func TestRST_RegionsFilterSpurious(t *testing.T) {
	s := qual.FiveLevel()
	var objects []rough.Object
	for lm := s.Min(); lm <= s.Max(); lm++ {
		for lef := s.Min(); lef <= s.Max(); lef++ {
			objects = append(objects, rough.Object{
				ID:       "c" + s.Label(lm) + "_" + s.Label(lef),
				Values:   map[string]string{"LM": s.Label(lm), "LEF": s.Label(lef)},
				Decision: s.Label(risk.ORARisk(lm, lef)),
			})
		}
	}
	tbl, err := rough.NewTable([]string{"LM", "LEF"}, objects)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Dependency(tbl.Attributes) != 1.0 {
		t.Fatal("complete table must be crisp")
	}
	ap := tbl.ApproximateDecision([]string{"LEF"}, "VH")
	if len(ap.Lower) != 0 {
		t.Errorf("no VH verdict is certain without LM: %v", ap.Lower)
	}
	if len(ap.Boundary) == 0 {
		t.Error("boundary region must flag the undecidable cells")
	}
	// Every column of Table I that can reach VH is in the boundary.
	for _, id := range ap.Boundary {
		if strings.HasSuffix(id, "_VL") {
			t.Errorf("LEF=VL cannot reach VH: %s", id)
		}
	}
}

// TestCEGAR_EliminatesSpuriousKeepsReal (experiment X4): the refinement
// loop removes over-abstraction artifacts without losing any confirmed
// hazard.
func TestCEGAR_EliminatesSpuriousKeepsReal(t *testing.T) {
	types := watertank.Types()
	coarse, err := epa.NewEngine(watertank.Model(), epa.NewBehaviorLibrary(types))
	if err != nil {
		t.Fatal(err)
	}
	fine, err := watertank.Engine()
	if err != nil {
		t.Fatal(err)
	}
	res, err := cegar.RunParallel([]cegar.Level{
		{Name: "coarse", Engine: coarse,
			Mutations: watertank.PaperCandidates(), Requirements: watertank.Requirements()},
		{Name: "fine", Engine: fine,
			Mutations: watertank.PaperCandidates(), Requirements: watertank.Requirements()},
	}, cegar.NewPlantOracle(), -1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerLevelFindings[1] >= res.PerLevelFindings[0] {
		t.Errorf("refinement must shrink the finding set: %v", res.PerLevelFindings)
	}
	// Real: the F4 attack confirmed for both requirements.
	confirmed := map[string]bool{}
	for _, j := range res.Confirmed() {
		confirmed[j.Finding.String()] = true
	}
	f4 := epa.Scenario{{Component: plant.CompEWS, Fault: plant.FaultCompromised}}
	for _, req := range []string{"R1", "R2"} {
		if !confirmed[f4.Key()+" violates "+req] {
			t.Errorf("confirmed findings lost %s violation of %s", f4.Key(), req)
		}
	}
}

// TestNoHazardOverlooked is the framework's headline guarantee at the
// integration level: for the case study, every scenario that concretely
// violates a requirement on the plant appears among the abstract analysis
// hazards (subset check over the full F1..F4 space; the finer-grained
// per-port property lives in the watertank package).
func TestNoHazardOverlooked(t *testing.T) {
	eng, err := watertank.Engine()
	if err != nil {
		t.Fatal(err)
	}
	analysis, err := hazard.AnalyzeSweep(eng, watertank.PaperCandidates(), -1, watertank.Requirements(), hazard.SweepConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	oracle := cegar.NewPlantOracle()
	for _, sr := range analysis.Scenarios {
		for _, req := range []string{"R1", "R2"} {
			verdict, err := oracle.Check(cegar.Finding{Scenario: sr.Scenario, ReqID: req})
			if err != nil {
				t.Fatal(err)
			}
			if verdict == cegar.Confirmed && !sr.Violates(req) {
				t.Errorf("scenario %s concretely violates %s but is not flagged",
					sr.Scenario.Key(), req)
			}
		}
	}
}

// TestAbstractionHierarchyNested (experiment X6): the three abstraction
// levels form a proper over-approximation chain on the paper's fault set —
// hazards(dynamic/concrete) ⊆ hazards(detailed static EPA) ⊆
// hazards(coarse static EPA) — with the dynamic qualitative model agreeing
// exactly with the concrete plant (checked combo by combo in
// internal/dynamics).
func TestAbstractionHierarchyNested(t *testing.T) {
	types := watertank.Types()
	coarseEng, err := epa.NewEngine(watertank.Model(), epa.NewBehaviorLibrary(types))
	if err != nil {
		t.Fatal(err)
	}
	fineEng, err := watertank.Engine()
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := hazard.AnalyzeSweep(coarseEng, watertank.PaperCandidates(), -1, watertank.Requirements(), hazard.SweepConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := hazard.AnalyzeSweep(fineEng, watertank.PaperCandidates(), -1, watertank.Requirements(), hazard.SweepConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys := dynamics.WaterTank()
	for _, fs := range fine.Scenarios {
		cs, ok := coarse.ByScenario(fs.Scenario)
		if !ok {
			t.Fatalf("coarse analysis missing %s", fs.Scenario.Key())
		}
		// Every fine violation appears at the coarse level.
		for _, v := range fs.Violated {
			if !cs.Violates(v) {
				t.Errorf("%s: fine flags %s but coarse does not", fs.Scenario.Key(), v)
			}
		}
		// Every dynamic-model violation appears at the fine level.
		var injs []dynamics.Injection
		for _, a := range fs.Scenario {
			injs = append(injs, dynamics.Injection{Key: a.Component + ":" + a.Fault})
		}
		tr, err := sys.Run(20, injs)
		if err != nil {
			t.Fatal(err)
		}
		if dynamics.Overflowed(tr) && !fs.Violates("R1") {
			t.Errorf("%s: dynamic overflow not flagged by static EPA", fs.Scenario.Key())
		}
		if dynamics.Overflowed(tr) && !dynamics.Alerted(tr) && !fs.Violates("R2") {
			t.Errorf("%s: dynamic silent overflow not flagged by static EPA", fs.Scenario.Key())
		}
	}
}
