package cegar

import (
	"reflect"
	"sync"
	"testing"

	"cpsrisk/internal/epa"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/plant"
	"cpsrisk/internal/watertank"
)

// levels builds the two abstraction levels of the case study: the coarse
// level uses the conservative default behaviours (everything propagates),
// the fine level the detailed water-tank behaviours.
func levels(t testing.TB) []Level {
	t.Helper()
	types := watertank.Types()

	coarseEng, err := epa.NewEngine(watertank.Model(), epa.NewBehaviorLibrary(types))
	if err != nil {
		t.Fatal(err)
	}
	fineEng, err := epa.NewEngine(watertank.Model(), watertank.Behaviors(types))
	if err != nil {
		t.Fatal(err)
	}
	return []Level{
		{Name: "coarse", Engine: coarseEng,
			Mutations: watertank.PaperCandidates(), Requirements: watertank.Requirements()},
		{Name: "fine", Engine: fineEng,
			Mutations: watertank.PaperCandidates(), Requirements: watertank.Requirements()},
	}
}

func TestLoopRefinesAndClassifies(t *testing.T) {
	res, err := RunParallel(levels(t), NewPlantOracle(), -1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 2 {
		t.Fatalf("iterations = %d, want 2 (coarse must produce spurious findings)", res.Iterations)
	}
	if len(res.PerLevelFindings) != 2 || res.PerLevelFindings[1] >= res.PerLevelFindings[0] {
		t.Fatalf("refinement must shrink findings: %v", res.PerLevelFindings)
	}
	// The genuine attack (F4) must be confirmed for both requirements.
	f4 := epa.Scenario{{Component: plant.CompEWS, Fault: plant.FaultCompromised}}
	confirmedF4 := map[string]bool{}
	for _, j := range res.Confirmed() {
		if j.Finding.Scenario.Key() == f4.Key() {
			confirmedF4[j.Finding.ReqID] = true
		}
	}
	if !confirmedF4["R1"] || !confirmedF4["R2"] {
		t.Errorf("F4 must be confirmed for R1 and R2: %v", confirmedF4)
	}
	// F2 alone is the paper's qualitative hazard that the concrete
	// controller compensates: it must end up spurious, not lost.
	f2 := epa.Scenario{{Component: plant.CompOutValve, Fault: plant.FaultStuckClosed}}
	spuriousF2 := false
	for _, j := range res.Spurious() {
		if j.Finding.Scenario.Key() == f2.Key() && j.Finding.ReqID == "R1" {
			spuriousF2 = true
		}
	}
	if !spuriousF2 {
		t.Error("F2-alone R1 finding must be classified spurious by the oracle")
	}
	// Nothing undetermined on the representable candidate set.
	if got := res.Undetermined(); len(got) != 0 {
		t.Errorf("undetermined findings: %v", got)
	}
}

// The loop must keep confirmed findings across refinement: every finding
// confirmed at the fine level corresponds to a real concrete violation
// (oracle soundness is exercised through the plant directly).
func TestNoConfirmedFindingIsFalse(t *testing.T) {
	res, err := RunParallel(levels(t), NewPlantOracle(), -1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	oracle := NewPlantOracle()
	for _, j := range res.Confirmed() {
		v, err := oracle.Check(j.Finding)
		if err != nil {
			t.Fatal(err)
		}
		if v != Confirmed {
			t.Errorf("finding %s not reproducible", j.Finding)
		}
	}
}

func TestSingleLevelStopsImmediately(t *testing.T) {
	ls := levels(t)
	res, err := RunParallel(ls[1:], NewPlantOracle(), -1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := RunParallel(nil, NewPlantOracle(), -1, nil, 1); err == nil {
		t.Error("no levels must fail")
	}
}

// An all-confirming oracle makes the loop stop at the coarse level (no
// spurious findings -> no refinement needed).
type yesOracle struct{}

func (yesOracle) Check(Finding) (Verdict, error) { return Confirmed, nil }

func TestLoopStopsWhenAllConfirmed(t *testing.T) {
	res, err := RunParallel(levels(t), yesOracle{}, -1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Fatalf("iterations = %d, want 1", res.Iterations)
	}
	if len(res.Spurious()) != 0 {
		t.Error("all-confirming oracle cannot yield spurious findings")
	}
}

// Unrepresentable scenarios go to expert review rather than being dropped.
func TestUndeterminedRouting(t *testing.T) {
	o := NewPlantOracle()
	v, err := o.Check(Finding{
		Scenario: epa.Scenario{{Component: "alien_asset", Fault: "weird"}},
		ReqID:    "R1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != Undetermined {
		t.Errorf("verdict = %v, want undetermined", v)
	}
	v, err = o.Check(Finding{
		Scenario: epa.Scenario{{Component: plant.CompEWS, Fault: plant.FaultCompromised}},
		ReqID:    "R99",
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != Undetermined {
		t.Errorf("unknown requirement verdict = %v", v)
	}
}

// The oracle's timing probes matter: sensor blindness only overflows when
// injected mid-fill, and the oracle must find that probe.
func TestOracleProbesTiming(t *testing.T) {
	o := NewPlantOracle()
	v, err := o.Check(Finding{
		Scenario: epa.Scenario{{Component: plant.CompLevelSensor, Fault: plant.FaultNoSignal}},
		ReqID:    "R1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != Confirmed {
		t.Errorf("timed sensor loss must be confirmed, got %v", v)
	}
}

// oracleFindings pairs every scenario of at most two plant faults with
// both requirements.
func oracleFindings() []Finding {
	acts := plantActivations
	var out []Finding
	for i := range acts {
		for j := i; j < len(acts); j++ {
			s := epa.Scenario{acts[i]}
			if j > i {
				s = append(s, acts[j])
			}
			out = append(out, Finding{Scenario: s, ReqID: "R1"}, Finding{Scenario: s, ReqID: "R2"})
		}
	}
	return out
}

func checkAll(t *testing.T, o *PlantOracle, findings []Finding) []Verdict {
	t.Helper()
	out := make([]Verdict, len(findings))
	for i, f := range findings {
		v, err := o.Check(f)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

// Concurrent Checks on one oracle share its probe memo (filled by
// whichever check comes first) and must return the sequential verdicts.
func TestPlantOracleConcurrentChecks(t *testing.T) {
	findings := oracleFindings()
	want := checkAll(t, NewPlantOracle(), findings)
	o := NewPlantOracle()
	got := make([]Verdict, len(findings))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(findings); i += 4 {
				v, err := o.Check(findings[i])
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = v
			}
		}(w)
	}
	wg.Wait()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent verdicts %v, sequential %v", got, want)
	}
}

// The probe memo follows Config: editing it between calls recomputes the
// probes, and verdicts match a fresh oracle over the edited Config.
func TestPlantOracleProbesFollowConfig(t *testing.T) {
	o := NewPlantOracle()
	findings := oracleFindings()
	checkAll(t, o, findings)
	before, err := o.probeSteps(o.Config)
	if err != nil {
		t.Fatal(err)
	}
	// Starting below the low mark fills from step 0 on, which moves the
	// mid-fill probe.
	o.Config.InitialLevel = 0.1
	after, err := o.probeSteps(o.Config)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(before, after) {
		t.Fatalf("probes %v unchanged after editing Config", before)
	}
	fresh := &PlantOracle{Config: o.Config}
	if got, want := checkAll(t, o, findings), checkAll(t, fresh, findings); !reflect.DeepEqual(got, want) {
		t.Fatalf("verdicts after editing Config %v, fresh oracle %v", got, want)
	}
	// The edited Config drives the simulation too: without inflow the
	// tank cannot overflow, so nothing is confirmed.
	o.Config.InFlowMax = 0
	for i, v := range checkAll(t, o, findings) {
		if v != Spurious {
			t.Fatalf("%s without inflow: %v, want spurious", findings[i], v)
		}
	}
	o.Config = plant.DefaultConfig()
	if again, err := o.probeSteps(o.Config); err != nil || !reflect.DeepEqual(again, before) {
		t.Fatalf("probes back at the default Config = %v (%v), want %v", again, err, before)
	}
}

func TestVerdictStrings(t *testing.T) {
	for _, v := range []Verdict{Confirmed, Spurious, Undetermined} {
		if v.String() == "" || v.String() == "unknown-verdict" {
			t.Errorf("verdict %d stringer broken", v)
		}
	}
	f := Finding{Scenario: epa.Scenario{{Component: "a", Fault: "b"}}, ReqID: "R1"}
	if f.String() != "{a:b} violates R1" {
		t.Errorf("finding string = %q", f.String())
	}
	_ = hazard.Requirement{}
}

func BenchmarkCEGARLoop(b *testing.B) {
	ls := levels(b)
	oracle := NewPlantOracle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunParallel(ls, oracle, -1, nil, 1); err != nil {
			b.Fatal(err)
		}
	}
}
