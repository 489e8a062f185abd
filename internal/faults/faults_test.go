package faults

import (
	"fmt"
	"math"
	"testing"

	"cpsrisk/internal/epa"
	"cpsrisk/internal/kb"
	"cpsrisk/internal/logic"
	"cpsrisk/internal/qual"
	"cpsrisk/internal/solver"
	"cpsrisk/internal/sysmodel"
)

func testSetup(t testing.TB) (*sysmodel.Model, *sysmodel.TypeLibrary, *kb.KB) {
	t.Helper()
	lib := sysmodel.NewTypeLibrary()
	lib.MustAdd(&sysmodel.ComponentType{
		Name: "workstation",
		FaultModes: []sysmodel.FaultModeSpec{
			{Name: "compromised", Likelihood: "M"},
			{Name: "crash", Likelihood: "VL"},
		},
	})
	lib.MustAdd(&sysmodel.ComponentType{
		Name: "hmi",
		FaultModes: []sysmodel.FaultModeSpec{
			{Name: "no_signal", Likelihood: "L"},
		},
	})
	m := sysmodel.NewModel("test")
	m.MustAddComponent(&sysmodel.Component{ID: "ews", Type: "workstation",
		Attrs: map[string]string{"exposure": "public", "version": "10"}})
	m.MustAddComponent(&sysmodel.Component{ID: "panel", Type: "hmi"})
	return m, lib, kb.MustDefaultKB()
}

func TestCandidatesSpontaneousOnly(t *testing.T) {
	m, lib, _ := testSetup(t)
	muts, err := Candidates(m, lib, nil, Options{IncludeSpontaneous: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(muts) != 3 {
		t.Fatalf("mutations = %v", muts)
	}
	// Sorted by component then fault.
	if muts[0].Component != "ews" || muts[0].Fault != "compromised" {
		t.Errorf("first = %+v", muts[0])
	}
	if muts[0].Likelihood != qual.Medium {
		t.Errorf("likelihood = %v", muts[0].Likelihood)
	}
	if muts[2].Component != "panel" || muts[2].Likelihood != qual.Low {
		t.Errorf("panel = %+v", muts[2])
	}
}

func TestCandidatesWithKB(t *testing.T) {
	m, lib, k := testSetup(t)
	muts, err := Candidates(m, lib, k, AllSources())
	if err != nil {
		t.Fatal(err)
	}
	// The public workstation picks up spearphishing (T-1566) etc., merged
	// into the existing "compromised" candidate with sources recorded.
	var ews *Mutation
	for i := range muts {
		if muts[i].Component == "ews" && muts[i].Fault == "compromised" {
			ews = &muts[i]
		}
	}
	if ews == nil {
		t.Fatal("ews compromised candidate missing")
	}
	hasTechnique := false
	hasVuln := false
	for _, s := range ews.Sources {
		if s == "T-1566" {
			hasTechnique = true
		}
		if s == "V-2023-0104" {
			hasVuln = true
		}
	}
	if !hasTechnique || !hasVuln {
		t.Errorf("ews sources = %v", ews.Sources)
	}
	// Likelihood is the max over sources: the critical (9.8) default-
	// credential vulnerability maps to VH, dominating spearphishing's H.
	if ews.Likelihood != qual.VeryHigh {
		t.Errorf("merged likelihood = %v", ews.Likelihood)
	}
}

func TestCandidatesExposureGating(t *testing.T) {
	m, lib, k := testSetup(t)
	comp, _ := m.Component("ews")
	comp.SetAttr("exposure", "internal")
	muts, err := Candidates(m, lib, k, Options{IncludeTechniques: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, mu := range muts {
		for _, s := range mu.Sources {
			if s == "T-1566" {
				t.Errorf("public-only technique on internal asset: %+v", mu)
			}
		}
	}
}

func TestCandidatesUndeclaredVulnFaultFails(t *testing.T) {
	lib := sysmodel.NewTypeLibrary()
	lib.MustAdd(&sysmodel.ComponentType{Name: "plc"}) // no fault modes declared
	m := sysmodel.NewModel("x")
	m.MustAddComponent(&sysmodel.Component{ID: "p", Type: "plc",
		Attrs: map[string]string{"version": "fw2.3"}})
	k := kb.MustDefaultKB()
	if _, err := Candidates(m, lib, k, Options{IncludeVulnerabilities: true}); err == nil {
		t.Error("vulnerability with undeclared fault mode must fail loudly")
	}
}

func TestSpaceSize(t *testing.T) {
	tests := []struct {
		n, maxCard int
		want       int64
	}{
		{4, 0, 1},
		{4, 1, 5},
		{4, 2, 11},
		{4, 4, 16},
		{4, -1, 16},
		{4, 9, 16},
		{0, -1, 1},
		{7, 3, 1 + 7 + 21 + 35},
		{62, -1, 1 << 62},
	}
	for _, tt := range tests {
		got, ok := SpaceSize(tt.n, tt.maxCard)
		if got != tt.want || !ok {
			t.Errorf("SpaceSize(%d,%d) = %d,%v, want %d,true", tt.n, tt.maxCard, got, ok, tt.want)
		}
	}
	// Overflow saturates with an explicit flag instead of wrapping: 2^200
	// scenarios do not fit an int64.
	if got, ok := SpaceSize(200, -1); ok || got != math.MaxInt64 {
		t.Errorf("SpaceSize(200,-1) = %d,%v, want saturated,false", got, ok)
	}
	if got, ok := SpaceSize(500, 80); ok || got != math.MaxInt64 {
		t.Errorf("SpaceSize(500,80) = %d,%v, want saturated,false", got, ok)
	}
}

func TestBinomial64(t *testing.T) {
	if c, ok := Binomial64(52, 5); !ok || c != 2598960 {
		t.Errorf("C(52,5) = %d,%v", c, ok)
	}
	if c, ok := Binomial64(10, 0); !ok || c != 1 {
		t.Errorf("C(10,0) = %d,%v", c, ok)
	}
	if c, ok := Binomial64(10, 12); !ok || c != 0 {
		t.Errorf("C(10,12) = %d,%v", c, ok)
	}
	if c, ok := Binomial64(200, 100); ok || c != math.MaxInt64 {
		t.Errorf("C(200,100) = %d,%v, want saturated,false", c, ok)
	}
}

func TestEnumerateMatchesSpaceSize(t *testing.T) {
	m, lib, _ := testSetup(t)
	muts, err := Candidates(m, lib, nil, Options{IncludeSpontaneous: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, maxCard := range []int{0, 1, 2, -1} {
		var scenarios []epa.Scenario
		EnumerateIndex(len(muts), maxCard, func(idx []int) bool {
			sc := make(epa.Scenario, len(idx))
			for i, j := range idx {
				sc[i] = muts[j].Activation
			}
			scenarios = append(scenarios, sc)
			return true
		})
		want, _ := SpaceSize(len(muts), maxCard)
		if int64(len(scenarios)) != want {
			t.Errorf("maxCard=%d: enumerated %d, want %d", maxCard, len(scenarios), want)
		}
		// No duplicates; first is empty; cardinality respected and sorted.
		seen := map[string]bool{}
		for i, sc := range scenarios {
			key := sc.Key()
			if seen[key] {
				t.Fatalf("duplicate scenario %s", key)
			}
			seen[key] = true
			if maxCard >= 0 && len(sc) > maxCard {
				t.Fatalf("scenario %s exceeds cardinality", key)
			}
			if i == 0 && len(sc) != 0 {
				t.Fatal("first scenario must be empty")
			}
			if i > 0 && len(sc) < len(scenarios[i-1]) {
				t.Fatal("scenarios not ordered by cardinality")
			}
		}
	}
}

func TestCandidatesLikelihood(t *testing.T) {
	m, lib, _ := testSetup(t)
	muts, _ := Candidates(m, lib, nil, Options{IncludeSpontaneous: true})
	want := epa.Activation{Component: "ews", Fault: "compromised"}
	for _, mut := range muts {
		if mut.Activation == want {
			if mut.Likelihood != qual.Medium {
				t.Errorf("%v likelihood = %v, want %v", want, mut.Likelihood, qual.Medium)
			}
			return
		}
	}
	t.Errorf("no candidate %v in %v", want, muts)
}

// EncodeChoice must make the solver enumerate exactly the scenario space.
func TestEncodeChoiceEnumeratesSpace(t *testing.T) {
	m, lib, _ := testSetup(t)
	muts, _ := Candidates(m, lib, nil, Options{IncludeSpontaneous: true})
	for _, maxCard := range []int{1, 2, -1} {
		p := &logic.Program{}
		EncodeChoice(p, muts, maxCard)
		res, err := solver.SolveProgram(p, solver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := SpaceSize(len(muts), maxCard)
		if int64(len(res.Models)) != want {
			t.Errorf("maxCard=%d: ASP models = %d, want %d", maxCard, len(res.Models), want)
		}
	}
}

func BenchmarkEnumerate(b *testing.B) {
	for _, card := range []int{2, 3} {
		b.Run(fmt.Sprintf("n=16,k=%d", card), func(b *testing.B) {
			want, _ := SpaceSize(16, card)
			for i := 0; i < b.N; i++ {
				var got int64
				EnumerateIndex(16, card, func([]int) bool {
					got++
					return true
				})
				if got != want {
					b.Fatal("size mismatch")
				}
			}
		})
	}
}
