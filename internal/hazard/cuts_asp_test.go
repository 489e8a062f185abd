package hazard

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"cpsrisk/internal/budget"
	"cpsrisk/internal/epa"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/logic"
	"cpsrisk/internal/solver"
)

func cutKeys(cuts []epa.Scenario) []string {
	out := make([]string, 0, len(cuts))
	for _, c := range cuts {
		out = append(out, c.Key())
	}
	sort.Strings(out)
	return out
}

// The ASP minimal-cut enumeration matches the native subset-based
// computation on the guarded-chain model, for every requirement.
func TestMinimalCutsASPAgreesWithNative(t *testing.T) {
	eng, muts, reqs := setup(t)
	analysis, err := Analyze(eng, muts, -1, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range reqs {
		native := analysis.MinimalCuts(req.ID)
		var nativeScenarios []epa.Scenario
		for _, n := range native {
			nativeScenarios = append(nativeScenarios, n.Scenario)
		}
		asp, err := MinimalCutsASP(eng, muts, req, 0)
		if err != nil {
			t.Fatalf("%s: %v", req.ID, err)
		}
		got, want := cutKeys(asp), cutKeys(nativeScenarios)
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("%s: ASP cuts %v != native %v", req.ID, got, want)
		}
	}
}

// A decision cap that trips mid-enumeration must surface as budget
// exhaustion, never as a shorter cut list: an interrupted round holds at
// best a non-optimal incumbent, which is not a minimal cut.
func TestMinimalCutsASPInterruptedIsExhausted(t *testing.T) {
	eng, muts, reqs := setup(t)
	want, err := MinimalCutsASP(eng, muts, reqs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	tripped := 0
	for cap := int64(1); cap <= 40; cap++ {
		bud := budget.New(context.Background(), budget.Limits{MaxDecisions: cap})
		got, err := MinimalCutsASPOpts(eng, muts, reqs[0], 0, ASPOptions{Budget: bud})
		if err != nil {
			ex, ok := budget.Exhausted(err)
			if !ok || ex.Stage != "hazard-cuts" || ex.Reason != budget.ReasonDecisions {
				t.Fatalf("cap %d: err = %v, want a hazard-cuts decision-cap exhaustion", cap, err)
			}
			tripped++
			continue
		}
		if strings.Join(cutKeys(got), "|") != strings.Join(cutKeys(want), "|") {
			t.Fatalf("cap %d: cuts %v, want %v or an exhaustion error", cap, cutKeys(got), cutKeys(want))
		}
	}
	if tripped == 0 {
		t.Fatal("no decision cap tripped the enumeration")
	}
}

func TestMinimalCutsASPNoViolation(t *testing.T) {
	eng, muts, _ := setup(t)
	impossible := Requirement{
		ID: "RX", Severity: 0,
		Condition: All(Fault("src", "corrupt"), Not(Fault("src", "corrupt"))),
	}
	cuts, err := MinimalCutsASP(eng, muts, impossible, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 0 {
		t.Errorf("unsatisfiable condition yielded cuts: %v", cuts)
	}
}

func TestMinimalCutsASPValidation(t *testing.T) {
	eng, muts, _ := setup(t)
	if _, err := MinimalCutsASP(eng, muts, Requirement{ID: ""}, 0); err == nil {
		t.Error("empty requirement must fail")
	}
	// A tiny round budget must be reported, not silently truncated.
	reqs := []Requirement{{ID: "R1", Condition: Comp("sink", epa.ErrValue)}}
	if _, err := MinimalCutsASP(eng, muts, reqs[0], 1); err == nil {
		t.Error("exceeding maxRounds must error (two cardinality levels exist)")
	}
}

// refMinimalCutsSingleShot is the pre-session reference for
// MinimalCutsASP: every round rebuilds the program with all blocking
// constraints and re-grounds and re-solves it from scratch.
func refMinimalCutsSingleShot(eng *epa.Engine, muts []faults.Mutation, req Requirement, maxRounds int) ([]epa.Scenario, error) {
	base, err := cutsBase(eng, muts, req)
	if err != nil {
		return nil, err
	}
	if maxRounds <= 0 {
		maxRounds = defaultCutRounds(len(muts))
	}
	var cuts []epa.Scenario
	for round := 0; round < maxRounds; round++ {
		prog := &logic.Program{}
		prog.Extend(base)
		for _, cut := range cuts {
			prog.AddRule(blockCut(cut))
		}
		res, err := solver.SolveProgram(prog, solver.Options{Optimize: true})
		if err != nil {
			return nil, err
		}
		if len(res.Models) == 0 {
			return cuts, nil // space exhausted
		}
		cuts = append(cuts, cutBatch(res.Models, muts)...)
	}
	return nil, fmt.Errorf("hazard: minimal-cut enumeration exceeded %d rounds", maxRounds)
}

// BenchmarkMinimalCutsASP contrasts the session enumeration with its
// single-shot reference, which re-grounds the encoding every round.
func BenchmarkMinimalCutsASP(b *testing.B) {
	eng, muts, reqs := setup(b)
	for _, arm := range []struct {
		name string
		cuts func(*epa.Engine, []faults.Mutation, Requirement, int) ([]epa.Scenario, error)
	}{
		{"incremental", MinimalCutsASP},
		{"single-shot", refMinimalCutsSingleShot},
	} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := arm.cuts(eng, muts, reqs[0], 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The multi-shot enumeration must be byte-identical to the single-shot
// reference: same cuts, same order (both sort each round's batch by key,
// and round membership is determined by the program alone).
func TestMinimalCutsASPIncrementalMatchesSingleShot(t *testing.T) {
	eng, muts, reqs := setup(t)
	for _, req := range reqs {
		inc, err := MinimalCutsASP(eng, muts, req, 0)
		if err != nil {
			t.Fatalf("%s incremental: %v", req.ID, err)
		}
		ss, err := refMinimalCutsSingleShot(eng, muts, req, 0)
		if err != nil {
			t.Fatalf("%s single-shot: %v", req.ID, err)
		}
		ordered := func(cuts []epa.Scenario) string {
			keys := make([]string, 0, len(cuts))
			for _, c := range cuts {
				keys = append(keys, c.Key())
			}
			return strings.Join(keys, "|")
		}
		if got, want := ordered(inc), ordered(ss); got != want {
			t.Errorf("%s: incremental cuts %q != single-shot %q", req.ID, got, want)
		}
	}
}

// maxRounds <= 0 must clamp instead of overflowing 1 << len(muts) for
// large candidate sets (>= 63 mutations used to shift to zero and abort
// immediately with the exceeded-rounds error).
func TestMinimalCutsDefaultRoundsClamp(t *testing.T) {
	if got := defaultCutRounds(64); got != maxCutRoundsCap {
		t.Errorf("defaultCutRounds(64) = %d, want clamp %d", got, maxCutRoundsCap)
	}
	if got := defaultCutRounds(70); got <= 0 {
		t.Errorf("defaultCutRounds(70) = %d, overflowed", got)
	}
	if got := defaultCutRounds(3); got != 8 {
		t.Errorf("defaultCutRounds(3) = %d, want 8", got)
	}
}
