package core

import (
	"testing"

	"cpsrisk/internal/epa"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/kb"
	"cpsrisk/internal/logic"
	"cpsrisk/internal/solver"
	"cpsrisk/internal/watertank"
)

// planASPInputs builds the Fig. 1 water tank over the full mutation
// surface (every generated source plus the paper's candidates), the
// input of the ASP hazard stage of the plan-asp benchmark workload.
func planASPInputs(t testing.TB) (*epa.Engine, []faults.Mutation) {
	t.Helper()
	types := watertank.Types()
	model := watertank.Model()
	if err := model.RefineAll(); err != nil {
		t.Fatal(err)
	}
	muts, err := faults.Candidates(model, types, kb.MustDefaultKB(), faults.AllSources())
	if err != nil {
		t.Fatal(err)
	}
	muts = mergeMutations(muts, watertank.PaperCandidates())
	eng, err := epa.NewEngine(model, watertank.Behaviors(types))
	if err != nil {
		t.Fatal(err)
	}
	return eng, muts
}

// planASPProgram is the logic program AnalyzeASPOpts grounds for the
// plan-asp input: the EPA encoding, the unbounded fault choice and the
// violation rules.
func planASPProgram(t testing.TB) *logic.Program {
	t.Helper()
	eng, muts := planASPInputs(t)
	prog, err := eng.EncodeASP()
	if err != nil {
		t.Fatal(err)
	}
	faults.EncodeChoice(prog, muts, -1)
	for _, r := range watertank.Requirements() {
		if err := hazard.EncodeViolation(prog, r.ID, r.Condition); err != nil {
			t.Fatal(err)
		}
	}
	return prog
}

// TestPlanASPSearchPinned pins the ASP hazard stage's search on the
// plan-asp input at k=3. The ground program's size and the engine's
// effort counters are exact: a change to the grounder's output (atom
// IDs, rule order) or to the search (branching, propagation order, the
// stability check) moves at least one of them, and every ASP report
// rests on that search.
func TestPlanASPSearchPinned(t *testing.T) {
	eng, muts := planASPInputs(t)
	a, err := hazard.AnalyzeASPOpts(eng, muts, 3, watertank.Requirements(), hazard.ASPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := a.SolverStats
	got := [...]int64{int64(st.Atoms), int64(st.GroundRules), int64(st.Vars), int64(st.Clauses),
		st.Decisions, st.Conflicts, st.Propagations, st.LoopClauses, st.StableChecks}
	want := [...]int64{145, 172, 299, 800, 201, 12, 10428, 5, 181}
	names := [...]string{"Atoms", "GroundRules", "Vars", "Clauses",
		"Decisions", "Conflicts", "Propagations", "LoopClauses", "StableChecks"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("solver.Stats.%s = %d, want %d", names[i], got[i], want[i])
		}
	}
}

// BenchmarkGroundPlanASP grounds the plan-asp program alone, without
// translation or search.
func BenchmarkGroundPlanASP(b *testing.B) {
	prog := planASPProgram(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Ground(prog, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanASPHazard runs the ASP hazard stage on the plan-asp input
// at k=3: grounding, translation and the cardinality sweep's search.
func BenchmarkPlanASPHazard(b *testing.B) {
	eng, muts := planASPInputs(b)
	reqs := watertank.Requirements()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hazard.AnalyzeASPOpts(eng, muts, 3, reqs, hazard.ASPOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// maxGroundAllocs bounds the heap allocations of grounding the plan-asp
// program once: measured 1,914 with go1.24 on linux/amd64 (the compiled
// rules, the possible atoms and their keys, the ground rules and the
// maps that intern them), plus a margin of 10% for map growth that
// differs across Go versions. The grounder this replaced made 9,236.
const maxGroundAllocs = 2100

// TestGroundPlanASPAllocs is the grounding allocation gate: a per-binding
// allocation in the join (a closure, a map of bindings, a substituted
// term) shows as thousands more.
func TestGroundPlanASPAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	prog := planASPProgram(t)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := solver.Ground(prog, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per grounding", allocs)
	if allocs > maxGroundAllocs {
		t.Fatalf("%.0f allocations per grounding, bound %d", allocs, maxGroundAllocs)
	}
}
