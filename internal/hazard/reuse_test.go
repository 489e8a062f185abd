package hazard

import (
	"context"
	"fmt"
	"testing"

	"cpsrisk/internal/budget"
	"cpsrisk/internal/epa"
)

// oracleFrom builds a Reuse oracle answering from a finished analysis,
// restricted to scenarios accepted by keep (nil = all).
func oracleFrom(a *Analysis, keep func(epa.Scenario) bool) func(epa.Scenario) ([]string, bool) {
	rows := make(map[string][]string, len(a.Scenarios))
	for _, s := range a.Scenarios {
		rows[s.Scenario.Key()] = s.Violated
	}
	return func(sc epa.Scenario) ([]string, bool) {
		if keep != nil && !keep(sc) {
			return nil, false
		}
		v, ok := rows[sc.Key()]
		return v, ok
	}
}

// TestReuseOracle: rows the delta oracle answers are synthesized without
// EPA runs, and the report is byte-identical to a full sweep.
func TestReuseOracle(t *testing.T) {
	eng, muts, reqs := setupWide(t, 6) // 64 scenarios
	parent, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := projection(parent)

	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("full/p=%d", par), func(t *testing.T) {
			a, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{
				Parallelism: par, Reuse: oracleFrom(parent, nil),
			})
			if err != nil {
				t.Fatal(err)
			}
			if projection(a) != want {
				t.Fatal("reused report diverged from parent")
			}
			if a.Sweep.Reused != 64 || a.Sweep.Executed != 0 {
				t.Fatalf("reused/executed = %d/%d, want 64/0", a.Sweep.Reused, a.Sweep.Executed)
			}
		})
	}

	t.Run("partial", func(t *testing.T) {
		a, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{
			Parallelism: 2,
			Reuse:       oracleFrom(parent, func(sc epa.Scenario) bool { return len(sc) < 3 }),
		})
		if err != nil {
			t.Fatal(err)
		}
		if projection(a) != want {
			t.Fatal("partially reused report diverged from parent")
		}
		// C(6,0)+C(6,1)+C(6,2) = 22 reusable rows; the rest execute.
		if a.Sweep.Reused != 22 || a.Sweep.Executed != 42 {
			t.Fatalf("reused/executed = %d/%d, want 22/42", a.Sweep.Reused, a.Sweep.Executed)
		}
	})

	// Reused rows are free under MaxScenarios: with a full oracle even a
	// tiny cap completes the whole space.
	t.Run("cap-exempt", func(t *testing.T) {
		a, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{
			Parallelism: 2,
			Budget:      budget.New(context.Background(), budget.Limits{MaxScenarios: 10}),
			Reuse:       oracleFrom(parent, nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		if a.Truncation != nil {
			t.Fatalf("fully reused capped run truncated: %v", a.Truncation)
		}
		if len(a.Scenarios) != 64 {
			t.Fatalf("kept %d rows, want 64", len(a.Scenarios))
		}
	})
}

// TestCapChargesExecutedOnly is the pruning-aware MaxScenarios fix: the
// cap charges executed-equivalent scenarios only, so a pruned run under
// the same cap reaches at least as far as the exhaustive run — and on a
// plant where pruning finds nothing, exactly as far.
func TestCapChargesExecutedOnly(t *testing.T) {
	// The pruned sweep executes only ~16 of the 232-row space, so the
	// cap must sit below that to bind on both runs.
	const cap = 10
	eng, muts, reqs := setupSymmetric(t, 5) // 11 muts; k=3 space = 232
	capBud := func() *budget.Budget {
		return budget.New(context.Background(), budget.Limits{MaxScenarios: cap})
	}

	noPrune, err := AnalyzeSweep(eng, muts, 3, reqs, SweepConfig{
		Parallelism: 1, Budget: capBud(),
	})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := AnalyzeSweep(eng, muts, 3, reqs, SweepConfig{
		Parallelism: 1, Budget: capBud(), Prune: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range map[string]*Analysis{"no-prune": noPrune, "pruned": pruned} {
		if a.Truncation == nil || a.Truncation.Reason != budget.ReasonScenarios {
			t.Fatalf("%s: truncation = %v, want scenario cap", name, a.Truncation)
		}
	}
	// Same cap, same executed work — but implied rows ride free, so the
	// pruned run keeps strictly more of the space on this redundant
	// plant.
	if len(pruned.Scenarios) <= len(noPrune.Scenarios) {
		t.Fatalf("pruned kept %d rows, exhaustive %d — pruning paid for synthesized rows",
			len(pruned.Scenarios), len(noPrune.Scenarios))
	}
	// The kept prefix agrees row for row.
	for i, s := range noPrune.Scenarios {
		if fmt.Sprintf("%+v", pruned.Scenarios[i]) != fmt.Sprintf("%+v", s) {
			t.Fatalf("row %d diverged under the cap", i)
		}
	}

	// On a plant where pruning can imply nothing (dominance disarmed, no
	// orbits), the truncation point is pinned equal across -no-prune.
	engNM, mutsNM, reqsNM := setupNonMonotone(t)
	nmNoPrune, err := AnalyzeSweep(engNM, mutsNM, 3, reqsNM, SweepConfig{
		Parallelism: 1, Budget: capBud(),
	})
	if err != nil {
		t.Fatal(err)
	}
	nmPruned, err := AnalyzeSweep(engNM, mutsNM, 3, reqsNM, SweepConfig{
		Parallelism: 1, Budget: capBud(), Prune: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if projection(nmPruned) != projection(nmNoPrune) {
		t.Fatal("un-prunable plant: capped pruned report diverged from -no-prune")
	}
}

// TestCapDeterministicAcrossParallelism: the shadow accountant makes the
// cap's truncation rank a pure function of the stream, so the capped
// pruned report is byte-identical across worker counts.
func TestCapDeterministicAcrossParallelism(t *testing.T) {
	eng, muts, reqs := setupSymmetric(t, 5)
	run := func(par int) string {
		a, err := AnalyzeSweep(eng, muts, 3, reqs, SweepConfig{
			Parallelism: par, Prune: true,
			Budget: budget.New(context.Background(), budget.Limits{MaxScenarios: 25}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return projection(a)
	}
	want := run(1)
	for _, par := range []int{2, 4} {
		if got := run(par); got != want {
			t.Fatalf("capped pruned report varies with parallelism (%d workers)", par)
		}
	}
}
