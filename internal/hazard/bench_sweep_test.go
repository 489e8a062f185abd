package hazard

import (
	"context"
	"testing"

	"cpsrisk/internal/budget"
	"cpsrisk/internal/epa"
	"cpsrisk/internal/faultinject"
	"cpsrisk/internal/faults"
)

func benchBudget(b *testing.B, inj *faultinject.Injector) *budget.Budget {
	ctx, cancel := context.WithCancel(context.Background())
	b.Cleanup(cancel)
	inj.BindCancel(cancel)
	return budget.New(faultinject.ContextWith(ctx, inj), budget.Limits{})
}

// The crash-safety machinery advertises a nil-check-only cost when
// disabled: a sweep with no checkpoint and no injector must run at the
// same speed it did before the machinery existed. Compare
// BenchmarkSweepPlain against BenchmarkSweepInjectorArmed to see the
// armed-but-missing cost.

func benchSweep(b *testing.B, cfg SweepConfig) {
	eng, muts, reqs := setupWide(b, 8) // 256 scenarios
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeSweep(eng, muts, -1, reqs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepPlain is the disabled fault path: zero SweepConfig,
// exactly what every caller ran before this machinery existed.
func BenchmarkSweepPlain(b *testing.B) {
	benchSweep(b, SweepConfig{Parallelism: 4})
}

// BenchmarkSweepInjectorArmed runs with an injector armed on a site the
// sweep never fires, so every Fire call takes the full miss path.
func BenchmarkSweepInjectorArmed(b *testing.B) {
	inj, err := faultinject.New(1, "never.fires=err@1")
	if err != nil {
		b.Fatal(err)
	}
	benchSweep(b, SweepConfig{Parallelism: 4, Budget: benchBudget(b, inj)})
}

// setupStar is the sweep-star plant of the repository benchmark:
// setupSymmetric's 10-sensor star (21 candidates) watched by the hub
// integrity requirement alone, swept at k = starMaxCard — 27,896 rows,
// of which a dozen execute when pruned.
func setupStar(t testing.TB) (*epa.Engine, []faults.Mutation, []Requirement) {
	eng, muts, reqs := setupSymmetric(t, 10)
	return eng, muts, reqs[:1]
}

const starMaxCard = 5

var (
	sinkScenario epa.Scenario
	sinkBytes    []byte
	sinkRow      ScenarioResult
	sinkRows     []ScenarioResult
	sinkKnown    bool
)

// BenchmarkSweepRow splits a pruned sweep row on the star plant into its
// stages, each op one row (cycling through the k=5 space) against the
// pruning state a finished sweep leaves: enumerate (next combination and
// its scenario, written into a per-chunk slab as the producer does),
// mask, lookup (dominance, then the orbit memo), orbitKey, record (the
// read-locked no-op path), row (synthesizeResult), and Ranked, whose op
// ranks the whole analysis and which reports ns/row besides.
func BenchmarkSweepRow(b *testing.B) {
	eng, muts, reqs := setupStar(b)
	a, err := AnalyzeSweep(eng, muts, starMaxCard, reqs, SweepConfig{Parallelism: 1, Prune: true})
	if err != nil {
		b.Fatal(err)
	}
	rows := len(a.Scenarios)
	maskLen := (len(muts) + 7) / 8
	var idxs [][]int
	var masks [][]byte
	faults.EnumerateIndex(len(muts), starMaxCard, func(idx []int) bool {
		idxs = append(idxs, append([]int(nil), idx...))
		masks = append(masks, appendMask(nil, idx, maskLen))
		return true
	})
	pr := newPruner(eng, muts, reqs)
	var ks orbitScratch
	keys := make([][]byte, rows)
	for i, sr := range a.Scenarios {
		if key := pr.orbitKey(masks[i], &ks); key != nil {
			keys[i] = append([]byte(nil), key...)
		}
		pr.record(masks[i], keys[i], sr.Violated)
	}

	b.Run("enumerate", func(b *testing.B) {
		b.ReportAllocs()
		var slab []epa.Activation
		for n := 0; n < b.N; {
			faults.EnumerateIndex(len(muts), starMaxCard, func(idx []int) bool {
				if n%sweepChunkSize == 0 {
					slab = make([]epa.Activation, 0, sweepChunkSize*max(len(idx), 1))
				}
				slab, sinkScenario = appendScenario(slab, muts, idx)
				n++
				return n < b.N
			})
		}
	})
	b.Run("mask", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			sinkBytes = appendMask(sinkBytes[:0], idxs[n%rows], maskLen)
		}
	})
	b.Run("lookup", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			i := n % rows
			_, _, sinkKnown = pr.lookup(masks[i], keys[i])
		}
	})
	b.Run("orbitKey", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			sinkBytes = pr.orbitKey(masks[n%rows], &ks)
		}
	})
	b.Run("record", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			i := n % rows
			pr.record(masks[i], keys[i], a.Scenarios[i].Violated)
		}
	})
	b.Run("row", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			i := n % rows
			sr := &a.Scenarios[i]
			sinkRow = synthesizeResult(sr.ID, sr.Scenario, masks[i], sr.Violated, muts, reqs)
		}
	})
	b.Run("Ranked", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			sinkRows = a.Ranked()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
	})
}

// maxAllocsPerRow bounds a pruned one-worker star sweep's heap
// allocations per row: measured 0.19 with go1.24 on linux/amd64 (per
// chunk of 32 rows: the scenario headers, the masks, the activation
// slab and the ID string; the executed rows' Violated slices; the
// pruning state), plus a margin of 0.5 — less than the one allocation
// per row any per-row regression adds.
const maxAllocsPerRow = 0.69

// TestPrunedSweepAllocsPerRow is the per-row allocation gate: a
// regression in the row path (a map or a string built per row) shows as
// a whole allocation per row.
func TestPrunedSweepAllocsPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	eng, muts, reqs := setupStar(t)
	rows := 0
	allocs := testing.AllocsPerRun(3, func() {
		a, err := AnalyzeSweep(eng, muts, starMaxCard, reqs, SweepConfig{Parallelism: 1, Prune: true})
		if err != nil {
			t.Fatal(err)
		}
		rows = len(a.Scenarios)
	})
	perRow := allocs / float64(rows)
	t.Logf("%.0f allocations over %d rows: %.3f per row", allocs, rows, perRow)
	if perRow > maxAllocsPerRow {
		t.Fatalf("%.3f allocations per row, bound %.1f", perRow, maxAllocsPerRow)
	}
}
