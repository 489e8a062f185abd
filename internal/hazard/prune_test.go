package hazard

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"cpsrisk/internal/budget"
	"cpsrisk/internal/epa"
	"cpsrisk/internal/faultinject"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/qual"
	"cpsrisk/internal/store"
	"cpsrisk/internal/sysmodel"
)

// setupSymmetric builds a plant with heavy redundancy: n identical
// sensors (corrupt/stuck faults) feeding one hub that propagates
// errors to its output. The requirement watches the hub only, so every
// sensor is interchangeable — the worst case for an exhaustive sweep
// and the best case for pruning.
func setupSymmetric(t testing.TB, n int) (*epa.Engine, []faults.Mutation, []Requirement) {
	t.Helper()
	types := sysmodel.NewTypeLibrary()
	types.MustAdd(&sysmodel.ComponentType{
		Name: "sensor",
		Ports: []sysmodel.PortSpec{
			{Name: "out", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow},
		},
		FaultModes: []sysmodel.FaultModeSpec{
			{Name: "corrupt", Likelihood: "M"}, {Name: "stuck", Likelihood: "L"},
		},
	})
	types.MustAdd(&sysmodel.ComponentType{
		Name: "hub",
		Ports: []sysmodel.PortSpec{
			{Name: "in", Dir: sysmodel.In, Flow: sysmodel.SignalFlow},
			{Name: "out", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow},
		},
		FaultModes: []sysmodel.FaultModeSpec{{Name: "crash", Likelihood: "L"}},
	})
	m := sysmodel.NewModel("sym-star")
	m.MustAddComponent(&sysmodel.Component{ID: "hub", Type: "hub"})
	var muts []faults.Mutation
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s%02d", i)
		m.MustAddComponent(&sysmodel.Component{ID: id, Type: "sensor"})
		m.Connect(id, "out", "hub", "in", sysmodel.SignalFlow)
		muts = append(muts,
			faults.Mutation{Activation: epa.Activation{Component: id, Fault: "corrupt"}, Likelihood: qual.Medium},
			faults.Mutation{Activation: epa.Activation{Component: id, Fault: "stuck"}, Likelihood: qual.Low},
		)
	}
	muts = append(muts, faults.Mutation{
		Activation: epa.Activation{Component: "hub", Fault: "crash"}, Likelihood: qual.Low})
	lib := epa.NewBehaviorLibrary(types)
	lib.MustRegister(&epa.TypeBehavior{
		Type: "sensor",
		Effects: []epa.FaultEffect{
			{Fault: "corrupt", Port: "out", Emit: epa.StateOf(epa.ErrValue)},
			{Fault: "stuck", Port: "out", Emit: epa.StateOf(epa.ErrTiming)},
		},
	})
	lib.MustRegister(&epa.TypeBehavior{
		Type: "hub",
		Effects: []epa.FaultEffect{
			{Fault: "crash", Port: "out", Emit: epa.StateOf(epa.ErrOmission)},
		},
		Transfers: epa.IdentityTransfers("in", "out"),
	})
	eng, err := epa.NewEngine(m, lib)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Requirement{
		{ID: "R-HUB", Description: "hub output integrity", Severity: qual.High,
			Condition: Comp("hub", epa.ErrValue)},
		{ID: "R-OMIT", Description: "hub availability", Severity: qual.Medium,
			Condition: Comp("hub", epa.ErrOmission)},
	}
	return eng, muts, reqs
}

// setupNonMonotone builds a chain whose middle node can FILTER errors
// away: activating c1.filter suppresses propagation, so adding a fault
// can remove a violation. Dominance must disarm itself here.
func setupNonMonotone(t testing.TB) (*epa.Engine, []faults.Mutation, []Requirement) {
	t.Helper()
	types := sysmodel.NewTypeLibrary()
	types.MustAdd(&sysmodel.ComponentType{
		Name: "node",
		Ports: []sysmodel.PortSpec{
			{Name: "in", Dir: sysmodel.In, Flow: sysmodel.SignalFlow},
			{Name: "out", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow},
		},
		FaultModes: []sysmodel.FaultModeSpec{
			{Name: "corrupt", Likelihood: "M"}, {Name: "filter", Likelihood: "L"},
		},
	})
	m := sysmodel.NewModel("filtered-chain")
	for _, id := range []string{"c0", "c1", "c2"} {
		m.MustAddComponent(&sysmodel.Component{ID: id, Type: "node"})
	}
	m.Connect("c0", "out", "c1", "in", sysmodel.SignalFlow)
	m.Connect("c1", "out", "c2", "in", sysmodel.SignalFlow)
	lib := epa.NewBehaviorLibrary(types)
	lib.MustRegister(&epa.TypeBehavior{
		Type:    "node",
		Effects: []epa.FaultEffect{{Fault: "corrupt", Port: "out", Emit: epa.StateOf(epa.ErrValue)}},
		Transfers: []epa.TransferRule{{
			From: "in", Match: epa.StateOf(epa.ErrValue), To: "out",
			Emit: epa.StateOf(epa.ErrValue), UnlessFault: "filter",
		}},
	})
	eng, err := epa.NewEngine(m, lib)
	if err != nil {
		t.Fatal(err)
	}
	var muts []faults.Mutation
	for _, id := range []string{"c0", "c1", "c2"} {
		muts = append(muts,
			faults.Mutation{Activation: epa.Activation{Component: id, Fault: "corrupt"}, Likelihood: qual.Medium},
			faults.Mutation{Activation: epa.Activation{Component: id, Fault: "filter"}, Likelihood: qual.Low},
		)
	}
	reqs := []Requirement{
		{ID: "R1", Severity: qual.High, Condition: Comp("c2", epa.ErrValue)},
	}
	return eng, muts, reqs
}

// TestPrunedMatchesExhaustive is the soundness anchor: the pruned sweep
// must produce a byte-identical report to the exhaustive sweep — same
// IDs, violation vectors, risks, and summary — at k <= 3 on every test
// plant, at multiple parallelism levels.
func TestPrunedMatchesExhaustive(t *testing.T) {
	plants := []struct {
		name  string
		setup func(testing.TB) (*epa.Engine, []faults.Mutation, []Requirement)
	}{
		{"wide-chain", func(t testing.TB) (*epa.Engine, []faults.Mutation, []Requirement) { return setupWide(t, 6) }},
		{"sym-star", func(t testing.TB) (*epa.Engine, []faults.Mutation, []Requirement) { return setupSymmetric(t, 5) }},
		{"non-monotone", func(t testing.TB) (*epa.Engine, []faults.Mutation, []Requirement) { return setupNonMonotone(t) }},
	}
	for _, pl := range plants {
		for _, k := range []int{1, 2, 3} {
			for _, par := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/k=%d/p=%d", pl.name, k, par), func(t *testing.T) {
					eng, muts, reqs := pl.setup(t)
					exhaustive, err := AnalyzeSweep(eng, muts, k, reqs, SweepConfig{Parallelism: par})
					if err != nil {
						t.Fatal(err)
					}
					pruned, err := AnalyzeSweep(eng, muts, k, reqs, SweepConfig{Parallelism: par, Prune: true})
					if err != nil {
						t.Fatal(err)
					}
					if got, want := projection(pruned), projection(exhaustive); got != want {
						t.Fatalf("pruned report diverged:\n--- pruned ---\n%s\n--- exhaustive ---\n%s", got, want)
					}
					// The sequential reference closes the triangle.
					ref, err := refAnalyze(eng, muts, k, reqs, nil)
					if err != nil {
						t.Fatal(err)
					}
					if projection(ref) != projection(exhaustive) {
						t.Fatal("exhaustive sweep diverged from the sequential reference")
					}
				})
			}
		}
	}
}

// TestPrunedSweepSkipsWork pins the point of the tentpole: on a
// redundant plant most scenarios are synthesized, not simulated.
func TestPrunedSweepSkipsWork(t *testing.T) {
	eng, muts, reqs := setupSymmetric(t, 5)
	a, err := AnalyzeSweep(eng, muts, 3, reqs, SweepConfig{Parallelism: 2, Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	sw := a.Sweep
	if sw.Pruned == 0 {
		t.Error("dominance pruned nothing on a monotone plant with violating singletons")
	}
	if sw.OrbitHits == 0 {
		t.Error("orbit replication found nothing on a 5-way symmetric plant")
	}
	if sw.OrbitClasses == 0 {
		t.Error("no symmetry classes detected")
	}
	total := int64(len(a.Scenarios))
	if sw.Executed+sw.Pruned+sw.OrbitHits != total {
		t.Errorf("accounting: executed %d + pruned %d + orbit %d != %d scenarios",
			sw.Executed, sw.Pruned, sw.OrbitHits, total)
	}
	if sw.Executed*2 >= total {
		t.Errorf("pruning too weak: %d of %d executed", sw.Executed, total)
	}
}

// TestDominanceGates verifies the two disarm conditions: a non-monotone
// engine (UnlessFault) and a non-monotone condition (NotCond) must each
// disable dominance — and the sweep must stay correct via orbits alone.
func TestDominanceGates(t *testing.T) {
	engNM, mutsNM, reqsNM := setupNonMonotone(t)
	if p := newPruner(engNM, mutsNM, reqsNM); p.dominance {
		t.Error("dominance armed on an UnlessFault engine")
	}
	// Sanity: the plant really is non-monotone — adding c1.filter removes
	// the violation that c0.corrupt alone causes.
	r1, err := engNM.Run(epa.Scenario{{Component: "c0", Fault: "corrupt"}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := engNM.Run(epa.Scenario{
		{Component: "c0", Fault: "corrupt"}, {Component: "c1", Fault: "filter"}})
	if err != nil {
		t.Fatal(err)
	}
	if !Eval(reqsNM[0].Condition, nil, r1) || Eval(reqsNM[0].Condition, nil, r2) {
		t.Fatal("filter plant is unexpectedly monotone; the gate test is vacuous")
	}

	eng, muts, _ := setupSymmetric(t, 3)
	notReqs := []Requirement{{ID: "R-NOT", Severity: qual.High,
		Condition: Not(Comp("hub", epa.ErrValue))}}
	if p := newPruner(eng, muts, notReqs); p.dominance {
		t.Error("dominance armed on a NotCond requirement")
	}
	if p := newPruner(eng, muts, []Requirement{{ID: "R", Severity: qual.High,
		Condition: Comp("hub", epa.ErrValue)}}); !p.dominance {
		t.Error("dominance not armed on a monotone engine + condition")
	}

	// Full equivalence on the NotCond requirement set (orbit-only path).
	exhaustive, err := AnalyzeSweep(eng, muts, 2, notReqs, SweepConfig{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := AnalyzeSweep(eng, muts, 2, notReqs, SweepConfig{Parallelism: 2, Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	if projection(pruned) != projection(exhaustive) {
		t.Fatal("orbit-only pruned sweep diverged on NotCond requirements")
	}
}

// TestMonotonicityContract asserts the dominance premise directly
// against the engine: on a Monotone() engine, growing the scenario can
// only grow every port's error state.
func TestMonotonicityContract(t *testing.T) {
	eng, muts, _ := setupWide(t, 5)
	if !eng.Monotone() {
		t.Fatal("wide chain must be monotone")
	}
	var scs []epa.Scenario
	faults.EnumerateStream(muts, 2, func(sc epa.Scenario) bool {
		scs = append(scs, sc)
		return true
	})
	for _, sub := range scs {
		for _, super := range scs {
			if len(sub) >= len(super) || !isSubScenario(sub, super) {
				continue
			}
			rSub, err := eng.Run(sub)
			if err != nil {
				t.Fatal(err)
			}
			rSuper, err := eng.Run(super)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				comp := fmt.Sprintf("c%d", i)
				for _, port := range []string{"in", "out"} {
					if !rSub.PortState(comp, port).Leq(rSuper.PortState(comp, port)) {
						t.Fatalf("monotonicity violated at %s.%s: %v ⊄ %v (sub %s super %s)",
							comp, port, rSub.PortState(comp, port), rSuper.PortState(comp, port),
							sub.Key(), super.Key())
					}
				}
			}
		}
	}
}

// TestSynthRecordsRestoreAcrossRuns: a pruned sweep persists
// synthesized rows as first-class cache records, so a re-run restores
// every row — executed or synthesized — without a single miss.
func TestSynthRecordsRestoreAcrossRuns(t *testing.T) {
	eng, muts, reqs := setupSymmetric(t, 4)
	dir := t.TempDir()
	ns := SweepNamespace(eng, muts)
	run := func() *Analysis {
		cache, err := store.Open(dir, ns, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer cache.Close()
		a, err := AnalyzeSweep(eng, muts, 2, reqs, SweepConfig{Parallelism: 2, Cache: cache, Prune: true})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a1 := run()
	a2 := run()
	if projection(a1) != projection(a2) {
		t.Fatal("pruned cached rerun diverged")
	}
	if a2.Sweep.CacheMisses != 0 {
		t.Fatalf("second pruned run missed the cache %d times: %+v", a2.Sweep.CacheMisses, a2.Sweep)
	}
	if a2.Sweep.CacheHits == 0 {
		t.Fatalf("second pruned run never hit the cache: %+v", a2.Sweep)
	}
}

// TestCrashResumeWithPruning extends the PR 6 crash matrix: kill a
// PRUNED sweep mid-flight at the nastiest sites, resume with the same
// directories, and demand byte-identity with an uninterrupted pruned
// run (which TestPrunedMatchesExhaustive ties to the exhaustive one).
func TestCrashResumeWithPruning(t *testing.T) {
	eng, muts, reqs := setupSymmetric(t, 4) // 2^9 = 512 scenarios unbounded; k=3 keeps it quick
	baselineA, err := AnalyzeSweep(eng, muts, 3, reqs, SweepConfig{Parallelism: 4, Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	baseline := projection(baselineA)
	ns := SweepNamespace(eng, muts)
	specs := []string{
		faultinject.SiteEPARun + "=panic@3",
		faultinject.SiteEPARun + "=cancel@5",
		faultinject.SiteSweepChunk + "=err@2",
		faultinject.SiteStoreWrite + "=torn@1",
		faultinject.SiteCheckpointWrite + "=torn@1",
	}
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			dir := t.TempDir()
			sweep := func(spec string) (*Analysis, error) {
				cache, err := store.Open(filepath.Join(dir, "cache"), ns, store.Options{FlushEvery: 8})
				if err != nil {
					t.Fatal(err)
				}
				defer cache.Close()
				ck, err := OpenCheckpoint(filepath.Join(dir, "ckpt"), 8)
				if err != nil {
					t.Fatal(err)
				}
				bud := chaosBudget(t, spec, budget.Limits{})
				return AnalyzeSweep(eng, muts, 3, reqs, SweepConfig{
					Budget: bud, Parallelism: 4, Cache: cache, Checkpoint: ck, Prune: true,
				})
			}
			a1, err1 := sweep(spec)
			_, _ = a1, err1 // any outcome is legal; the resume must repair it
			assertNoStrayTmp(t, dir)
			a2, err2 := sweep("")
			if err2 != nil {
				t.Fatalf("resume failed: %v", err2)
			}
			if a2.Truncation != nil {
				t.Fatalf("resume truncated: %v", a2.Truncation)
			}
			if got := projection(a2); got != baseline {
				t.Fatalf("resumed pruned report diverged:\n--- got ---\n%s\n--- want ---\n%s", got, baseline)
			}
			assertNoStrayTmp(t, dir)
		})
	}
}

// TestShardedSweepPartitionsAndMerges: m shard runs cover the space
// exactly once with globally consistent IDs, and a follow-up
// whole-space run over the shared cache merges their results without
// recomputing anything.
func TestShardedSweepPartitionsAndMerges(t *testing.T) {
	eng, muts, reqs := setupWide(t, 6) // 64 scenarios
	baselineA, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	var baseRows []string
	for _, s := range baselineA.Scenarios {
		baseRows = append(baseRows, fmt.Sprintf("%s|%s|%v|%+v", s.ID, s.Scenario.Key(), s.Violated, s.Risk))
	}

	dir := t.TempDir()
	ns := SweepNamespace(eng, muts)
	const shards = 3
	var gotRows []string
	for i := 0; i < shards; i++ {
		cache, err := store.Open(dir, ns, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		a, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{
			Parallelism: 2, Cache: cache, ShardIndex: i, ShardCount: shards,
		})
		cache.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("%d/%d", i, shards); a.Sweep.Shard != want {
			t.Fatalf("shard tag = %q, want %q", a.Sweep.Shard, want)
		}
		for _, s := range a.Scenarios {
			gotRows = append(gotRows, fmt.Sprintf("%s|%s|%v|%+v", s.ID, s.Scenario.Key(), s.Violated, s.Risk))
		}
	}
	if strings.Join(gotRows, "\n") != strings.Join(baseRows, "\n") {
		t.Fatalf("shard union diverged:\n--- got ---\n%s\n--- want ---\n%s",
			strings.Join(gotRows, "\n"), strings.Join(baseRows, "\n"))
	}

	// Merge: the whole-space run over the shared cache is byte-identical
	// and recomputes nothing.
	cache, err := store.Open(dir, ns, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	merged, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{Parallelism: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if projection(merged) != projection(baselineA) {
		t.Fatal("merged report diverged from baseline")
	}
	if merged.Sweep.CacheMisses != 0 || merged.Sweep.CacheHits == 0 {
		t.Fatalf("merge recomputed scenarios: %+v", merged.Sweep)
	}
}

// TestShardedPrunedSweep: sharding composes with pruning — each pruned
// shard reports exactly its slice of the exhaustive report.
func TestShardedPrunedSweep(t *testing.T) {
	eng, muts, reqs := setupSymmetric(t, 4)
	baseline, err := AnalyzeSweep(eng, muts, 2, reqs, SweepConfig{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	var got []ScenarioResult
	for i := 0; i < 2; i++ {
		a, err := AnalyzeSweep(eng, muts, 2, reqs, SweepConfig{
			Parallelism: 2, Prune: true, ShardIndex: i, ShardCount: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, a.Scenarios...)
	}
	if len(got) != len(baseline.Scenarios) {
		t.Fatalf("shard union has %d rows, want %d", len(got), len(baseline.Scenarios))
	}
	for i := range got {
		want := baseline.Scenarios[i]
		if fmt.Sprintf("%+v", got[i]) != fmt.Sprintf("%+v", want) {
			t.Fatalf("row %d diverged: %+v != %+v", i, got[i], want)
		}
	}
}

// TestShardCheckpointResume: a budget-capped shard resumes from its own
// per-shard checkpoint file and converges on its slice.
func TestShardCheckpointResume(t *testing.T) {
	eng, muts, reqs := setupWide(t, 6) // 64 scenarios; shard 1/2 = ranks [32,64)
	baseline, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ns := SweepNamespace(eng, muts)
	var a *Analysis
	runs := 0
	for ; runs < 10; runs++ {
		cache, err := store.Open(filepath.Join(dir, "cache"), ns, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ck, err := OpenCheckpointShard(filepath.Join(dir, "ckpt"), 4, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		a, err = AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{
			Budget:      budget.New(context.Background(), budget.Limits{MaxScenarios: 10}),
			Parallelism: 2, Cache: cache, Checkpoint: ck,
			ShardIndex: 1, ShardCount: 2,
		})
		cache.Close()
		if err != nil {
			t.Fatal(err)
		}
		if a.Truncation == nil {
			break
		}
		if !strings.Contains(a.Truncation.Detail, "shard 1/2") {
			t.Fatalf("run %d: truncation detail lacks shard provenance: %q", runs, a.Truncation.Detail)
		}
	}
	if a.Truncation != nil {
		t.Fatalf("shard never converged in %d runs: %v", runs, a.Truncation)
	}
	if runs == 0 {
		t.Fatal("first capped run should have truncated")
	}
	if a.Resume == nil || a.Resume.FromRank <= 32 {
		t.Fatalf("final run should resume above the shard floor: %+v", a.Resume)
	}
	want := baseline.Scenarios[32:]
	if len(a.Scenarios) != len(want) {
		t.Fatalf("shard rows = %d, want %d", len(a.Scenarios), len(want))
	}
	for i := range want {
		if fmt.Sprintf("%+v", a.Scenarios[i]) != fmt.Sprintf("%+v", want[i]) {
			t.Fatalf("row %d diverged: %+v != %+v", i, a.Scenarios[i], want[i])
		}
	}
	// The whole-space checkpoint file name stays free for a whole-space
	// sweep; the shard used its own.
	if _, err := OpenCheckpoint(filepath.Join(dir, "ckpt"), 4); err != nil {
		t.Fatal(err)
	}
}

// TestShardValidation: a bad shard index is an error, not a silent
// empty report.
func TestShardValidation(t *testing.T) {
	eng, muts, reqs := setupWide(t, 4)
	if _, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{ShardIndex: 2, ShardCount: 2}); err == nil {
		t.Error("out-of-range shard index must fail")
	}
	if _, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{ShardIndex: -1, ShardCount: 3}); err == nil {
		t.Error("negative shard index must fail")
	}
}
