package hazard

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cpsrisk/internal/budget"
	"cpsrisk/internal/epa"
	"cpsrisk/internal/faultinject"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/obs"
	"cpsrisk/internal/qual"
	"cpsrisk/internal/sysmodel"
)

// setupWide builds a propagation chain c0 -> c1 -> ... -> c<n-1> where
// every node can corrupt and errors flow downstream, giving a 2^n
// scenario space — big enough for the crash matrix to interrupt sweeps
// mid-flight at interesting points.
func setupWide(t testing.TB, n int) (*epa.Engine, []faults.Mutation, []Requirement) {
	t.Helper()
	types := sysmodel.NewTypeLibrary()
	types.MustAdd(&sysmodel.ComponentType{
		Name: "node",
		Ports: []sysmodel.PortSpec{
			{Name: "in", Dir: sysmodel.In, Flow: sysmodel.SignalFlow},
			{Name: "out", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow},
		},
		FaultModes: []sysmodel.FaultModeSpec{{Name: "corrupt", Likelihood: "M"}},
	})
	m := sysmodel.NewModel("wide-chain")
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("c%d", i)
		m.MustAddComponent(&sysmodel.Component{ID: ids[i], Type: "node"})
	}
	for i := 0; i+1 < n; i++ {
		m.Connect(ids[i], "out", ids[i+1], "in", sysmodel.SignalFlow)
	}
	lib := epa.NewBehaviorLibrary(types)
	lib.MustRegister(&epa.TypeBehavior{
		Type:    "node",
		Effects: []epa.FaultEffect{{Fault: "corrupt", Port: "out", Emit: epa.StateOf(epa.ErrValue)}},
		Transfers: []epa.TransferRule{
			{From: "in", Match: epa.StateOf(epa.ErrValue), To: "out", Emit: epa.StateOf(epa.ErrValue)},
		},
	})
	eng, err := epa.NewEngine(m, lib)
	if err != nil {
		t.Fatal(err)
	}
	muts := make([]faults.Mutation, n)
	for i, id := range ids {
		muts[i] = faults.Mutation{
			Activation: epa.Activation{Component: id, Fault: "corrupt"},
			Likelihood: qual.Medium, Sources: []string{"fault_mode"},
		}
	}
	reqs := []Requirement{
		{ID: "R1", Description: "chain tail integrity", Severity: qual.High,
			Condition: Comp(ids[n-1], epa.ErrValue)},
	}
	return eng, muts, reqs
}

// projection renders everything deterministic about an analysis — the
// byte-identity oracle. Wall-clock sweep stats are deliberately absent.
func projection(a *Analysis) string {
	var sb strings.Builder
	for _, s := range a.Scenarios {
		fmt.Fprintf(&sb, "%s|%s|%v|%+v\n", s.ID, s.Scenario.Key(), s.Violated, s.Risk)
	}
	sb.WriteString(a.Summary())
	return sb.String()
}

// chaosBudget builds a budget whose context carries an injector armed
// with spec, with the cancel action bound to the context.
func chaosBudget(t *testing.T, spec string, limits budget.Limits) *budget.Budget {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if spec != "" {
		inj, err := faultinject.New(1, spec)
		if err != nil {
			t.Fatal(err)
		}
		inj.BindCancel(cancel)
		ctx = faultinject.ContextWith(ctx, inj)
	}
	return budget.New(ctx, limits)
}

// assertNoStrayTmp is the janitor satellite: after any sweep — crashed,
// cancelled, or clean — no in-flight temp file may survive.
func assertNoStrayTmp(t *testing.T, dir string) {
	t.Helper()
	_ = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".tmp") {
			t.Errorf("stray temp file %s", path)
		}
		return nil
	})
}

// TestCrashMatrix is the tentpole proof: inject a fault at every site
// the sweep crosses, let the run crash or degrade, then resume with the
// same checkpoint directory and demand the final report be identical to
// an uninterrupted baseline.
func TestCrashMatrix(t *testing.T) {
	eng, muts, reqs := setupWide(t, 6) // 64 scenarios, 2 chunks
	baselineA, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	baseline := projection(baselineA)

	specs := []string{
		faultinject.SiteEPARun + "=panic@11",
		faultinject.SiteEPARun + "=err@17",
		faultinject.SiteEPARun + "=transient@*",
		faultinject.SiteEPARun + "=cancel@23",
		faultinject.SiteEPARun + "=panic@r50",
		faultinject.SiteSweepChunk + "=panic@1",
		faultinject.SiteSweepChunk + "=err@2",
		faultinject.SiteCheckpointWrite + "=torn@1",
		faultinject.SiteCheckpointWrite + "=err@*",
	}
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			dir := t.TempDir()
			sweep := func(spec string) (*Analysis, error) {
				ck, err := OpenCheckpoint(dir, 8)
				if err != nil {
					t.Fatal(err)
				}
				bud := chaosBudget(t, spec, budget.Limits{})
				return AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{
					Budget: bud, Parallelism: 4, Checkpoint: ck,
				})
			}

			// Run 1: the crash. Any outcome is legal — a hard error, a
			// degraded analysis, or (for recoverable faults) a complete
			// one — but it must not leave in-flight temp files around.
			a1, err1 := sweep(spec)
			_ = a1
			_ = err1
			assertNoStrayTmp(t, dir)

			// Run 2: the resume. No faults, same directory: the report
			// must be byte-identical to the uninterrupted baseline.
			a2, err2 := sweep("")
			if err2 != nil {
				t.Fatalf("resume failed: %v", err2)
			}
			if a2.Truncation != nil {
				t.Fatalf("resume truncated: %v", a2.Truncation)
			}
			if got := projection(a2); got != baseline {
				t.Fatalf("resumed report diverged from baseline:\n--- got ---\n%s\n--- want ---\n%s", got, baseline)
			}
			assertNoStrayTmp(t, dir)
		})
	}
}

// TestTransientRecoveredInFlight proves the retry path: one transient
// EPA failure recovers inside the same run, with the retry counted.
func TestTransientRecoveredInFlight(t *testing.T) {
	eng, muts, reqs := setupWide(t, 5)
	bud := chaosBudget(t, faultinject.SiteEPARun+"=transient@7", budget.Limits{})
	a, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{Budget: bud, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Truncation != nil {
		t.Fatalf("transient must not degrade the sweep: %v", a.Truncation)
	}
	if len(a.Scenarios) != 32 {
		t.Fatalf("scenarios = %d", len(a.Scenarios))
	}
	if a.Sweep.Retries == 0 {
		t.Fatal("recovered transient must be counted in Sweep.Retries")
	}
}

// TestBudgetTruncatedSweepMakesProgress drives the anytime story: a
// MaxScenarios-capped sweep, re-run against the same checkpoint dir,
// advances its frontier each run and converges on the full report.
func TestBudgetTruncatedSweepMakesProgress(t *testing.T) {
	eng, muts, reqs := setupWide(t, 6) // 64 scenarios
	full, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := projection(full)

	dir := t.TempDir()
	var a *Analysis
	runs := 0
	for ; runs < 10; runs++ {
		ck, err := OpenCheckpoint(dir, 4)
		if err != nil {
			t.Fatal(err)
		}
		a, err = AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{
			Budget:      budget.New(context.Background(), budget.Limits{MaxScenarios: 20}),
			Parallelism: 2, Checkpoint: ck,
		})
		if err != nil {
			t.Fatal(err)
		}
		if a.Truncation == nil {
			break
		}
		if runs > 0 {
			if a.Resume == nil || a.Resume.FromRank == 0 {
				t.Fatalf("run %d: no resume provenance: %+v", runs, a.Resume)
			}
			if !strings.Contains(a.Truncation.Detail, "resumed from checkpoint at rank") {
				t.Fatalf("run %d: detail lacks resume provenance: %q", runs, a.Truncation.Detail)
			}
		}
	}
	if a.Truncation != nil {
		t.Fatalf("sweep never converged in %d runs: %v", runs, a.Truncation)
	}
	if runs == 0 {
		t.Fatal("first run should have truncated")
	}
	if got := projection(a); got != want {
		t.Fatalf("converged report diverged:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if a.Resume == nil {
		t.Fatal("final run should resume from the checkpoint")
	}
}

// TestResumeSweepsLikeAFreshRun: resuming a complete pruned checkpoint
// sweeps the space again in memory, at width 1 doing exactly the work a
// fresh pruned sweep does, and reports the same rows.
func TestResumeSweepsLikeAFreshRun(t *testing.T) {
	eng, muts, reqs := setupStar(t)
	cfg := SweepConfig{Parallelism: 1, Prune: true}
	fresh, err := AnalyzeSweep(eng, muts, starMaxCard, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for run := 0; run < 2; run++ {
		ck, err := OpenCheckpoint(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		frontier := 0
		if run == 1 {
			if ck.loaded == nil || !ck.loaded.Complete || ck.loaded.Frontier != len(fresh.Scenarios) {
				t.Fatalf("first run left no complete checkpoint over %d rows: %+v", len(fresh.Scenarios), ck.loaded)
			}
			frontier = ck.loaded.Frontier
		}
		cfg.Checkpoint = ck
		reg := obs.NewRegistry()
		cfg.Budget = budget.New(obs.ContextWithRegistry(context.Background(), reg), budget.Limits{})
		a, err := AnalyzeSweep(eng, muts, starMaxCard, reqs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := projection(a), projection(fresh); got != want {
			t.Fatalf("run %d: report diverged from a fresh pruned sweep", run)
		}
		if got := reg.Counter("sweep.restored").Value(); got != int64(frontier) {
			t.Errorf("run %d: sweep.restored = %d, want the frontier %d", run, got, frontier)
		}
		if a.Sweep.Executed != fresh.Sweep.Executed {
			t.Errorf("run %d executed %d scenarios, a fresh pruned sweep %d", run, a.Sweep.Executed, fresh.Sweep.Executed)
		}
		got := 0
		if a.Resume != nil {
			got = a.Resume.FromRank
		}
		if got != frontier {
			t.Errorf("run %d: resumed from rank %d, want the frontier %d", run, got, frontier)
		}
	}
}

// TestResumeKeepsFrontierWhenCutShort: a resumed run that fails while it
// sweeps the ranks below its resume frontier again leaves the saved
// frontier where it was, so the next resume loses no progress.
func TestResumeKeepsFrontierWhenCutShort(t *testing.T) {
	eng, muts, reqs := setupWide(t, 6) // 64 scenarios, 2 chunks
	dir := t.TempDir()
	sweep := func(spec string) (*Analysis, error) {
		ck, err := OpenCheckpoint(dir, 4)
		if err != nil {
			t.Fatal(err)
		}
		return AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{
			Budget: chaosBudget(t, spec, budget.Limits{}), Parallelism: 2, Checkpoint: ck,
		})
	}
	if _, err := sweep(""); err != nil {
		t.Fatal(err)
	}
	if _, err := sweep(faultinject.SiteSweepChunk + "=err@1"); err == nil {
		t.Fatal("the injected chunk fault did not fail the resumed run")
	}
	ck, err := OpenCheckpoint(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st := ck.loaded; st == nil || !st.Complete || st.Frontier != 64 {
		t.Fatalf("a failed resume rewrote the complete frontier: %+v", st)
	}
}

func TestCheckpointRoundtrip(t *testing.T) {
	st := ckptState{
		Version:    ckptVersion,
		EngineHash: "00000000deadbeef",
		MutsHash:   "00000000cafef00d",
		ReqsHash:   "0000000012345678",
		MaxCard:    3,
		Frontier:   42,
		Ranges:     []CardRange{{Card: 0, Upto: 1, Total: 1}, {Card: 1, Upto: 41, Total: 64}},
		Complete:   false,
	}
	got, err := decodeCheckpoint(encodeCheckpoint(st))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("roundtrip: %+v != %+v", got, st)
	}
}

func TestCheckpointCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	ck, err := OpenCheckpoint(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := ckptState{Version: ckptVersion, EngineHash: "aa", MutsHash: "bb", ReqsHash: "cc", Frontier: 7}
	if err := ck.save(st); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ckptFile)
	data, _ := os.ReadFile(path)

	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"flip payload byte", func(d []byte) []byte { d[len(d)-2] ^= 0x01; return d }},
		{"flip crc digit", func(d []byte) []byte { d[len(ckptMagic)+5] ^= 0x01; return d }},
		{"truncate", func(d []byte) []byte { return d[:len(d)/2] }},
		{"bad magic", func(d []byte) []byte { d[0] = 'X'; return d }},
		{"empty", func(d []byte) []byte { return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.mutate(append([]byte(nil), data...)), 0o644); err != nil {
				t.Fatal(err)
			}
			ck2, err := OpenCheckpoint(dir, 1)
			if err != nil {
				t.Fatalf("corrupt checkpoint must not fail open: %v", err)
			}
			if got := ck2.Resume(0xaa, 0xbb, 0xcc, -1); got != 0 {
				t.Fatalf("corrupt checkpoint resumed at %d", got)
			}
			if _, err := os.Stat(path + ".quarantined"); err != nil {
				t.Fatal("corrupt checkpoint must be quarantined")
			}
			os.Remove(path + ".quarantined")
		})
	}
}

func TestResumeRejectsMismatchedSweep(t *testing.T) {
	dir := t.TempDir()
	ck, err := OpenCheckpoint(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := ckptState{
		Version:    ckptVersion,
		EngineHash: fmt.Sprintf("%016x", uint64(1)),
		MutsHash:   fmt.Sprintf("%016x", uint64(2)),
		ReqsHash:   fmt.Sprintf("%016x", uint64(3)),
		MaxCard:    -1, Frontier: 9,
	}
	if err := ck.save(st); err != nil {
		t.Fatal(err)
	}
	ck2, err := OpenCheckpoint(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := ck2.Resume(1, 2, 3, -1); got != 9 {
		t.Fatalf("matching sweep: resume = %d, want 9", got)
	}
	for _, tc := range []struct {
		name             string
		eng, muts, reqsH uint64
		maxCard          int
	}{
		{"engine changed", 9, 2, 3, -1},
		{"candidates changed", 1, 9, 3, -1},
		{"requirements changed", 1, 2, 9, -1},
		{"cardinality changed", 1, 2, 3, 2},
	} {
		if got := ck2.Resume(tc.eng, tc.muts, tc.reqsH, tc.maxCard); got != 0 {
			t.Errorf("%s: resume = %d, want 0", tc.name, got)
		}
	}
}

func TestFrontierRanges(t *testing.T) {
	// n=4, frontier 8 = 1 (card 0) + 4 (card 1) + 3 of card 2.
	got := frontierRanges(4, -1, 8)
	want := []CardRange{{0, 1, 1}, {1, 4, 4}, {2, 3, 6}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ranges = %+v, want %+v", got, want)
	}
	if r := frontierRanges(4, -1, 0); r != nil {
		t.Fatalf("empty frontier: %+v", r)
	}
}
