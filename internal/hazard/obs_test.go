package hazard

import (
	"context"
	"strings"
	"sync"
	"testing"

	"cpsrisk/internal/budget"
	"cpsrisk/internal/obs"
)

// TestParallelSweepObservabilityRace hammers one shared metrics registry
// and trace from several concurrent parallel sweeps, each with its own
// worker pool — the contention pattern of repeated assessments reporting
// to a single sink. check.sh runs this package under -race -cpu=1,4,
// which is where the test has teeth; the counter totals below catch
// lost updates either way.
func TestParallelSweepObservabilityRace(t *testing.T) {
	eng, muts, reqs := setup(t)
	tr := obs.New("assessment")
	reg := obs.NewRegistry()
	ctx := obs.ContextWithSpan(obs.ContextWithRegistry(context.Background(), reg), tr.Root())

	const sweeps = 4
	var wg sync.WaitGroup
	for i := 0; i < sweeps; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bud := budget.New(ctx, budget.Limits{})
			a, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{Budget: bud, Parallelism: 4})
			if err != nil {
				t.Error(err)
				return
			}
			if len(a.Scenarios) != 8 {
				t.Errorf("scenarios = %d, want 8", len(a.Scenarios))
			}
		}()
	}
	wg.Wait()
	tr.Finish()

	if got := reg.Counter("sweep.scenarios").Value(); got != sweeps*8 {
		t.Errorf("sweep.scenarios = %d, want %d", got, sweeps*8)
	}
	if got := reg.Counter("epa.runs").Value(); got != sweeps*8 {
		t.Errorf("epa.runs = %d, want %d", got, sweeps*8)
	}
	if got := reg.Counter("sweep.chunks").Value(); got < sweeps {
		t.Errorf("sweep.chunks = %d, want >= %d", got, sweeps)
	}
	if got := reg.Histogram("sweep.duration_us").Count(); got != sweeps {
		t.Errorf("sweep.duration_us count = %d, want %d", got, sweeps)
	}

	snap := tr.Snapshot()
	if n := snap.Count("sweep"); n != sweeps {
		t.Errorf("sweep spans = %d, want %d", n, sweeps)
	}
	workers := 0
	snap.Walk(func(s *obs.SpanSnapshot, _ int) {
		if strings.HasPrefix(s.Name, "worker#") {
			workers++
		}
	})
	if workers != sweeps*4 {
		t.Errorf("worker spans = %d, want %d", workers, sweeps*4)
	}
}
