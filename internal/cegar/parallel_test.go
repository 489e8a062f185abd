package cegar

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"cpsrisk/internal/budget"
)

// TestRunParallelMatchesSequential validates that the concurrent
// counterexample validation produces exactly the sequential verdicts, in
// the same order, on the two-level case-study loop.
func TestRunParallelMatchesSequential(t *testing.T) {
	want, err := RunParallel(levels(t), NewPlantOracle(), -1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, runtime.NumCPU() + 1} {
		got, err := RunParallel(levels(t), NewPlantOracle(), -1, nil, par)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !reflect.DeepEqual(got.Findings, want.Findings) {
			t.Errorf("parallelism %d: findings differ:\n%v\nvs\n%v", par, got.Findings, want.Findings)
		}
		if got.Iterations != want.Iterations ||
			!reflect.DeepEqual(got.PerLevelFindings, want.PerLevelFindings) {
			t.Errorf("parallelism %d: loop shape differs: %+v vs %+v", par, got, want)
		}
	}
}

// TestRunParallelExhaustionRoutesToUndetermined: a pre-cancelled budget
// must route every finding of the first level to expert review, under
// any parallelism, without hanging.
func TestRunParallelExhaustionRoutesToUndetermined(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bud := budget.New(ctx, budget.Limits{})
	res, err := RunParallel(levels(t), NewPlantOracle(), -1, bud, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Findings {
		if j.Verdict != Undetermined {
			t.Errorf("finding %v: verdict %v, want undetermined under exhausted budget", j.Finding, j.Verdict)
		}
	}
	if len(res.Truncations) == 0 {
		t.Error("expected truncations to be recorded")
	}
}

// panicOracle panics on every finding.
type panicOracle struct{}

func (panicOracle) Check(f Finding) (Verdict, error) { panic("oracle exploded on " + f.String()) }

// A panicking oracle panics RunParallel's caller, not a worker goroutine
// (which would kill the process), and at every width with the panic of
// the first finding, as if the checks had run in order on the caller's
// goroutine.
func TestRunParallelOraclePanicReachesCaller(t *testing.T) {
	recovered := func(par int) (r any) {
		defer func() { r = recover() }()
		_, _ = RunParallel(levels(t), panicOracle{}, -1, nil, par)
		return nil
	}
	want := recovered(1)
	if want == nil {
		t.Fatal("width 1: no panic reached the caller")
	}
	for _, par := range []int{2, 4, runtime.NumCPU() + 1} {
		if got := recovered(par); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("parallelism %d: recovered %v, want %v", par, got, want)
		}
	}
}
