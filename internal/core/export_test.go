package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"cpsrisk/internal/epa"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/qual"
	"cpsrisk/internal/sysmodel"
)

// starConfig is the redundant sensor star of the repository benchmark's
// sweep-star workload: ten sensors feed one hub whose integrity the one
// requirement watches, swept natively at k=5 (21 candidates, 27,896
// rows).
func starConfig() Config {
	types := sysmodel.NewTypeLibrary()
	types.MustAdd(&sysmodel.ComponentType{
		Name:  "sensor",
		Ports: []sysmodel.PortSpec{{Name: "out", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow}},
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
	m := sysmodel.NewModel("redundant-star")
	m.MustAddComponent(&sysmodel.Component{ID: "hub", Type: "hub"})
	var muts []faults.Mutation
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("s%02d", i)
		m.MustAddComponent(&sysmodel.Component{ID: id, Type: "sensor"})
		m.Connect(id, "out", "hub", "in", sysmodel.SignalFlow)
		muts = append(muts,
			faults.Mutation{Activation: epa.Activation{Component: id, Fault: "corrupt"}, Likelihood: qual.Medium},
			faults.Mutation{Activation: epa.Activation{Component: id, Fault: "stuck"}, Likelihood: qual.Low})
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
		Type:      "hub",
		Effects:   []epa.FaultEffect{{Fault: "crash", Port: "out", Emit: epa.StateOf(epa.ErrOmission)}},
		Transfers: epa.IdentityTransfers("in", "out"),
	})
	return Config{
		Model:     m,
		Types:     types,
		Behaviors: lib,
		Requirements: []hazard.Requirement{{
			ID: "R-HUB", Severity: qual.High, Condition: hazard.Comp("hub", epa.ErrValue),
		}},
		ExtraMutations: muts,
		MaxCardinality: 5,
		Parallelism:    1,
	}
}

var starAssessment = sync.OnceValues(func() (*Assessment, error) { return Run(starConfig()) })

// TestSummarizeActivations: the empty scenario still encodes
// "activations":null, every row names its scenario's activations in
// order, and the rows' activation lists, which share one slab, do not
// reach into each other: appending to one leaves the next unchanged.
func TestSummarizeActivations(t *testing.T) {
	a, err := Run(caseStudyConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := a.Summarize()
	if len(s.Scenarios) != len(a.Ranked) {
		t.Fatalf("%d summary rows for %d ranked rows", len(s.Scenarios), len(a.Ranked))
	}
	empty := -1
	for i, row := range s.Scenarios {
		sc := a.Ranked[i].Scenario
		if len(sc) == 0 {
			empty = i
		}
		if len(row.Activations) != len(sc) {
			t.Fatalf("%s: activations %v for scenario %v", row.ID, row.Activations, sc)
		}
		for j, act := range sc {
			if row.Activations[j] != act.String() {
				t.Fatalf("%s: activation %d is %q, want %q", row.ID, j, row.Activations[j], act.String())
			}
		}
	}
	if empty < 0 {
		t.Fatal("no empty scenario in the case study")
	}
	b, err := json.Marshal(s.Scenarios[empty])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"activations":null`)) {
		t.Errorf("empty scenario encodes as %s", b)
	}
	for i := 0; i+1 < len(s.Scenarios); i++ {
		if len(s.Scenarios[i].Activations) == 0 || len(s.Scenarios[i+1].Activations) == 0 {
			continue
		}
		next := append([]string(nil), s.Scenarios[i+1].Activations...)
		s.Scenarios[i].Activations = append(s.Scenarios[i].Activations, "appended:row")
		for j, act := range s.Scenarios[i+1].Activations {
			if act != next[j] {
				t.Fatalf("appending to %s changed %s: %v, was %v",
					s.Scenarios[i].ID, s.Scenarios[i+1].ID, s.Scenarios[i+1].Activations, next)
			}
		}
	}
	if got := (&Assessment{}).Summarize().Scenarios; got != nil {
		t.Errorf("no rows summarize to %v, want nil", got)
	}
}

// BenchmarkSummarize projects the star assessment's 27,896 ranked rows.
func BenchmarkSummarize(b *testing.B) {
	a, err := starAssessment()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSummary = a.Summarize()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(a.Ranked)), "ns/row")
}

var sinkSummary *Summary

// maxSummarizeAllocsPerRow bounds Summarize's heap allocations per row
// on the star assessment: measured 0.002 with go1.24 on linux/amd64 (a
// fixed handful per call: the slab, the row slice, the activation table
// and one string per distinct activation), plus a margin of 0.5 — less
// than the one allocation per row any per-row regression adds.
const maxSummarizeAllocsPerRow = 0.502

// TestSummarizeAllocsPerRow is Summarize's allocation gate: a string or
// slice built per row shows as a whole allocation per row.
func TestSummarizeAllocsPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	a, err := starAssessment()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() { sinkSummary = a.Summarize() })
	perRow := allocs / float64(len(a.Ranked))
	t.Logf("%.0f allocations over %d rows: %.4f per row", allocs, len(a.Ranked), perRow)
	if perRow > maxSummarizeAllocsPerRow {
		t.Fatalf("%.4f allocations per row, bound %.3f", perRow, maxSummarizeAllocsPerRow)
	}
}
