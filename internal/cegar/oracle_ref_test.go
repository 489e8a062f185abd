package cegar

import (
	"fmt"
	"testing"

	"cpsrisk/internal/epa"
	"cpsrisk/internal/plant"
)

// refCheck is the trace-based Check that PlantOracle.Check replaced: it
// records a whole plant.Trace per probe and reads the requirement's
// verdict off the trace. It is the reference the trace-free Check must
// match verdict for verdict.
func refCheck(o *PlantOracle, f Finding) (Verdict, error) {
	injs, err := plant.InjectionsFromScenario(f.Scenario)
	if err != nil {
		return Undetermined, nil //nolint:nilerr // unrepresentable -> expert review
	}
	cfg := o.Config
	probes, err := o.probeSteps(cfg)
	if err != nil {
		return Undetermined, err
	}
	for _, at := range probes {
		for i := range injs {
			injs[i].AtStep = at
		}
		tr, err := plant.Simulate(cfg, injs)
		if err != nil {
			return Undetermined, err
		}
		violated := false
		switch f.ReqID {
		case "R1":
			violated = tr.Overflowed()
		case "R2":
			violated = tr.Overflowed() && !tr.AlertedAfterOverflow()
		default:
			return Undetermined, nil
		}
		if violated {
			return Confirmed, nil
		}
	}
	return Spurious, nil
}

// plantActivations lists the nine activations the plant has physics for.
var plantActivations = []epa.Activation{
	{Component: plant.CompInValve, Fault: plant.FaultStuckOpen},
	{Component: plant.CompInValve, Fault: plant.FaultStuckClosed},
	{Component: plant.CompOutValve, Fault: plant.FaultStuckOpen},
	{Component: plant.CompOutValve, Fault: plant.FaultStuckClosed},
	{Component: plant.CompLevelSensor, Fault: plant.FaultNoSignal},
	{Component: plant.CompHMI, Fault: plant.FaultNoSignal},
	{Component: plant.CompEWS, Fault: plant.FaultCompromised},
	{Component: plant.CompInValveCtl, Fault: plant.FaultBadCommand},
	{Component: plant.CompOutValveCtl, Fault: plant.FaultBadCommand},
}

// subsetFindings pairs every subset of the plant's activations with each
// of reqIDs.
func subsetFindings(reqIDs ...string) []Finding {
	var out []Finding
	for mask := 0; mask < 1<<len(plantActivations); mask++ {
		var s epa.Scenario
		for i, a := range plantActivations {
			if mask&(1<<i) != 0 {
				s = append(s, a)
			}
		}
		for _, req := range reqIDs {
			out = append(out, Finding{Scenario: s, ReqID: req})
		}
	}
	return out
}

func TestPlantOracleMatchesTraceReference(t *testing.T) {
	// Shifted marks, a start below the low mark and an inflow that
	// outruns the outflow: a run with both valves open fills slowly, so
	// within 50 steps it overflows only after the nominal run's head
	// start, and only the last (drain) probe confirms such findings.
	shifted := plant.DefaultConfig()
	shifted.LowMark, shifted.HighMark, shifted.AlertMark = 0.25, 0.625, 0.875
	shifted.InitialLevel = 0.2
	shifted.InFlowMax, shifted.OutFlowMax = 0.06, 0.05
	shifted.Steps = 50
	short := plant.DefaultConfig()
	short.Steps = 5
	// The F1+F2 overflow from step 0 first overflows, alerted, on the
	// last step of this horizon.
	edge := plant.DefaultConfig()
	edge.Steps = 10
	invalid := plant.DefaultConfig()
	invalid.Area = 0

	findings := subsetFindings("R1", "R2", "R9")
	alien := epa.Activation{Component: "alien_asset", Fault: "weird"}
	for _, req := range []string{"R1", "R2", "R9"} {
		findings = append(findings,
			Finding{Scenario: epa.Scenario{alien}, ReqID: req},
			Finding{Scenario: append(epa.Scenario{alien}, plantActivations...), ReqID: req},
			Finding{Scenario: append(append(epa.Scenario{}, plantActivations[:3]...), alien), ReqID: req})
	}
	for _, cfg := range []plant.Config{plant.DefaultConfig(), short, shifted, edge, invalid} {
		o := &PlantOracle{Config: cfg}
		for _, f := range findings {
			want, wantErr := refCheck(o, f)
			got, gotErr := o.Check(f)
			if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("config %+v: %s: %v (%v), reference %v (%v)", cfg, f, got, gotErr, want, wantErr)
			}
		}
	}
}

// Check judges without recording: nothing is allocated per step, and at
// most one small slice per call.
func TestPlantOracleCheckAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	o := NewPlantOracle()
	findings := subsetFindings("R1", "R2")
	for _, f := range findings {
		if _, err := o.Check(f); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(len(findings), func() {
		if _, err := o.Check(findings[i%len(findings)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 1 {
		t.Fatalf("%.2f allocations per Check, bound 1", allocs)
	}
}

// BenchmarkPlantOracleCheck sweeps every subset of the plant's nine
// activations against R1 and R2; one op is one Check.
func BenchmarkPlantOracleCheck(b *testing.B) {
	o := NewPlantOracle()
	findings := subsetFindings("R1", "R2")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Check(findings[i%len(findings)]); err != nil {
			b.Fatal(err)
		}
	}
}
