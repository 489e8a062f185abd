package plant

import (
	"fmt"
	"math"
	"testing"

	"cpsrisk/internal/epa"
)

// refSimulate is the string-scanning simulator Simulate replaced: every
// step asks, per (component, fault) pair, whether any injection names it
// and has started. It is the reference the compiled simulator must match
// trace for trace.
func refSimulate(cfg Config, injections []Injection) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for _, inj := range injections {
		if err := refValidateInjection(inj); err != nil {
			return nil, err
		}
	}
	active := func(t int, comp, fault string) bool {
		for _, inj := range injections {
			if inj.Component == comp && inj.Fault == fault && t >= inj.AtStep {
				return true
			}
		}
		return false
	}

	tr := &Trace{Config: cfg, Steps: make([]Step, 0, cfg.Steps)}
	level := cfg.InitialLevel
	inOpen, outOpen := 0.0, 1.0
	lastReading := level

	for t := 0; t < cfg.Steps; t++ {
		ewsCompromised := active(t, CompEWS, FaultCompromised)

		sensorDead := active(t, CompLevelSensor, FaultNoSignal)
		if !sensorDead {
			lastReading = level
		}

		var cmdIn, cmdOut float64 = inOpen, outOpen
		switch {
		case lastReading <= cfg.LowMark:
			cmdIn, cmdOut = 1, 0
		case lastReading >= cfg.HighMark:
			cmdIn, cmdOut = 0, 1
		}

		inCtlBad := active(t, CompInValveCtl, FaultBadCommand) || ewsCompromised
		outCtlBad := active(t, CompOutValveCtl, FaultBadCommand) || ewsCompromised
		if inCtlBad {
			cmdIn = 1
		}
		if outCtlBad {
			cmdOut = 0
		}

		inOpen, outOpen = cmdIn, cmdOut
		if active(t, CompInValve, FaultStuckOpen) {
			inOpen = 1
		}
		if active(t, CompInValve, FaultStuckClosed) {
			inOpen = 0
		}
		if active(t, CompOutValve, FaultStuckOpen) {
			outOpen = 1
		}
		if active(t, CompOutValve, FaultStuckClosed) {
			outOpen = 0
		}

		qin := inOpen * cfg.InFlowMax
		qout := outOpen * cfg.OutFlowMax
		if level <= 0 && qout > qin {
			qout = qin
		}
		next := level + (qin-qout)*cfg.DT/cfg.Area
		overflow := false
		if next >= cfg.Capacity {
			overflow = next > cfg.Capacity || qin > qout
			next = cfg.Capacity
		}
		if next < 0 {
			next = 0
		}
		level = next

		hmiDead := active(t, CompHMI, FaultNoSignal) || ewsCompromised
		alertRaised := !sensorDead && lastReading >= cfg.AlertMark
		alerted := alertRaised && !hmiDead

		tr.Steps = append(tr.Steps, Step{
			T: t, Level: level, InFlow: qin, OutFlow: qout,
			Overflow: overflow, Alerted: alerted,
		})
	}
	return tr, nil
}

func refValidateInjection(inj Injection) error {
	valid := map[string][]string{
		CompInValve:     {FaultStuckOpen, FaultStuckClosed},
		CompOutValve:    {FaultStuckOpen, FaultStuckClosed},
		CompLevelSensor: {FaultNoSignal},
		CompHMI:         {FaultNoSignal},
		CompEWS:         {FaultCompromised},
		CompInValveCtl:  {FaultBadCommand},
		CompOutValveCtl: {FaultBadCommand},
	}
	faults, ok := valid[inj.Component]
	if !ok {
		return fmt.Errorf("plant: cannot inject into component %q", inj.Component)
	}
	for _, f := range faults {
		if f == inj.Fault {
			if inj.AtStep < 0 {
				return fmt.Errorf("plant: negative injection step %d", inj.AtStep)
			}
			return nil
		}
	}
	return fmt.Errorf("plant: component %q has no fault %q", inj.Component, inj.Fault)
}

// slots lists the nine injectable (component, fault) pairs.
var slots = []Injection{
	{Component: CompInValve, Fault: FaultStuckOpen},
	{Component: CompInValve, Fault: FaultStuckClosed},
	{Component: CompOutValve, Fault: FaultStuckOpen},
	{Component: CompOutValve, Fault: FaultStuckClosed},
	{Component: CompLevelSensor, Fault: FaultNoSignal},
	{Component: CompHMI, Fault: FaultNoSignal},
	{Component: CompEWS, Fault: FaultCompromised},
	{Component: CompInValveCtl, Fault: FaultBadCommand},
	{Component: CompOutValveCtl, Fault: FaultBadCommand},
}

// checkAgainstRef runs both simulators and fails unless they return the
// same error or bit-identical traces, and unless Judge, under either stop
// rule, returns the same error or the reference trace's verdicts. It
// returns the reference's trace and error.
func checkAgainstRef(t *testing.T, cfg Config, injs []Injection) (*Trace, error) {
	t.Helper()
	want, wantErr := refSimulate(cfg, injs)
	got, gotErr := Simulate(cfg, injs)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%v: error %v, reference %v", injs, gotErr, wantErr)
	}
	for _, stop := range stops {
		out, err := Judge(cfg, injs, stop)
		if msg := outcomeMismatch(stop, out, err, want, wantErr); msg != "" {
			t.Fatalf("%v: Judge %s", injs, msg)
		}
	}
	if wantErr != nil {
		if got != nil {
			t.Fatalf("%v: trace returned with error %v", injs, gotErr)
		}
		return want, wantErr
	}
	if got.Config != want.Config || len(got.Steps) != len(want.Steps) {
		t.Fatalf("%v: config/length %+v/%d, reference %+v/%d",
			injs, got.Config, len(got.Steps), want.Config, len(want.Steps))
	}
	for i, g := range got.Steps {
		w := want.Steps[i]
		if g.T != w.T || g.Overflow != w.Overflow || g.Alerted != w.Alerted ||
			math.Float64bits(g.Level) != math.Float64bits(w.Level) ||
			math.Float64bits(g.InFlow) != math.Float64bits(w.InFlow) ||
			math.Float64bits(g.OutFlow) != math.Float64bits(w.OutFlow) {
			t.Fatalf("%v: step %d = %+v, reference %+v", injs, i, g, w)
		}
	}
	return want, wantErr
}

var stops = []Stop{StopAtOverflow, StopAtAlertAfterOverflow}

// outcomeMismatch describes how a verdict run differs from the reference:
// it must return the reference's error, or the reference trace's
// Overflowed and, under StopAtAlertAfterOverflow, its
// AlertedAfterOverflow. It returns "" when they agree.
func outcomeMismatch(stop Stop, got Outcome, gotErr error, ref *Trace, refErr error) string {
	if fmt.Sprint(gotErr) != fmt.Sprint(refErr) {
		return fmt.Sprintf("stop %d: error %v, reference %v", stop, gotErr, refErr)
	}
	var want Outcome
	if refErr == nil {
		want.Overflowed = ref.Overflowed()
		if stop == StopAtAlertAfterOverflow {
			want.AlertedAfterOverflow = ref.AlertedAfterOverflow()
		}
	}
	if got != want {
		return fmt.Sprintf("stop %d: %+v, reference %+v", stop, got, want)
	}
	return ""
}

// checkFaultSetAgainstRef sets every injection of injs to onset at,
// checks them against the reference and judges them as a FaultSet at at,
// which must return the reference's verdicts.
func checkFaultSetAgainstRef(t *testing.T, cfg Config, injs []Injection, at int) {
	t.Helper()
	var sc epa.Scenario
	injs = append([]Injection(nil), injs...)
	for i, inj := range injs {
		sc = append(sc, epa.Activation{Component: inj.Component, Fault: inj.Fault})
		injs[i].AtStep = at
	}
	fs, err := FaultSetFromScenario(sc)
	if _, want := InjectionsFromScenario(sc); fmt.Sprint(err) != fmt.Sprint(want) {
		t.Fatalf("%v: FaultSetFromScenario error %v, InjectionsFromScenario %v", sc, err, want)
	}
	ref, refErr := checkAgainstRef(t, cfg, injs)
	if err != nil {
		return
	}
	for _, stop := range stops {
		out, err := fs.Judge(cfg, at, stop)
		if msg := outcomeMismatch(stop, out, err, ref, refErr); msg != "" {
			t.Fatalf("%v: FaultSet.Judge at %d %s", sc, at, msg)
		}
	}
}

// exactConfig shifts the default marks and takes flows that are binary
// fractions, so the level lands exactly on the capacity: the one case in
// which the capacity test's >= differs from >.
func exactConfig() Config {
	cfg := DefaultConfig()
	cfg.LowMark, cfg.HighMark, cfg.AlertMark = 0.25, 0.625, 0.875
	cfg.InFlowMax, cfg.OutFlowMax = 0.0625, 0.125
	return cfg
}

// phaseOnsets returns injection steps at the start, mid-fill and
// mid-drain of the nominal run, at its horizon and beyond it.
func phaseOnsets(t *testing.T, cfg Config) []int {
	t.Helper()
	nominal, err := refSimulate(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	midPhase := func(from int, in func(Step) bool) int {
		start := -1
		for _, s := range nominal.Steps[from:] {
			switch {
			case start < 0 && in(s):
				start = s.T
			case start >= 0 && !in(s):
				return (start + s.T) / 2
			}
		}
		t.Fatalf("nominal run has no complete phase after step %d", from)
		return 0
	}
	midFill := midPhase(0, func(s Step) bool { return s.InFlow > 0 })
	midDrain := midPhase(midFill, func(s Step) bool { return s.OutFlow > 0 })
	return []int{0, midFill, midDrain, cfg.Steps, cfg.Steps + 7}
}

func TestSimulateMatchesReference(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), exactConfig()} {
		onsets := phaseOnsets(t, cfg)

		// Every subset of the nine slots, all injected at one onset, and
		// with onsets rotated across the subset's slots.
		for mask := 0; mask < 1<<len(slots); mask++ {
			for k := range onsets {
				for _, rotate := range []bool{false, true} {
					var injs []Injection
					for i, s := range slots {
						if mask&(1<<i) == 0 {
							continue
						}
						s.AtStep = onsets[k]
						if rotate {
							s.AtStep = onsets[(i+k)%len(onsets)]
						}
						injs = append(injs, s)
					}
					if rotate {
						checkAgainstRef(t, cfg, injs)
					} else {
						checkFaultSetAgainstRef(t, cfg, injs, onsets[k])
					}
				}
			}
		}
	}
	cfg := DefaultConfig()
	onsets := phaseOnsets(t, cfg)

	// Every subset from step 0 under every horizon up to 30 steps: the
	// horizon cuts runs right after their first overflow, where an alert
	// on the overflowing step itself is the only one.
	for steps := 1; steps <= 30; steps++ {
		short := cfg
		short.Steps = steps
		for mask := 0; mask < 1<<len(slots); mask++ {
			var injs []Injection
			for i, s := range slots {
				if mask&(1<<i) != 0 {
					injs = append(injs, s)
				}
			}
			checkAgainstRef(t, short, injs)
		}
	}

	// The same slot injected twice: the earlier onset wins, whichever
	// injection lists it.
	for _, s := range slots {
		early, late := s, s
		early.AtStep, late.AtStep = onsets[1], onsets[2]
		checkAgainstRef(t, cfg, []Injection{late, early})
		checkAgainstRef(t, cfg, []Injection{early, late})
		twice, err := Simulate(cfg, []Injection{late, early})
		if err != nil {
			t.Fatal(err)
		}
		once, err := Simulate(cfg, []Injection{early})
		if err != nil {
			t.Fatal(err)
		}
		for i := range once.Steps {
			if twice.Steps[i] != once.Steps[i] {
				t.Fatalf("%s:%s twice differs from its earlier onset at step %d", s.Component, s.Fault, i)
			}
		}
		checkFaultSetAgainstRef(t, cfg, []Injection{s, s}, onsets[1])
	}

	// Invalid injections fail with the reference's error, also after a
	// valid one; so do invalid configs, before any injection is looked at.
	valid := Injection{Component: CompEWS, Fault: FaultCompromised, AtStep: 3}
	for _, bad := range []Injection{
		{Component: "ghost", Fault: FaultNoSignal},
		{Component: CompTank, Fault: "leak"},
		{Component: CompHMI, Fault: FaultStuckOpen},
		{Component: CompInValve, Fault: FaultStuckOpen, AtStep: -1},
	} {
		checkAgainstRef(t, cfg, []Injection{bad})
		checkAgainstRef(t, cfg, []Injection{valid, bad, {Component: "ghost"}})
		checkFaultSetAgainstRef(t, cfg, []Injection{valid, bad}, 3)
	}
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Area = 0 },
		func(c *Config) { c.Steps = 0 },
		func(c *Config) { c.OutFlowMax = -1 },
		func(c *Config) { c.HighMark = c.AlertMark },
		func(c *Config) { c.InitialLevel = 2 },
	} {
		bad := cfg
		mutate(&bad)
		checkAgainstRef(t, bad, nil)
		checkAgainstRef(t, bad, []Injection{valid, {Component: "ghost"}})
		checkFaultSetAgainstRef(t, bad, []Injection{valid}, 3)
	}
}

func FuzzSimulateMatchesReference(f *testing.F) {
	f.Add([]byte{6, 4, 0}, uint8(199))
	f.Add([]byte{0, 0, 40, 3, 1, 90, 5, 2, 0}, uint8(120))
	f.Add([]byte{4, 2, 10, 4, 2, 3, 9, 5, 200}, uint8(50))
	comps := []string{CompInValve, CompOutValve, CompLevelSensor, CompHMI, CompEWS,
		CompInValveCtl, CompOutValveCtl, CompController, CompTank, "ghost"}
	faults := []string{FaultStuckOpen, FaultStuckClosed, FaultNoSignal, FaultCompromised,
		FaultBadCommand, "leak"}
	f.Fuzz(func(t *testing.T, spec []byte, steps uint8) {
		cfg := DefaultConfig()
		cfg.Steps = 1 + int(steps)
		var injs []Injection
		for i := 0; i+2 < len(spec); i += 3 {
			injs = append(injs, Injection{
				Component: comps[int(spec[i])%len(comps)],
				Fault:     faults[int(spec[i+1])%len(faults)],
				// Signed and doubled: negative steps and onsets past
				// the horizon both occur.
				AtStep: 2 * int(int8(spec[i+2])),
			})
		}
		checkAgainstRef(t, cfg, injs)
		if len(injs) > 0 {
			checkFaultSetAgainstRef(t, cfg, injs, max(0, injs[0].AtStep))
		}
	})
}

// Simulate allocates the Trace and its Steps, nothing per step or per
// injection.
func TestSimulateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	cfg := DefaultConfig()
	injs := append([]Injection(nil), slots...)
	for i := range injs {
		injs[i].AtStep = 10 * i
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Simulate(cfg, injs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("%.1f allocations per Simulate, bound 2", allocs)
	}
}
