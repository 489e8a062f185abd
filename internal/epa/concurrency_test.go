package epa

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cpsrisk/internal/sysmodel"
)

// TestEngineConcurrentRuns hammers one shared Engine from 8 goroutines
// (run under -race by scripts/check.sh): the engine is documented
// immutable after NewEngine, so concurrent Run calls must neither race
// nor interfere. Every goroutine re-runs a mix of scenarios and checks
// each result against the single-threaded reference outcome.
func TestEngineConcurrentRuns(t *testing.T) {
	m, lib := chainModel(t)
	eng, err := NewEngine(m, lib)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []Scenario{
		nil,
		{{Component: "src", Fault: "corrupt"}},
		{{Component: "mid", Fault: "crash"}},
		{{Component: "src", Fault: "corrupt"}, {Component: "mid", Fault: "crash"}},
		{{Component: "src", Fault: "corrupt"}, {Component: "dst", Fault: "crash"}},
	}
	type snapshot struct {
		affected []string
		states   []ErrState
	}
	snap := func(r *Result) snapshot {
		s := snapshot{affected: r.Affected()}
		for _, pk := range eng.ports {
			s.states = append(s.states, r.PortState(pk.Component, pk.Port))
		}
		return s
	}
	want := make([]snapshot, len(scenarios))
	for i, sc := range scenarios {
		r, err := eng.RunBudget(sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = snap(r)
	}

	const goroutines = 8
	const rounds = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				i := (g + round) % len(scenarios)
				r, err := eng.RunBudget(scenarios[i], nil)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d scenario %d: %w", g, i, err)
					return
				}
				if got := snap(r); !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Errorf("goroutine %d scenario %d: result diverged: %+v vs %+v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestComponentStateUsesPortSpans checks the span-indexed ComponentState
// against a brute-force union over PortState, and the unknown-component
// and unknown-port fallbacks.
func TestComponentStateUsesPortSpans(t *testing.T) {
	m, lib := chainModel(t)
	eng, err := NewEngine(m, lib)
	if err != nil {
		t.Fatal(err)
	}
	r, err := eng.RunBudget(Scenario{{Component: "src", Fault: "corrupt"}, {Component: "mid", Fault: "crash"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Components {
		var brute ErrState
		for _, pk := range eng.ports {
			if pk.Component == c.ID {
				brute = brute.Union(r.PortState(pk.Component, pk.Port))
			}
		}
		if got := r.ComponentState(c.ID); got != brute {
			t.Errorf("ComponentState(%s) = %v, brute-force union = %v", c.ID, got, brute)
		}
	}
	if got := r.ComponentState("ghost"); !got.IsOK() {
		t.Errorf("ComponentState(ghost) = %v, want ok", got)
	}
	if got := r.PortState("src", "ghost"); !got.IsOK() {
		t.Errorf("PortState(src.ghost) = %v, want ok", got)
	}
}

// TestWorklistMatchesRescanOnRandomModels cross-checks the worklist
// fixpoint against an independent, naive full-rescan implementation on
// random cyclic models — the reference semantics the optimized engine
// must preserve.
func TestWorklistMatchesRescanOnRandomModels(t *testing.T) {
	// Dense diamond with a cycle and guarded transfers.
	types := sysmodel.NewTypeLibrary()
	types.MustAdd(&sysmodel.ComponentType{
		Name: "relay",
		Ports: []sysmodel.PortSpec{
			{Name: "a", Dir: sysmodel.In, Flow: sysmodel.SignalFlow},
			{Name: "b", Dir: sysmodel.InOut, Flow: sysmodel.QuantityFlow},
			{Name: "x", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow},
			{Name: "y", Dir: sysmodel.InOut, Flow: sysmodel.QuantityFlow},
		},
		FaultModes: []sysmodel.FaultModeSpec{{Name: "glitch"}, {Name: "mute"}},
	})
	m := sysmodel.NewModel("diamond")
	for _, id := range []string{"p", "q", "r", "s"} {
		m.MustAddComponent(&sysmodel.Component{ID: id, Type: "relay"})
	}
	m.Connect("p", "x", "q", "a", sysmodel.SignalFlow)
	m.Connect("q", "x", "s", "a", sysmodel.SignalFlow)
	m.Connect("p", "y", "r", "b", sysmodel.QuantityFlow) // propagates both ways
	m.Connect("r", "y", "s", "b", sysmodel.QuantityFlow)
	m.Connect("s", "x", "p", "a", sysmodel.SignalFlow) // cycle

	lib := NewBehaviorLibrary(types)
	behavior := &TypeBehavior{
		Type: "relay",
		Effects: []FaultEffect{
			{Fault: "glitch", Port: "x", Emit: StateOf(ErrValue, ErrTiming)},
			{Fault: "mute", Emit: StateOf(ErrOmission)}, // all outputs
		},
		Transfers: append(append(IdentityTransfers("a", "x"), IdentityTransfers("b", "y")...),
			TransferRule{From: "a", Match: StateOf(ErrValue), To: "y", Emit: StateOf(ErrValue), UnlessFault: "mute"},
			TransferRule{From: "b", Match: StateOf(ErrOmission), To: "x", Emit: StateOf(ErrTiming), WhenFault: "glitch"},
		),
	}
	lib.MustRegister(behavior)
	eng, err := NewEngine(m, lib)
	if err != nil {
		t.Fatal(err)
	}

	scenarios := []Scenario{
		nil,
		{{Component: "p", Fault: "glitch"}},
		{{Component: "q", Fault: "mute"}},
		{{Component: "p", Fault: "glitch"}, {Component: "s", Fault: "mute"}},
		{{Component: "r", Fault: "glitch"}, {Component: "r", Fault: "mute"}},
		{{Component: "p", Fault: "glitch"}, {Component: "q", Fault: "glitch"},
			{Component: "r", Fault: "mute"}, {Component: "s", Fault: "glitch"}},
	}
	for _, sc := range scenarios {
		got, err := eng.RunBudget(sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := rescanFixpoint(eng, behavior, m, sc)
		for _, pk := range eng.ports {
			if g := got.PortState(pk.Component, pk.Port); g != want[pk] {
				t.Errorf("scenario %v port %v: worklist=%v rescan=%v", sc, pk, g, want[pk])
			}
		}
	}
}

// rescanFixpoint is a deliberately naive reference: rescan every
// connection and every transfer until nothing changes.
func rescanFixpoint(eng *Engine, b *TypeBehavior, m *sysmodel.Model, sc Scenario) map[PortKey]ErrState {
	states := map[PortKey]ErrState{}
	for _, act := range sc {
		comp, _ := m.Component(act.Component)
		ct, _ := eng.lib.Types().Get(comp.Type)
		for _, eff := range b.Effects {
			if eff.Fault != act.Fault {
				continue
			}
			for _, pk := range eng.effectPorts(comp, ct, eff) {
				states[pk] = states[pk].Union(eff.Emit)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, conn := range m.Connections {
			pairs := [][2]PortKey{{
				{Component: conn.From.Component, Port: conn.From.Port},
				{Component: conn.To.Component, Port: conn.To.Port},
			}}
			if conn.Flow == sysmodel.QuantityFlow {
				pairs = append(pairs, [2]PortKey{pairs[0][1], pairs[0][0]})
			}
			for _, pr := range pairs {
				merged := states[pr[1]].Union(states[pr[0]])
				if merged != states[pr[1]] {
					states[pr[1]] = merged
					changed = true
				}
			}
		}
		for _, c := range m.Components {
			for _, tr := range b.Transfers {
				if tr.WhenFault != "" && !sc.Has(c.ID, tr.WhenFault) {
					continue
				}
				if tr.UnlessFault != "" && sc.Has(c.ID, tr.UnlessFault) {
					continue
				}
				from := PortKey{Component: c.ID, Port: tr.From}
				if !states[from].Intersects(tr.Match) {
					continue
				}
				to := PortKey{Component: c.ID, Port: tr.To}
				merged := states[to].Union(tr.Emit)
				if merged != states[to] {
					states[to] = merged
					changed = true
				}
			}
		}
	}
	return states
}
