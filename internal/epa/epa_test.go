package epa

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cpsrisk/internal/solver"
	"cpsrisk/internal/sysmodel"
)

// chainModel builds src -> mid -> dst with signal flows.
func chainModel(t testing.TB) (*sysmodel.Model, *BehaviorLibrary) {
	t.Helper()
	types := sysmodel.NewTypeLibrary()
	types.MustAdd(&sysmodel.ComponentType{
		Name: "node",
		Ports: []sysmodel.PortSpec{
			{Name: "in", Dir: sysmodel.In, Flow: sysmodel.SignalFlow},
			{Name: "out", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow},
		},
		FaultModes: []sysmodel.FaultModeSpec{
			{Name: "crash"}, {Name: "corrupt"},
		},
	})
	m := sysmodel.NewModel("chain")
	for _, id := range []string{"src", "mid", "dst"} {
		m.MustAddComponent(&sysmodel.Component{ID: id, Type: "node"})
	}
	m.Connect("src", "out", "mid", "in", sysmodel.SignalFlow)
	m.Connect("mid", "out", "dst", "in", sysmodel.SignalFlow)

	lib := NewBehaviorLibrary(types)
	lib.MustRegister(&TypeBehavior{
		Type: "node",
		Effects: []FaultEffect{
			{Fault: "crash", Port: "out", Emit: StateOf(ErrOmission)},
			{Fault: "corrupt", Port: "out", Emit: StateOf(ErrValue)},
		},
		Transfers: IdentityTransfers("in", "out"),
	})
	return m, lib
}

func TestErrStateOps(t *testing.T) {
	s := StateOf(ErrValue, ErrOmission)
	if !s.Has(ErrValue) || !s.Has(ErrOmission) || s.Has(ErrTiming) {
		t.Errorf("StateOf = %v", s)
	}
	if s.String() != "value_err+omission" {
		t.Errorf("String = %q", s)
	}
	parsed, err := ParseState("value_err+omission")
	if err != nil || parsed != s {
		t.Errorf("ParseState = %v, %v", parsed, err)
	}
	if okState, err := ParseState("ok"); err != nil || okState != OK {
		t.Errorf("ParseState(ok) = %v, %v", okState, err)
	}
	if _, err := ParseState("bogus"); err == nil {
		t.Error("bad state must fail")
	}
	if !OK.Leq(s) || s.Leq(OK) {
		t.Error("Leq ordering broken")
	}
	if !s.Leq(AnyError) {
		t.Error("AnyError must be top")
	}
}

func TestChainPropagation(t *testing.T) {
	m, lib := chainModel(t)
	eng, err := NewEngine(m, lib)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunBudget(Scenario{{Component: "src", Fault: "corrupt"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Value error flows src.out -> mid.in -> mid.out -> dst.in.
	for _, pk := range []PortKey{
		{"src", "out"}, {"mid", "in"}, {"mid", "out"}, {"dst", "in"},
	} {
		if st := res.PortState(pk.Component, pk.Port); !st.Has(ErrValue) {
			t.Errorf("port %v missing value error: %v", pk, st)
		}
	}
	// Nothing flows upstream.
	if !res.PortState("src", "in").IsOK() {
		t.Errorf("src.in = %v", res.PortState("src", "in"))
	}
	if got := res.Affected(); len(got) != 3 {
		t.Errorf("affected = %v", got)
	}
	if st := res.ComponentState("dst"); !st.Has(ErrValue) || st.Has(ErrOmission) {
		t.Errorf("dst state = %v", st)
	}
}

func TestEmptyScenarioIsClean(t *testing.T) {
	m, lib := chainModel(t)
	eng, _ := NewEngine(m, lib)
	res, err := eng.RunBudget(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Affected(); len(got) != 0 {
		t.Errorf("affected = %v", got)
	}
}

func TestScenarioValidation(t *testing.T) {
	m, lib := chainModel(t)
	eng, _ := NewEngine(m, lib)
	if _, err := eng.RunBudget(Scenario{{Component: "ghost", Fault: "crash"}}, nil); err == nil {
		t.Error("unknown component must fail")
	}
	if _, err := eng.RunBudget(Scenario{{Component: "src", Fault: "melt"}}, nil); err == nil {
		t.Error("unknown fault must fail")
	}
}

func TestPathProvenance(t *testing.T) {
	m, lib := chainModel(t)
	eng, _ := NewEngine(m, lib)
	res, _ := eng.RunBudget(Scenario{{Component: "src", Fault: "corrupt"}}, nil)
	path := res.Path("dst", "in", ErrValue)
	if len(path) == 0 {
		t.Fatal("no path")
	}
	if path[0].Cause.Kind != "fault" || path[0].Cause.Fault.Component != "src" {
		t.Errorf("path origin = %+v", path[0])
	}
	if last := path[len(path)-1]; last.Port != (PortKey{"dst", "in"}) {
		t.Errorf("path end = %+v", last)
	}
	// Path alternates through mid.
	var comps []string
	for _, st := range path {
		comps = append(comps, st.Port.Component)
	}
	joined := strings.Join(comps, ",")
	if !strings.Contains(joined, "mid") {
		t.Errorf("path misses mid: %v", joined)
	}
	if got := res.Path("dst", "in", ErrTiming); got != nil {
		t.Errorf("absent mode path = %v", got)
	}
}

func TestQuantityFlowBidirectional(t *testing.T) {
	types := sysmodel.NewTypeLibrary()
	types.MustAdd(&sysmodel.ComponentType{
		Name: "vessel",
		Ports: []sysmodel.PortSpec{
			{Name: "pipe", Dir: sysmodel.InOut, Flow: sysmodel.QuantityFlow},
		},
		FaultModes: []sysmodel.FaultModeSpec{{Name: "leak"}},
	})
	m := sysmodel.NewModel("pipes")
	m.MustAddComponent(&sysmodel.Component{ID: "a", Type: "vessel"})
	m.MustAddComponent(&sysmodel.Component{ID: "b", Type: "vessel"})
	m.Connect("a", "pipe", "b", "pipe", sysmodel.QuantityFlow)
	lib := NewBehaviorLibrary(types)
	lib.MustRegister(&TypeBehavior{
		Type:    "vessel",
		Effects: []FaultEffect{{Fault: "leak", Port: "pipe", Emit: StateOf(ErrValue)}},
	})
	eng, err := NewEngine(m, lib)
	if err != nil {
		t.Fatal(err)
	}
	// Fault on b must reach a against the connection direction.
	res, _ := eng.RunBudget(Scenario{{Component: "b", Fault: "leak"}}, nil)
	if !res.PortState("a", "pipe").Has(ErrValue) {
		t.Error("quantity flow must propagate bidirectionally")
	}
}

func TestGuardedTransfers(t *testing.T) {
	types := sysmodel.NewTypeLibrary()
	types.MustAdd(&sysmodel.ComponentType{
		Name: "filter",
		Ports: []sysmodel.PortSpec{
			{Name: "in", Dir: sysmodel.In, Flow: sysmodel.SignalFlow},
			{Name: "out", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow},
		},
		FaultModes: []sysmodel.FaultModeSpec{{Name: "bypass"}},
	})
	types.MustAdd(&sysmodel.ComponentType{
		Name: "src",
		Ports: []sysmodel.PortSpec{
			{Name: "out", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow},
		},
		FaultModes: []sysmodel.FaultModeSpec{{Name: "corrupt"}},
	})
	m := sysmodel.NewModel("filtered")
	m.MustAddComponent(&sysmodel.Component{ID: "s", Type: "src"})
	m.MustAddComponent(&sysmodel.Component{ID: "f", Type: "filter"})
	m.Connect("s", "out", "f", "in", sysmodel.SignalFlow)

	lib := NewBehaviorLibrary(types)
	lib.MustRegister(&TypeBehavior{
		Type:    "src",
		Effects: []FaultEffect{{Fault: "corrupt", Port: "out", Emit: StateOf(ErrValue)}},
	})
	// The filter masks value errors unless bypassed.
	lib.MustRegister(&TypeBehavior{
		Type: "filter",
		Transfers: []TransferRule{
			{From: "in", Match: StateOf(ErrValue), To: "out", Emit: StateOf(ErrValue), WhenFault: "bypass"},
			{From: "in", Match: StateOf(ErrOmission), To: "out", Emit: StateOf(ErrOmission)},
		},
	})
	eng, err := NewEngine(m, lib)
	if err != nil {
		t.Fatal(err)
	}
	// Without bypass the filter masks the error.
	res, _ := eng.RunBudget(Scenario{{Component: "s", Fault: "corrupt"}}, nil)
	if !res.PortState("f", "out").IsOK() {
		t.Errorf("filter must mask: %v", res.PortState("f", "out"))
	}
	// With bypass it propagates.
	res, _ = eng.RunBudget(Scenario{
		{Component: "s", Fault: "corrupt"},
		{Component: "f", Fault: "bypass"},
	}, nil)
	if !res.PortState("f", "out").Has(ErrValue) {
		t.Error("bypassed filter must propagate")
	}
}

func TestUnlessFaultSuppression(t *testing.T) {
	types := sysmodel.NewTypeLibrary()
	types.MustAdd(&sysmodel.ComponentType{
		Name: "relay",
		Ports: []sysmodel.PortSpec{
			{Name: "in", Dir: sysmodel.In, Flow: sysmodel.SignalFlow},
			{Name: "out", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow},
		},
		FaultModes: []sysmodel.FaultModeSpec{{Name: "stuck"}, {Name: "noise"}},
	})
	m := sysmodel.NewModel("relay")
	m.MustAddComponent(&sysmodel.Component{ID: "r", Type: "relay"})
	lib := NewBehaviorLibrary(types)
	lib.MustRegister(&TypeBehavior{
		Type: "relay",
		Effects: []FaultEffect{
			{Fault: "noise", Port: "in", Emit: StateOf(ErrValue)},
			{Fault: "stuck", Port: "out", Emit: StateOf(ErrOmission)},
		},
		Transfers: []TransferRule{
			// A stuck relay does not forward input errors.
			{From: "in", Match: StateOf(ErrValue), To: "out", Emit: StateOf(ErrValue), UnlessFault: "stuck"},
		},
	})
	eng, err := NewEngine(m, lib)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := eng.RunBudget(Scenario{{Component: "r", Fault: "noise"}}, nil)
	if !res.PortState("r", "out").Has(ErrValue) {
		t.Error("value must forward when not stuck")
	}
	res, _ = eng.RunBudget(Scenario{
		{Component: "r", Fault: "noise"},
		{Component: "r", Fault: "stuck"},
	}, nil)
	if res.PortState("r", "out").Has(ErrValue) {
		t.Error("stuck relay must not forward")
	}
	if !res.PortState("r", "out").Has(ErrOmission) {
		t.Error("stuck relay must emit omission")
	}
}

// Monotonicity property: adding activations never removes derived errors
// when no UnlessFault guards are present ("no hazardous attack is
// overlooked" under scenario growth).
func TestMonotoneInScenario(t *testing.T) {
	m, lib := chainModel(t)
	eng, _ := NewEngine(m, lib)
	small := Scenario{{Component: "mid", Fault: "crash"}}
	large := Scenario{
		{Component: "mid", Fault: "crash"},
		{Component: "src", Fault: "corrupt"},
		{Component: "dst", Fault: "crash"},
	}
	rs, _ := eng.RunBudget(small, nil)
	rl, _ := eng.RunBudget(large, nil)
	for _, pk := range eng.ports {
		ss, sl := rs.PortState(pk.Component, pk.Port), rl.PortState(pk.Component, pk.Port)
		if !ss.Leq(sl) {
			t.Errorf("port %v: %v not <= %v", pk, ss, sl)
		}
	}
}

func TestDefaultBehaviorConservative(t *testing.T) {
	types := sysmodel.NewTypeLibrary()
	types.MustAdd(&sysmodel.ComponentType{
		Name: "blackbox",
		Ports: []sysmodel.PortSpec{
			{Name: "in", Dir: sysmodel.In, Flow: sysmodel.SignalFlow},
			{Name: "out", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow},
		},
		FaultModes: []sysmodel.FaultModeSpec{{Name: "any"}},
	})
	b := DefaultBehavior(mustGet(t, types, "blackbox"))
	if len(b.Transfers) != len(AllModes) {
		t.Errorf("default transfers = %d", len(b.Transfers))
	}
	if len(b.Effects) != 1 || b.Effects[0].Emit != AnyError {
		t.Errorf("default effects = %+v", b.Effects)
	}
}

func mustGet(t *testing.T, lib *sysmodel.TypeLibrary, name string) *sysmodel.ComponentType {
	t.Helper()
	ct, ok := lib.Get(name)
	if !ok {
		t.Fatalf("type %q missing", name)
	}
	return ct
}

func TestBehaviorRegisterValidation(t *testing.T) {
	types := sysmodel.NewTypeLibrary()
	types.MustAdd(&sysmodel.ComponentType{
		Name:       "n",
		Ports:      []sysmodel.PortSpec{{Name: "p", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow}},
		FaultModes: []sysmodel.FaultModeSpec{{Name: "f"}},
	})
	lib := NewBehaviorLibrary(types)
	tests := []struct {
		name string
		b    *TypeBehavior
	}{
		{"unknown type", &TypeBehavior{Type: "ghost"}},
		{"unknown fault", &TypeBehavior{Type: "n", Effects: []FaultEffect{{Fault: "ghost"}}}},
		{"unknown port", &TypeBehavior{Type: "n", Effects: []FaultEffect{{Fault: "f", Port: "ghost"}}}},
		{"unknown transfer port", &TypeBehavior{Type: "n",
			Transfers: []TransferRule{{From: "ghost", Match: AnyError, To: "p", Emit: AnyError}}}},
		{"empty match", &TypeBehavior{Type: "n",
			Transfers: []TransferRule{{From: "p", Match: OK, To: "p", Emit: AnyError}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := lib.Register(tt.b); err == nil {
				t.Error("expected error")
			}
		})
	}
	if err := lib.Register(&TypeBehavior{Type: "n"}); err != nil {
		t.Fatal(err)
	}
	if err := lib.Register(&TypeBehavior{Type: "n"}); err == nil {
		t.Error("duplicate must fail")
	}
}

func TestEngineRejectsComposite(t *testing.T) {
	types := sysmodel.NewTypeLibrary()
	types.MustAdd(&sysmodel.ComponentType{Name: "box"})
	m := sysmodel.NewModel("x")
	inner := sysmodel.NewModel("inner")
	inner.MustAddComponent(&sysmodel.Component{ID: "i", Type: "box"})
	m.MustAddComponent(&sysmodel.Component{ID: "c", Type: "box", Sub: inner})
	lib := NewBehaviorLibrary(types)
	if _, err := NewEngine(m, lib); err == nil {
		t.Error("composite model must be rejected")
	}
}

// TestASPAgreesWithNative cross-checks the ASP encoding against the native
// fixpoint on randomized ring/chain/tree models and random scenarios —
// the central semantic equivalence invariant of the two EPA engines.
func TestASPAgreesWithNative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		m, lib := randomModel(t, rng, 3+rng.Intn(4))
		eng, err := NewEngine(m, lib)
		if err != nil {
			t.Fatal(err)
		}
		// Random scenario.
		var sc Scenario
		for _, c := range m.Components {
			if rng.Intn(3) == 0 {
				fault := []string{"crash", "corrupt"}[rng.Intn(2)]
				sc = append(sc, Activation{Component: c.ID, Fault: fault})
			}
		}
		native, err := eng.RunBudget(sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := eng.EncodeASP()
		if err != nil {
			t.Fatal(err)
		}
		EncodeScenario(prog, sc)
		res, err := solver.SolveProgram(prog, solver.Options{})
		if err != nil {
			t.Fatalf("trial %d: solve: %v", trial, err)
		}
		if len(res.Models) != 1 {
			t.Fatalf("trial %d: deterministic EPA program has %d models", trial, len(res.Models))
		}
		model := res.Models[0]
		for _, pk := range eng.ports {
			for _, mode := range AllModes {
				key := ErrAtom(pk.Component, pk.Port, mode).Key()
				aspHas := model.Contains(key)
				nativeHas := native.PortState(pk.Component, pk.Port).Has(mode)
				if aspHas != nativeHas {
					t.Fatalf("trial %d scenario %v port %v mode %v: asp=%v native=%v",
						trial, sc, pk, mode, aspHas, nativeHas)
				}
			}
		}
	}
}

// randomModel builds a random connected digraph of "node" components,
// including cycles, to exercise the fixpoint.
func randomModel(t testing.TB, rng *rand.Rand, n int) (*sysmodel.Model, *BehaviorLibrary) {
	t.Helper()
	types := sysmodel.NewTypeLibrary()
	types.MustAdd(&sysmodel.ComponentType{
		Name: "node",
		Ports: []sysmodel.PortSpec{
			{Name: "in", Dir: sysmodel.In, Flow: sysmodel.SignalFlow},
			{Name: "out", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow},
		},
		FaultModes: []sysmodel.FaultModeSpec{{Name: "crash"}, {Name: "corrupt"}},
	})
	m := sysmodel.NewModel("rand")
	for i := 0; i < n; i++ {
		m.MustAddComponent(&sysmodel.Component{ID: fmt.Sprintf("n%d", i), Type: "node"})
	}
	// Ring for connectivity + random chords (cycles included).
	for i := 0; i < n; i++ {
		m.Connect(fmt.Sprintf("n%d", i), "out", fmt.Sprintf("n%d", (i+1)%n), "in", sysmodel.SignalFlow)
	}
	for i := 0; i < n/2; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			m.Connect(fmt.Sprintf("n%d", a), "out", fmt.Sprintf("n%d", b), "in", sysmodel.SignalFlow)
		}
	}
	lib := NewBehaviorLibrary(types)
	lib.MustRegister(&TypeBehavior{
		Type: "node",
		Effects: []FaultEffect{
			{Fault: "crash", Port: "out", Emit: StateOf(ErrOmission)},
			{Fault: "corrupt", Port: "out", Emit: StateOf(ErrValue)},
		},
		Transfers: IdentityTransfers("in", "out"),
	})
	return m, lib
}

func BenchmarkEPAChain(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			types := sysmodel.NewTypeLibrary()
			types.MustAdd(&sysmodel.ComponentType{
				Name: "node",
				Ports: []sysmodel.PortSpec{
					{Name: "in", Dir: sysmodel.In, Flow: sysmodel.SignalFlow},
					{Name: "out", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow},
				},
				FaultModes: []sysmodel.FaultModeSpec{{Name: "corrupt"}},
			})
			m := sysmodel.NewModel("chain")
			for i := 0; i < n; i++ {
				m.MustAddComponent(&sysmodel.Component{ID: fmt.Sprintf("n%d", i), Type: "node"})
			}
			for i := 0; i+1 < n; i++ {
				m.Connect(fmt.Sprintf("n%d", i), "out", fmt.Sprintf("n%d", i+1), "in", sysmodel.SignalFlow)
			}
			lib := NewBehaviorLibrary(types)
			lib.MustRegister(&TypeBehavior{
				Type:      "node",
				Effects:   []FaultEffect{{Fault: "corrupt", Port: "out", Emit: StateOf(ErrValue)}},
				Transfers: IdentityTransfers("in", "out"),
			})
			eng, err := NewEngine(m, lib)
			if err != nil {
				b.Fatal(err)
			}
			sc := Scenario{{Component: "n0", Fault: "corrupt"}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.RunBudget(sc, nil)
				if err != nil {
					b.Fatal(err)
				}
				if !res.PortState(fmt.Sprintf("n%d", n-1), "in").Has(ErrValue) {
					b.Fatal("propagation incomplete")
				}
			}
		})
	}
}
