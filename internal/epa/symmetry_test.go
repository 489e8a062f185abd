package epa

import (
	"fmt"
	"reflect"
	"testing"

	"cpsrisk/internal/sysmodel"
)

// starModel builds n identical sensors feeding one hub input each:
// sensor<i>.out -> hub.in. Every sensor is interchangeable.
func starModel(t testing.TB, n int) (*sysmodel.Model, *BehaviorLibrary) {
	t.Helper()
	types := sysmodel.NewTypeLibrary()
	types.MustAdd(&sysmodel.ComponentType{
		Name: "sensor",
		Ports: []sysmodel.PortSpec{
			{Name: "out", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow},
		},
		FaultModes: []sysmodel.FaultModeSpec{
			{Name: "corrupt"}, {Name: "stuck"},
		},
	})
	types.MustAdd(&sysmodel.ComponentType{
		Name: "hub",
		Ports: []sysmodel.PortSpec{
			{Name: "in", Dir: sysmodel.In, Flow: sysmodel.SignalFlow},
			{Name: "out", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow},
		},
		FaultModes: []sysmodel.FaultModeSpec{{Name: "crash"}},
	})
	m := sysmodel.NewModel("star")
	m.MustAddComponent(&sysmodel.Component{ID: "hub", Type: "hub"})
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s%02d", i)
		m.MustAddComponent(&sysmodel.Component{ID: id, Type: "sensor"})
		m.Connect(id, "out", "hub", "in", sysmodel.SignalFlow)
	}
	lib := NewBehaviorLibrary(types)
	lib.MustRegister(&TypeBehavior{
		Type: "sensor",
		Effects: []FaultEffect{
			{Fault: "corrupt", Port: "out", Emit: StateOf(ErrValue)},
			{Fault: "stuck", Port: "out", Emit: StateOf(ErrTiming)},
		},
	})
	lib.MustRegister(&TypeBehavior{
		Type: "hub",
		Effects: []FaultEffect{
			{Fault: "crash", Port: "out", Emit: StateOf(ErrOmission)},
		},
		Transfers: IdentityTransfers("in", "out"),
	})
	return m, lib
}

func TestMonotone(t *testing.T) {
	m, lib := chainModel(t)
	eng, err := NewEngine(m, lib)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Monotone() {
		t.Error("chain model has no UnlessFault guards; engine must be monotone")
	}
	// WhenFault alone keeps monotonicity; UnlessFault breaks it.
	types := sysmodel.NewTypeLibrary()
	types.MustAdd(&sysmodel.ComponentType{
		Name: "node",
		Ports: []sysmodel.PortSpec{
			{Name: "in", Dir: sysmodel.In, Flow: sysmodel.SignalFlow},
			{Name: "out", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow},
		},
		FaultModes: []sysmodel.FaultModeSpec{{Name: "guard"}},
	})
	m2 := sysmodel.NewModel("guarded")
	m2.MustAddComponent(&sysmodel.Component{ID: "n", Type: "node"})
	lib2 := NewBehaviorLibrary(types)
	lib2.MustRegister(&TypeBehavior{
		Type: "node",
		Transfers: []TransferRule{{
			From: "in", Match: AnyError, To: "out", Emit: StateOf(ErrValue),
			UnlessFault: "guard",
		}},
	})
	eng2, err := NewEngine(m2, lib2)
	if err != nil {
		t.Fatal(err)
	}
	if eng2.Monotone() {
		t.Error("UnlessFault transfer must make the engine non-monotone")
	}
}

func TestInterchangeableClassesStar(t *testing.T) {
	m, lib := starModel(t, 4)
	eng, err := NewEngine(m, lib)
	if err != nil {
		t.Fatal(err)
	}
	classes := eng.InterchangeableClasses(nil)
	want := [][]string{{"s00", "s01", "s02", "s03"}}
	if !reflect.DeepEqual(classes, want) {
		t.Fatalf("classes = %v, want %v", classes, want)
	}
	// Protecting a member removes it from the class but keeps the rest.
	classes = eng.InterchangeableClasses(map[string]bool{"s01": true})
	want = [][]string{{"s00", "s02", "s03"}}
	if !reflect.DeepEqual(classes, want) {
		t.Fatalf("protected classes = %v, want %v", classes, want)
	}
}

func TestInterchangeableClassesChainIsAsymmetric(t *testing.T) {
	m, lib := chainModel(t)
	eng, err := NewEngine(m, lib)
	if err != nil {
		t.Fatal(err)
	}
	// src, mid, dst share a type but occupy distinct positions in the
	// chain; no transposition is an automorphism.
	if classes := eng.InterchangeableClasses(nil); len(classes) != 0 {
		t.Fatalf("chain must have no interchangeable components, got %v", classes)
	}
}

func TestInterchangeableClassesSplitOnWiring(t *testing.T) {
	// Two sensors feed the hub, a third sensor of the same type dangles
	// unconnected: same type signature, different neighbourhood.
	m, lib := starModel(t, 2)
	m.MustAddComponent(&sysmodel.Component{ID: "s99", Type: "sensor"})
	eng, err := NewEngine(m, lib)
	if err != nil {
		t.Fatal(err)
	}
	classes := eng.InterchangeableClasses(nil)
	want := [][]string{{"s00", "s01"}}
	if !reflect.DeepEqual(classes, want) {
		t.Fatalf("classes = %v, want %v", classes, want)
	}
}

// The soundness contract: for interchangeable a and b, results are
// equivariant — a scenario with a fault on a yields the same result as
// the renamed scenario on b, up to the renaming.
func TestSwapEquivariance(t *testing.T) {
	m, lib := starModel(t, 3)
	eng, err := NewEngine(m, lib)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := eng.RunBudget(Scenario{{Component: "s00", Fault: "corrupt"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := eng.RunBudget(Scenario{{Component: "s02", Fault: "corrupt"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ra.PortState("s00", "out"), rb.PortState("s02", "out"); got != want {
		t.Fatalf("faulted-sensor states differ: %v vs %v", got, want)
	}
	if got, want := ra.PortState("hub", "out"), rb.PortState("hub", "out"); got != want {
		t.Fatalf("hub states differ: %v vs %v", got, want)
	}
	if !ra.PortState("s01", "out").IsOK() || !rb.PortState("s01", "out").IsOK() {
		t.Fatal("unfaulted sensor must stay clean")
	}
}
