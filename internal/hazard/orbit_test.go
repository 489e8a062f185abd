package hazard

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cpsrisk/internal/epa"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/qual"
	"cpsrisk/internal/sysmodel"
)

// refOrbitKey is the reference canonical form orbitKey must agree with:
// activations on unclassed components stay literal, activations on
// classed components collapse to the multiset of per-member fault-name
// sets within each class, all rendered as sorted strings. ok is false
// when no classed component participates.
func refOrbitKey(classOf map[string]int, sc epa.Scenario) (string, bool) {
	classed := false
	var lines []string
	perMember := map[string][]string{} // classed component -> faults
	for _, a := range sc {
		if _, ok := classOf[a.Component]; ok {
			classed = true
			perMember[a.Component] = append(perMember[a.Component], a.Fault)
		} else {
			lines = append(lines, "u\x00"+a.Component+"\x00"+a.Fault)
		}
	}
	if !classed {
		return "", false
	}
	perClass := map[int][]string{} // class -> member fault-set strings
	for comp, fs := range perMember {
		sort.Strings(fs)
		cl := classOf[comp]
		perClass[cl] = append(perClass[cl], strings.Join(fs, "+"))
	}
	for cl, sets := range perClass {
		sort.Strings(sets)
		lines = append(lines, fmt.Sprintf("c\x00%d\x00%s", cl, strings.Join(sets, "\x01")))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n"), true
}

// setupOrbitPlant generates a plant with two symmetry classes: wide
// sensors with more than 8 faults each feeding hub "ha", and narrow
// two-fault sensors feeding hub "hb". Both hubs are named by requirements
// (protected); "solo" is a wide sensor wired to the other hub
// (unclassed). When split is drawn, narrow sensor n0 gets its own
// likelihood for one fault, so profile refinement must drop it from the
// narrow class. It returns the component expected in each class.
func setupOrbitPlant(t testing.TB, seed int64) (*epa.Engine, []faults.Mutation, []Requirement, [2][]string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	wideFaults := 9 + rng.Intn(3)
	split := rng.Intn(2) == 1
	soloFaults := 1 + rng.Intn(3)
	errs := []epa.ErrMode{epa.ErrValue, epa.ErrTiming, epa.ErrOmission}
	levels := []qual.Level{qual.Low, qual.Medium, qual.High}

	types := sysmodel.NewTypeLibrary()
	wide := &sysmodel.ComponentType{
		Name:  "wide",
		Ports: []sysmodel.PortSpec{{Name: "out", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow}},
	}
	wideBeh := &epa.TypeBehavior{Type: "wide"}
	for f := 0; f < wideFaults; f++ {
		name := fmt.Sprintf("w%d", f)
		wide.FaultModes = append(wide.FaultModes, sysmodel.FaultModeSpec{Name: name, Likelihood: "M"})
		wideBeh.Effects = append(wideBeh.Effects, epa.FaultEffect{Fault: name, Port: "out", Emit: epa.StateOf(errs[f%3])})
	}
	types.MustAdd(wide)
	types.MustAdd(&sysmodel.ComponentType{
		Name:  "narrow",
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
	lib := epa.NewBehaviorLibrary(types)
	lib.MustRegister(wideBeh)
	lib.MustRegister(&epa.TypeBehavior{
		Type: "narrow",
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

	m := sysmodel.NewModel(fmt.Sprintf("orbit-plant-%d", seed))
	var muts []faults.Mutation
	mut := func(comp, fault string, l qual.Level) {
		muts = append(muts, faults.Mutation{Activation: epa.Activation{Component: comp, Fault: fault}, Likelihood: l})
	}
	var classes [2][]string
	for _, hub := range []string{"ha", "hb"} {
		m.MustAddComponent(&sysmodel.Component{ID: hub, Type: "hub"})
		mut(hub, "crash", qual.Low)
	}
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("w%d", i)
		m.MustAddComponent(&sysmodel.Component{ID: id, Type: "wide"})
		m.Connect(id, "out", "ha", "in", sysmodel.SignalFlow)
		for f := 0; f < wideFaults; f++ {
			mut(id, fmt.Sprintf("w%d", f), levels[f%3])
		}
		classes[0] = append(classes[0], id)
	}
	m.MustAddComponent(&sysmodel.Component{ID: "solo", Type: "wide"})
	m.Connect("solo", "out", "hb", "in", sysmodel.SignalFlow)
	for f := 0; f < soloFaults; f++ {
		mut("solo", fmt.Sprintf("w%d", f), levels[f%3])
	}
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("n%d", i)
		m.MustAddComponent(&sysmodel.Component{ID: id, Type: "narrow"})
		m.Connect(id, "out", "hb", "in", sysmodel.SignalFlow)
		stuck := qual.Low
		if split && i == 0 {
			stuck = qual.High
		} else {
			classes[1] = append(classes[1], id)
		}
		mut(id, "corrupt", qual.Medium)
		mut(id, "stuck", stuck)
	}
	eng, err := epa.NewEngine(m, lib)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Requirement{
		{ID: "R-HA", Severity: qual.High, Condition: Comp("ha", epa.ErrValue)},
		{ID: "R-HB", Severity: qual.Medium, Condition: Any(Comp("hb", epa.ErrTiming), Comp("hb", epa.ErrOmission))},
	}
	return eng, muts, reqs, classes
}

// TestOrbitKeyMatchesReference: over every scenario up to k=4 of
// generated plants, two scenarios share an orbitKey exactly when they
// share the reference key, and a scenario has a key exactly when the
// reference gives one.
func TestOrbitKeyMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			eng, muts, reqs, want := setupOrbitPlant(t, seed)
			p := newPruner(eng, muts, reqs)
			if p.numClasses() != 2 {
				t.Fatalf("classes = %d, want 2", p.numClasses())
			}
			classOf := map[string]int{}
			for i, m := range muts {
				if c := p.cands[i].class; c >= 0 {
					classOf[m.Component] = int(c)
				}
			}
			for _, members := range want {
				for _, comp := range members {
					if classOf[comp] != classOf[members[0]] {
						t.Fatalf("%s and %s not in one class: %v", comp, members[0], classOf)
					}
				}
			}
			if len(classOf) != len(want[0])+len(want[1]) || classOf[want[0][0]] == classOf[want[1][0]] {
				t.Fatalf("class partition %v, want %v", classOf, want)
			}

			maskLen := (len(muts) + 7) / 8
			refToKey, keyToRef := map[string]string{}, map[string]string{}
			var ks orbitScratch
			scenarios := 0
			faults.EnumerateIndex(len(muts), 4, func(idx []int) bool {
				scenarios++
				sc := scenarioOf(muts, idx)
				ref, refOK := refOrbitKey(classOf, sc)
				key := p.orbitKey(appendMask(nil, idx, maskLen), &ks)
				if (key != nil) != refOK {
					t.Fatalf("%s: orbitKey present %v, reference %v", sc.Key(), key != nil, refOK)
				}
				if !refOK {
					return true
				}
				k := string(key)
				if prev, ok := refToKey[ref]; ok && prev != k {
					t.Fatalf("%s: one orbit, two keys", sc.Key())
				}
				if prev, ok := keyToRef[k]; ok && prev != ref {
					t.Fatalf("%s: two orbits, one key", sc.Key())
				}
				refToKey[ref], keyToRef[k] = k, ref
				return true
			})
			if len(refToKey) == 0 || len(refToKey) >= scenarios {
				t.Fatalf("%d orbits over %d scenarios: nothing collapsed", len(refToKey), scenarios)
			}
		})
	}
}

// TestPrunedStarSweepCounts pins the pruned sweep's work on the star
// plant at one worker, where it is deterministic: the orbit key and the
// read-locked record canonicalize and learn exactly as the string key and
// the always-locking record did.
func TestPrunedStarSweepCounts(t *testing.T) {
	eng, muts, reqs := setupStar(t)
	a, err := AnalyzeSweep(eng, muts, starMaxCard, reqs, SweepConfig{Parallelism: 1, Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	sw := a.Sweep
	got := [4]int64{int64(len(a.Scenarios)), sw.Executed, sw.Pruned, sw.OrbitHits}
	if want := [4]int64{27896, 12, 26862, 1022}; got != want {
		t.Fatalf("rows/executed/pruned/orbit hits = %v, want %v", got, want)
	}
}
