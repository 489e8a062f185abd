package core

import (
	"encoding/json"
	"fmt"
	"testing"

	"cpsrisk/internal/artifact"
	"cpsrisk/internal/epa"
	"cpsrisk/internal/faultinject"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/obs"
	"cpsrisk/internal/qual"
	"cpsrisk/internal/sysmodel"
)

// deltaFixture is the shared configuration of the differential corpus:
// one type library, behaviour library, and requirement set reused across
// every run so the configuration hash matches and only the model varies.
type deltaFixture struct {
	types     *sysmodel.TypeLibrary
	behaviors *epa.BehaviorLibrary
	reqs      []hazard.Requirement
}

func newDeltaFixture() *deltaFixture {
	types := sysmodel.NewTypeLibrary()
	types.MustAdd(&sysmodel.ComponentType{
		Name:  "sensor",
		Ports: []sysmodel.PortSpec{{Name: "out", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow}},
		FaultModes: []sysmodel.FaultModeSpec{
			{Name: "corrupt", Likelihood: "M"}, {Name: "stuck", Likelihood: "L"},
		},
	})
	// sensorB is the retype target: same ports, different fault effect
	// and a different likelihood — one edit changes behavior and scoring.
	types.MustAdd(&sysmodel.ComponentType{
		Name:       "sensorB",
		Ports:      []sysmodel.PortSpec{{Name: "out", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow}},
		FaultModes: []sysmodel.FaultModeSpec{{Name: "corrupt", Likelihood: "H"}},
	})
	types.MustAdd(&sysmodel.ComponentType{
		Name: "relay",
		Ports: []sysmodel.PortSpec{
			{Name: "in", Dir: sysmodel.In, Flow: sysmodel.SignalFlow},
			{Name: "out", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow},
		},
		FaultModes: []sysmodel.FaultModeSpec{{Name: "drop", Likelihood: "L"}},
	})
	types.MustAdd(&sysmodel.ComponentType{
		Name:       "tank",
		Ports:      []sysmodel.PortSpec{{Name: "pipe", Dir: sysmodel.InOut, Flow: sysmodel.QuantityFlow}},
		FaultModes: []sysmodel.FaultModeSpec{{Name: "leak", Likelihood: "L"}},
	})
	types.MustAdd(&sysmodel.ComponentType{
		Name: "hub",
		Ports: []sysmodel.PortSpec{
			{Name: "in", Dir: sysmodel.In, Flow: sysmodel.SignalFlow},
			{Name: "pipe", Dir: sysmodel.InOut, Flow: sysmodel.QuantityFlow},
			{Name: "out", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow},
		},
		FaultModes: []sysmodel.FaultModeSpec{{Name: "crash", Likelihood: "L"}},
	})

	lib := epa.NewBehaviorLibrary(types)
	lib.MustRegister(&epa.TypeBehavior{
		Type: "sensor",
		Effects: []epa.FaultEffect{
			{Fault: "corrupt", Port: "out", Emit: epa.StateOf(epa.ErrValue)},
			{Fault: "stuck", Port: "out", Emit: epa.StateOf(epa.ErrTiming)},
		},
	})
	lib.MustRegister(&epa.TypeBehavior{
		Type:    "sensorB",
		Effects: []epa.FaultEffect{{Fault: "corrupt", Port: "out", Emit: epa.StateOf(epa.ErrTiming)}},
	})
	lib.MustRegister(&epa.TypeBehavior{
		Type:      "relay",
		Effects:   []epa.FaultEffect{{Fault: "drop", Port: "out", Emit: epa.StateOf(epa.ErrOmission)}},
		Transfers: epa.IdentityTransfers("in", "out"),
	})
	lib.MustRegister(&epa.TypeBehavior{
		Type:    "tank",
		Effects: []epa.FaultEffect{{Fault: "leak", Port: "pipe", Emit: epa.StateOf(epa.ErrValue)}},
	})
	lib.MustRegister(&epa.TypeBehavior{
		Type:    "hub",
		Effects: []epa.FaultEffect{{Fault: "crash", Port: "out", Emit: epa.StateOf(epa.ErrOmission)}},
		Transfers: append(epa.IdentityTransfers("in", "out"),
			epa.IdentityTransfers("pipe", "out")...),
	})

	reqs := []hazard.Requirement{
		{ID: "R-VAL", Severity: qual.High, Condition: hazard.Comp("hub", epa.ErrValue)},
		{ID: "R-TIM", Severity: qual.Medium, Condition: hazard.Comp("hub", epa.ErrTiming)},
		{ID: "R-OM", Severity: qual.Low, Condition: hazard.Comp("hub", epa.ErrOmission)},
	}
	return &deltaFixture{types: types, behaviors: lib, reqs: reqs}
}

// model builds the corpus base plant: four sensors (two direct, two
// behind relays) and a quantity-coupled tank feeding one hub.
func (f *deltaFixture) model() *sysmodel.Model {
	m := sysmodel.NewModel("delta-base")
	m.MustAddComponent(&sysmodel.Component{ID: "hub", Type: "hub"})
	for i := 0; i < 4; i++ {
		m.MustAddComponent(&sysmodel.Component{ID: fmt.Sprintf("s%d", i), Type: "sensor"})
	}
	m.MustAddComponent(&sysmodel.Component{ID: "r0", Type: "relay"})
	m.MustAddComponent(&sysmodel.Component{ID: "r1", Type: "relay"})
	m.MustAddComponent(&sysmodel.Component{ID: "tank", Type: "tank"})
	m.Connect("s0", "out", "hub", "in", sysmodel.SignalFlow)
	m.Connect("s1", "out", "hub", "in", sysmodel.SignalFlow)
	m.Connect("s2", "out", "r0", "in", sysmodel.SignalFlow)
	m.Connect("r0", "out", "hub", "in", sysmodel.SignalFlow)
	m.Connect("s3", "out", "r1", "in", sysmodel.SignalFlow)
	m.Connect("r1", "out", "hub", "in", sysmodel.SignalFlow)
	m.Connect("tank", "pipe", "hub", "pipe", sysmodel.QuantityFlow)
	return m
}

func (f *deltaFixture) config(m *sysmodel.Model) Config {
	return Config{
		Model:           m,
		Types:           f.types,
		Behaviors:       f.behaviors,
		Requirements:    f.reqs,
		MutationSources: faults.Options{IncludeSpontaneous: true},
		MaxCardinality:  2,
	}
}

// canonical renders the parts of a summary that must be byte-identical
// between a delta re-assessment and a cold run: everything except effort
// statistics (sweep/solver counters, durations) and the resolution stamp
// itself.
func canonical(t *testing.T, a *Assessment) string {
	t.Helper()
	s := a.Summarize()
	s.Sweep = nil
	s.Solver = nil
	s.Artifact = nil
	s.DurationMS = 0
	s.Trace = nil
	s.Metrics = nil
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// removeComponent deletes a component and every connection touching it.
func removeComponent(m *sysmodel.Model, id string) {
	comps := m.Components[:0]
	for _, c := range m.Components {
		if c.ID != id {
			comps = append(comps, c)
		}
	}
	m.Components = comps
	conns := m.Connections[:0]
	for _, c := range m.Connections {
		if c.From.Component != id && c.To.Component != id {
			conns = append(conns, c)
		}
	}
	m.Connections = conns
}

// removeConnection deletes the first connection between the two
// components.
func removeConnection(m *sysmodel.Model, from, to string) {
	for i, c := range m.Connections {
		if c.From.Component == from && c.To.Component == to {
			m.Connections = append(m.Connections[:i], m.Connections[i+1:]...)
			return
		}
	}
	panic("removeConnection: no such connection " + from + ">" + to)
}

func retype(m *sysmodel.Model, id, typ string) {
	c, ok := m.Component(id)
	if !ok {
		panic("retype: no component " + id)
	}
	c.Type = typ
}

func setAttr(m *sysmodel.Model, id, key, val string) {
	c, ok := m.Component(id)
	if !ok {
		panic("setAttr: no component " + id)
	}
	if c.Attrs == nil {
		c.Attrs = map[string]string{}
	}
	c.Attrs[key] = val
}

// TestDeltaCorpus is the differential corpus: ~20 scripted model edits,
// each asserting that delta re-assessment against a cached parent
// produces a report byte-identical to a cold run of the edited model,
// and that each edit resolves to the expected artifact path.
func TestDeltaCorpus(t *testing.T) {
	f := newDeltaFixture()
	cases := []struct {
		name string
		edit func(*sysmodel.Model)
		want string // expected Artifact.Path on the edited run
	}{
		// Metadata-only edits: invisible to the EPA engine, zero rows
		// invalidated.
		{"attr-note", func(m *sysmodel.Model) { setAttr(m, "s0", "note", "recalibrated") }, "delta"},
		{"attr-criticality", func(m *sysmodel.Model) { setAttr(m, "tank", "criticality", "VH") }, "delta"},
		{"attr-version", func(m *sysmodel.Model) { setAttr(m, "r0", "version", "2.4.1") }, "delta"},
		{"layer", func(m *sysmodel.Model) { c, _ := m.Component("r0"); c.Layer = "technology" }, "delta"},
		{"display-name", func(m *sysmodel.Model) { c, _ := m.Component("hub"); c.Name = "Central Hub" }, "delta"},
		{"multi-meta", func(m *sysmodel.Model) {
			setAttr(m, "s0", "note", "a")
			setAttr(m, "s1", "note", "b")
			c, _ := m.Component("tank")
			c.Layer = "physical"
		}, "delta"},
		// Behavioral edits: the touched cone re-executes, the rest reuses.
		{"retype-direct-sensor", func(m *sysmodel.Model) { retype(m, "s0", "sensorB") }, "delta"},
		{"retype-relayed-sensor", func(m *sysmodel.Model) { retype(m, "s3", "sensorB") }, "delta"},
		{"retype-two-sensors", func(m *sysmodel.Model) { retype(m, "s1", "sensorB"); retype(m, "s2", "sensorB") }, "delta"},
		{"add-connected-sensor", func(m *sysmodel.Model) {
			m.MustAddComponent(&sysmodel.Component{ID: "s4", Type: "sensor"})
			m.Connect("s4", "out", "hub", "in", sysmodel.SignalFlow)
		}, "delta"},
		{"add-isolated-sensor", func(m *sysmodel.Model) {
			m.MustAddComponent(&sysmodel.Component{ID: "s9", Type: "sensor"})
		}, "delta"},
		{"add-second-tank", func(m *sysmodel.Model) {
			m.MustAddComponent(&sysmodel.Component{ID: "tank2", Type: "tank"})
			m.Connect("tank2", "pipe", "hub", "pipe", sysmodel.QuantityFlow)
		}, "delta"},
		{"remove-direct-sensor", func(m *sysmodel.Model) { removeComponent(m, "s1") }, "delta"},
		{"remove-relay-chain", func(m *sysmodel.Model) { removeComponent(m, "r1"); removeComponent(m, "s3") }, "delta"},
		{"rewire-sensor-to-relay", func(m *sysmodel.Model) {
			removeConnection(m, "s1", "hub")
			m.Connect("s1", "out", "r0", "in", sysmodel.SignalFlow)
		}, "delta"},
		{"rewire-sensor-past-relay", func(m *sysmodel.Model) {
			removeConnection(m, "s2", "r0")
			m.Connect("s2", "out", "hub", "in", sysmodel.SignalFlow)
		}, "delta"},
		{"unplug-quantity-flow", func(m *sysmodel.Model) { removeConnection(m, "tank", "hub") }, "delta"},
		{"relabel-connection", func(m *sysmodel.Model) { m.Connections[0].Label = "calibration feed" }, "delta"},
		{"retype-plus-meta", func(m *sysmodel.Model) {
			retype(m, "s2", "sensorB")
			setAttr(m, "s0", "note", "x")
		}, "delta"},
		{"add-plus-remove", func(m *sysmodel.Model) {
			removeComponent(m, "s1")
			m.MustAddComponent(&sysmodel.Component{ID: "s4", Type: "sensor"})
			m.Connect("s4", "out", "hub", "in", sysmodel.SignalFlow)
		}, "delta"},
		// Non-incremental edits fall back to a cold run.
		{"wide-edit-exceeds-gate", func(m *sysmodel.Model) {
			for i := 0; i < MaxDeltaTouched+1; i++ {
				m.MustAddComponent(&sysmodel.Component{ID: fmt.Sprintf("w%d", i), Type: "sensor"})
			}
		}, "cold"},
		{"model-requirement-change", func(m *sysmodel.Model) {
			m.Requirements = append(m.Requirements, sysmodel.Requirement{ID: "MR-1", Description: "doc"})
		}, "cold"},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ac := artifact.New(4)
			parentCfg := f.config(f.model())
			parentCfg.ArtifactCache = ac
			if _, err := Run(parentCfg); err != nil {
				t.Fatal(err)
			}

			edited := f.model()
			tc.edit(edited)
			warmCfg := f.config(edited)
			warmCfg.ArtifactCache = ac
			warm, err := Run(warmCfg)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Artifact == nil || warm.Artifact.Path != tc.want {
				t.Fatalf("artifact = %+v, want path %q", warm.Artifact, tc.want)
			}

			coldModel := f.model()
			tc.edit(coldModel)
			cold, err := Run(f.config(coldModel))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := canonical(t, warm), canonical(t, cold); got != want {
				t.Fatalf("delta report diverged from cold run\ndelta: %s\ncold:  %s", got, want)
			}
			if tc.want == "delta" && warm.Analysis.Sweep != nil {
				if warm.Analysis.Sweep.Reused == 0 && warm.Artifact.Touched == 0 {
					t.Fatal("metadata-only delta executed the full sweep")
				}
			}
		})
	}
}

// TestArtifactWarmHit: an identical re-run resolves warm and returns the
// identical report with zero additional sweep work.
func TestArtifactWarmHit(t *testing.T) {
	f := newDeltaFixture()
	ac := artifact.New(4)

	cfg := f.config(f.model())
	cfg.ArtifactCache = ac
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Artifact == nil || first.Artifact.Path != "cold" {
		t.Fatalf("first run artifact = %+v, want cold", first.Artifact)
	}

	cfg2 := f.config(f.model())
	cfg2.ArtifactCache = ac
	second, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if second.Artifact.Path != "warm" {
		t.Fatalf("second run artifact = %+v, want warm", second.Artifact)
	}
	if canonical(t, first) != canonical(t, second) {
		t.Fatal("warm report diverged from the run that seeded it")
	}
	st := ac.Stats()
	if st.Hits != 1 {
		t.Fatalf("cache stats = %+v, want exactly one hit", st)
	}
}

// aspDeltaRuns assesses the base model on the ASP path into a fresh
// cache, then the edited model against that cache (with a metrics
// registry) and cold. It fails unless the two reports match, and
// returns the run against the cache.
func aspDeltaRuns(t *testing.T, f *deltaFixture, edit func(*sysmodel.Model)) *Assessment {
	t.Helper()
	ac := artifact.New(4)
	parentCfg := f.config(f.model())
	parentCfg.UseASP = true
	parentCfg.ArtifactCache = ac
	if _, err := Run(parentCfg); err != nil {
		t.Fatal(err)
	}

	edited := f.model()
	edit(edited)
	cachedCfg := f.config(edited)
	cachedCfg.UseASP = true
	cachedCfg.ArtifactCache = ac
	cachedCfg.Metrics = obs.NewRegistry()
	cached, err := Run(cachedCfg)
	if err != nil {
		t.Fatal(err)
	}

	coldModel := f.model()
	edit(coldModel)
	coldCfg := f.config(coldModel)
	coldCfg.UseASP = true
	cold, err := Run(coldCfg)
	if err != nil {
		t.Fatal(err)
	}
	if canonical(t, cached) != canonical(t, cold) {
		t.Fatalf("ASP report against the cache diverged from a cold run\ncached: %s\ncold:   %s",
			canonical(t, cached), canonical(t, cold))
	}
	return cached
}

// TestArtifactASPZeroInvalidation: on the ASP path a metadata-only edit
// with identical candidate scoring resolves delta and returns the
// parent's analysis without grounding or solving anything, and reports
// byte-identically to a cold ASP run.
func TestArtifactASPZeroInvalidation(t *testing.T) {
	cached := aspDeltaRuns(t, newDeltaFixture(), func(m *sysmodel.Model) {
		setAttr(m, "s0", "note", "midnight calibration")
	})
	if cached.Artifact == nil || cached.Artifact.Path != "delta" {
		t.Fatalf("artifact = %+v, want delta", cached.Artifact)
	}
	for _, name := range []string{"solver.queries", "solver.sessions"} {
		if v, ok := cached.Metrics.Counters[name]; ok {
			t.Errorf("zero-invalidation ASP delta ran the solver: %s = %d", name, v)
		}
	}
}

// TestArtifactASPBehavioralEditRunsCold: the ASP path has no reuse
// oracle, so an edit the analysis can observe (a retype) resolves cold
// against a cached parent and reports byte-identically to a cold run.
func TestArtifactASPBehavioralEditRunsCold(t *testing.T) {
	cached := aspDeltaRuns(t, newDeltaFixture(), func(m *sysmodel.Model) {
		retype(m, "s0", "sensorB")
	})
	if cached.Artifact == nil || cached.Artifact.Path != "cold" {
		t.Fatalf("artifact = %+v, want cold", cached.Artifact)
	}
	if cached.Metrics.Counters["solver.queries"] == 0 {
		t.Fatal("a cold ASP run queried no solver")
	}
}

// TestArtifactFaultsBypass: chaos runs must not consult or poison the
// artifact cache.
func TestArtifactFaultsBypass(t *testing.T) {
	f := newDeltaFixture()
	ac := artifact.New(4)

	cfg := f.config(f.model())
	cfg.ArtifactCache = ac
	// An armed injector whose site never fires: the run completes
	// normally but counts as a chaos run for cache gating.
	inj, err := faultinject.New(1, "sweep.eval=transient@999999999")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = inj
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Artifact != nil {
		t.Fatalf("artifact = %+v, want nil on a faults-armed run", a.Artifact)
	}
	if ac.Len() != 0 {
		t.Fatalf("cache holds %d entries after a faults-armed run", ac.Len())
	}
}
