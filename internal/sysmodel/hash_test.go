package sysmodel

import "testing"

func hashModel() *Model {
	return &Model{
		Name: "plant",
		Components: []*Component{
			{ID: "a", Name: "A", Type: "sensor", Layer: "physical", Attrs: map[string]string{"version": "1.0"}},
			{ID: "b", Name: "B", Type: "controller", Layer: "cyber"},
			{ID: "c", Name: "C", Type: "actuator", Layer: "physical", Attrs: map[string]string{"criticality": "VH"}},
		},
		Connections: []Connection{
			{From: PortRef{"a", "out"}, To: PortRef{"b", "in"}, Flow: SignalFlow},
			{From: PortRef{"b", "cmd"}, To: PortRef{"c", "cmd"}, Flow: SignalFlow, Label: "bus"},
		},
		Requirements: []Requirement{
			{ID: "R1", Description: "actuator ok", Formula: "ok(c)", Severity: "VH"},
		},
	}
}

func TestHashDeterministicAndOrderIndependent(t *testing.T) {
	m := hashModel()
	h1 := m.Hash()
	if h1 != m.Hash() {
		t.Fatal("hash not deterministic")
	}
	// Reorder components and connections: same model, same hash.
	r := hashModel()
	r.Components[0], r.Components[2] = r.Components[2], r.Components[0]
	r.Connections[0], r.Connections[1] = r.Connections[1], r.Connections[0]
	if r.Hash() != h1 {
		t.Fatal("hash depends on declaration order")
	}
	// Display name excluded.
	n := hashModel()
	n.Name = "renamed"
	if n.Hash() != h1 {
		t.Fatal("hash depends on model display name")
	}
}

func TestHashSensitivity(t *testing.T) {
	base := hashModel().Hash()
	edits := map[string]func(*Model){
		"attr":        func(m *Model) { m.Components[0].Attrs["version"] = "2.0" },
		"type":        func(m *Model) { m.Components[1].Type = "scada_server" },
		"layer":       func(m *Model) { m.Components[1].Layer = "physical" },
		"comp-name":   func(m *Model) { m.Components[1].Name = "B2" },
		"add-comp":    func(m *Model) { m.Components = append(m.Components, &Component{ID: "d", Type: "hmi"}) },
		"drop-comp":   func(m *Model) { m.Components = m.Components[:2]; m.Connections = m.Connections[:1] },
		"rewire":      func(m *Model) { m.Connections[0].To = PortRef{"c", "cmd"} },
		"flow":        func(m *Model) { m.Connections[0].Flow = QuantityFlow },
		"label":       func(m *Model) { m.Connections[1].Label = "fieldbus" },
		"requirement": func(m *Model) { m.Requirements[0].Severity = "H" },
	}
	for name, edit := range edits {
		m := hashModel()
		edit(m)
		if m.Hash() == base {
			t.Errorf("edit %q did not change the model hash", name)
		}
	}
}

func TestBehavioralVsMetaSplit(t *testing.T) {
	a := hashModel().Fingerprint()

	meta := hashModel()
	meta.Components[0].Attrs["version"] = "9.9"
	meta.Components[0].Layer = "cyber"
	fm := meta.Fingerprint()
	if fm.Components["a"] == a.Components["a"] {
		t.Fatal("meta edit should change the full component hash")
	}
	if fm.Behavior["a"] != a.Behavior["a"] {
		t.Fatal("attr/layer edit must not change the behavioral hash")
	}

	behav := hashModel()
	behav.Components[0].Type = "valve"
	fb := behav.Fingerprint()
	if fb.Behavior["a"] == a.Behavior["a"] {
		t.Fatal("type edit must change the behavioral hash")
	}
}

func TestDiff(t *testing.T) {
	a := hashModel().Fingerprint()

	b := hashModel()
	b.Components[0].Attrs["version"] = "2.0"                              // meta change on a
	b.Components[1].Type = "scada_server"                                 // behavior change on b
	b.Components = append(b.Components, &Component{ID: "d", Type: "hmi"}) // add d
	b.Connections[0].Flow = QuantityFlow                                  // change a>b slot
	d := a.Diff(b.Fingerprint())

	if got, want := join(d.ChangedMeta), "a"; got != want {
		t.Errorf("ChangedMeta = %q, want %q", got, want)
	}
	if got, want := join(d.ChangedBehavior), "b"; got != want {
		t.Errorf("ChangedBehavior = %q, want %q", got, want)
	}
	if got, want := join(d.Added), "d"; got != want {
		t.Errorf("Added = %q, want %q", got, want)
	}
	if len(d.Removed) != 0 {
		t.Errorf("Removed = %v, want none", d.Removed)
	}
	// The rewired slot appears twice: old signal key gone, new quantity key new.
	if len(d.ConnsChanged) != 2 {
		t.Errorf("ConnsChanged = %v, want 2 entries", d.ConnsChanged)
	}
	if d.RequirementsChanged {
		t.Error("requirements did not change")
	}
	if d.Touched() != 3 {
		t.Errorf("Touched = %d, want 3", d.Touched())
	}

	// Removal shows up from the other direction.
	rd := b.Fingerprint().Diff(a)
	if got, want := join(rd.Removed), "d"; got != want {
		t.Errorf("reverse Removed = %q, want %q", got, want)
	}

	// Identity.
	if !a.Diff(hashModel().Fingerprint()).Identical() {
		t.Error("self-diff not identical")
	}

	// Requirement edits flip the flag only.
	r := hashModel()
	r.Requirements[0].Severity = "H"
	dr := a.Diff(r.Fingerprint())
	if !dr.RequirementsChanged || dr.Touched() != 0 || len(dr.ConnsChanged) != 0 {
		t.Errorf("requirement-only diff = %+v", dr)
	}
}

func TestCompositeHash(t *testing.T) {
	inner := func() *Model {
		return &Model{
			Components: []*Component{
				{ID: "x", Type: "sensor"},
				{ID: "y", Type: "filter", Attrs: map[string]string{"gain": "2"}},
			},
			Connections: []Connection{{From: PortRef{"x", "out"}, To: PortRef{"y", "in"}, Flow: SignalFlow}},
		}
	}
	mk := func() *Model {
		return &Model{Components: []*Component{{
			ID: "sub", Type: "composite", Sub: inner(),
			Bindings: map[string]PortRef{"out": {"y", "out"}},
		}}}
	}
	base := mk().Fingerprint()

	// Inner structural edit changes both hashes.
	m1 := mk()
	m1.Components[0].Sub.Components[0].Type = "probe"
	f1 := m1.Fingerprint()
	if f1.Behavior["sub"] == base.Behavior["sub"] {
		t.Fatal("inner type edit must change outer behavioral hash")
	}
	// Inner attr edit changes the full hash but not the behavioral one.
	m2 := mk()
	m2.Components[0].Sub.Components[1].Attrs["gain"] = "3"
	f2 := m2.Fingerprint()
	if f2.Components["sub"] == base.Components["sub"] {
		t.Fatal("inner attr edit must change outer full hash")
	}
	if f2.Behavior["sub"] != base.Behavior["sub"] {
		t.Fatal("inner attr edit must not change outer behavioral hash")
	}
	// Binding edit changes the behavioral hash.
	m3 := mk()
	m3.Components[0].Bindings["out"] = PortRef{"x", "out"}
	if m3.Fingerprint().Behavior["sub"] == base.Behavior["sub"] {
		t.Fatal("binding edit must change behavioral hash")
	}
}

func join(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ","
		}
		out += s
	}
	return out
}
