package sysmodel

// Canonical content hashing of models — the identity layer under the
// compiled-artifact cache (internal/artifact). A model's hash is an
// FNV-1a digest of a normalized encoding: components sorted by ID,
// connections sorted by canonical key, requirements sorted by ID, no
// whitespace, no field separators a JSON round-trip could perturb. Two
// models that differ only in declaration order or in the model's display
// name hash identically; any semantic edit changes the hash.
//
// Beyond the whole-model hash, a Fingerprint carries per-component and
// per-connection sub-hashes so two models can be diffed structurally:
// Diff reports which components were added, removed, or changed — split
// into *behavioral* changes (type, composite structure: anything the
// compiled EPA engine can observe) and *metadata* changes (attrs, layer,
// display name: inputs to candidate generation and risk scoring but not
// to error propagation). Delta re-assessment uses exactly this split —
// a metadata-only edit invalidates no EPA rows at all.

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
)

// Fingerprint is the structural identity of a model: the whole-model
// hash plus per-part sub-hashes for diffing.
type Fingerprint struct {
	// ModelHash is the canonical whole-model hash (== Model.Hash()).
	ModelHash uint64
	// Components maps component ID -> full sub-hash (every field).
	Components map[string]uint64
	// Behavior maps component ID -> behavioral sub-hash (type and
	// composite structure only — what the EPA engine compiles).
	Behavior map[string]uint64
	// Connections maps a canonical connection key -> connection hash.
	Connections map[string]uint64
	// Requirements digests the model's requirement list.
	Requirements uint64
}

// Hash returns the canonical FNV-1a content hash of the model. The
// model's display Name is excluded — a renamed file with identical
// structure is the same model.
func (m *Model) Hash() uint64 { return m.Fingerprint().ModelHash }

// Fingerprint computes the model's structural identity: the canonical
// hash plus per-component/per-connection sub-hashes for Diff.
func (m *Model) Fingerprint() *Fingerprint {
	fp := &Fingerprint{
		Components:  make(map[string]uint64, len(m.Components)),
		Behavior:    make(map[string]uint64, len(m.Components)),
		Connections: make(map[string]uint64, len(m.Connections)),
	}
	for _, c := range m.Components {
		fp.Components[c.ID] = componentHash(c, true)
		fp.Behavior[c.ID] = componentHash(c, false)
	}
	for _, conn := range m.Connections {
		// Duplicate keys (same endpoints+flow, different label) combine
		// by XOR so the fingerprint stays order-independent.
		fp.Connections[conn.Key()] ^= connectionHash(conn)
	}
	fp.Requirements = requirementsHash(m.Requirements)

	h := fnv.New64a()
	w := hashWriter{h: h}
	w.str("components")
	ids := make([]string, 0, len(fp.Components))
	for id := range fp.Components {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		w.str(id)
		w.num(fp.Components[id])
	}
	w.str("connections")
	keys := make([]string, 0, len(fp.Connections))
	for k := range fp.Connections {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w.str(k)
		w.num(fp.Connections[k])
	}
	w.str("requirements")
	w.num(fp.Requirements)
	fp.ModelHash = h.Sum64()
	return fp
}

// Key is the canonical identity of a connection slot: endpoints and
// flow kind, label excluded (labels are annotations). Fingerprint and
// Delta use it as the connection map key; delta re-assessment maps a
// changed key back to the connection's endpoint components.
func (c Connection) Key() string {
	return c.From.String() + ">" + c.To.String() + "#" + c.Flow.String()
}

// hashWriter folds strings and numbers into an FNV-1a digest with
// NUL-terminated strings so concatenation ambiguity cannot alias two
// different models onto one hash.
type hashWriter struct {
	h interface{ Write([]byte) (int, error) }
}

func (w hashWriter) str(s string) {
	w.h.Write([]byte(s))
	w.h.Write([]byte{0})
}

func (w hashWriter) num(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	w.h.Write(buf[:])
}

// componentHash digests one component. full=true hashes every field;
// full=false hashes only what the EPA engine can observe (ID, type, and
// recursively the composite structure) — the behavioral identity.
func componentHash(c *Component, full bool) uint64 {
	h := fnv.New64a()
	w := hashWriter{h: h}
	w.str(c.ID)
	w.str(c.Type)
	if full {
		w.str(c.Name)
		w.str(c.Layer)
		keys := make([]string, 0, len(c.Attrs))
		for k := range c.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			w.str(k)
			w.str(c.Attrs[k])
		}
	}
	if c.Sub != nil {
		w.str("sub")
		if full {
			w.num(c.Sub.Hash())
		} else {
			w.num(behaviorModelHash(c.Sub))
		}
		outer := make([]string, 0, len(c.Bindings))
		for k := range c.Bindings {
			outer = append(outer, k)
		}
		sort.Strings(outer)
		for _, k := range outer {
			w.str(k)
			w.str(c.Bindings[k].String())
		}
	}
	return h.Sum64()
}

// behaviorModelHash is the behavioral analogue of Model.Hash for
// composite inner models: components reduced to their behavioral hash,
// connections and bindings in full (they are all structure).
func behaviorModelHash(m *Model) uint64 {
	h := fnv.New64a()
	w := hashWriter{h: h}
	ids := make([]string, 0, len(m.Components))
	byID := make(map[string]uint64, len(m.Components))
	for _, c := range m.Components {
		ids = append(ids, c.ID)
		byID[c.ID] = componentHash(c, false)
	}
	sort.Strings(ids)
	for _, id := range ids {
		w.str(id)
		w.num(byID[id])
	}
	keys := make([]string, 0, len(m.Connections))
	byKey := make(map[string]uint64, len(m.Connections))
	for _, conn := range m.Connections {
		k := conn.Key()
		keys = append(keys, k)
		byKey[k] ^= connectionHash(conn)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w.str(k)
		w.num(byKey[k])
	}
	return h.Sum64()
}

// connectionHash digests one connection including its label.
func connectionHash(c Connection) uint64 {
	h := fnv.New64a()
	w := hashWriter{h: h}
	w.str(c.From.String())
	w.str(c.To.String())
	w.str(c.Flow.String())
	w.str(c.Label)
	return h.Sum64()
}

// requirementsHash digests the requirement list, order-independently.
func requirementsHash(reqs []Requirement) uint64 {
	lines := make([]string, 0, len(reqs))
	for _, r := range reqs {
		lines = append(lines, r.ID+"\x00"+r.Description+"\x00"+r.Formula+"\x00"+r.Severity)
	}
	sort.Strings(lines)
	h := fnv.New64a()
	w := hashWriter{h: h}
	for _, l := range lines {
		w.str(l)
	}
	return h.Sum64()
}

// Delta is the structural difference between two fingerprints, from the
// perspective of re-assessing the new model given results for the old.
type Delta struct {
	// Added / Removed / ChangedBehavior / ChangedMeta partition the
	// differing component IDs (sorted). ChangedBehavior components
	// changed in a way the EPA engine observes (type, composite
	// structure); ChangedMeta components changed only metadata (attrs,
	// layer, display name).
	Added, Removed, ChangedBehavior, ChangedMeta []string
	// ConnsChanged lists the canonical keys of connections present in
	// only one model or differing between the two (sorted).
	ConnsChanged []string
	// RequirementsChanged reports a differing model-requirement list.
	RequirementsChanged bool
}

// Diff computes the structural delta from fingerprint a (the cached
// parent) to fingerprint b (the model being assessed).
func (a *Fingerprint) Diff(b *Fingerprint) *Delta {
	d := &Delta{RequirementsChanged: a.Requirements != b.Requirements}
	for id, bh := range b.Components {
		ah, ok := a.Components[id]
		switch {
		case !ok:
			d.Added = append(d.Added, id)
		case ah != bh:
			if a.Behavior[id] != b.Behavior[id] {
				d.ChangedBehavior = append(d.ChangedBehavior, id)
			} else {
				d.ChangedMeta = append(d.ChangedMeta, id)
			}
		}
	}
	for id := range a.Components {
		if _, ok := b.Components[id]; !ok {
			d.Removed = append(d.Removed, id)
		}
	}
	for k, bh := range b.Connections {
		if ah, ok := a.Connections[k]; !ok || ah != bh {
			d.ConnsChanged = append(d.ConnsChanged, k)
		}
	}
	for k := range a.Connections {
		if _, ok := b.Connections[k]; !ok {
			d.ConnsChanged = append(d.ConnsChanged, k)
		}
	}
	sort.Strings(d.Added)
	sort.Strings(d.Removed)
	sort.Strings(d.ChangedBehavior)
	sort.Strings(d.ChangedMeta)
	sort.Strings(d.ConnsChanged)
	return d
}

// Touched counts the components the delta touches in any way —
// the ≤K gate for incremental re-assessment.
func (d *Delta) Touched() int {
	return len(d.Added) + len(d.Removed) + len(d.ChangedBehavior) + len(d.ChangedMeta)
}

// Identical reports a no-op delta.
func (d *Delta) Identical() bool {
	return d.Touched() == 0 && len(d.ConnsChanged) == 0 && !d.RequirementsChanged
}
