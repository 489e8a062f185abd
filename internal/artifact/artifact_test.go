package artifact

import (
	"testing"

	"cpsrisk/internal/hazard"
	"cpsrisk/internal/sysmodel"
)

func testModel(typ string) *sysmodel.Model {
	return &sysmodel.Model{
		Components: []*sysmodel.Component{
			{ID: "a", Type: typ},
			{ID: "b", Type: "actuator"},
		},
		Connections: []sysmodel.Connection{
			{From: sysmodel.PortRef{Component: "a", Port: "out"}, To: sysmodel.PortRef{Component: "b", Port: "in"}, Flow: sysmodel.SignalFlow},
		},
	}
}

func testEntry(typ string, complete bool) (*Entry, Key) {
	m := testModel(typ)
	fp := m.Fingerprint()
	return &Entry{
		Fingerprint: fp,
		Model:       m,
		Analysis:    &hazard.Analysis{},
		Complete:    complete,
	}, Key{Model: fp.ModelHash, Cfg: 7}
}

func TestGetPutLRU(t *testing.T) {
	c := New(2)
	e1, k1 := testEntry("sensor", true)
	e2, k2 := testEntry("valve", true)
	e3, k3 := testEntry("pump", true)

	if _, ok := c.Get(k1); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(k1, e1)
	c.Put(k2, e2)
	if got, ok := c.Get(k1); !ok || got != e1 {
		t.Fatal("k1 lookup failed")
	}
	// k1 is now most recent; inserting k3 must evict k2.
	c.Put(k3, e3)
	if _, ok := c.Get(k2); ok {
		t.Fatal("k2 should have been evicted (LRU)")
	}
	if _, ok := c.Get(k1); !ok {
		t.Fatal("k1 should have survived")
	}
	if _, ok := c.Get(k3); !ok {
		t.Fatal("k3 should be present")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Hits != 3 || st.Misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 3/2", st.Hits, st.Misses)
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

func TestNearest(t *testing.T) {
	c := New(8)
	parent, pk := testEntry("sensor", true)
	c.Put(pk, parent)

	// One-component edit: nearest under the same cfg.
	child := testModel("probe").Fingerprint()
	e, d := c.Nearest(7, child)
	if e != parent {
		t.Fatal("expected the parent entry")
	}
	if d.Touched() != 1 || len(d.ChangedBehavior) != 1 || d.ChangedBehavior[0] != "a" {
		t.Fatalf("delta = %+v", d)
	}

	// Different cfg hash: no parent.
	if e, _ := c.Nearest(8, child); e != nil {
		t.Fatal("cfg mismatch must not match")
	}

	// Incomplete entries are not eligible parents.
	inc, ik := testEntry("pump", false)
	c.Put(ik, inc)
	if e, _ := c.Nearest(7, testModel("pump").Fingerprint()); e != parent {
		t.Fatal("incomplete entry must not be chosen")
	}

	// Among several candidates the smallest delta wins.
	p2, p2k := testEntry("probe", true)
	c.Put(p2k, p2)
	e, d = c.Nearest(7, child)
	if e != p2 || !d.Identical() {
		t.Fatalf("expected exact-structure parent, got touched=%d", d.Touched())
	}

	// A requirement-set change disqualifies.
	rm := testModel("sensor")
	rm.Requirements = []sysmodel.Requirement{{ID: "R9", Severity: "H"}}
	if e, _ := c.Nearest(7, rm.Fingerprint()); e != nil {
		t.Fatal("requirement change must not yield a delta parent")
	}

	if e, d := (*Cache)(nil).Nearest(7, child); e != nil || d != nil {
		t.Fatal("nil cache must return nothing")
	}
}

func TestNilCacheSafe(t *testing.T) {
	var c *Cache
	if _, ok := c.Get(Key{}); ok {
		t.Fatal("nil get")
	}
	e, _ := testEntry("sensor", true)
	c.Put(Key{}, e)
	if c.Len() != 0 || c.Stats() != (Stats{}) {
		t.Fatal("nil cache stats")
	}
}
