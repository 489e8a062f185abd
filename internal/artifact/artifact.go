// Package artifact is the content-addressed cache of compiled pipeline
// intermediates: the lowered (refined, validated) sysmodel, the compiled
// EPA engine, the candidate-mutation set and the finished hazard
// analysis. Entries are keyed by the canonical model hash
// (sysmodel.Model.Hash) plus a hash of every assessment-relevant
// configuration input, so a warm lookup is sound by construction: equal
// key means equal report.
//
// The cache also answers *nearest-parent* queries for delta
// re-assessment: given the fingerprint of an edited model, Nearest
// returns the completed entry under the same configuration whose
// structural diff touches the fewest components. The caller re-runs only
// the invalidated part of the scenario space against the parent's rows.
//
// Eviction is LRU with a fixed entry cap; an evicted entry holds no
// resource beyond memory, so dropping it is the whole eviction. All
// methods are safe for concurrent use.
package artifact

import (
	"container/list"
	"sync"
	"sync/atomic"

	"cpsrisk/internal/epa"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/sysmodel"
)

// Key addresses one cache entry: the canonical model content hash and
// the configuration hash (requirements, type library, mutation sources,
// mitigations, cardinality bound, deterministic budget caps — every
// input that changes the report).
type Key struct {
	Model uint64
	Cfg   uint64
}

// Entry holds the compiled artifacts of one completed (or partially
// completed) assessment.
type Entry struct {
	// Fingerprint is the structural identity of Model — kept so Nearest
	// can diff candidates without re-hashing.
	Fingerprint *sysmodel.Fingerprint
	// Model is the lowered model: cloned, composites refined, validated.
	Model *sysmodel.Model
	// Engine is the compiled EPA engine (immutable, concurrent-safe).
	Engine *epa.Engine
	// Candidates / Analyzed mirror the pipeline's candidate stage output.
	Candidates []faults.Mutation
	Analyzed   []faults.Mutation
	// Compromisable is the attack-graph projection (nil without a KB).
	Compromisable []string
	// Analysis is the finished hazard identification. Its rows are the
	// reuse substrate for delta re-assessment.
	Analysis *hazard.Analysis
	// Complete reports a degradation-free analysis: no truncation, no
	// recorded degradations. Only complete entries are reused wholesale
	// or served as delta parents — a truncated parent's missing rows
	// would silently propagate into the child report.
	Complete bool
	// Pins holds configuration inputs the entry's key identifies by
	// pointer (type library, behaviour library, KB). Keeping them
	// reachable from the entry guarantees the addresses folded into the
	// key cannot be recycled onto different objects while the entry is
	// cached — pointer-keyed hashing stays unambiguous.
	Pins []any

	// mu guards the lazy ranked projection.
	mu sync.Mutex
	// ranked is the risk-ranked projection of Analysis, computed on first
	// use so warm and zero-invalidation delta resolutions skip re-ranking.
	ranked []hazard.ScenarioResult
}

// Ranked returns the risk-ranked projection of the entry's analysis,
// computing it on first use and reusing it afterwards. Callers must not
// mutate the returned slice.
func (e *Entry) Ranked() []hazard.ScenarioResult {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ranked == nil && e.Analysis != nil {
		e.ranked = e.Analysis.Ranked()
	}
	return e.ranked
}

// SetRanked seeds the ranked projection (used when the caller already
// computed it for its own report).
func (e *Entry) SetRanked(r []hazard.ScenarioResult) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ranked = r
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits, Misses, Evictions int64
}

// Cache is a bounded LRU artifact cache.
type Cache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recent; values are *slot
	entries map[Key]*list.Element

	hits, misses, evictions atomic.Int64
}

type slot struct {
	key Key
	e   *Entry
}

// DefaultCap is the entry cap used when New is given n <= 0. Entries
// hold compiled engines and whole analyses, so the cap is deliberately
// small — this is a working set, not a store.
const DefaultCap = 8

// New creates a cache holding at most n entries (n <= 0 uses DefaultCap).
func New(n int) *Cache {
	if n <= 0 {
		n = DefaultCap
	}
	return &Cache{cap: n, order: list.New(), entries: make(map[Key]*list.Element)}
}

// Get returns the entry for k, marking it most recently used. A nil
// cache always misses.
func (c *Cache) Get(k Key) (*Entry, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*slot).e, true
}

// Nearest returns the complete entry with configuration hash cfg whose
// model diffs against fp with the fewest touched components, along with
// that delta. Entries whose diff changes the requirement set are not
// eligible (requirement changes re-score every row — nothing to reuse).
// Returns nil when no eligible parent exists. Does not update recency
// and counts neither a hit nor a miss — the caller records the outcome
// of the overall resolution instead.
func (c *Cache) Nearest(cfg uint64, fp *sysmodel.Fingerprint) (*Entry, *sysmodel.Delta) {
	if c == nil {
		return nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var (
		best  *Entry
		bestD *sysmodel.Delta
	)
	for el := c.order.Front(); el != nil; el = el.Next() {
		s := el.Value.(*slot)
		if s.key.Cfg != cfg || !s.e.Complete || s.e.Analysis == nil {
			continue
		}
		d := s.e.Fingerprint.Diff(fp)
		if d.RequirementsChanged {
			continue
		}
		if best == nil || d.Touched() < bestD.Touched() {
			best, bestD = s.e, d
			// Stop scanning once the diff is a single component (or a
			// connection-only edit, Touched 0): an identical model would
			// have been an exact Get hit, so nothing meaningfully closer
			// exists. The scan starts at the most recent entry, so an
			// edit-after-edit workload stops on the first candidate.
			if bestD.Touched() <= 1 {
				break
			}
		}
	}
	return best, bestD
}

// Put inserts (or replaces) the entry for k and marks it most recently
// used, evicting the least recently used entry beyond the cap. No-op on
// a nil cache.
func (c *Cache) Put(k Key, e *Entry) {
	if c == nil || e == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*slot).e = e
		c.order.MoveToFront(el)
		return
	}
	c.entries[k] = c.order.PushFront(&slot{key: k, e: e})
	for c.order.Len() > c.cap {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*slot).key)
		c.evictions.Add(1)
	}
}

// Len reports the current entry count.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats snapshots the hit/miss/eviction counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load(), Evictions: c.evictions.Load()}
}
