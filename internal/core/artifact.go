package core

// Artifact-cache resolution for the pipeline: configuration hashing,
// the delta-soundness closure, and the reuse oracle that answers
// unaffected scenario rows from a cached parent analysis.
//
// A run with Config.ArtifactCache set resolves to one of three paths:
//
//   - warm:  an entry exists for (model hash, config hash) and is
//     complete — the stored engine and analysis are returned as-is and
//     no EPA or solver work runs at all.
//   - delta: a complete entry exists under the same config hash whose
//     model diff touches at most MaxDeltaTouched components. When the
//     edit invalidates nothing (a metadata-only diff with identical
//     candidate scoring) the parent's analysis is returned as-is, on
//     either path. Otherwise the native sweep runs with a reuse oracle
//     that answers every scenario provably unaffected by the edit from
//     the parent's rows, so only the invalidated ranks execute; the ASP
//     path has no such oracle and runs cold.
//   - cold:  anything else. The decision is stamped into
//     Assessment.Artifact either way.
//
// Delta soundness: faults are the only error sources in EPA, so a
// scenario's violation vector depends only on the behaviors and edges
// its errors can traverse — the forward closure from its activation
// components. A scenario is answered from the parent iff none of its
// activation components can reach an edited part of the model (signal
// edges directed, quantity edges bidirectional, over the union of the
// old and new graphs), and its activation set was analyzed by the
// parent. Metadata-only component edits (attrs, layer, display name)
// seed nothing: they are invisible to the EPA engine, and risk scoring
// is recomputed from the fresh candidate set either way.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"cpsrisk/internal/epa"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/obs"
	"cpsrisk/internal/sysmodel"
)

// MaxDeltaTouched is the K gate for incremental re-assessment: a diff
// touching more components than this falls back to a cold run — with a
// wide edit the affected closure usually swallows the scenario space
// anyway, and diffing cost scales with the touched set.
const MaxDeltaTouched = 8

// ArtifactInfo records how the artifact cache resolved a run.
type ArtifactInfo struct {
	// Path is the resolution taken: "cold" (full compile and sweep),
	// "warm" (exact hit, everything reused), or "delta" (incremental
	// re-assessment against a cached parent).
	Path string
	// ModelHash is the canonical model content hash, in hex.
	ModelHash string
	// Touched is the number of components the edit touched (delta only).
	Touched int
	// Affected is the size of the invalidated component closure — the
	// components whose scenarios had to re-execute (delta only).
	Affected int
}

// cfgHash digests every assessment-relevant configuration input outside
// the model itself, so an artifact key collision implies an identical
// report. Libraries (types, behaviors, KB) are identified by pointer —
// sound because cached entries pin them (artifact.Entry.Pins). Inputs
// that change only wall-clock or effort statistics — Parallelism, the
// timeout, tracing, the checkpoint directory — are deliberately
// excluded; deterministic caps that change the report's content are in.
func cfgHash(cfg Config) uint64 {
	h := fnv.New64a()
	str := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	num := func(v int64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	str(fmt.Sprintf("%p/%p/%p", cfg.Types, cfg.Behaviors, cfg.KB))
	// Tenant scoping: folding the tenant into the configuration hash
	// partitions the artifact cache per tenant — warm hits and delta
	// parents never cross tenants sharing one cache.
	str("tenant")
	str(cfg.Tenant)
	str("reqs")
	for _, r := range cfg.Requirements {
		str(r.ID)
		str(r.Description)
		num(int64(r.Severity))
		if r.Condition != nil {
			str(r.Condition.String())
		}
	}
	str("sources")
	str(fmt.Sprintf("%+v", cfg.MutationSources))
	str("extra")
	for _, m := range cfg.ExtraMutations {
		str(m.Activation.String())
		num(int64(m.Likelihood))
		for _, s := range m.Sources {
			str(s)
		}
	}
	str("mitigations")
	ids := make([]string, 0, len(cfg.ActiveMitigations))
	for id, on := range cfg.ActiveMitigations {
		if on {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		str(id)
	}
	str("bounds")
	num(int64(cfg.MaxCardinality))
	if cfg.UseASP {
		num(1)
	} else {
		num(0)
	}
	num(cfg.Resources.MaxDecisions)
	num(cfg.Resources.MaxConflicts)
	num(int64(cfg.Resources.MaxGroundRules))
	num(int64(cfg.Resources.MaxScenarios))
	return h.Sum64()
}

// affectedComponents computes the invalidated closure of a delta: the
// edited components (behaviorally — metadata edits excluded) plus the
// endpoints of changed connections, plus every component that can reach
// one of those through the propagation graph. Signal flows carry errors
// From -> To; quantity flows are undirected. The closure runs over the
// union of the parent's and the child's connection lists so both
// removed and added edges invalidate their upstream cones.
func affectedComponents(parent, child *sysmodel.Model, d *sysmodel.Delta) map[string]bool {
	seeds := map[string]bool{}
	for _, ids := range [][]string{d.Added, d.Removed, d.ChangedBehavior} {
		for _, id := range ids {
			seeds[id] = true
		}
	}
	changed := make(map[string]bool, len(d.ConnsChanged))
	for _, k := range d.ConnsChanged {
		changed[k] = true
	}
	// back[x] lists the components whose errors flow directly into x —
	// walking back from a seed enumerates everything that can reach it.
	back := map[string][]string{}
	scan := func(conns []sysmodel.Connection) {
		for _, c := range conns {
			from, to := c.From.Component, c.To.Component
			if changed[c.Key()] {
				seeds[from] = true
				seeds[to] = true
			}
			back[to] = append(back[to], from)
			if c.Flow == sysmodel.QuantityFlow {
				back[from] = append(back[from], to)
			}
		}
	}
	scan(parent.Connections)
	scan(child.Connections)

	affected := make(map[string]bool, len(seeds))
	queue := make([]string, 0, len(seeds))
	for id := range seeds {
		affected[id] = true
		queue = append(queue, id)
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, pred := range back[id] {
			if !affected[pred] {
				affected[pred] = true
				queue = append(queue, pred)
			}
		}
	}
	return affected
}

// deltaOracle builds the sweep's reuse oracle from a parent analysis: a
// scenario is answered iff none of its activations sits in the affected
// closure and the parent analyzed the identical activation set. The
// returned function is read-only and safe for concurrent workers.
func deltaOracle(parent *hazard.Analysis, affected map[string]bool) func(epa.Scenario) ([]string, bool) {
	rows := make(map[string][]string, len(parent.Scenarios))
	for _, s := range parent.Scenarios {
		rows[s.Scenario.Key()] = s.Violated
	}
	return func(sc epa.Scenario) ([]string, bool) {
		for _, a := range sc {
			if affected[a.Component] {
				return nil, false
			}
		}
		v, ok := rows[sc.Key()]
		return v, ok
	}
}

// behaviorallyEmpty reports a delta the compiled EPA engine cannot
// observe: only component metadata changed.
func behaviorallyEmpty(d *sysmodel.Delta) bool {
	return len(d.Added) == 0 && len(d.Removed) == 0 &&
		len(d.ChangedBehavior) == 0 && len(d.ConnsChanged) == 0 &&
		!d.RequirementsChanged
}

// sameScoredMutations reports whether two candidate sets are identical
// in activation, order, and likelihood — the condition under which a
// parent's finished analysis rows carry the exact risk scores the child
// run would recompute. Likelihood changes (a new vulnerability match
// after a version-attr edit, say) keep the violation vectors valid but
// invalidate the scoring.
func sameScoredMutations(a, b []faults.Mutation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Activation != b[i].Activation || a[i].Likelihood != b[i].Likelihood {
			return false
		}
	}
	return true
}

// bump increments a named counter when a registry is configured.
func bump(reg *obs.Registry, name string) {
	if reg != nil {
		reg.Counter(name).Add(1)
	}
}
