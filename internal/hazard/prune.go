package hazard

// Sweep pruning skips scenario executions whose outcome is already
// implied, without changing a single reported byte:
//
//   - Dominance: on a monotone engine (no UnlessFault transfers — see
//     epa.Engine.Monotone) with monotone conditions (no NotCond), fault
//     activation only ever grows the reachable error states, so a
//     superset of a scenario that violates requirement R also violates
//     R. The pruner indexes the minimal violating bitmasks per
//     requirement; a scenario whose mask has a recorded violating
//     subset for EVERY requirement is known to violate all of them and
//     its row is synthesized instead of simulated. Pruning only fires
//     when all requirements are covered — a superset of a
//     non-violating scenario may still violate (WhenFault can arm new
//     propagation), so partial knowledge never skips work.
//
//   - Symmetry orbits: components verified interchangeable by
//     epa.InterchangeableClasses (exact transposition automorphisms of
//     the compiled tables) yield EPA results that are equivariant under
//     member swaps. Classes are refined by mutation profile (same fault
//     set with the same likelihoods) and exclude every component named
//     in a requirement condition, so two scenarios in the same orbit
//     have identical violation vectors AND identical risk scores. The
//     first orbit member encountered executes; the rest replicate its
//     violated set. Orbit replication is sound on any engine — it does
//     not need monotonicity.

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cpsrisk/internal/epa"
	"cpsrisk/internal/faults"
)

// pruner holds the in-memory pruning state of one sweep. All methods
// are safe for concurrent use by the sweep workers.
type pruner struct {
	reqs        []Requirement
	reqIdx      map[string]int
	allViolated []string // every requirement ID, sorted

	// dominance is armed only when both the engine and every condition
	// are monotone.
	dominance bool

	classes []int // sizes only, for stats
	// cands maps each candidate index to its place in the symmetry
	// classes; orbitKey reads nothing else.
	cands []orbitCand

	mu        sync.RWMutex
	violating [][]string // per requirement: minimal violating masks
	orbits    map[string][]string
}

// newPruner analyzes the engine and requirement set and builds the
// pruning state. The returned pruner may have dominance disabled (and
// possibly no symmetry classes) but is always safe to use.
func newPruner(eng *epa.Engine, muts []faults.Mutation, reqs []Requirement) *pruner {
	p := &pruner{
		reqs:      reqs,
		reqIdx:    make(map[string]int, len(reqs)),
		dominance: eng.Monotone(),
		cands:     make([]orbitCand, len(muts)),
		violating: make([][]string, len(reqs)),
		orbits:    map[string][]string{},
	}
	for i, r := range reqs {
		p.reqIdx[r.ID] = i
		p.allViolated = append(p.allViolated, r.ID)
		if !conditionMonotone(r.Condition) {
			p.dominance = false
		}
	}
	sort.Strings(p.allViolated)

	// Symmetry classes: protected components (any component a condition
	// can distinguish) never join a class, and engine-level classes are
	// refined by mutation profile so orbit members carry identical
	// likelihoods for identical fault sets.
	protected := map[string]bool{}
	for _, r := range reqs {
		collectConditionComponents(r.Condition, protected)
	}
	profile := map[string][]string{}
	for _, m := range muts {
		profile[m.Component] = append(profile[m.Component], profileEntry(m))
	}
	for _, pr := range profile {
		sort.Strings(pr)
	}
	type slot struct{ class, member int32 }
	classOf := map[string]slot{}
	for _, cl := range eng.InterchangeableClasses(protected) {
		byProfile := map[string][]string{}
		var order []string
		for _, comp := range cl {
			key := strings.Join(profile[comp], "\x01")
			if _, seen := byProfile[key]; !seen {
				order = append(order, key)
			}
			byProfile[key] = append(byProfile[key], comp)
		}
		for _, key := range order {
			members := byProfile[key]
			if len(members) < 2 {
				continue
			}
			id := int32(len(p.classes))
			p.classes = append(p.classes, len(members))
			for j, comp := range members {
				classOf[comp] = slot{class: id, member: int32(j)}
			}
		}
	}
	// Members of a class share one sorted profile, so a fault's position
	// in its member's profile names the same fault in every member.
	for i, m := range muts {
		s, ok := classOf[m.Component]
		if !ok {
			p.cands[i] = orbitCand{class: -1}
			continue
		}
		fault := sort.SearchStrings(profile[m.Component], profileEntry(m))
		p.cands[i] = orbitCand{class: s.class, member: s.member, fault: int32(fault)}
	}
	return p
}

// profileEntry is one mutation's entry in its component's mutation
// profile: fault and likelihood.
func profileEntry(m faults.Mutation) string {
	return m.Fault + "\x00" + strconv.Itoa(int(m.Likelihood))
}

// conditionMonotone reports whether the condition is monotone in the
// fault set: growing the scenario (and therefore, on a monotone engine,
// the error states) can only turn it true, never false. NotCond is the
// single non-monotone connective.
func conditionMonotone(c Condition) bool {
	switch cc := c.(type) {
	case AndCond:
		for _, s := range cc.Subs {
			if !conditionMonotone(s) {
				return false
			}
		}
		return true
	case OrCond:
		for _, s := range cc.Subs {
			if !conditionMonotone(s) {
				return false
			}
		}
		return true
	case NotCond:
		return false
	default:
		return true
	}
}

// collectConditionComponents gathers every component a condition
// references (including under negation) into out.
func collectConditionComponents(c Condition, out map[string]bool) {
	switch cc := c.(type) {
	case CompErr:
		out[cc.Component] = true
	case PortErr:
		out[cc.Component] = true
	case ActiveFault:
		out[cc.Component] = true
	case AndCond:
		for _, s := range cc.Subs {
			collectConditionComponents(s, out)
		}
	case OrCond:
		for _, s := range cc.Subs {
			collectConditionComponents(s, out)
		}
	case NotCond:
		collectConditionComponents(cc.Sub, out)
	}
}

// numClasses reports how many refined symmetry classes the sweep uses.
func (p *pruner) numClasses() int { return len(p.classes) }

// verdict says how the pruning state answered a row.
type verdict int

const (
	unknown   verdict = iota
	dominated         // a recorded violating subset for every requirement
	orbitHit          // an orbit sibling was already evaluated
)

// lookup answers a row from the pruning state, under one read lock. The
// row is dominated when its mask has a recorded violating subset for
// every requirement — by monotonicity it then violates all of them, and
// violated is the full (sorted) requirement ID list. Otherwise it may hit
// the memoized violated set of its orbit (key from orbitKey). learns
// reports whether record would still change the state for the answered
// row; when it is false the caller skips record and its second lock.
func (p *pruner) lookup(mask, key []byte) (violated []string, v verdict, learns bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.dominance && len(p.reqs) > 0 && p.dominates(mask) {
		return p.allViolated, dominated, p.newOrbit(key)
	}
	if key != nil {
		if v, hit := p.orbits[string(key)]; hit {
			return v, orbitHit, p.newViolation(mask, v)
		}
	}
	return nil, unknown, false
}

// dominates reports whether every requirement has a recorded violating
// subset of mask. The caller holds p.mu.
func (p *pruner) dominates(mask []byte) bool {
	for i := range p.reqs {
		if !hasViolatingSubset(p.violating[i], mask) {
			return false
		}
	}
	return true
}

// record feeds one evaluated (or synthesized) scenario back into the
// pruning state: its mask into the per-requirement dominance index when
// it violates, and its violated set into the orbit memo under key (from
// orbitKey; nil = singleton orbit). Most rows teach nothing new — their
// violations are already dominated and their orbit already memoized —
// so that check runs under the read lock and the write lock is taken
// only to insert.
func (p *pruner) record(mask, key []byte, violated []string) {
	if !p.dominance && key == nil {
		return
	}
	p.mu.RLock()
	learns := p.newViolation(mask, violated) || p.newOrbit(key)
	p.mu.RUnlock()
	if !learns {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dominance {
		ms := string(mask)
		for _, id := range violated {
			i, ok := p.reqIdx[id]
			if !ok {
				continue
			}
			p.violating[i] = insertMinimalMask(p.violating[i], ms)
		}
	}
	if key != nil {
		if _, seen := p.orbits[string(key)]; !seen {
			// Copy: the caller's slice may alias a ScenarioResult.
			p.orbits[string(key)] = append([]string(nil), violated...)
		}
	}
}

// newViolation reports whether some violation lacks a recorded
// violating subset of mask. The caller holds p.mu.
func (p *pruner) newViolation(mask []byte, violated []string) bool {
	if p.dominance {
		for _, id := range violated {
			if i, ok := p.reqIdx[id]; ok && !hasViolatingSubset(p.violating[i], mask) {
				return true
			}
		}
	}
	return false
}

// newOrbit reports whether key's orbit is not memoized yet (nil = a
// singleton orbit, never memoized). The caller holds p.mu.
func (p *pruner) newOrbit(key []byte) bool {
	if key == nil {
		return false
	}
	_, seen := p.orbits[string(key)]
	return !seen
}

// orbitCand places one candidate in the symmetry classes: the class of
// its component (-1 = unclassed), the component's member slot in the
// class, and the fault's index in the class's shared mutation profile.
type orbitCand struct{ class, member, fault int32 }

func (a orbitCand) less(b orbitCand) bool {
	if a.class != b.class {
		return a.class < b.class
	}
	if a.member != b.member {
		return a.member < b.member
	}
	return a.fault < b.fault
}

// faultsLess orders two members' fault runs in acts lexicographically by
// fault index.
func faultsLess(acts []orbitCand, a, b [2]int) bool {
	fa, fb := acts[a[0]:a[1]], acts[b[0]:b[1]]
	for i := 0; i < len(fa) && i < len(fb); i++ {
		if fa[i].fault != fb[i].fault {
			return fa[i].fault < fb[i].fault
		}
	}
	return len(fa) < len(fb)
}

// orbitScratch is the reusable working memory of orbitKey. Each sweep
// worker owns one; the key orbitKey returns lives in it until the next
// call.
type orbitScratch struct {
	acts []orbitCand
	runs [][2]int // [start, end) of one member's faults in acts
	key  []byte
}

// orbitKey canonicalizes the scenario with the given candidate mask under
// the symmetric groups of the refined classes: activations on unclassed
// components stay literal (as candidate indices), activations on classed
// components collapse, per class, to the multiset of per-member fault
// sets. Two scenarios share a key iff one is the image of the other under
// some verified automorphism. The key is built in ks and returned as a
// slice of it, so a lookup allocates nothing. It is nil when no classed
// component participates (singleton orbit — nothing to memoize).
//
// Layout, all numbers uvarints: per participating class, ascending,
// class+1, member count, and per member (in lexicographic order of the
// fault lists) its fault count and fault indices ascending; a 0 ending
// the classes; the unclassed candidate indices ascending.
func (p *pruner) orbitKey(mask []byte, ks *orbitScratch) []byte {
	if len(p.classes) == 0 {
		return nil
	}
	acts := ks.acts[:0]
	for j, b := range mask {
		for ; b != 0; b &= b - 1 {
			if c := p.cands[j*8+bits.TrailingZeros8(b)]; c.class >= 0 {
				acts = append(acts, c)
			}
		}
	}
	ks.acts = acts
	if len(acts) == 0 {
		return nil
	}
	// Scenarios are small (cardinality <= k), so insertion sorts beat
	// the generic ones here.
	for i := 1; i < len(acts); i++ {
		for j := i; j > 0 && acts[j].less(acts[j-1]); j-- {
			acts[j], acts[j-1] = acts[j-1], acts[j]
		}
	}
	key := ks.key[:0]
	for lo := 0; lo < len(acts); {
		cl := acts[lo].class
		runs := ks.runs[:0]
		hi := lo
		for hi < len(acts) && acts[hi].class == cl {
			end := hi + 1
			for end < len(acts) && acts[end].class == cl && acts[end].member == acts[hi].member {
				end++
			}
			runs = append(runs, [2]int{hi, end})
			for j := len(runs) - 1; j > 0 && faultsLess(acts, runs[j], runs[j-1]); j-- {
				runs[j], runs[j-1] = runs[j-1], runs[j]
			}
			hi = end
		}
		key = binary.AppendUvarint(key, uint64(cl)+1)
		key = binary.AppendUvarint(key, uint64(len(runs)))
		for _, r := range runs {
			key = binary.AppendUvarint(key, uint64(r[1]-r[0]))
			for _, a := range acts[r[0]:r[1]] {
				key = binary.AppendUvarint(key, uint64(a.fault))
			}
		}
		ks.runs = runs
		lo = hi
	}
	key = append(key, 0)
	for j, b := range mask {
		for ; b != 0; b &= b - 1 {
			if i := j*8 + bits.TrailingZeros8(b); p.cands[i].class < 0 {
				key = binary.AppendUvarint(key, uint64(i))
			}
		}
	}
	ks.key = key
	return key
}

// hasViolatingSubset reports whether any recorded mask is a subset of m.
func hasViolatingSubset(recorded []string, m []byte) bool {
	for _, v := range recorded {
		if isSubsetMask(v, m) {
			return true
		}
	}
	return false
}

func isSubsetMask(sub string, super []byte) bool {
	if len(sub) != len(super) {
		return false
	}
	for i := 0; i < len(sub); i++ {
		if sub[i]&^super[i] != 0 {
			return false
		}
	}
	return true
}

// maxViolatingMasks caps the per-requirement minimal-mask index. The
// antichain stays tiny when small cut sets exist (they subsume their
// supersets on insert), but a requirement whose minimal cut sets all
// have k members — a k-of-n voting redundancy — has C(n, k) pairwise
// incomparable ones (1,820 at n=16, k=4), and every lookup scans the
// index. Dominance is an optimization: dropping masks beyond the cap
// costs prune reach, never correctness.
const maxViolatingMasks = 512

// insertMinimalMask keeps the index antichain-minimal: a new mask with
// an existing subset is redundant; an accepted mask evicts its
// supersets. Minimality bounds the index and maximizes prune reach.
func insertMinimalMask(recorded []string, m string) []string {
	mb := []byte(m)
	for _, v := range recorded {
		if isSubsetMask(v, mb) {
			return recorded
		}
	}
	kept := recorded[:0]
	for _, v := range recorded {
		if !isSubsetMask(m, []byte(v)) {
			kept = append(kept, v)
		}
	}
	if len(kept) >= maxViolatingMasks {
		return kept
	}
	return append(kept, m)
}

// synthesizeResult builds the ScenarioResult a full evaluation would
// have produced, from the known violated set (sorted, read-only), which
// the row shares. It shares newRow with scoreResult, which is what makes
// pruned reports byte-identical.
func synthesizeResult(id string, sc epa.Scenario, mask []byte, violated []string, muts []faults.Mutation, reqs []Requirement) ScenarioResult {
	return newRow(id, sc, mask, muts, reqs, violated, func(i int) bool {
		_, found := slices.BinarySearch(violated, reqs[i].ID)
		return found
	})
}
