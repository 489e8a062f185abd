package optimize

import (
	"encoding/binary"
	"sort"
	"strings"

	"cpsrisk/internal/mitigation"
)

// bitset is a selection of options: option i is bit i%64 of word i/64.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) unset(i int)    { b[i/64] &^= 1 << (i % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

// meets reports whether b and o share a bit.
func (b bitset) meets(o bitset) bool {
	for w, x := range b {
		if x&o[w] != 0 {
			return true
		}
	}
	return false
}

// compiled is a Problem in index form, built once per Optimal or
// MultiPhase call so that evaluating a selection is a series of mask
// tests.
type compiled struct {
	opts  []Option
	index map[string]int // option ID -> option index
	words int            // words per bitset
	scens []scenario
}

// scenario is one ScenarioLoss in index form.
type scenario struct {
	id   string
	loss int
	// acts holds the activations some selection can block, each as its
	// sources' blocker masks laid end to end, words words per source. A
	// blocker ID that is not an option adds no bit. Activations without
	// sources, or with a source whose mask stays empty, are left out: no
	// selection blocks them.
	acts []bitset
}

func (p *Problem) compile() *compiled {
	c := &compiled{
		opts:  p.Options,
		index: make(map[string]int, len(p.Options)),
		words: (len(p.Options) + 63) / 64,
	}
	for i, o := range p.Options {
		c.index[o.ID] = i
	}
	c.scens = make([]scenario, len(p.Scenarios))
	for si, s := range p.Scenarios {
		c.scens[si] = scenario{id: s.ID, loss: s.Loss}
		for _, sources := range s.Activations {
			if act := c.activation(sources); act != nil {
				c.scens[si].acts = append(c.scens[si].acts, act)
			}
		}
	}
	return c
}

// activation compiles one activation's sources, or returns nil when no
// selection blocks it.
func (c *compiled) activation(sources [][]string) bitset {
	if len(sources) == 0 {
		return nil
	}
	act := make(bitset, len(sources)*c.words)
	for j, blockers := range sources {
		mask := act[j*c.words : (j+1)*c.words]
		for _, m := range blockers {
			if i, ok := c.index[m]; ok {
				mask.set(i)
			}
		}
		if !mask.meets(mask) { // no option blocks source j
			return nil
		}
	}
	return act
}

// blocked reports whether sel blocks s: some activation has every
// source's mask meet sel.
func (c *compiled) blocked(s *scenario, sel bitset) bool {
	for _, act := range s.acts {
		all := true
		for j := 0; j < len(act); j += c.words {
			if !act[j : j+c.words].meets(sel) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// residual sums the losses of the scenarios sel leaves unblocked.
func (c *compiled) residual(sel bitset) int {
	loss := 0
	for i := range c.scens {
		if !c.blocked(&c.scens[i], sel) {
			loss += c.scens[i].loss
		}
	}
	return loss
}

// plan evaluates sel into a Plan with sorted Selected and Blocked IDs.
func (c *compiled) plan(sel bitset) Plan {
	plan := Plan{}
	for i, o := range c.opts {
		if sel.has(i) {
			plan.Selected = append(plan.Selected, o.ID)
			plan.Cost += o.Cost
		}
	}
	sort.Strings(plan.Selected)
	for i := range c.scens {
		if c.blocked(&c.scens[i], sel) {
			plan.Blocked = append(plan.Blocked, c.scens[i].id)
		} else {
			plan.ResidualLoss += c.scens[i].loss
		}
	}
	sort.Strings(plan.Blocked)
	plan.Total = plan.Cost + plan.ResidualLoss
	return plan
}

// option returns the index of option id, or -1 when id is no option.
func (c *compiled) option(id string) int {
	if i, ok := c.index[id]; ok {
		return i
	}
	return -1
}

// bundleSets holds the greedy planner's source-covering bundles. Each
// distinct activation's bundles are built once into sets; byScen lists,
// per scenario, the sets of its activations that have any.
type bundleSets struct {
	sets   [][][]int
	byScen [][]int
}

// bundles builds every scenario's bundleSets. Activations whose blockers
// name the same options in the same places share one set: bundles
// depend on nothing else.
func (c *compiled) bundles(scens []mitigation.ScenarioLoss) bundleSets {
	bs := bundleSets{byScen: make([][]int, len(scens))}
	memo := map[string]int{}
	var key []byte
	for si, s := range scens {
		for _, sources := range s.Activations {
			key = key[:0]
			for _, blockers := range sources {
				key = binary.AppendUvarint(key, uint64(len(blockers)))
				for _, m := range blockers {
					key = binary.AppendUvarint(key, uint64(c.option(m)+1))
				}
			}
			k, ok := memo[string(key)]
			if !ok {
				k = -1
				if set := c.activationBundles(sources); len(set) > 0 {
					k = len(bs.sets)
					bs.sets = append(bs.sets, set)
				}
				memo[string(key)] = k
			}
			if k >= 0 {
				bs.byScen[si] = append(bs.byScen[si], k)
			}
		}
	}
	return bs
}

// activationBundles returns one activation's minimal source-covering
// bundles (one blocker per source) as option-index lists in ID order.
// Growth stops past 64 bundles, and an activation with a source that has
// no blockers at all yields none; both rules look at the raw blocker
// lists. Members that are not options are then dropped, and a bundle
// left empty with them. Bundles are multisets: a mitigation blocking two
// sources appears twice.
func (c *compiled) activationBundles(sources [][]string) [][]int {
	if len(sources) == 0 {
		return nil
	}
	bundles := [][]int{{}} // option indices, -1 for other IDs
	for _, blockers := range sources {
		if len(blockers) == 0 {
			return nil
		}
		var grown [][]int
		for _, b := range bundles {
			for _, m := range blockers {
				grown = append(grown, append(b[:len(b):len(b)], c.option(m)))
			}
			if len(grown) > 64 {
				break // cap combinatorial growth; singles still apply
			}
		}
		bundles = grown
	}
	var out [][]int
	for _, b := range bundles {
		members := make([]int, 0, len(b))
		for _, i := range b {
			if i >= 0 {
				members = append(members, i)
			}
		}
		if len(members) > 0 {
			sort.Slice(members, func(a, b int) bool { return c.opts[members[a]].ID < c.opts[members[b]].ID })
			out = append(out, members)
		}
	}
	return out
}

// moveKey renders a move as its member IDs joined by "+", the greedy
// planner's tie-break between moves of equal gain.
func (c *compiled) moveKey(move []int) string {
	var sb strings.Builder
	for k, i := range move {
		if k > 0 {
			sb.WriteByte('+')
		}
		sb.WriteString(c.opts[i].ID)
	}
	return sb.String()
}
