// Package faults implements step 2 of the framework pipeline (paper
// Fig. 1): extending the system model with a set of candidate mutations —
// fault modes from the component-type library plus attack-induced faults
// injected from the security knowledge bases — and enumerating the
// scenario space (all relevant combinations of activations, §IV-A).
package faults

import (
	"fmt"
	"math"
	"sort"

	"cpsrisk/internal/epa"
	"cpsrisk/internal/kb"
	"cpsrisk/internal/logic"
	"cpsrisk/internal/qual"
	"cpsrisk/internal/sysmodel"
)

// Mutation is one candidate system mutation: an activatable fault mode on
// a component instance, with its provenance and qualitative likelihood.
type Mutation struct {
	epa.Activation
	// Sources lists where the candidate came from: "fault_mode" for
	// spontaneous faults declared on the type, or KB vulnerability /
	// technique IDs for attack-induced ones.
	Sources []string
	// Likelihood is the qualitative activation frequency (the maximum
	// over sources when several inject the same fault).
	Likelihood qual.Level
}

// Options controls candidate generation.
type Options struct {
	// IncludeSpontaneous adds the type library's declared fault modes.
	IncludeSpontaneous bool
	// IncludeVulnerabilities adds KB vulnerabilities matching component
	// type and version.
	IncludeVulnerabilities bool
	// IncludeTechniques adds KB techniques matching component type and
	// exposure.
	IncludeTechniques bool
}

// AllSources enables every mutation source.
func AllSources() Options {
	return Options{IncludeSpontaneous: true, IncludeVulnerabilities: true, IncludeTechniques: true}
}

// DefaultLikelihood is assumed when a fault mode declares none.
const DefaultLikelihood = qual.Low

// Candidates computes the candidate mutation set of a model. The model
// must be flat; components must have types in lib. Component attributes
// drive KB matching: "version" filters vulnerabilities, "exposure"
// ("public"/"internal") gates techniques requiring public exposure.
// Techniques requiring "adjacent" exposure are included as candidates —
// whether an adjacent compromise exists is scenario-dependent and handled
// by the attack-graph layer.
func Candidates(m *sysmodel.Model, lib *sysmodel.TypeLibrary, k *kb.KB, opt Options) ([]Mutation, error) {
	if comps := m.Composites(); len(comps) > 0 {
		return nil, fmt.Errorf("faults: model has unresolved composites %v", comps)
	}
	five := qual.FiveLevel()
	byKey := map[epa.Activation]*Mutation{}
	var order []epa.Activation

	add := func(act epa.Activation, source string, likelihood qual.Level) {
		mut, ok := byKey[act]
		if !ok {
			mut = &Mutation{Activation: act, Likelihood: likelihood}
			byKey[act] = mut
			order = append(order, act)
		}
		mut.Sources = append(mut.Sources, source)
		if likelihood > mut.Likelihood {
			mut.Likelihood = likelihood
		}
	}

	for _, c := range m.Components {
		ct, ok := lib.Get(c.Type)
		if !ok {
			return nil, fmt.Errorf("faults: component %q has unknown type %q", c.ID, c.Type)
		}
		if opt.IncludeSpontaneous {
			for _, fm := range ct.FaultModes {
				if fm.AttackOnly {
					continue
				}
				likelihood := DefaultLikelihood
				if fm.Likelihood != "" {
					l, err := five.Parse(fm.Likelihood)
					if err != nil {
						return nil, fmt.Errorf("faults: type %q fault %q: %w", ct.Name, fm.Name, err)
					}
					likelihood = l
				}
				add(epa.Activation{Component: c.ID, Fault: fm.Name}, "fault_mode", likelihood)
			}
		}
		if opt.IncludeVulnerabilities && k != nil {
			for _, v := range k.VulnsFor(c.Type, c.Attr("version")) {
				if _, declared := ct.FaultMode(v.FaultMode); !declared {
					return nil, fmt.Errorf("faults: vulnerability %s injects fault %q not declared on type %q",
						v.ID, v.FaultMode, ct.Name)
				}
				score, err := v.Score()
				if err != nil {
					return nil, err
				}
				add(epa.Activation{Component: c.ID, Fault: v.FaultMode}, v.ID, kb.QualLevel(score))
			}
		}
		if opt.IncludeTechniques && k != nil {
			for _, tq := range k.TechniquesFor(c.Type) {
				if tq.FaultMode == "" {
					continue
				}
				if _, declared := ct.FaultMode(tq.FaultMode); !declared {
					continue // technique not meaningful for this type
				}
				if tq.RequiresExposure == "public" && c.Attr("exposure") != "public" {
					continue
				}
				likelihood := DefaultLikelihood
				if tq.Likelihood != "" {
					l, err := five.Parse(tq.Likelihood)
					if err != nil {
						return nil, err
					}
					likelihood = l
				}
				add(epa.Activation{Component: c.ID, Fault: tq.FaultMode}, tq.ID, likelihood)
			}
		}
	}

	out := make([]Mutation, 0, len(order))
	for _, act := range order {
		mut := byKey[act]
		sort.Strings(mut.Sources)
		out = append(out, *mut)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Component != out[j].Component {
			return out[i].Component < out[j].Component
		}
		return out[i].Fault < out[j].Fault
	})
	return out, nil
}

// Binomial64 computes C(n, k) in int64. The second result is false when
// the value overflows; it then saturates at math.MaxInt64 so comparisons
// against real counts stay conservative.
func Binomial64(n, k int) (int64, bool) {
	if k < 0 || k > n {
		return 0, true
	}
	if k > n-k {
		k = n - k
	}
	c := int64(1)
	for i := 0; i < k; i++ {
		m, d := int64(n-i), int64(i+1)
		// c*m/d with the division split out first so the intermediate
		// product cannot overflow when the final value still fits:
		// c*m/d = (c/d)*m + (c%d)*m/d, and d divides (c%d)*m exactly
		// because d divides c*m.
		q, rem := c/d, c%d
		if q > math.MaxInt64/m || (rem != 0 && rem > math.MaxInt64/m) {
			return math.MaxInt64, false
		}
		lo := rem * m / d
		if q*m > math.MaxInt64-lo {
			return math.MaxInt64, false
		}
		c = q*m + lo
	}
	return c, true
}

// SpaceSize returns the number of scenarios with at most maxCard
// activations out of n candidates: sum of C(n, i) for i = 0..maxCard.
// maxCard < 0 means unbounded (2^n). The second result is false when the
// count overflows int64; the value then saturates at math.MaxInt64, so
// k>=4 sweeps over large plants degrade to an explicit "space too large"
// signal instead of silently wrapping negative.
func SpaceSize(n, maxCard int) (int64, bool) {
	if maxCard < 0 || maxCard > n {
		maxCard = n
	}
	var total int64
	for i := 0; i <= maxCard; i++ {
		c, ok := Binomial64(n, i)
		if !ok || total > math.MaxInt64-c {
			return math.MaxInt64, false
		}
		total += c
	}
	return total, true
}

// EnumerateIndex yields every scenario over n candidates with at most
// maxCard activations (negative = unbounded), each as its strictly
// increasing candidate-index combination, in deterministic order: by
// cardinality, then lexicographically by candidate index. The empty
// scenario comes first — the paper's Table II includes the fault-free
// row S1. yield stops the walk by returning false, which is what keeps
// an unbounded-cardinality analysis interruptible: 2^n scenarios never
// exist in memory at once.
//
// idx is reused between calls: yield must copy what it keeps. The walk
// is successor-based and allocates nothing per scenario.
func EnumerateIndex(n, maxCard int, yield func(idx []int) bool) {
	if maxCard < 0 || maxCard > n {
		maxCard = n
	}
	idx := make([]int, 0, maxCard)
	for card := 0; card <= maxCard; card++ {
		idx = idx[:card]
		for i := range idx {
			idx[i] = i
		}
		for {
			if !yield(idx) {
				return
			}
			if !nextCombo(n, idx) {
				break
			}
		}
	}
}

// nextCombo advances idx to the lexicographically next k-combination of
// [0, n), reporting false from the last one.
func nextCombo(n int, idx []int) bool {
	k := len(idx)
	i := k - 1
	for i >= 0 && idx[i] == n-k+i {
		i--
	}
	if i < 0 {
		return false
	}
	idx[i]++
	for j := i + 1; j < k; j++ {
		idx[j] = idx[j-1] + 1
	}
	return true
}

// EncodeChoice adds the scenario space to an ASP program as candidate
// facts plus a cardinality-bounded choice over activations:
//
//	candidate(C, F).
//	{ active(C, F) : candidate(C, F) } maxCard.
//
// Exhaustive hazard identification then enumerates the space as answer
// sets (paper Fig. 1 step 4).
func EncodeChoice(prog *logic.Program, muts []Mutation, maxCard int) {
	for _, m := range muts {
		prog.AddFact(logic.A("candidate", logic.Sym(m.Component), logic.Sym(m.Fault)))
	}
	upper := maxCard
	if upper < 0 || upper > len(muts) {
		upper = logic.Unbounded
	}
	prog.AddRule(logic.ChoiceRule(logic.Unbounded, upper, []logic.ChoiceElem{{
		Atom: logic.A("active", logic.Var("C"), logic.Var("F")),
		Cond: []logic.Literal{logic.Pos(logic.A("candidate", logic.Var("C"), logic.Var("F")))},
	}}))
}
