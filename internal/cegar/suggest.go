package cegar

import (
	"sort"

	"cpsrisk/internal/epa"
)

// RefinementSuggestion points the analyst at a model element whose
// abstraction is implicated in spurious findings — the "several refinement
// options ... substituting complex decisions typically made by security
// experts with easier-to-make simpler ones" of paper §II-A. Components
// appearing on the propagation paths of many spurious findings are the
// best candidates for behaviour refinement (or, if composite, for asset
// refinement).
type RefinementSuggestion struct {
	Component string
	// SpuriousFindings counts the spurious findings whose propagation
	// evidence touches the component.
	SpuriousFindings int
}

// SuggestRefinements re-runs the engine on each spurious finding's
// scenario and collects the components whose ports carry errors — the
// propagation support of the (refuted) abstract counterexample. They are
// returned most-implicated first.
func SuggestRefinements(eng *epa.Engine, spurious []Judged) ([]RefinementSuggestion, error) {
	counts := map[string]int{}
	for _, j := range spurious {
		res, err := eng.RunBudget(j.Finding.Scenario, nil)
		if err != nil {
			return nil, err
		}
		for _, comp := range res.Affected() {
			counts[comp]++
		}
	}
	out := make([]RefinementSuggestion, 0, len(counts))
	for comp, n := range counts {
		out = append(out, RefinementSuggestion{Component: comp, SpuriousFindings: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SpuriousFindings != out[j].SpuriousFindings {
			return out[i].SpuriousFindings > out[j].SpuriousFindings
		}
		return out[i].Component < out[j].Component
	})
	return out, nil
}
