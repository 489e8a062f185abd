package hazard

import (
	"cpsrisk/internal/epa"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/qual"
)

// ParamSensitivity reports how sensitive the risk prioritization is to
// one likelihood estimate — the "sensitivity analysis-styled support
// [that] highlights the critical decisions from the point of view of the
// overall result" the paper requires during modeling and parametrization
// (§II-A).
type ParamSensitivity struct {
	Mutation faults.Mutation
	// TopChanged is true when perturbing this likelihood by one level in
	// either direction changes the top-ranked scenario.
	TopChanged bool
	// RankDisplacement is the maximum rank shift (over the perturbations)
	// of the scenario that is top-ranked under the nominal estimates.
	RankDisplacement int
}

// ParametrizationSensitivity perturbs each candidate's likelihood one
// level up and down and re-ranks, flagging the estimates the final
// prioritization actually depends on. Estimates that never change the top
// finding are safe to leave rough — exactly the guidance an SME analyst
// needs when filling in the model.
func ParametrizationSensitivity(eng *epa.Engine, muts []faults.Mutation, maxCard int, reqs []Requirement) ([]ParamSensitivity, error) {
	nominal, err := AnalyzeSweep(eng, muts, maxCard, reqs, SweepConfig{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	nominalRanked := nominal.Ranked()
	if len(nominalRanked) == 0 {
		return nil, nil
	}
	topKey := nominalRanked[0].Scenario.Key()
	s := qual.FiveLevel()

	out := make([]ParamSensitivity, 0, len(muts))
	for i := range muts {
		ps := ParamSensitivity{Mutation: muts[i]}
		for _, delta := range []int{-1, +1} {
			perturbed := append([]faults.Mutation(nil), muts...)
			perturbed[i].Likelihood = s.Add(perturbed[i].Likelihood, delta)
			if perturbed[i].Likelihood == muts[i].Likelihood {
				continue // saturated: no perturbation possible
			}
			analysis, err := AnalyzeSweep(eng, perturbed, maxCard, reqs, SweepConfig{Parallelism: 1})
			if err != nil {
				return nil, err
			}
			ranked := analysis.Ranked()
			if len(ranked) == 0 {
				continue
			}
			if ranked[0].Scenario.Key() != topKey {
				ps.TopChanged = true
			}
			for pos, sc := range ranked {
				if sc.Scenario.Key() == topKey && pos > ps.RankDisplacement {
					ps.RankDisplacement = pos
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}
