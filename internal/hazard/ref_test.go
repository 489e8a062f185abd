package hazard

import (
	"cpsrisk/internal/budget"
	"cpsrisk/internal/epa"
	"cpsrisk/internal/faults"
)

// refAnalyze is the exhaustive sequential reference the sweep engine is
// tested against: one plain loop over the scenario stream, no pool, no
// cache, no pruning. Scenarios stream in cardinality order and the
// budget is checked per scenario; when the deadline, a cancellation or
// the scenario cap trips, the in-flight cardinality is dropped and the
// skipped frontier is reported in Analysis.Truncation.
func refAnalyze(eng *epa.Engine, muts []faults.Mutation, maxCard int, reqs []Requirement, bud *budget.Budget) (*Analysis, error) {
	if err := validateReqs(reqs); err != nil {
		return nil, err
	}
	limits := bud.Limits()
	out := &Analysis{Requirements: reqs}
	maskLen := (len(muts) + 7) / 8
	var mask []byte
	var trunc *budget.Truncation
	var runErr error
	processed := 0
	faults.EnumerateIndex(len(muts), maxCard, func(idx []int) bool {
		if limits.MaxScenarios > 0 && processed >= limits.MaxScenarios {
			trunc = &budget.Truncation{Stage: "hazard", Reason: budget.ReasonScenarios}
			return false
		}
		if err := bud.Err("hazard"); err != nil {
			ex, _ := budget.Exhausted(err)
			trunc = &budget.Truncation{Stage: "hazard", Reason: ex.Reason}
			return false
		}
		sc := scenarioOf(muts, idx)
		res, err := eng.RunBudget(sc, bud)
		if err != nil {
			if ex, ok := budget.Exhausted(err); ok {
				trunc = &budget.Truncation{Stage: "hazard", Reason: ex.Reason}
				return false
			}
			runErr = err
			return false
		}
		// The stream never skips, so the 1-based scenario ID is the
		// stream position.
		mask = appendMask(mask[:0], idx, maskLen)
		out.Scenarios = append(out.Scenarios, scoreResult(scenarioID(processed), sc, mask, res, muts, reqs))
		processed++
		return true
	})
	if runErr != nil {
		return nil, runErr
	}
	if trunc != nil {
		out.Truncation = trunc
		out.truncateToCompletedCardinality(muts, maxCard)
	}
	return out, nil
}

// scenarioOf builds the scenario that activates the candidates at the
// given indices, in index order (never nil).
func scenarioOf(muts []faults.Mutation, idx []int) epa.Scenario {
	_, sc := appendScenario(make([]epa.Activation, 0, len(idx)), muts, idx)
	return sc
}
