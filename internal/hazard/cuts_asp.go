package hazard

import (
	"fmt"
	"sort"

	"cpsrisk/internal/budget"
	"cpsrisk/internal/epa"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/logic"
	"cpsrisk/internal/solver"
)

// maxCutRoundsCap bounds the defensive round limit when the caller passes
// maxRounds <= 0: 2^n rounds is the natural ceiling for n mutation
// candidates, but the shift overflows for n >= 63, so large candidate
// sets clamp to a fixed cap instead.
const maxCutRoundsCap = 1 << 20

func defaultCutRounds(n int) int {
	if n >= 20 {
		return maxCutRoundsCap
	}
	return 1 << n
}

// MinimalCutsASP enumerates the minimal fault combinations violating one
// requirement through the embedded formal method: the EPA encoding plus
// the scenario choice, an integrity constraint demanding the violation,
// and cardinality `#minimize` over the activations. Each optimization
// round yields minimum-cardinality cuts; blocking each found cut (as a
// conjunction) and re-solving climbs the cardinality levels until no
// violating scenario remains, which enumerates exactly the minimal cuts —
// the qualitative analogue of FTA minimal cut sets computed by the
// reasoner itself (§III-A, §IV-D "the engine selects the active faults").
//
// The enumeration is multi-shot: one persistent solver session grounds
// the encoding once, each round re-queries it with retained learned
// clauses and heuristics, and every found cut lands as an incremental
// blocking constraint through the solver's backjump-then-add path.
//
// maxRounds bounds the iteration defensively; the space of minimal cuts
// over n candidates is finite, so the loop always terminates on its own.
func MinimalCutsASP(eng *epa.Engine, muts []faults.Mutation, req Requirement, maxRounds int) ([]epa.Scenario, error) {
	return MinimalCutsASPOpts(eng, muts, req, maxRounds, ASPOptions{})
}

// MinimalCutsASPOpts is MinimalCutsASP with a budget and solver portfolio
// control: with SolverWorkers > 1 every optimization round races that
// many diversified engines, sharing learned clauses and racing the
// cardinality bound. The enumerated cut set is identical for any worker
// count (each round's optimum and its complete optimal model set are
// unique); only wall-clock time changes. A budget that trips mid-round
// aborts with an *budget.ExhaustedError (stage "hazard-cuts"): a partial
// cut set would be indistinguishable from a complete one.
func MinimalCutsASPOpts(eng *epa.Engine, muts []faults.Mutation, req Requirement, maxRounds int, o ASPOptions) ([]epa.Scenario, error) {
	base, err := cutsBase(eng, muts, req)
	if err != nil {
		return nil, err
	}
	if maxRounds <= 0 {
		maxRounds = defaultCutRounds(len(muts))
	}
	sess, err := solver.NewSession(base, solver.Options{
		Budget:        o.Budget,
		Workers:       o.SolverWorkers,
		Deterministic: o.Deterministic,
	})
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	var cuts []epa.Scenario
	for round := 0; round < maxRounds; round++ {
		res, err := sess.SolveAssuming(nil, solver.Options{Optimize: true})
		if err != nil {
			return nil, err
		}
		if res.Interrupted {
			// The round's models are at best a non-optimal incumbent: not
			// minimal cuts, and blocking them would skip real ones.
			return nil, &budget.ExhaustedError{
				Stage: "hazard-cuts", Reason: res.InterruptReason,
				Detail: fmt.Sprintf("%d minimal cuts found before interruption", len(cuts)),
			}
		}
		if len(res.Models) == 0 {
			return cuts, nil // space exhausted
		}
		batch := cutBatch(res.Models, muts)
		cuts = append(cuts, batch...)
		block := &logic.Program{}
		for _, cut := range batch {
			block.AddRule(blockCut(cut))
		}
		if err := sess.Add(block); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("hazard: minimal-cut enumeration exceeded %d rounds", maxRounds)
}

// cutsBase builds the shared encoding: EPA semantics, the unbounded fault
// choice, the violation condition, and the cardinality objective.
func cutsBase(eng *epa.Engine, muts []faults.Mutation, req Requirement) (*logic.Program, error) {
	if err := validateReqs([]Requirement{req}); err != nil {
		return nil, err
	}
	base, err := eng.EncodeASP()
	if err != nil {
		return nil, err
	}
	faults.EncodeChoice(base, muts, -1)
	if err := EncodeViolation(base, req.ID, req.Condition); err != nil {
		return nil, err
	}
	base.AddRule(logic.Constraint(logic.Not(logic.A("violated", logic.Sym(req.ID)))))
	base.AddMinimize(logic.MinimizeElem{
		Weight:   logic.Num(1),
		Priority: 1,
		Tuple:    []logic.Term{logic.Func("cut", logic.Var("C"), logic.Var("F"))},
		Cond: []logic.BodyElem{
			logic.Pos(logic.A("active", logic.Var("C"), logic.Var("F"))),
		},
	})
	return base, nil
}

// cutBatch extracts one round's cuts from its optimal models, sorted by
// scenario key so the session and its single-shot test reference emit
// identical output.
// All optimal models of a round share the minimum cardinality: each is a
// minimal cut (no proper subset violates, or it would have been optimal
// in an earlier round or this one).
func cutBatch(models []solver.Model, muts []faults.Mutation) []epa.Scenario {
	batch := make([]epa.Scenario, 0, len(models))
	keys := activeKeys(muts)
	for i := range models {
		cut, _ := scenarioFromModel(&models[i], muts, keys)
		batch = append(batch, cut)
	}
	sort.Slice(batch, func(i, j int) bool { return batch[i].Key() < batch[j].Key() })
	return batch
}

// blockCut forbids supersets of a found cut.
func blockCut(cut epa.Scenario) logic.Rule {
	body := make([]logic.BodyElem, 0, len(cut))
	for _, a := range cut {
		body = append(body, logic.Pos(epa.ActiveAtom(a.Component, a.Fault)))
	}
	return logic.Constraint(body...)
}
