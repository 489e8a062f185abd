package dynamics

import (
	"fmt"

	"cpsrisk/internal/logic"
	"cpsrisk/internal/solver"
	"cpsrisk/internal/temporal"
)

// Analyzer holds one persistent multi-shot solver session over the
// attack-synthesis encoding of a system: the bounded dynamics, the
// candidate start choice, and the negated requirement are grounded once,
// then synthesis, what-if probes, and consistency re-checks are all
// assumption queries against the same session, sharing learned clauses
// and branching heuristics. Like solver.Session, an Analyzer is strictly
// single-goroutine.
type Analyzer struct {
	horizon    int
	candidates []string
	sess       *solver.Session
}

// NewAnalyzer compiles the synthesis encoding (see Synthesize for the
// semantics of horizon, candidates, maxActive, requirement) into a
// persistent session.
func NewAnalyzer(sys *System, horizon int, candidates []string, maxActive int,
	requirement temporal.Formula) (*Analyzer, error) {
	prog, err := synthesisProgram(sys, horizon, candidates, maxActive, requirement)
	if err != nil {
		return nil, err
	}
	sess, err := solver.NewSession(prog, solver.Options{})
	if err != nil {
		return nil, err
	}
	return &Analyzer{horizon: horizon, candidates: candidates, sess: sess}, nil
}

// Close releases the session.
func (a *Analyzer) Close() { a.sess.Close() }

// Stats returns the session's cumulative solver effort.
func (a *Analyzer) Stats() solver.Stats { return a.sess.Stats() }

// Synthesize searches for a minimum attack schedule violating the
// requirement. ok is false when no schedule exists within the encoding's
// bounds — a bounded proof of safety against the candidate set.
func (a *Analyzer) Synthesize() (Schedule, bool, error) {
	return a.SynthesizeAvoiding(nil)
}

// SynthesizeAvoiding synthesizes an attack that schedules none of the
// disabled candidates — the mitigation probe "is the system safe once
// these faults are excluded?" answered without re-grounding. Disabling is
// an assumption on the scheduled/1 atom, so consecutive probes reuse the
// session's learned clauses.
func (a *Analyzer) SynthesizeAvoiding(disabled []string) (Schedule, bool, error) {
	assumps := make([]solver.Assumption, 0, len(disabled))
	for _, key := range disabled {
		assumps = append(assumps, solver.AssumeFalse(logic.A("scheduled", logic.Sym(key)).Key()))
	}
	res, err := a.sess.SolveAssuming(assumps, solver.Options{Optimize: true, MaxModels: 1})
	if err != nil {
		return nil, false, err
	}
	if len(res.Models) == 0 {
		return nil, false, nil
	}
	return a.extractSchedule(&res.Models[0]), true, nil
}

// ConfirmAttack re-checks a concrete schedule against the same session:
// the query pins exactly the given start atoms (and no others) and asks
// whether the negated requirement still holds — the consistency check
// that a synthesized or externally proposed schedule really is an attack
// under the encoded dynamics. The deterministic dynamics admit at most
// one trajectory per schedule; two models indicate a modeling error.
func (a *Analyzer) ConfirmAttack(schedule Schedule) (bool, error) {
	assumps := make([]solver.Assumption, 0, len(schedule)+1)
	for _, inj := range schedule {
		if inj.AtStep < 0 || inj.AtStep >= a.horizon {
			return false, fmt.Errorf("dynamics: injection %q at step %d outside horizon %d",
				inj.Key, inj.AtStep, a.horizon)
		}
		assumps = append(assumps,
			solver.AssumeTrue(logic.A("starts", logic.Sym(inj.Key), logic.Num(inj.AtStep)).Key()))
	}
	assumps = append(assumps, solver.AssumeCountLT("starts", len(schedule)+1))
	res, err := a.sess.SolveAssuming(assumps, solver.Options{MaxModels: 2})
	if err != nil {
		return false, err
	}
	if len(res.Models) > 1 {
		return false, fmt.Errorf("dynamics: nondeterministic model (%d trajectories for %s)",
			len(res.Models), schedule.Key())
	}
	return len(res.Models) == 1, nil
}

func (a *Analyzer) extractSchedule(m *solver.Model) Schedule {
	var schedule Schedule
	for _, key := range a.candidates {
		for t := 0; t < a.horizon; t++ {
			if m.Contains(logic.A("starts", logic.Sym(key), logic.Num(t)).Key()) {
				schedule = append(schedule, Injection{Key: key, AtStep: t})
			}
		}
	}
	return schedule
}

// synthesisProgram builds the shared encoding: bounded dynamics, the
// attack-schedule choice over the candidates, the negated requirement,
// and the schedule-size objective.
func synthesisProgram(sys *System, horizon int, candidates []string, maxActive int,
	requirement temporal.Formula) (*logic.Program, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("dynamics: no candidate faults")
	}
	prog, err := sys.Encode(horizon, nil)
	if err != nil {
		return nil, err
	}
	// Attack-schedule choice: each candidate picks at most one start step;
	// at most maxActive candidates start at all.
	for _, key := range candidates {
		prog.AddFact(logic.A("candidate", logic.Sym(key)))
	}
	upper := logic.Unbounded
	if maxActive >= 0 {
		upper = maxActive
	}
	prog.AddRule(logic.ChoiceRule(logic.Unbounded, upper, []logic.ChoiceElem{{
		Atom: logic.A("starts", logic.Var("K"), logic.Var("T")),
		Cond: []logic.Literal{
			logic.Pos(logic.A("candidate", logic.Var("K"))),
			logic.Pos(logic.A("time", logic.Var("T"))),
		},
	}}))
	scheduled, err := logic.Parse(`
		scheduled(K) :- starts(K, T).
		:- starts(K, T1), starts(K, T2), T1 < T2.
		dyn_active(K, T2) :- starts(K, T1), time(T2), T2 >= T1.
	`)
	if err != nil {
		return nil, err
	}
	prog.Extend(scheduled)
	// The requirement must FAIL: require its negation at step 0.
	u := temporal.NewUnroller(horizon)
	if err := u.Require(prog, temporal.Not(requirement)); err != nil {
		return nil, err
	}
	// Prefer the least intrusive attack: minimize the schedule size.
	prog.AddMinimize(logic.MinimizeElem{
		Weight:   logic.Num(1),
		Priority: 1,
		Tuple:    []logic.Term{logic.Var("K")},
		Cond:     []logic.BodyElem{logic.Pos(logic.A("scheduled", logic.Var("K")))},
	})
	return prog, nil
}
