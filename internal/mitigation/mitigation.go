// Package mitigation implements the mitigation-analysis step of the
// framework (paper §IV-C): deriving, from the attack scenario space and
// the knowledge base, which mitigations block which candidate mutations,
// filtering the candidate set under an active mitigation selection (the
// semantics of the paper's Listing 1), and constructing the mitigation
// solution space handed to the cost-benefit optimizer.
package mitigation

import (
	"sort"

	"cpsrisk/internal/epa"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/kb"
	"cpsrisk/internal/qual"
)

// SpontaneousSource is the provenance tag of fault-mode candidates that do
// not come from the knowledge base; they are not blockable by security
// mitigations.
const SpontaneousSource = "fault_mode"

// SourceBlockers returns the mitigation IDs that block one mutation
// source: the technique's or vulnerability's mitigation list, or nil for
// spontaneous fault modes (unblockable).
func SourceBlockers(k *kb.KB, source string) []string {
	if source == SpontaneousSource {
		return nil
	}
	if t, ok := k.Technique(source); ok {
		return append([]string(nil), t.Mitigations...)
	}
	if v, ok := k.Vulnerability(source); ok {
		return append([]string(nil), v.Mitigations...)
	}
	return nil
}

// BlockersFor returns, per source of the mutation, the blocking mitigation
// IDs. The mutation is blocked by a selection iff EVERY source has at
// least one selected blocker (a fault reachable through an unmitigated
// path stays potential).
func BlockersFor(k *kb.KB, mut faults.Mutation) [][]string {
	out := make([][]string, 0, len(mut.Sources))
	for _, s := range mut.Sources {
		out = append(out, SourceBlockers(k, s))
	}
	return out
}

// Blocked reports whether the selection blocks the mutation.
func Blocked(k *kb.KB, mut faults.Mutation, selected map[string]bool) bool {
	if len(mut.Sources) == 0 {
		return false
	}
	for _, blockers := range BlockersFor(k, mut) {
		sourceBlocked := false
		for _, m := range blockers {
			if selected[m] {
				sourceBlocked = true
				break
			}
		}
		if !sourceBlocked {
			return false
		}
	}
	return true
}

// Filter removes blocked mutations from the candidate set — the paper's
// Listing 1 ("potential_fault(C,F) :- ..., not active_mitigation(C,M)")
// applied natively: with a mitigation active, its scenarios drop out of
// the evaluation.
func Filter(k *kb.KB, muts []faults.Mutation, selected map[string]bool) []faults.Mutation {
	out := make([]faults.Mutation, 0, len(muts))
	for _, m := range muts {
		if !Blocked(k, m, selected) {
			out = append(out, m)
		}
	}
	return out
}

// Relevant returns the mitigations referenced by any source of the
// candidate set, sorted by ID — the dimension of the mitigation solution
// space.
func Relevant(k *kb.KB, muts []faults.Mutation) []*kb.Mitigation {
	ids := map[string]bool{}
	for _, mut := range muts {
		for _, blockers := range BlockersFor(k, mut) {
			for _, id := range blockers {
				ids[id] = true
			}
		}
	}
	out := make([]*kb.Mitigation, 0, len(ids))
	for id := range ids {
		if m, ok := k.Mitigation(id); ok {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Coverage maps each relevant mitigation to the candidate mutations it
// participates in blocking (appears among the blockers of some source).
func Coverage(k *kb.KB, muts []faults.Mutation) map[string][]epa.Activation {
	out := map[string][]epa.Activation{}
	for _, mut := range muts {
		seen := map[string]bool{}
		for _, blockers := range BlockersFor(k, mut) {
			for _, id := range blockers {
				if !seen[id] {
					seen[id] = true
					out[id] = append(out[id], mut.Activation)
				}
			}
		}
	}
	return out
}

// ScenarioLoss is a hazardous scenario prepared for the cost-benefit
// optimizer: its numeric loss and the blocking structure
// (activation -> sources -> blocking mitigation IDs).
type ScenarioLoss struct {
	ID   string
	Loss int
	// Activations[i][j] lists the mitigation IDs blocking source j of
	// activation i; an empty inner list marks an unblockable source. The
	// scenario is blocked iff SOME activation has ALL sources blocked.
	Activations [][][]string
}

// LossWeights maps qualitative risk levels to numeric losses for the
// cost-benefit analysis (paper §IV-D "Failure Impact/Cost"). The default
// is an exponential-ish spread keeping level ordering strict.
var LossWeights = map[qual.Level]int{
	qual.VeryLow:  0,
	qual.Low:      10,
	qual.Medium:   50,
	qual.High:     200,
	qual.VeryHigh: 1000,
}

// PrepareLosses converts hazardous scenarios into the optimizer input,
// using the candidate-mutation index for blocking structure and the
// scenario risk level for loss.
func PrepareLosses(k *kb.KB, a *hazard.Analysis, muts []faults.Mutation) []ScenarioLoss {
	byAct := map[epa.Activation]faults.Mutation{}
	for _, m := range muts {
		byAct[m.Activation] = m
	}
	var out []ScenarioLoss
	for _, s := range a.Hazards() {
		sl := ScenarioLoss{ID: s.ID, Loss: LossWeights[s.Risk.Risk]}
		for _, act := range s.Scenario {
			mut, ok := byAct[act]
			if !ok {
				mut = faults.Mutation{Activation: act, Sources: []string{SpontaneousSource}}
			}
			sl.Activations = append(sl.Activations, BlockersFor(k, mut))
		}
		out = append(out, sl)
	}
	return out
}
