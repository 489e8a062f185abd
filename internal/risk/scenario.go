package risk

import (
	"cmp"
	"slices"
	"strings"

	"cpsrisk/internal/qual"
)

// ScenarioInput is the risk-relevant abstraction of one analyzed scenario:
// the qualitative likelihood of each activated fault/attack and the
// severities of the requirements the scenario violates. It decouples the
// risk layer from the hazard-identification machinery.
type ScenarioInput struct {
	ID string
	// FaultLikelihoods holds one level per activated fault mode.
	FaultLikelihoods []qual.Level
	// ViolatedSeverities holds one level per violated requirement.
	ViolatedSeverities []qual.Level
}

// ScenarioRisk is the scored result.
type ScenarioRisk struct {
	ID string
	// Likelihood is the scenario's loss-event frequency: simultaneous
	// independent activations compound downward (each extra fault lowers
	// the joint frequency one level), reproducing the paper's §VII
	// observation that S7 (three simultaneous faults) is less probable
	// than S5 (two) despite equal violations.
	Likelihood qual.Level
	// Severity is the scenario loss magnitude: the worst violated
	// requirement.
	Severity qual.Level
	// Risk is the O-RA matrix cell of (Severity, Likelihood).
	Risk qual.Level
	// Violations counts violated requirements.
	Violations int
	// Faults counts activated fault modes.
	Faults int
}

// ScoreScenario computes the qualitative risk of a scenario. A scenario
// with no violations has VeryLow risk regardless of likelihood.
func ScoreScenario(in ScenarioInput) ScenarioRisk {
	s := qual.FiveLevel()
	var likelihood, severity qual.Level
	if len(in.FaultLikelihoods) > 0 {
		likelihood = s.MinOf(in.FaultLikelihoods[0], in.FaultLikelihoods[1:]...)
	}
	if len(in.ViolatedSeverities) > 0 {
		severity = s.MaxOf(in.ViolatedSeverities[0], in.ViolatedSeverities[1:]...)
	}
	return Score(in.ID, len(in.FaultLikelihoods), likelihood, len(in.ViolatedSeverities), severity)
}

// Score is ScoreScenario from the scenario's aggregates: faults activated
// fault modes whose least likely one has level minLikelihood, and
// violations violated requirements whose worst severity is maxSeverity.
// The levels are ignored when their count is zero. Per-row scorers use it
// to avoid materializing the level slices.
func Score(id string, faults int, minLikelihood qual.Level, violations int, maxSeverity qual.Level) ScenarioRisk {
	s := qual.FiveLevel()
	out := ScenarioRisk{
		ID:         id,
		Violations: violations,
		Faults:     faults,
	}
	if faults == 0 {
		out.Likelihood = qual.VeryLow
	} else {
		out.Likelihood = s.Add(s.Clamp(minLikelihood), -(faults - 1))
	}
	if violations == 0 {
		out.Severity = qual.VeryLow
		out.Risk = qual.VeryLow
		return out
	}
	out.Severity = s.Clamp(maxSeverity)
	out.Risk = ORARisk(out.Severity, out.Likelihood)
	return out
}

// Rank orders scored scenarios for prioritization (paper §IV: "prioritize
// the faults and vulnerabilities based on their severity and potential
// impact") by Compare.
func Rank(scenarios []ScenarioRisk) []ScenarioRisk {
	out := append([]ScenarioRisk(nil), scenarios...)
	slices.SortStableFunc(out, Compare)
	return out
}

// Compare is the prioritization order: by risk, then severity, then
// likelihood, all descending; ties break toward fewer faults (more
// plausible), then by ID (plain string order, so "S10" < "S2") for
// determinism. It returns a negative number when a ranks before b.
func Compare(a, b ScenarioRisk) int {
	if a.Risk != b.Risk {
		return cmp.Compare(b.Risk, a.Risk)
	}
	if a.Severity != b.Severity {
		return cmp.Compare(b.Severity, a.Severity)
	}
	if a.Likelihood != b.Likelihood {
		return cmp.Compare(b.Likelihood, a.Likelihood)
	}
	if a.Faults != b.Faults {
		return cmp.Compare(a.Faults, b.Faults)
	}
	return strings.Compare(a.ID, b.ID)
}
