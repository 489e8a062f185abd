package core

import (
	"encoding/json"
	"io"

	"cpsrisk/internal/budget"
	"cpsrisk/internal/epa"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/obs"
	"cpsrisk/internal/qual"
	"cpsrisk/internal/risk"
)

// Summary is the machine-readable projection of an Assessment for
// downstream tooling (dashboards, ticketing): plain data, no interfaces.
type Summary struct {
	// TraceID is the run's correlation ID (absent when none was set).
	TraceID string `json:"traceId,omitempty"`
	Model   struct {
		Components  int `json:"components"`
		Connections int `json:"connections"`
	} `json:"model"`
	Candidates    []CandidateSummary `json:"candidates"`
	Compromisable []string           `json:"compromisable,omitempty"`
	Scenarios     []ScenarioSummary  `json:"scenarios"`
	Plan          *PlanSummary       `json:"plan,omitempty"`
	Refinement    *CEGARSummary      `json:"refinement,omitempty"`
	// Degradation lists resource-budget truncations; absent when the run
	// completed exactly.
	Degradation []budget.Truncation `json:"degradation,omitempty"`
	// Solver carries search statistics when the ASP path ran.
	Solver *SolverSummary `json:"solver,omitempty"`
	// Sweep carries scenario-sweep statistics when the native engine ran.
	Sweep *SweepSummary `json:"sweep,omitempty"`
	// Artifact reports the artifact-cache resolution (cold/warm/delta);
	// absent when no artifact cache was configured.
	Artifact *ArtifactSummary `json:"artifact,omitempty"`
	// DurationMS is wall-clock time for the whole assessment.
	DurationMS int64 `json:"durationMs,omitempty"`
	// Trace is the span tree of the run; present only when the assessment
	// was configured with a trace.
	Trace *obs.SpanSnapshot `json:"trace,omitempty"`
	// Metrics is the metrics-registry snapshot; present only when the
	// assessment was configured with a registry.
	Metrics *obs.MetricsSnapshot `json:"metrics,omitempty"`
}

// SweepSummary is the native scenario sweep's effort for the run.
type SweepSummary struct {
	Workers    int   `json:"workers"`
	Scenarios  int   `json:"scenarios"`
	DurationMS int64 `json:"durationMs"`
	// Retries counts transient failures recovered in flight.
	Retries int64 `json:"retries,omitempty"`
	// ResumedFromRank is the checkpoint frontier the sweep resumed from
	// (absent for a fresh sweep) — resume provenance for tooling.
	ResumedFromRank int `json:"resumedFromRank,omitempty"`
	// Executed counts scenarios evaluated against a full EPA result;
	// Pruned and OrbitHits count rows synthesized by dominance skipping
	// and symmetry replication instead (absent on unpruned sweeps).
	Executed  int64 `json:"executed,omitempty"`
	Pruned    int64 `json:"pruned,omitempty"`
	OrbitHits int64 `json:"orbitHits,omitempty"`
	// OrbitClasses is the number of interchangeable-component classes
	// the pruner detected (absent when none).
	OrbitClasses int `json:"orbitClasses,omitempty"`
	// Reused counts rows answered by the delta-reuse oracle from a
	// cached parent analysis instead of executing (absent outside delta
	// re-assessment).
	Reused int64 `json:"reused,omitempty"`
}

// ArtifactSummary is the artifact-cache resolution of the run.
type ArtifactSummary struct {
	// Path is "cold", "warm", or "delta".
	Path string `json:"path"`
	// ModelHash is the canonical model content hash, in hex.
	ModelHash string `json:"modelHash"`
	// Touched / Affected describe the delta: components the edit touched
	// and the size of the invalidated closure (absent outside delta).
	Touched  int `json:"touched,omitempty"`
	Affected int `json:"affected,omitempty"`
}

// SolverSummary is the ASP solver's search effort for the run.
type SolverSummary struct {
	Atoms          int   `json:"atoms"`
	GroundRules    int   `json:"groundRules"`
	Vars           int   `json:"vars"`
	Clauses        int   `json:"clauses"`
	Decisions      int64 `json:"decisions"`
	Conflicts      int64 `json:"conflicts"`
	Propagations   int64 `json:"propagations"`
	Restarts       int64 `json:"restarts"`
	LearnedClauses int64 `json:"learnedClauses"`
	Backjumps      int64 `json:"backjumps"`
	DBReductions   int64 `json:"dbReductions"`
	DurationMS     int64 `json:"durationMs"`
	// Multi-shot counters (zero on single-shot runs).
	Sessions          int64 `json:"sessions,omitempty"`
	Queries           int64 `json:"queries,omitempty"`
	Adds              int64 `json:"adds,omitempty"`
	GroundAtomsReused int64 `json:"groundAtomsReused,omitempty"`
	LearnedReused     int64 `json:"learnedReused,omitempty"`
}

// CandidateSummary is one candidate mutation.
type CandidateSummary struct {
	Component  string   `json:"component"`
	Fault      string   `json:"fault"`
	Likelihood string   `json:"likelihood"`
	Sources    []string `json:"sources"`
}

// ScenarioSummary is one analyzed scenario with its risk verdict.
type ScenarioSummary struct {
	ID          string   `json:"id"`
	Activations []string `json:"activations"`
	Violated    []string `json:"violated,omitempty"`
	Likelihood  string   `json:"likelihood"`
	Severity    string   `json:"severity"`
	Risk        string   `json:"risk"`
	Treatment   string   `json:"treatment"`
}

// PlanSummary is the optimization outcome.
type PlanSummary struct {
	Selected     []string `json:"selected"`
	Cost         int      `json:"cost"`
	ResidualLoss int      `json:"residualLoss"`
	Total        int      `json:"total"`
	Blocked      []string `json:"blocked,omitempty"`
}

// CEGARSummary is the validation outcome.
type CEGARSummary struct {
	Confirmed    []string `json:"confirmed,omitempty"`
	Spurious     []string `json:"spurious,omitempty"`
	Undetermined []string `json:"undetermined,omitempty"`
}

// Summarize projects the assessment into plain data, scenarios in ranked
// order.
func (a *Assessment) Summarize() *Summary {
	s := qual.FiveLevel()
	out := &Summary{TraceID: a.TraceID}
	out.Model.Components = a.ModelStats.Components
	out.Model.Connections = a.ModelStats.Connections
	for _, m := range a.Candidates {
		out.Candidates = append(out.Candidates, CandidateSummary{
			Component:  m.Component,
			Fault:      m.Fault,
			Likelihood: s.Label(m.Likelihood),
			Sources:    m.Sources,
		})
	}
	out.Compromisable = a.Compromisable
	out.Scenarios = summarizeRows(a.Ranked)
	if len(a.Plan.Selected) > 0 || a.Plan.Total > 0 {
		out.Plan = &PlanSummary{
			Selected:     a.Plan.Selected,
			Cost:         a.Plan.Cost,
			ResidualLoss: a.Plan.ResidualLoss,
			Total:        a.Plan.Total,
			Blocked:      a.Plan.Blocked,
		}
	}
	if a.Refinement != nil {
		c := &CEGARSummary{}
		for _, j := range a.Refinement.Confirmed() {
			c.Confirmed = append(c.Confirmed, j.Finding.String())
		}
		for _, j := range a.Refinement.Spurious() {
			c.Spurious = append(c.Spurious, j.Finding.String())
		}
		for _, j := range a.Refinement.Undetermined() {
			c.Undetermined = append(c.Undetermined, j.Finding.String())
		}
		out.Refinement = c
	}
	if a.Degradation.Degraded() {
		out.Degradation = a.Degradation.Truncations
	}
	if a.Analysis != nil && a.Analysis.Sweep != nil {
		sw := a.Analysis.Sweep
		out.Sweep = &SweepSummary{
			Workers:      sw.Workers,
			Scenarios:    sw.Scenarios,
			DurationMS:   sw.Duration.Milliseconds(),
			Retries:      sw.Retries,
			Executed:     sw.Executed,
			Pruned:       sw.Pruned,
			OrbitHits:    sw.OrbitHits,
			OrbitClasses: sw.OrbitClasses,
			Reused:       sw.Reused,
		}
		if a.Analysis.Resume != nil {
			out.Sweep.ResumedFromRank = a.Analysis.Resume.FromRank
		}
	}
	if a.Artifact != nil {
		out.Artifact = &ArtifactSummary{
			Path:      a.Artifact.Path,
			ModelHash: a.Artifact.ModelHash,
			Touched:   a.Artifact.Touched,
			Affected:  a.Artifact.Affected,
		}
	}
	if a.Analysis != nil && a.Analysis.SolverStats != nil {
		st := a.Analysis.SolverStats
		out.Solver = &SolverSummary{
			Atoms:          st.Atoms,
			GroundRules:    st.GroundRules,
			Vars:           st.Vars,
			Clauses:        st.Clauses,
			Decisions:      st.Decisions,
			Conflicts:      st.Conflicts,
			Propagations:   st.Propagations,
			Restarts:       st.Restarts,
			LearnedClauses: st.LearnedClauses,
			Backjumps:      st.Backjumps,
			DBReductions:   st.DBReductions,
			DurationMS:     st.Duration.Milliseconds(),

			Sessions:          st.Sessions,
			Queries:           st.Queries,
			Adds:              st.Adds,
			GroundAtomsReused: st.GroundAtomsReused,
			LearnedReused:     st.LearnedReused,
		}
	}
	out.DurationMS = a.Duration.Milliseconds()
	out.Trace = a.Trace
	out.Metrics = a.Metrics
	return out
}

// summarizeRows projects the ranked rows. Each distinct activation is
// rendered once, and the rows' Activations are capacity-clipped windows
// of one slab, so appending to one row's cannot reach the next. An empty
// scenario keeps nil Activations (JSON null), and no rows give nil.
func summarizeRows(ranked []hazard.ScenarioResult) []ScenarioSummary {
	if len(ranked) == 0 {
		return nil
	}
	s := qual.FiveLevel()
	acts := 0
	for _, sc := range ranked {
		acts += len(sc.Scenario)
	}
	names := map[epa.Activation]string{}
	slab := make([]string, 0, acts)
	out := make([]ScenarioSummary, len(ranked))
	for i, sc := range ranked {
		row := &out[i]
		*row = ScenarioSummary{
			ID:         sc.ID,
			Violated:   sc.Violated,
			Likelihood: s.Label(sc.Risk.Likelihood),
			Severity:   s.Label(sc.Risk.Severity),
			Risk:       s.Label(sc.Risk.Risk),
			Treatment:  risk.TreatmentFor(sc.Risk.Risk).String(),
		}
		if len(sc.Scenario) == 0 {
			continue
		}
		lo := len(slab)
		for _, act := range sc.Scenario {
			name, ok := names[act]
			if !ok {
				name = act.String()
				names[act] = name
			}
			slab = append(slab, name)
		}
		row.Activations = slab[lo:len(slab):len(slab)]
	}
	return out
}

// WriteJSON writes the summary as indented JSON.
func (a *Assessment) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a.Summarize())
}
