package core

import (
	"fmt"
	"strings"
	"time"

	"cpsrisk/internal/qual"
	"cpsrisk/internal/report"
	"cpsrisk/internal/risk"
)

// Render produces a complete, SME-readable report of the assessment:
// model summary, candidate surface, attack reachability, scenario
// prioritization with treatment advice, CEGAR verdicts, and the
// mitigation plan. This is the deliverable the paper's tool hands to a
// manager of average IT skills (§II-A).
func (a *Assessment) Render() string {
	var sb strings.Builder
	s := qual.FiveLevel()

	fmt.Fprintf(&sb, "SYSTEM\n  %d components, %d connections",
		a.ModelStats.Components, a.ModelStats.Connections)
	if a.ModelStats.Composites > 0 {
		fmt.Fprintf(&sb, " (%d composite, depth %d)", a.ModelStats.Composites, a.ModelStats.Depth)
	}
	if a.Duration > 0 {
		fmt.Fprintf(&sb, "\n  assessed in %s", a.Duration.Round(time.Microsecond))
	}
	sb.WriteString("\n\n")

	fmt.Fprintf(&sb, "ATTACK & FAULT SURFACE\n")
	fmt.Fprintf(&sb, "  %d candidate mutations (%d analyzed after mitigation filtering)\n",
		len(a.Candidates), len(a.Analyzed))
	for _, m := range a.Candidates {
		fmt.Fprintf(&sb, "    %-40s likelihood %-2s via %s\n",
			m.Activation.String(), s.Label(m.Likelihood), strings.Join(m.Sources, ", "))
	}
	if len(a.Compromisable) > 0 {
		fmt.Fprintf(&sb, "  attacker foothold possible on: %s\n", strings.Join(a.Compromisable, ", "))
	}
	sb.WriteString("\n")

	hazards := a.Analysis.Hazards()
	fmt.Fprintf(&sb, "HAZARD IDENTIFICATION\n  %d scenarios analyzed, %d hazardous\n",
		len(a.Analysis.Scenarios), len(hazards))
	if ar := a.Artifact; ar != nil {
		fmt.Fprintf(&sb, "  artifact: %s run (model %s)", ar.Path, ar.ModelHash)
		if ar.Path == "delta" {
			fmt.Fprintf(&sb, ", %d component(s) touched, %d invalidated", ar.Touched, ar.Affected)
		}
		sb.WriteString("\n")
	}
	if sw := a.Analysis.Sweep; sw != nil {
		fmt.Fprintf(&sb, "  sweep: %d worker(s), %.0f scenarios/s", sw.Workers, sw.Throughput())
		if sw.Pruned+sw.OrbitHits > 0 {
			fmt.Fprintf(&sb, ", %d executed, %d dominance-pruned, %d orbit-replicated (%d symmetry classes)",
				sw.Executed, sw.Pruned, sw.OrbitHits, sw.OrbitClasses)
		}
		if sw.Reused > 0 {
			fmt.Fprintf(&sb, ", %d row(s) reused from the cached parent", sw.Reused)
		}
		sb.WriteString("\n")
		if sw.Retries > 0 {
			fmt.Fprintf(&sb, "  retries: %d transient failure(s) recovered\n", sw.Retries)
		}
	}
	if r := a.Analysis.Resume; r != nil {
		fmt.Fprintf(&sb, "  resumed from checkpoint at rank %d\n", r.FromRank)
	}
	if st := a.Analysis.SolverStats; st != nil {
		fmt.Fprintf(&sb, "  solver: %d decisions, %d conflicts, %d learned, %d backjumps, %d restarts, %d db-reductions\n",
			st.Decisions, st.Conflicts, st.LearnedClauses, st.Backjumps, st.Restarts, st.DBReductions)
		if st.Sessions > 0 {
			fmt.Fprintf(&sb, "  multi-shot: %d session(s), %d queries, %d incremental adds, %d ground atoms reused, %d learned clauses retained\n",
				st.Sessions, st.Queries, st.Adds, st.GroundAtomsReused, st.LearnedReused)
		}
	}
	sb.WriteString("\n")

	if a.Degradation.Degraded() {
		fmt.Fprintf(&sb, "DEGRADED RESULTS\n")
		fmt.Fprintf(&sb, "  the resource budget interrupted the run; results below are partial:\n")
		for _, t := range a.Degradation.Truncations {
			fmt.Fprintf(&sb, "    %s\n", t)
		}
		sb.WriteString("\n")
	}

	fmt.Fprintf(&sb, "PRIORITIZED FINDINGS\n")
	shown := 0
	for _, sc := range a.Ranked {
		if !sc.IsHazardous() {
			continue
		}
		shown++
		if shown > 10 {
			fmt.Fprintf(&sb, "  ... and %d more hazardous scenarios\n", len(hazards)-10)
			break
		}
		fmt.Fprintf(&sb, "  %2d. %-55s %s\n", shown, sc.Scenario.Key(), risk.Explain(sc.Risk))
	}
	sb.WriteString("\n")

	if a.Refinement != nil {
		fmt.Fprintf(&sb, "VALIDATION (CEGAR against the concrete model)\n")
		fmt.Fprintf(&sb, "  confirmed %d, spurious %d, needs expert review %d\n",
			len(a.Refinement.Confirmed()), len(a.Refinement.Spurious()),
			len(a.Refinement.Undetermined()))
		for _, j := range a.Refinement.Spurious() {
			fmt.Fprintf(&sb, "    spurious: %s\n", j.Finding)
		}
		for _, j := range a.Refinement.Undetermined() {
			fmt.Fprintf(&sb, "    review:   %s\n", j.Finding)
		}
		sb.WriteString("\n")
	}

	if len(a.RelevantMitigations) > 0 {
		fmt.Fprintf(&sb, "MITIGATION SOLUTION SPACE\n")
		for _, m := range a.RelevantMitigations {
			fmt.Fprintf(&sb, "  %-8s %-35s cost %d (+%d/period)\n",
				m.ID, m.Name, m.Cost, m.MaintenanceCost)
		}
		sb.WriteString("\n")
	}
	if len(a.Plan.Selected) > 0 || a.Plan.ResidualLoss > 0 {
		fmt.Fprintf(&sb, "RECOMMENDED PLAN\n")
		for i, p := range a.Phases {
			fmt.Fprintf(&sb, "  phase %d: deploy %s (cost %d, removes %d loss)\n",
				i+1, p.MitigationID, p.Cost, p.LossReduction)
		}
		fmt.Fprintf(&sb, "  optimal selection: {%s}  cost %d  residual loss %d  total %d\n",
			strings.Join(a.Plan.Selected, ", "), a.Plan.Cost, a.Plan.ResidualLoss, a.Plan.Total)
		if len(a.Plan.Blocked) > 0 {
			fmt.Fprintf(&sb, "  blocked scenarios: %s\n", strings.Join(a.Plan.Blocked, ", "))
		}
	}

	if a.Trace != nil {
		sb.WriteString("\nTIMING\n")
		sb.WriteString(a.Trace.Tree())
	}
	if a.Metrics != nil {
		if body := a.Metrics.Render(); body != "" {
			sb.WriteString("\nMETRICS\n")
			sb.WriteString(body)
		}
	}
	return sb.String()
}

// RenderFull is the complete text deliverable: the report body plus the
// risk-prioritized scenario table (truncated to topN rows when topN > 0)
// and the degradation summary. The CLI's default output and the
// service's text report endpoint both print exactly this, so the two
// front-ends stay byte-identical by construction.
func (a *Assessment) RenderFull(topN int) string {
	var sb strings.Builder
	sb.WriteString(a.Render())
	sb.WriteString("\n")
	sb.WriteString("== Risk-prioritized scenarios ==\n")
	limit := a.Ranked
	if topN > 0 && len(limit) > topN {
		limit = limit[:topN]
	}
	sb.WriteString(report.Ranked(limit))
	sb.WriteString("\n")
	if a.Degradation.Degraded() {
		sb.WriteString("== Degraded results ==\n")
		sb.WriteString(a.Degradation.Summary())
		sb.WriteString("\n")
	}
	return sb.String()
}
