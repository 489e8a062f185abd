package watertank

import (
	"cpsrisk/internal/epa"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/report"
)

// PaperRowSpecs lists the rows of the paper's Table II in print order:
// the fault-mode combination and whether the mitigation columns (M1 user
// training, M2 endpoint security) are shown Active. S2 — the compromised
// workstation — is the one row only possible without the mitigations.
var PaperRowSpecs = []struct {
	Label             string
	Faults            []string
	MitigationsActive bool
}{
	{"S1", nil, true},
	{"S2", []string{"F4"}, false},
	{"S3", []string{"F1"}, true},
	{"S4", []string{"F2"}, true},
	{"S5", []string{"F2", "F3"}, true},
	{"S6", []string{"F1", "F3"}, true},
	{"S7", []string{"F1", "F2", "F3"}, true},
}

// PaperTableII runs the exhaustive case-study analysis and renders the
// paper's Table II layout. useASP selects the embedded-formal-method path.
func PaperTableII(useASP bool) (string, error) {
	eng, err := Engine()
	if err != nil {
		return "", err
	}
	var analysis *hazard.Analysis
	if useASP {
		analysis, err = hazard.AnalyzeASPOpts(eng, PaperCandidates(), -1, Requirements(), hazard.ASPOptions{})
	} else {
		analysis, err = hazard.AnalyzeSweep(eng, PaperCandidates(), -1, Requirements(), hazard.SweepConfig{Parallelism: 1})
	}
	if err != nil {
		return "", err
	}
	labels := []string{"F1", "F2", "F3", "F4"}
	acts := make([]epa.Activation, len(labels))
	for i, l := range labels {
		acts[i] = FaultLabels[l]
	}
	rows := make([]report.TableIIRow, 0, len(PaperRowSpecs))
	for _, spec := range PaperRowSpecs {
		var sc epa.Scenario
		for _, f := range spec.Faults {
			sc = append(sc, FaultLabels[f])
		}
		rows = append(rows, report.TableIIRow{
			Label:             spec.Label,
			Scenario:          sc,
			MitigationsActive: spec.MitigationsActive,
		})
	}
	return report.TableII(analysis, labels, acts, []string{"M1", "M2"}, rows)
}
