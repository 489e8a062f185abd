package report_test

import (
	"strings"
	"testing"

	"cpsrisk/internal/epa"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/optimize"
	"cpsrisk/internal/qual"
	"cpsrisk/internal/report"
	"cpsrisk/internal/risk"
	"cpsrisk/internal/watertank"
)

func TestTableBasics(t *testing.T) {
	out := report.Table([]string{"A", "Long header"}, [][]string{
		{"x", "y"},
		{"wide cell", "z"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d\n%s", len(lines), out)
	}
	// All rows share the same rendered width.
	if len(lines[0]) != len(lines[2]) || len(lines[2]) != len(lines[3]) {
		t.Errorf("misaligned:\n%s", out)
	}
}

func TestTableIContents(t *testing.T) {
	out := report.TableI()
	// First data row is LM=VH: M H VH VH VH.
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[2], "VH") {
		t.Fatalf("row order: %q", lines[2])
	}
	fields := strings.Fields(lines[2])
	want := []string{"VH", "M", "H", "VH", "VH", "VH"}
	if len(fields) != len(want) {
		t.Fatalf("row = %v", fields)
	}
	for i := range want {
		if fields[i] != want[i] {
			t.Fatalf("TableI row VH = %v, want %v", fields, want)
		}
	}
	// Last data row is LM=VL: VL VL VL L M.
	last := strings.Fields(lines[6])
	wantLast := []string{"VL", "VL", "VL", "VL", "L", "M"}
	for i := range wantLast {
		if last[i] != wantLast[i] {
			t.Fatalf("TableI row VL = %v, want %v", last, wantLast)
		}
	}
}

func tableIIFixtures(t *testing.T) (*hazard.Analysis, []string, []epa.Activation) {
	t.Helper()
	eng, err := watertank.Engine()
	if err != nil {
		t.Fatal(err)
	}
	analysis, err := hazard.AnalyzeSweep(eng, watertank.PaperCandidates(), -1, watertank.Requirements(), hazard.SweepConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	labels := []string{"F1", "F2", "F3", "F4"}
	acts := make([]epa.Activation, len(labels))
	for i, l := range labels {
		acts[i] = watertank.FaultLabels[l]
	}
	return analysis, labels, acts
}

func TestTableIIPaperLayout(t *testing.T) {
	analysis, labels, acts := tableIIFixtures(t)
	rows := []report.TableIIRow{
		{Label: "S1", Scenario: nil, MitigationsActive: true},
		{Label: "S2", Scenario: epa.Scenario{acts[3]}},
		{Label: "S4", Scenario: epa.Scenario{acts[1]}, MitigationsActive: true},
		{Label: "S5", Scenario: epa.Scenario{acts[1], acts[2]}, MitigationsActive: true},
	}
	out, err := report.TableII(analysis, labels, acts, []string{"M1", "M2"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2+len(rows) {
		t.Fatalf("lines:\n%s", out)
	}
	// S2: F4 starred, no mitigations, both violated.
	s2 := lines[3]
	if !strings.Contains(s2, "*") || strings.Contains(s2, "Active") ||
		strings.Count(s2, "Violated") != 2 {
		t.Errorf("S2 row = %q", s2)
	}
	// S4: R1 violated only, mitigations active.
	s4 := lines[4]
	if strings.Count(s4, "Violated") != 1 || !strings.Contains(s4, "Active") {
		t.Errorf("S4 row = %q", s4)
	}
	// S1: nothing violated.
	s1 := lines[2]
	if strings.Contains(s1, "Violated") || strings.Contains(s1, "*") {
		t.Errorf("S1 row = %q", s1)
	}
}

func TestTableIIErrors(t *testing.T) {
	analysis, labels, acts := tableIIFixtures(t)
	if _, err := report.TableII(analysis, labels[:2], acts, nil, nil); err == nil {
		t.Error("label/activation mismatch must fail")
	}
	if _, err := report.TableII(analysis, labels, acts, nil, []report.TableIIRow{
		{Label: "X", Scenario: epa.Scenario{{Component: "ghost", Fault: "f"}}},
	}); err == nil {
		t.Error("unknown scenario must fail")
	}
}

func TestRankedRendering(t *testing.T) {
	analysis, _, _ := tableIIFixtures(t)
	out := report.Ranked(analysis.Ranked())
	if !strings.Contains(out, "Rank") || !strings.Contains(out, "ews:compromised") {
		t.Errorf("ranked output:\n%s", out)
	}
}

func TestDerivationRendering(t *testing.T) {
	d := risk.Derive(risk.Attributes{
		ContactFrequency:    qual.High,
		ProbabilityOfAction: qual.High,
		ThreatCapability:    qual.High,
		ResistanceStrength:  qual.Low,
		PrimaryLoss:         qual.High,
	})
	out := report.Derivation(d)
	for _, want := range []string{"Threat Event Frequency", "Vulnerability", "Loss Magnitude", "Risk"} {
		if !strings.Contains(out, want) {
			t.Errorf("derivation missing %q:\n%s", want, out)
		}
	}
}

func TestPlanRendering(t *testing.T) {
	out := report.Plan(
		[]optimize.Phase{{MitigationID: "M-0917", Cost: 25, LossReduction: 1000}},
		optimize.Plan{Selected: []string{"M-0917"}, Cost: 25, ResidualLoss: 10,
			Total: 35, Blocked: []string{"S2"}},
	)
	for _, want := range []string{"M-0917", "1000", "Residual loss: 10", "Blocked scenarios: S2"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan missing %q:\n%s", want, out)
		}
	}
}
