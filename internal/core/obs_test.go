package core

import (
	"strings"
	"testing"

	"cpsrisk/internal/cegar"
	"cpsrisk/internal/obs"
)

// TestRunSpanTreeShape runs the full case study with tracing on and
// checks the span tree against the pipeline's shape: one root, every
// stage exactly once, the sweep nested under hazard, and the metrics
// and report projections populated from the same run.
func TestRunSpanTreeShape(t *testing.T) {
	cfg := caseStudyConfig()
	cfg.Optimize = true
	cfg.Budget = -1
	cfg.Oracle = cegar.NewPlantOracle()
	cfg.Trace = obs.New("assessment")
	cfg.Metrics = obs.NewRegistry()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if a.Trace == nil {
		t.Fatal("no trace snapshot on assessment")
	}
	if a.Trace.Name != "assessment" {
		t.Errorf("root span = %q", a.Trace.Name)
	}
	for _, stage := range []string{"model", "candidates", "hazard", "validate", "mitigation"} {
		if n := a.Trace.Count(stage); n != 1 {
			t.Errorf("stage %q spans = %d, want exactly 1", stage, n)
		}
	}
	hz := a.Trace.Find("hazard")
	if hz == nil || hz.Find("sweep") == nil {
		t.Error("sweep span not nested under hazard")
	}
	if a.Trace.Find("validate").Find("level[assessment]") == nil {
		t.Error("cegar level span not nested under validate")
	}
	if a.Trace.Find("validate").Find("sweep") != nil {
		t.Error("validate sweeps again instead of judging the reported analysis")
	}

	if a.Duration <= 0 {
		t.Error("Assessment.Duration not populated")
	}
	if rootDur := a.Trace.DurUS; a.Duration.Microseconds() != rootDur {
		t.Errorf("Duration %dus != root span %dus", a.Duration.Microseconds(), rootDur)
	}

	if a.Metrics == nil {
		t.Fatal("no metrics snapshot on assessment")
	}
	if a.Metrics.Counters["sweep.scenarios"] == 0 {
		t.Errorf("metrics = %+v", a.Metrics.Counters)
	}
	if a.Metrics.Counters["cegar.levels"] != 1 {
		t.Errorf("cegar.levels = %d, want 1", a.Metrics.Counters["cegar.levels"])
	}

	rep := a.Render()
	for _, want := range []string{"assessed in", "TIMING", "METRICS", "sweep.scenarios"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestRunUntracedHasNoObservabilityOutput pins the inverse: with no
// trace or registry configured the assessment carries no snapshots and
// the report stays free of the observability sections, while Duration
// is still populated from the wall clock.
func TestRunUntracedHasNoObservabilityOutput(t *testing.T) {
	cfg := caseStudyConfig()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Trace != nil || a.Metrics != nil {
		t.Error("untraced run produced observability snapshots")
	}
	if a.Duration <= 0 {
		t.Error("Assessment.Duration not populated")
	}
	rep := a.Render()
	if strings.Contains(rep, "TIMING") || strings.Contains(rep, "METRICS") {
		t.Error("untraced report carries observability sections")
	}
}
