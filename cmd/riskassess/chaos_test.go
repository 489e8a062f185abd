package main

import (
	"bytes"
	"encoding/json"
	"io"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"cpsrisk/internal/faultinject"
)

// stripNondeterministic removes the report lines that carry wall-clock
// numbers or run provenance — everything else must be byte-identical
// across crashed-and-resumed runs.
func stripNondeterministic(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		switch {
		case strings.Contains(line, "sweep:"),
			strings.Contains(line, "assessed in"),
			strings.Contains(line, "retries:"),
			strings.Contains(line, "resumed from checkpoint"):
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

func assertNoTmpFiles(t *testing.T, dir string) {
	t.Helper()
	_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".tmp") {
			t.Errorf("stray temp file %s", path)
		}
		return nil
	})
}

// TestChaosResumeMatchesBaseline is the end-to-end chaos gate: crash the
// CLI sweep via the env-armed injector, resume with the same checkpoint
// directory, and demand the report match an undisturbed baseline.
func TestChaosResumeMatchesBaseline(t *testing.T) {
	base := []string{
		"-model", "../../models/sme-plant.json",
		"-types", "../../models/types.json",
		"-maxcard", "2",
		"-parallel", "4",
	}
	var baseline bytes.Buffer
	if err := run(base, &baseline); err != nil {
		t.Fatal(err)
	}
	want := stripNondeterministic(baseline.String())

	for _, spec := range []string{
		faultinject.SiteEPARun + "=panic@9",
		faultinject.SiteEPARun + "=err@5",
		faultinject.SiteEPARun + "=cancel@13",
		faultinject.SiteCheckpointWrite + "=torn@1",
	} {
		t.Run(spec, func(t *testing.T) {
			dir := t.TempDir()
			args := append(append([]string(nil), base...), "-checkpoint", dir)

			// Run 1: crash (or degrade — cancel truncates instead of
			// erroring). Either way no temp files may survive.
			t.Setenv(faultinject.EnvSpec, spec)
			t.Setenv(faultinject.EnvSeed, "1")
			_ = run(args, io.Discard)
			assertNoTmpFiles(t, dir)

			// Run 2: clean resume, identical report.
			t.Setenv(faultinject.EnvSpec, "")
			var out bytes.Buffer
			if err := run(args, &out); err != nil {
				t.Fatalf("resume failed: %v", err)
			}
			if got := stripNondeterministic(out.String()); got != want {
				t.Fatalf("resumed report diverged from baseline:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
			assertNoTmpFiles(t, dir)
		})
	}
}

// TestResumeProvenanceInOutputs: a resumed, still budget-capped run
// stamps its provenance into both the text report and the JSON summary.
func TestResumeProvenanceInOutputs(t *testing.T) {
	// The cap charges executed scenarios only, so each resumed run
	// advances the frontier by 5. The pruned sweep executes 17 of the 56
	// rows here; 3 runs cover 15 < 17, keeping the third run truncated.
	dir := t.TempDir()
	base := []string{
		"-model", "../../models/sme-plant.json",
		"-types", "../../models/types.json",
		"-maxcard", "2",
		"-checkpoint", dir,
		"-max-scenarios", "5",
	}
	if err := run(base, io.Discard); err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := run(base, &text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "resumed from checkpoint at rank") {
		t.Fatalf("text report lacks resume provenance:\n%s", text.String())
	}

	var jsonOut bytes.Buffer
	if err := run(append(base, "-json"), &jsonOut); err != nil {
		t.Fatal(err)
	}
	var sum struct {
		Sweep *struct {
			ResumedFromRank int `json:"resumedFromRank"`
		} `json:"sweep"`
		Degradation []struct {
			Detail string `json:"detail"`
		} `json:"degradation"`
	}
	if err := json.Unmarshal(jsonOut.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Sweep == nil || sum.Sweep.ResumedFromRank == 0 {
		t.Fatalf("JSON summary lacks resume provenance: %+v", sum.Sweep)
	}
	found := false
	for _, d := range sum.Degradation {
		if strings.Contains(d.Detail, "resumed from checkpoint at rank") {
			found = true
		}
	}
	if !found {
		t.Fatalf("JSON degradation detail lacks resume provenance: %+v", sum.Degradation)
	}
}
