package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"cpsrisk/internal/core"
)

// goldenPath is where `perfbench golden` writes the reference digests,
// relative to the repository root; the build embeds the file.
const goldenPath = "perfbench/golden.json"

//go:embed golden.json
var goldenJSON []byte

// digests maps each report section (scenarios, refinement, plan, phases,
// ...) to the SHA-256 of its canonical JSON.
type digests map[string]string

// goldenSet holds the reference digests: one entry per CLI workload and
// one per tenant-edits catalogue model.
type goldenSet struct {
	PlanASP     digests            `json:"plan-asp"`
	SweepStar   digests            `json:"sweep-star"`
	TenantEdits map[string]digests `json:"tenant-edits"`
}

func loadGolden() (*goldenSet, error) {
	var g goldenSet
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	if len(g.PlanASP) == 0 || len(g.SweepStar) == 0 || len(g.TenantEdits) != len(catalogue) {
		return nil, fmt.Errorf("golden digests are incomplete; regenerate with `perfbench golden`")
	}
	return &g, nil
}

// summaryDigests digests each report section of s that must match
// between paths computing the same assessment; effort statistics, wall
// time, the cache resolution stamp and the correlation ID are left out.
// Empty sections are skipped, so a section the JSON encoding omits and
// one written as empty compare equal.
func summaryDigests(s *core.Summary) (digests, error) {
	out := digests{}
	for name, v := range map[string]any{
		"model":         s.Model,
		"candidates":    s.Candidates,
		"compromisable": s.Compromisable,
		"scenarios":     s.Scenarios,
		"plan":          s.Plan,
		"refinement":    s.Refinement,
		"degradation":   s.Degradation,
	} {
		canon, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("encode report section %s: %w", name, err)
		}
		switch string(canon) {
		case "null", "[]", "{}":
			continue
		}
		out[name] = sha256Hex(canon)
	}
	return out, nil
}

// reportDigests digests a JSON report summary as the CLI's -json and the
// service's /report emit it.
func reportDigests(body []byte) (digests, error) {
	var s core.Summary
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, fmt.Errorf("decode report: %w", err)
	}
	return summaryDigests(&s)
}

// assessmentDigests digests an in-process assessment: its report summary
// plus the optimizer's phases, which the summary does not carry.
func assessmentDigests(a *core.Assessment) (digests, error) {
	d, err := summaryDigests(a.Summarize())
	if err != nil {
		return nil, err
	}
	if len(a.Phases) > 0 {
		canon, err := json.Marshal(a.Phases)
		if err != nil {
			return nil, err
		}
		d["phases"] = sha256Hex(canon)
	}
	return d, nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// compare reports the first section where got differs from want.
func (want digests) compare(got digests) error {
	keys := make([]string, 0, len(want)+len(got))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want[k] != got[k] {
			return fmt.Errorf("report section %q differs from the golden reference", k)
		}
	}
	return nil
}

// generateGolden writes the reference digests to goldenPath.
func generateGolden() error {
	g, err := computeGolden()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(g); err != nil {
		return err
	}
	return os.WriteFile(goldenPath, buf.Bytes(), 0o644)
}

// computeGolden computes every reference report with the exhaustive
// sequential native sweep (no pruning, one worker, no caches) and
// digests it.
func computeGolden() (*goldenSet, error) {
	g := &goldenSet{TenantEdits: map[string]digests{}}
	var err error
	if g.PlanASP, err = runDigests(referenceConfig(newPlanInputs().config())); err != nil {
		return nil, fmt.Errorf("plan-asp: %w", err)
	}
	if g.SweepStar, err = runDigests(referenceConfig(newStarInputs().config())); err != nil {
		return nil, fmt.Errorf("sweep-star: %w", err)
	}
	tin, err := newTenantInputs()
	if err != nil {
		return nil, err
	}
	for v, entry := range catalogue {
		// The rev attribute every tenant edit carries must not change the
		// report: check two values agree before trusting one digest for
		// every rev the run submits.
		var first digests
		for _, rev := range []int{0, 1} {
			cfg, err := tin.config(tin.document(v, rev))
			if err != nil {
				return nil, fmt.Errorf("tenant-edits %s: %w", entry.name, err)
			}
			d, err := runDigests(referenceConfig(cfg))
			if err != nil {
				return nil, fmt.Errorf("tenant-edits %s: %w", entry.name, err)
			}
			if first == nil {
				first = d
			} else if err := first.compare(d); err != nil {
				return nil, fmt.Errorf("tenant-edits %s: rev attribute changes the report: %w", entry.name, err)
			}
		}
		g.TenantEdits[entry.name] = first
	}
	return g, nil
}

// referenceConfig turns a workload configuration into the independent
// reference path: the native engine, no pruning and one worker. The
// workload configurations set no caches.
func referenceConfig(cfg core.Config) core.Config {
	cfg.UseASP = false
	cfg.NoPrune = true
	cfg.Parallelism = 1
	return cfg
}

func runDigests(cfg core.Config) (digests, error) {
	a, err := core.Run(cfg)
	if err != nil {
		return nil, err
	}
	if a.Degradation.Degraded() {
		return nil, fmt.Errorf("reference run degraded: %v", a.Degradation.Truncations)
	}
	return assessmentDigests(a)
}
