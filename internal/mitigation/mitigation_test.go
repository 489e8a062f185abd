package mitigation

import (
	"testing"

	"cpsrisk/internal/epa"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/kb"
	"cpsrisk/internal/qual"
)

func mut(comp, fault string, sources ...string) faults.Mutation {
	return faults.Mutation{
		Activation: epa.Activation{Component: comp, Fault: fault},
		Sources:    sources,
		Likelihood: qual.Medium,
	}
}

func TestSourceBlockers(t *testing.T) {
	k := kb.MustDefaultKB()
	if got := SourceBlockers(k, SpontaneousSource); got != nil {
		t.Errorf("spontaneous blockers = %v", got)
	}
	got := SourceBlockers(k, "T-1566")
	if len(got) != 1 || got[0] != "M-0917" {
		t.Errorf("T-1566 blockers = %v", got)
	}
	got = SourceBlockers(k, "V-2023-0102")
	if len(got) != 2 {
		t.Errorf("vuln blockers = %v", got)
	}
	if got := SourceBlockers(k, "nonsense"); got != nil {
		t.Errorf("unknown source blockers = %v", got)
	}
}

func TestBlockedAllSourcesSemantics(t *testing.T) {
	k := kb.MustDefaultKB()
	// Compromise reachable via spearphishing (M-0917) AND drive-by
	// (M-0949/M-0951): blocking only one source leaves the fault
	// potential.
	m := mut("ews", "compromised", "T-1566", "T-1189")
	if Blocked(k, m, map[string]bool{"M-0917": true}) {
		t.Error("blocking one of two paths must not block the mutation")
	}
	if !Blocked(k, m, map[string]bool{"M-0917": true, "M-0949": true}) {
		t.Error("blocking every path must block the mutation")
	}
	// A spontaneous source is never blockable.
	sp := mut("valve", "stuck_at_open", SpontaneousSource)
	if Blocked(k, sp, map[string]bool{"M-0917": true, "M-0949": true}) {
		t.Error("spontaneous faults are unblockable")
	}
	mixed := mut("ews", "compromised", "T-1566", SpontaneousSource)
	if Blocked(k, mixed, map[string]bool{"M-0917": true}) {
		t.Error("a spontaneous path keeps the fault potential")
	}
	if Blocked(k, faults.Mutation{Activation: epa.Activation{Component: "x", Fault: "f"}}, nil) {
		t.Error("sourceless mutation must not be considered blocked")
	}
}

func TestFilterListing1Semantics(t *testing.T) {
	// Paper Listing 1: with the mitigation active, the fault is no longer
	// potential and drops from the evaluation.
	k := kb.MustDefaultKB()
	muts := []faults.Mutation{
		mut("ews", "compromised", "T-1566"),
		mut("valve", "stuck_at_open", SpontaneousSource),
	}
	remaining := Filter(k, muts, map[string]bool{"M-0917": true})
	if len(remaining) != 1 || remaining[0].Component != "valve" {
		t.Fatalf("remaining = %v", remaining)
	}
	// Without mitigations everything stays.
	if got := Filter(k, muts, nil); len(got) != 2 {
		t.Fatalf("unfiltered = %v", got)
	}
}

func TestRelevantAndCoverage(t *testing.T) {
	k := kb.MustDefaultKB()
	muts := []faults.Mutation{
		mut("ews", "compromised", "T-1566", "T-1189"),
		mut("panel", "no_signal", "T-0814"),
		mut("valve", "stuck_at_open", SpontaneousSource),
	}
	rel := Relevant(k, muts)
	ids := map[string]bool{}
	for _, m := range rel {
		ids[m.ID] = true
	}
	for _, want := range []string{"M-0917", "M-0949", "M-0951", "M-0815", "M-0930"} {
		if !ids[want] {
			t.Errorf("relevant missing %s: %v", want, ids)
		}
	}
	cov := Coverage(k, muts)
	if len(cov["M-0917"]) != 1 || cov["M-0917"][0].Component != "ews" {
		t.Errorf("coverage M-0917 = %v", cov["M-0917"])
	}
	if len(cov["M-0930"]) != 1 || cov["M-0930"][0].Component != "panel" {
		t.Errorf("coverage M-0930 = %v", cov["M-0930"])
	}
}

func TestLossWeightsOrdered(t *testing.T) {
	prev := -1
	for l := qual.VeryLow; l <= qual.VeryHigh; l++ {
		w, ok := LossWeights[l]
		if !ok {
			t.Fatalf("missing weight for level %v", l)
		}
		if w <= prev {
			t.Fatalf("weights not strictly increasing at %v", l)
		}
		prev = w
	}
}
