package cegar

import (
	"testing"

	"cpsrisk/internal/plant"
)

func TestSuggestRefinements(t *testing.T) {
	ls := levels(t)
	res, err := RunParallel(ls, NewPlantOracle(), -1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	spurious := res.Spurious()
	if len(spurious) == 0 {
		t.Fatal("expected spurious findings on the fine level")
	}
	suggestions, err := SuggestRefinements(ls[1].Engine, spurious)
	if err != nil {
		t.Fatal(err)
	}
	if len(suggestions) == 0 {
		t.Fatal("no suggestions")
	}
	// Ordered by implication count descending.
	for i := 1; i < len(suggestions); i++ {
		if suggestions[i-1].SpuriousFindings < suggestions[i].SpuriousFindings {
			t.Fatalf("ordering broken: %+v", suggestions)
		}
	}
	// The spurious findings all stem from the stuck output valve: it (or
	// its neighborhood) must be implicated.
	found := false
	for _, s := range suggestions {
		if s.Component == plant.CompOutValve {
			found = true
			if s.SpuriousFindings < 1 {
				t.Errorf("output valve count = %d", s.SpuriousFindings)
			}
		}
	}
	if !found {
		t.Errorf("output valve not implicated: %+v", suggestions)
	}
}

func TestSuggestRefinementsEmpty(t *testing.T) {
	ls := levels(t)
	suggestions, err := SuggestRefinements(ls[1].Engine, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(suggestions) != 0 {
		t.Fatalf("suggestions = %v", suggestions)
	}
}
