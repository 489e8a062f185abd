package solver

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cpsrisk/internal/logic"
)

// diffGround describes the first difference between two ground
// programs, or returns "" when they are equal: the same atoms with the
// same IDs and internal flags, the same rules in the same order, and the
// same minimize elements.
func diffGround(got, want *GroundProgram) string {
	if !reflect.DeepEqual(got.names, want.names) {
		return fmt.Sprintf("atoms differ:\n got  %v\n want %v", got.names, want.names)
	}
	if !reflect.DeepEqual(got.internal, want.internal) {
		return fmt.Sprintf("internal flags differ:\n got  %v\n want %v", got.internal, want.internal)
	}
	if len(got.Rules) != len(want.Rules) {
		return fmt.Sprintf("%d rules, want %d:\n got\n%s\n want\n%s", len(got.Rules), len(want.Rules), got, want)
	}
	for i := range got.Rules {
		if !reflect.DeepEqual(got.Rules[i], want.Rules[i]) {
			return fmt.Sprintf("rule %d differs:\n got  %+v (%s)\n want %+v (%s)", i,
				got.Rules[i], got.ruleString(got.Rules[i]), want.Rules[i], want.ruleString(want.Rules[i]))
		}
	}
	if !reflect.DeepEqual(got.Minimize, want.Minimize) {
		return fmt.Sprintf("minimize differs:\n got  %+v\n want %+v", got.Minimize, want.Minimize)
	}
	return ""
}

// checkGroundersAgree grounds prog with the compiled grounder and with
// the reference grounder, single-shot and as a session base program, and
// fails unless both give the same ground program or the same error. The
// single-shot pass also checks the claim the compiled plans rest on:
// every join over a rule body selects the same element at the same depth
// on every path, and that order is the compiled plan's.
func checkGroundersAgree(t *testing.T, prog *logic.Program) {
	t.Helper()
	type joinKey struct {
		body  *logic.BodyElem
		delta int
	}
	order := map[joinKey][]int{}
	var orderErr string
	refOut, refErr := refGroundObserved(prog, func(body []logic.BodyElem, deltaIdx, depth, idx int) {
		k := joinKey{&body[0], deltaIdx}
		seq := order[k]
		switch {
		case depth < len(seq) && seq[depth] != idx && orderErr == "":
			orderErr = fmt.Sprintf("join over %v (delta %d) selected element %d at depth %d on one path and %d on another",
				body, deltaIdx, seq[depth], depth, idx)
		case depth == len(seq):
			order[k] = append(seq, idx)
		}
	})
	if orderErr != "" {
		t.Fatalf("%s\n%s", orderErr, prog)
	}
	gr, err := groundAll(prog, nil)
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("Ground error %v, reference %v\n%s", err, refErr, prog)
	}
	if err == nil {
		if d := diffGround(gr.out, refOut); d != "" {
			t.Fatalf("Ground differs from the reference: %s\nprogram:\n%s", d, prog)
		}
		for _, rc := range gr.code {
			if len(rc.rule.Body) == 0 {
				continue
			}
			plans := map[int]*joinPlan{-1: rc.full}
			for j, i := range rc.posIdx {
				plans[i] = rc.delta[j]
			}
			for delta, pl := range plans {
				seq := order[joinKey{&rc.rule.Body[0], delta}]
				for d, idx := range seq {
					if d >= len(pl.steps) || pl.steps[d].elem != idx {
						t.Fatalf("rule %s (delta %d): reference join order %v, compiled plan %v\n%s",
							rc.rule, delta, seq, planOrder(pl), prog)
					}
				}
			}
		}
	}

	sess := newSessionGrounder(nil)
	refSess := newRefSessionGrounder(nil)
	_, err = sess.addRules(prog.Rules)
	_, refErr = refSess.addRules(prog.Rules)
	if err == nil && refErr == nil {
		err = sess.groundMinimize(prog.Minimize)
		refErr = refSess.groundMinimize(prog.Minimize)
	}
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("session grounding error %v, reference %v\n%s", err, refErr, prog)
	}
	if err == nil {
		if d := diffGround(sess.out, refSess.out); d != "" {
			t.Fatalf("session grounding differs from the reference: %s\nprogram:\n%s", d, prog)
		}
	}
}

// refGroundObserved is refGround with the join-selection observer set.
func refGroundObserved(prog *logic.Program, onSelect func([]logic.BodyElem, int, int, int)) (*GroundProgram, error) {
	if err := prog.CheckSafety(); err != nil {
		return nil, err
	}
	gr := &refGrounder{
		out:      NewGroundProgram(),
		possible: map[string]*refAtomPool{},
		isPoss:   map[string]bool{},
		seen:     map[string]bool{},
		symIDs:   map[string]int32{},
		termIDs:  map[string]int32{},
		onSelect: onSelect,
	}
	rules, err := expandIntervalFacts(prog.Rules)
	if err != nil {
		return nil, err
	}
	if err := gr.run(rules); err != nil {
		return nil, err
	}
	if err := gr.groundMinimize(prog.Minimize); err != nil {
		return nil, err
	}
	gr.simplifyNegatives()
	return gr.out, nil
}

func planOrder(pl *joinPlan) []int {
	out := make([]int, len(pl.steps))
	for i, st := range pl.steps {
		out[i] = st.elem
	}
	return out
}

// groundEdgeCases are programs aimed at the corners of the join: the
// selection's readiness rules, assignments from either side,
// arithmetic and compound patterns, literals joined before their
// arithmetic is evaluable, argument indexes over large pools, choice
// conditions and guards, minimize tuples, and grounding errors.
var groundEdgeCases = []string{
	`d(1..12). p(X,Y) :- d(X), Y = X + 1, d(Y). q(Y) :- p(X,Y), X < 5.`,
	`d(1..12). r(X) :- Y = X * 2, d(X), d(Y).`,
	`d(1..12). s(X,Z) :- d(X), Z = X \ 3, Z != 0.`,
	`d(1..9). t(X) :- d(X), X + 1 = Y, d(Y).`,
	`d(1..10). e(1,2). e(2,3). u(X,Y) :- e(X,Y), d(X+Y).`,
	`d(1..10). v(X) :- w(X, X+1). w(1,2). w(2,4). w(3,4).`,
	`d(1..10). f(g(1,a)). f(g(2,b)). f(h(3)). x(N,S) :- f(g(N,S)), d(N).`,
	`c(1..3). { pick(X) : c(X) } 2. y(X) :- pick(X), not pick(X+1).`,
	`c(1..3). k(1). k(2). 1 { sel(X) : c(X), k(X) } :- c(1). z :- sel(1), sel(2).`,
	`c(1..3). { a(X); b(X) : c(X) } :- c(X).`,
	`n(1..4). e(X,X+1) :- n(X), n(X+1). e(4,1). reach(1). reach(Y) :- reach(X), e(X,Y).`,
	`p(1..3). #minimize { X@1,X : p(X); 2@2,t : p(2) }.`,
	`p(1..3). q(2). #minimize { X,Y : p(X), q(Y), X < Y }.`,
	`p(1). q(X) :- p(X), Y = X / 0.`,
	`p(1). q(X) :- p(X), X / 0 > 1.`,
	`p(1). q(X/0) :- p(X).`,
	`p(1..3). q :- p(X), not r(X/0).`,
	`c(1..2). { a(X) : c(X), not c(3) }.`,
	`a(1..20). b(X) :- a(X), a(Y), Y = X + 3, X > 2.`,
	`m(a). m(b). m("A b"). o(X) :- m(X), not m(c). :- o("A b"), o(a).`,
}

// TestGroundMatchesReference compares the compiled grounder with the
// reference grounder on every program of the differential battery, the
// non-tight arm and the edge cases above. The grounder and session tests
// that build programs through mustParse or solve compare them too.
func TestGroundMatchesReference(t *testing.T) {
	check := func(src string) {
		t.Helper()
		prog, err := logic.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, src)
		}
		checkGroundersAgree(t, prog)
	}
	for _, src := range groundEdgeCases {
		check(src)
	}
	rng := rand.New(rand.NewSource(20260806))
	for i := 0; i < 600; i++ {
		check(randomDiffProgram(rng, i))
	}
	rng = rand.New(rand.NewSource(20261019))
	for i := 0; i < nonTightPrograms; i++ {
		check(randomNonTightProgram(rng, i))
	}
}

// TestSessionGroundMatchesReference splits the battery's programs into a
// base and 1-3 deltas, as the incremental differential battery does, and
// compares the session grounder with the reference session grounder
// after every Add: same ground program (retractions compacted), same
// retraction report, same pool size.
func TestSessionGroundMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for i := 0; i < 300; i++ {
		var src string
		if i%3 == 2 {
			src = randomNonTightProgram(rng, i)
		} else {
			src = randomDiffProgram(rng, i)
		}
		prog, err := logic.Parse(src)
		if err != nil {
			t.Fatalf("program %d: parse: %v\n%s", i, err, src)
		}
		chunks := make([][]logic.Rule, 2+rng.Intn(3))
		for _, r := range prog.Rules {
			c := rng.Intn(len(chunks))
			chunks[c] = append(chunks[c], r)
		}
		gr, ref := newSessionGrounder(nil), newRefSessionGrounder(nil)
		for step, rules := range chunks {
			retracted, err := gr.addRules(rules)
			refRetracted, refErr := ref.addRules(rules)
			if fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Fatalf("program %d step %d: error %v, reference %v\n%s", i, step, err, refErr, src)
			}
			if err != nil {
				break
			}
			if retracted != refRetracted || gr.numPossible != ref.numPossible {
				t.Fatalf("program %d step %d: retracted=%v possible=%d, reference %v/%d\n%s",
					i, step, retracted, gr.numPossible, refRetracted, ref.numPossible, src)
			}
			if d := diffGround(gr.out, ref.out); d != "" {
				t.Fatalf("program %d step %d: %s\n%s", i, step, d, src)
			}
		}
	}
}

// TestGroundEdgeCaseErrors pins that the error programs above do fail,
// so their comparison compares errors and not two empty programs.
func TestGroundEdgeCaseErrors(t *testing.T) {
	for _, src := range groundEdgeCases {
		if !strings.Contains(src, "/0") && !strings.Contains(src, "not c(3)") {
			continue
		}
		prog, err := logic.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, src)
		}
		_, gerr := Ground(prog, nil)
		_, serr := NewSession(prog, Options{})
		if gerr == nil || serr == nil {
			t.Errorf("grounding %q: Ground error %v, NewSession error %v; want both to fail", src, gerr, serr)
		}
	}
}
