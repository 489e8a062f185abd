package solver

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"cpsrisk/internal/budget"
	"cpsrisk/internal/logic"
)

// This file keeps the grounder that the compiled join plans replaced, as
// the reference the tests compare Ground and the session grounder with:
// bindings in a logic.Bindings map, unification returning undo closures,
// and the next body element chosen by scanning the body at every join
// step. onSelect, when set, sees every choice the selection makes.

// refGround is the reference Ground.
func refGround(prog *logic.Program, bud *budget.Budget) (*GroundProgram, error) {
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
		bud:      bud,
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

// refAtomPool holds the possible ground atoms of one predicate signature in
// insertion order, plus lazily built per-argument-position indexes
// mapping a ground argument value (its canonical string) to the
// positions of the atoms carrying it. Index lists preserve insertion
// order, so an indexed scan visits atoms in the same order a linear
// scan would — grounding output stays byte-identical.
type refAtomPool struct {
	atoms []logic.Atom
	index []map[string][]int32 // per arg position; nil until first used
}

// refIndexThreshold is the pool size below which a linear scan beats
// building and probing an argument index.
const refIndexThreshold = 8

func (p *refAtomPool) buildIndex(i int) {
	idx := make(map[string][]int32, len(p.atoms))
	for pi, a := range p.atoms {
		k := a.Args[i].String()
		idx[k] = append(idx[k], int32(pi))
	}
	p.index[i] = idx
}

type refGrounder struct {
	out      *GroundProgram
	possible map[string]*refAtomPool // signature -> possible-atom pool
	isPoss   map[string]bool         // atom key -> possible
	delta    map[string][]logic.Atom // frontier of the current iteration
	seen     map[string]bool         // rule-instantiation dedup keys
	minGuard map[string]AtomID       // minimize (prio,weight,tuple) -> guard

	// Instantiation-key interning: per-rule sorted unique variables,
	// symbol/term id tables, and a reusable key buffer so the dedup
	// lookup in the hot instantiation path does not allocate.
	ruleVars [][]string
	symIDs   map[string]int32
	termIDs  map[string]int32
	keyBuf   []byte

	// Incremental (multi-shot session) state: the full rule list persists
	// across addRules calls so old rules re-ground against new frontier
	// atoms; choiceInst maps a choice-rule instantiation key to its
	// emitted rule index so a later delta that grows the possible set can
	// re-emit the instantiation with the full element set and retract the
	// stale one; numPossible counts pool atoms for the reuse statistics.
	incremental bool
	rules       []logic.Rule
	choiceInst  map[string]int
	condSeen    map[AtomID]bool
	retracted   []int
	numPossible int64

	bud      *budget.Budget
	ctxPolls int

	// onSelect, when set, is called for every body element the join
	// selects: the body, the delta position, the number of elements
	// already done, and the selected element.
	onSelect func(body []logic.BodyElem, deltaIdx, depth, idx int)
}

// newRefSessionGrounder creates a persistent refGrounder for a multi-shot
// session: rules accumulate across addRules calls and choice
// instantiations are tracked for growth-driven re-emission.
func newRefSessionGrounder(bud *budget.Budget) *refGrounder {
	return &refGrounder{
		out:         NewGroundProgram(),
		possible:    map[string]*refAtomPool{},
		isPoss:      map[string]bool{},
		seen:        map[string]bool{},
		symIDs:      map[string]int32{},
		termIDs:     map[string]int32{},
		choiceInst:  map[string]int{},
		condSeen:    map[AtomID]bool{},
		incremental: true,
		bud:         bud,
	}
}

// addRules incrementally grounds newRules against the persistent possible
// set: iteration 0 runs only the new rules (against the full pool), then
// the usual semi-naive loop re-grounds ALL rules against the new frontier,
// then choice rules are (re-)emitted — old choice rules only when the pool
// grew, and an instantiation whose element set grew is retracted and
// re-emitted in full. Reports whether any rule was retracted (the caller
// must then rebuild its translation; retracted rules have already been
// compacted away). Unlike single-shot grounding, never-possible negative
// body literals are NOT simplified away: a later delta could make the atom
// possible, and the completion already pins underivable atoms false.
func (gr *refGrounder) addRules(newRules []logic.Rule) (retractedAny bool, err error) {
	newRules, err = expandIntervalFacts(newRules)
	if err != nil {
		return false, err
	}
	base := len(gr.rules)
	gr.rules = append(gr.rules, newRules...)
	for _, r := range newRules {
		vs := r.Vars()
		sort.Strings(vs)
		uniq := vs[:0]
		prev := ""
		for _, v := range vs {
			if v != prev {
				uniq = append(uniq, v)
				prev = v
			}
		}
		gr.ruleVars = append(gr.ruleVars, uniq)
	}
	poolBefore := gr.numPossible
	// Iteration 0: the new rules against the full current possible set.
	gr.delta = map[string][]logic.Atom{}
	next := map[string][]logic.Atom{}
	for i, r := range newRules {
		if err := gr.groundRule(base+i, r, -1, next, !r.Choice); err != nil {
			return false, err
		}
	}
	// Semi-naive iterations over all rules with the new frontier; old
	// rules re-fire only for instantiations touching frontier atoms, and
	// instSeen dedup keeps previously emitted instantiations out.
	for len(next) > 0 {
		gr.delta = next
		next = map[string][]logic.Atom{}
		for ri, r := range gr.rules {
			for _, i := range refPositiveIndices(r.Body) {
				if gr.deltaHas(r.Body[i].(logic.Literal).Atom) {
					if err := gr.groundRule(ri, r, i, next, !r.Choice); err != nil {
						return false, err
					}
				}
			}
			if r.Choice && gr.choiceCondInDelta(r) {
				if err := gr.groundRule(ri, r, -1, next, false); err != nil {
					return false, err
				}
			}
		}
	}
	// Choice emission over the stable possible set: new choice rules
	// always; old ones only if the pool grew (their instantiation and
	// element sets are otherwise unchanged).
	gr.delta = map[string][]logic.Atom{}
	poolGrew := gr.numPossible > poolBefore
	for ri, r := range gr.rules {
		if !r.Choice || (ri < base && !poolGrew) {
			continue
		}
		if err := gr.groundChoiceIncremental(ri, r); err != nil {
			return false, err
		}
	}
	if len(gr.retracted) > 0 {
		gr.compactRules()
		return true, nil
	}
	return false, nil
}

// groundChoiceIncremental enumerates a choice rule's body instantiations
// and reconciles each against the previously emitted ground rule (if any)
// via choiceInst — bypassing instSeen, which would hide instantiations
// whose element sets may have grown.
func (gr *refGrounder) groundChoiceIncremental(ri int, r logic.Rule) error {
	next := map[string][]logic.Atom{}
	handle := func(b logic.Bindings) error {
		if err := gr.checkBudget(); err != nil {
			return err
		}
		return gr.emitChoiceInc(ri, r, b, next)
	}
	return gr.join(r.Body, -1, logic.Bindings{}, handle)
}

func (gr *refGrounder) emitChoiceInc(ri int, r logic.Rule, b logic.Bindings, next map[string][]logic.Atom) error {
	key := string(gr.instKey(ri, b))
	if oldIdx, ok := gr.choiceInst[key]; ok {
		n, err := gr.countChoiceInsts(r, b)
		if err != nil {
			return err
		}
		if n == len(gr.out.Rules[oldIdx].Heads) {
			return nil // element set unchanged; the emitted rule stands
		}
		// The possible set grew under this instantiation: retract the
		// stale rule (or empty-choice bound constraint) and re-emit with
		// the full element set. Possible sets only grow, so a changed
		// element count always means growth.
		gr.retracted = append(gr.retracted, oldIdx)
	}
	pos, neg, err := gr.groundBody(r.Body, b)
	if err != nil {
		return err
	}
	before := len(gr.out.Rules)
	if err := gr.emitChoice(r, b, pos, neg, next); err != nil {
		return err
	}
	if len(gr.out.Rules) > before {
		// The choice rule (or its bound constraint) is always emitted
		// last, after any condition-guard support rules.
		gr.choiceInst[key] = len(gr.out.Rules) - 1
	}
	return nil
}

// countChoiceInsts counts the element instantiations of a choice rule
// body instantiation under the current possible set, with no side effects.
func (gr *refGrounder) countChoiceInsts(r logic.Rule, b logic.Bindings) (int, error) {
	n := 0
	for _, e := range r.Elems {
		err := gr.expandChoiceElem(e, b, func(logic.Bindings) error {
			n++
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return n, nil
}

// compactRules splices retracted rules out of the ground program and
// remaps choiceInst indexes. Only called when retractions happened, which
// forces the owning session to rebuild its translation anyway.
func (gr *refGrounder) compactRules() {
	dead := make(map[int]bool, len(gr.retracted))
	for _, i := range gr.retracted {
		dead[i] = true
	}
	remap := make([]int, len(gr.out.Rules))
	kept := gr.out.Rules[:0]
	for i, r := range gr.out.Rules {
		if dead[i] {
			remap[i] = -1
			continue
		}
		remap[i] = len(kept)
		kept = append(kept, r)
	}
	gr.out.Rules = kept
	for k, v := range gr.choiceInst {
		// Retracted entries were overwritten by their re-emission, so no
		// live entry maps to -1; guard anyway.
		if nv := remap[v]; nv >= 0 {
			gr.choiceInst[k] = nv
		} else {
			delete(gr.choiceInst, k)
		}
	}
	gr.retracted = gr.retracted[:0]
}

// checkBudget enforces the grounding-rule cap and polls the context every
// ctxPollInterval instantiations.
func (gr *refGrounder) checkBudget() error {
	if gr.bud == nil {
		return nil
	}
	if maxRules := gr.bud.Limits().MaxGroundRules; maxRules > 0 && len(gr.out.Rules) >= maxRules {
		return &budget.ExhaustedError{
			Stage: "ground", Reason: budget.ReasonGroundRules,
			Detail: fmt.Sprintf("%d ground rules", len(gr.out.Rules)),
		}
	}
	gr.ctxPolls++
	if gr.ctxPolls >= ctxPollInterval {
		gr.ctxPolls = 0
		if err := gr.bud.Err("ground"); err != nil {
			return err
		}
	}
	return nil
}

func (gr *refGrounder) run(rules []logic.Rule) error {
	// Fixpoint phase: compute the possible-atom set. Basic rules are also
	// emitted here (their instantiation is fully determined by the body
	// binding); choice rules only mark their heads possible, because the
	// element conditions must be expanded over the *final* possible set.
	//
	// Iteration 0: all rules against the (initially empty) possible set;
	// rules without positive body literals fire only here.
	gr.ruleVars = make([][]string, len(rules))
	for ri, r := range rules {
		vs := r.Vars()
		sort.Strings(vs)
		uniq := vs[:0]
		prev := ""
		for _, v := range vs {
			if v != prev {
				uniq = append(uniq, v)
				prev = v
			}
		}
		gr.ruleVars[ri] = uniq
	}
	gr.delta = map[string][]logic.Atom{}
	next := map[string][]logic.Atom{}
	for ri, r := range rules {
		if err := gr.groundRule(ri, r, -1, next, !r.Choice); err != nil {
			return err
		}
	}
	// Semi-naive iterations: re-ground rules requiring at least one
	// positive body literal to match the frontier. Choice rules also
	// re-run (with a full join) when an element-condition predicate grew.
	for len(next) > 0 {
		gr.delta = next
		next = map[string][]logic.Atom{}
		for ri, r := range rules {
			for _, i := range refPositiveIndices(r.Body) {
				if gr.deltaHas(r.Body[i].(logic.Literal).Atom) {
					if err := gr.groundRule(ri, r, i, next, !r.Choice); err != nil {
						return err
					}
				}
			}
			if r.Choice && gr.choiceCondInDelta(r) {
				if err := gr.groundRule(ri, r, -1, next, false); err != nil {
					return err
				}
			}
		}
	}
	// Emission phase for choice rules, over the stable possible set.
	gr.delta = map[string][]logic.Atom{}
	for ri, r := range rules {
		if !r.Choice {
			continue
		}
		if err := gr.groundRule(ri, r, -1, next, true); err != nil {
			return err
		}
	}
	return nil
}

func (gr *refGrounder) choiceCondInDelta(r logic.Rule) bool {
	for _, e := range r.Elems {
		for _, c := range e.Cond {
			if gr.deltaHas(c.Atom) {
				return true
			}
		}
	}
	return false
}

func refPositiveIndices(body []logic.BodyElem) []int {
	var out []int
	for i, b := range body {
		if lit, ok := b.(logic.Literal); ok && !lit.Negated {
			out = append(out, i)
		}
	}
	return out
}

func (gr *refGrounder) deltaHas(a logic.Atom) bool {
	return len(gr.delta[a.Signature()]) > 0
}

// groundRule enumerates instantiations of rule ri. If deltaIdx >= 0 that
// positive body literal matches only frontier atoms (semi-naive join).
// When emit is false (choice rules during the fixpoint phase) the
// instantiation only marks head atoms possible.
func (gr *refGrounder) groundRule(ri int, r logic.Rule, deltaIdx int, next map[string][]logic.Atom, emit bool) error {
	handle := func(b logic.Bindings) error {
		if err := gr.checkBudget(); err != nil {
			return err
		}
		if !emit {
			return gr.markChoiceHeads(r, b, next)
		}
		if gr.instSeen(ri, b) {
			return nil
		}
		return gr.emitGround(r, b, next)
	}
	return gr.join(r.Body, deltaIdx, logic.Bindings{}, handle)
}

// markChoiceHeads expands choice elements under the current possible set
// and marks head atoms possible without emitting rules.
func (gr *refGrounder) markChoiceHeads(r logic.Rule, b logic.Bindings, next map[string][]logic.Atom) error {
	for _, e := range r.Elems {
		err := gr.expandChoiceElem(e, b, func(bb logic.Bindings) error {
			h, err := e.Atom.Substitute(bb).Eval()
			if err != nil {
				return err
			}
			gr.markPossible(h, next)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// instSeen canonically identifies a rule instantiation by (rule index,
// interned binding tuple) and records it, reporting whether it was seen
// before. The key is built as binary ids in a reused buffer, so the
// lookup on the already-seen path is allocation-free.
func (gr *refGrounder) instSeen(ri int, b logic.Bindings) bool {
	buf := gr.instKey(ri, b)
	if gr.seen[string(buf)] {
		return true
	}
	gr.seen[string(buf)] = true
	return false
}

// instKey builds the canonical (rule index, interned binding tuple) key in
// the reused buffer and returns it; the buffer is invalidated by the next
// instKey call.
func (gr *refGrounder) instKey(ri int, b logic.Bindings) []byte {
	buf := gr.keyBuf[:0]
	buf = binary.AppendUvarint(buf, uint64(ri))
	for _, v := range gr.ruleVars[ri] {
		t, ok := b[v]
		if !ok {
			buf = append(buf, 0)
			continue
		}
		switch tt := t.(type) {
		case logic.Number:
			buf = append(buf, 1)
			buf = binary.AppendVarint(buf, int64(tt.Value))
		case logic.Symbol:
			buf = append(buf, 2)
			buf = binary.AppendUvarint(buf, uint64(internID(gr.symIDs, tt.Name)))
		default:
			buf = append(buf, 3)
			buf = binary.AppendUvarint(buf, uint64(internID(gr.termIDs, t.String())))
		}
	}
	gr.keyBuf = buf
	return buf
}

// join enumerates bindings satisfying the body: positive literals match
// possible atoms (structural unification), comparisons test or assign.
// Negative literals are skipped here (handled at emission). Elements are
// selected dynamically so arithmetic becomes evaluable as bindings grow.
func (gr *refGrounder) join(body []logic.BodyElem, deltaIdx int, b logic.Bindings, emit func(logic.Bindings) error) error {
	done := make([]bool, len(body))
	return gr.joinStep(body, deltaIdx, done, b, emit)
}

func (gr *refGrounder) joinStep(body []logic.BodyElem, deltaIdx int, done []bool, b logic.Bindings, emit func(logic.Bindings) error) error {
	// Pick the next ready element; prefer the delta literal first so the
	// semi-naive restriction prunes early, then comparisons (cheap filters),
	// then other positive literals.
	idx := -1
	// Selection order: ready comparisons (cheap filters), then the delta
	// literal if its arithmetic arguments are evaluable, then any other
	// ready positive literal, then unready positive literals as a last
	// resort (their arithmetic arguments cannot match yet).
	for i, e := range body {
		if done[i] {
			continue
		}
		if cmp, ok := e.(logic.Comparison); ok && refCmpReady(cmp, b) {
			idx = i
			break
		}
	}
	if idx < 0 && deltaIdx >= 0 && !done[deltaIdx] &&
		refLitReady(body[deltaIdx].(logic.Literal), b) {
		idx = deltaIdx
	}
	if idx < 0 {
		for i, e := range body {
			if done[i] {
				continue
			}
			if lit, ok := e.(logic.Literal); ok && !lit.Negated && refLitReady(lit, b) {
				idx = i
				break
			}
		}
	}
	if idx < 0 && deltaIdx >= 0 && !done[deltaIdx] {
		idx = deltaIdx
	}
	if idx < 0 {
		for i, e := range body {
			if done[i] {
				continue
			}
			if lit, ok := e.(logic.Literal); ok && !lit.Negated {
				idx = i
				break
			}
		}
	}
	if idx < 0 {
		// Only negative literals and (by safety) no unready comparisons
		// remain — check that indeed nothing is pending.
		for i, e := range body {
			if done[i] {
				continue
			}
			if cmp, ok := e.(logic.Comparison); ok {
				return fmt.Errorf("solver: comparison %s has unbound variables after join", cmp.Substitute(b))
			}
		}
		return emit(b)
	}
	if gr.onSelect != nil {
		depth := 0
		for _, d := range done {
			if d {
				depth++
			}
		}
		gr.onSelect(body, deltaIdx, depth, idx)
	}
	done[idx] = true
	defer func() { done[idx] = false }()

	switch e := body[idx].(type) {
	case logic.Comparison:
		cmp := e.Substitute(b)
		if v, t, ok := refAssignment(cmp); ok {
			val, err := logic.Eval(t)
			if err != nil {
				return err
			}
			b[v] = val
			err = gr.joinStep(body, deltaIdx, done, b, emit)
			delete(b, v)
			return err
		}
		holds, err := cmp.Holds()
		if err != nil {
			return err
		}
		if !holds {
			return nil
		}
		return gr.joinStep(body, deltaIdx, done, b, emit)
	case logic.Literal:
		step := func(cand logic.Atom) error {
			bound, undo := refUnifyAtom(e.Atom, cand, b)
			if bound {
				if err := gr.joinStep(body, deltaIdx, done, b, emit); err != nil {
					undo(b)
					return err
				}
			}
			undo(b)
			return nil
		}
		if idx == deltaIdx {
			// Delta frontiers are small: always scan linearly.
			for _, cand := range gr.delta[e.Atom.Signature()] {
				if err := step(cand); err != nil {
					return err
				}
			}
			return nil
		}
		p := gr.possible[e.Atom.Signature()]
		if p == nil {
			return nil
		}
		if cands, ok := gr.poolCandidates(p, e.Atom, b); ok {
			for _, pi := range cands {
				if err := step(p.atoms[pi]); err != nil {
					return err
				}
			}
			return nil
		}
		for _, cand := range p.atoms {
			if err := step(cand); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("solver: unknown body element %T", e)
	}
}

// poolCandidates narrows a possible-atom pool using the argument indexes:
// every pattern argument that is ground under b probes its position
// index, and the shortest candidate list wins. It reports ok=false when
// no argument is ground (or the pool is too small to bother), in which
// case the caller falls back to a linear scan. Candidate lists are in
// insertion order, so the visit order matches the linear scan exactly.
func (gr *refGrounder) poolCandidates(p *refAtomPool, pattern logic.Atom, b logic.Bindings) ([]int32, bool) {
	if len(p.atoms) < refIndexThreshold {
		return nil, false
	}
	var best []int32
	found := false
	for i, arg := range pattern.Args {
		sub := arg.Substitute(b)
		if !sub.Ground() {
			continue
		}
		ev, err := logic.Eval(sub)
		if err != nil {
			// Unevaluable ground argument (e.g. an interval): unification
			// rejects every candidate, so there is nothing to visit.
			return nil, true
		}
		if p.index[i] == nil {
			p.buildIndex(i)
		}
		cands := p.index[i][ev.String()]
		if !found || len(cands) < len(best) {
			best, found = cands, true
		}
		if len(best) == 0 {
			break
		}
	}
	return best, found
}

func refCmpReady(c logic.Comparison, b logic.Bindings) bool {
	sub := c.Substitute(b)
	if _, _, ok := refAssignment(sub); ok {
		return true
	}
	return sub.Left.Ground() && sub.Right.Ground()
}

// refLitReady reports whether all arithmetic sub-terms of the literal's
// arguments are evaluable under b, so unification against ground atoms can
// succeed. Plain variables and compounds of them are always matchable.
func refLitReady(lit logic.Literal, b logic.Bindings) bool {
	for _, arg := range lit.Atom.Args {
		if !refTermMatchReady(arg.Substitute(b)) {
			return false
		}
	}
	return true
}

func refTermMatchReady(t logic.Term) bool {
	switch tt := t.(type) {
	case logic.BinOp:
		return tt.Ground()
	case logic.Compound:
		for _, a := range tt.Args {
			if !refTermMatchReady(a) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// refAssignment recognizes V = expr / expr = V with a single unbound variable.
func refAssignment(c logic.Comparison) (string, logic.Term, bool) {
	if c.Op != logic.CmpEq {
		return "", nil, false
	}
	if v, ok := c.Left.(logic.Variable); ok && c.Right.Ground() {
		return v.Name, c.Right, true
	}
	if v, ok := c.Right.(logic.Variable); ok && c.Left.Ground() {
		return v.Name, c.Left, true
	}
	return "", nil, false
}

// refUnifyAtom structurally unifies pattern (under bindings b) against a
// ground atom, extending b in place. It returns whether unification
// succeeded and an undo function restoring b.
func refUnifyAtom(pattern, ground logic.Atom, b logic.Bindings) (bool, func(logic.Bindings)) {
	if pattern.Pred != ground.Pred || len(pattern.Args) != len(ground.Args) {
		return false, func(logic.Bindings) {}
	}
	var added []string
	undo := func(bb logic.Bindings) {
		for _, v := range added {
			delete(bb, v)
		}
	}
	for i := range pattern.Args {
		ok, vs := refUnifyTerm(pattern.Args[i], ground.Args[i], b)
		added = append(added, vs...)
		if !ok {
			return false, undo
		}
	}
	return true, undo
}

func refUnifyTerm(pat logic.Term, ground logic.Term, b logic.Bindings) (bool, []string) {
	switch p := pat.(type) {
	case logic.Variable:
		if bound, ok := b[p.Name]; ok {
			return logic.Compare(bound, ground) == 0, nil
		}
		b[p.Name] = ground
		return true, []string{p.Name}
	case logic.Symbol, logic.Number:
		return logic.Compare(pat, ground) == 0, nil
	case logic.Compound:
		g, ok := ground.(logic.Compound)
		if !ok || g.Functor != p.Functor || len(g.Args) != len(p.Args) {
			return false, nil
		}
		var added []string
		for i := range p.Args {
			ok, vs := refUnifyTerm(p.Args[i], g.Args[i], b)
			added = append(added, vs...)
			if !ok {
				return false, added
			}
		}
		return true, added
	case logic.BinOp:
		sub := p.Substitute(b)
		if !sub.Ground() {
			return false, nil
		}
		v, err := logic.Eval(sub)
		if err != nil {
			return false, nil
		}
		return logic.Compare(v, ground) == 0, nil
	default:
		return false, nil
	}
}

// emitGround materializes one rule instantiation into the ground program
// and records newly possible head atoms in next.
func (gr *refGrounder) emitGround(r logic.Rule, b logic.Bindings, next map[string][]logic.Atom) error {
	pos, neg, err := gr.groundBody(r.Body, b)
	if err != nil {
		return err
	}
	if r.Choice {
		return gr.emitChoice(r, b, pos, neg, next)
	}
	var head AtomID
	if r.Head != nil {
		h, err := r.Head.Substitute(b).Eval()
		if err != nil {
			return err
		}
		head = gr.out.AtomIDFor(h.Key())
		gr.markPossible(h, next)
	}
	gr.out.AddBasic(head, pos, neg)
	return nil
}

func (gr *refGrounder) groundBody(body []logic.BodyElem, b logic.Bindings) (pos, neg []AtomID, err error) {
	for _, e := range body {
		lit, ok := e.(logic.Literal)
		if !ok {
			continue // comparisons already verified during the join
		}
		atom, err := lit.Atom.Substitute(b).Eval()
		if err != nil {
			return nil, nil, err
		}
		id := gr.out.AtomIDFor(atom.Key())
		if lit.Negated {
			neg = append(neg, id)
		} else {
			pos = append(pos, id)
		}
	}
	return pos, neg, nil
}

func (gr *refGrounder) emitChoice(r logic.Rule, b logic.Bindings, pos, neg []AtomID, next map[string][]logic.Atom) error {
	var heads, conds []AtomID
	for _, e := range r.Elems {
		for _, c := range e.Cond {
			if c.Negated {
				return fmt.Errorf("solver: negated choice-element condition %s is not supported", c)
			}
		}
		err := gr.expandChoiceElem(e, b, func(bb logic.Bindings) error {
			h, err := e.Atom.Substitute(bb).Eval()
			if err != nil {
				return err
			}
			hid := gr.out.AtomIDFor(h.Key())
			gr.markPossible(h, next)
			var guard AtomID
			if len(e.Cond) > 0 {
				guard, err = gr.condGuard(e.Cond, bb)
				if err != nil {
					return err
				}
			}
			heads = append(heads, hid)
			conds = append(conds, guard)
			return nil
		})
		if err != nil {
			return err
		}
	}
	if len(heads) == 0 {
		// An empty choice with a lower bound > 0 is unsatisfiable when the
		// body holds.
		if r.Lower != logic.Unbounded && r.Lower > 0 {
			gr.out.AddConstraint(pos, neg)
		}
		return nil
	}
	gr.out.AddChoice(heads, conds, r.Lower, r.Upper, pos, neg)
	return nil
}

// expandChoiceElem joins the element's positive conditions over possible
// atoms, invoking fn per condition instantiation (once if no conditions).
func (gr *refGrounder) expandChoiceElem(e logic.ChoiceElem, b logic.Bindings, fn func(logic.Bindings) error) error {
	if len(e.Cond) == 0 {
		return fn(b)
	}
	body := make([]logic.BodyElem, len(e.Cond))
	for i, c := range e.Cond {
		body[i] = c
	}
	return gr.join(body, -1, b, fn)
}

// condGuard interns a guard atom equivalent to the conjunction of the
// (ground) condition literals. Single positive conditions reuse the
// condition atom itself.
func (gr *refGrounder) condGuard(cond []logic.Literal, b logic.Bindings) (AtomID, error) {
	if len(cond) == 1 && !cond[0].Negated {
		atom, err := cond[0].Atom.Substitute(b).Eval()
		if err != nil {
			return 0, err
		}
		return gr.out.AtomIDFor(atom.Key()), nil
	}
	var pos []AtomID
	keys := make([]string, 0, len(cond))
	for _, c := range cond {
		atom, err := c.Atom.Substitute(b).Eval()
		if err != nil {
			return 0, err
		}
		pos = append(pos, gr.out.AtomIDFor(atom.Key()))
		keys = append(keys, atom.Key())
	}
	guard := gr.out.AtomIDFor("__cond(" + strings.Join(keys, ",") + ")")
	gr.out.internal[int(guard)-1] = true
	if gr.incremental {
		// Re-emission after choice growth revisits old elements; the
		// guard's support rule is identical (the key encodes the
		// conjunction), so emit it once per session.
		if gr.condSeen[guard] {
			return guard, nil
		}
		gr.condSeen[guard] = true
	}
	gr.out.AddBasic(guard, pos, nil)
	return guard, nil
}

func (gr *refGrounder) markPossible(a logic.Atom, next map[string][]logic.Atom) {
	key := a.Key()
	if gr.isPoss[key] {
		return
	}
	gr.isPoss[key] = true
	gr.numPossible++
	sig := a.Signature()
	p := gr.possible[sig]
	if p == nil {
		p = &refAtomPool{index: make([]map[string][]int32, len(a.Args))}
		gr.possible[sig] = p
	}
	pi := int32(len(p.atoms))
	p.atoms = append(p.atoms, a)
	// Keep any already-built argument indexes current.
	for i, idx := range p.index {
		if idx != nil {
			idx[a.Args[i].String()] = append(idx[a.Args[i].String()], pi)
		}
	}
	next[sig] = append(next[sig], a)
}

// groundMinimize instantiates #minimize elements. Each ground element gets
// a guard atom derived from its condition; elements with equal
// (priority, weight, tuple) share a guard (counted once, like clingo).
func (gr *refGrounder) groundMinimize(elems []logic.MinimizeElem) error {
	gr.minGuard = map[string]AtomID{}
	for _, m := range elems {
		body := m.Cond
		emit := func(b logic.Bindings) error {
			w, err := logic.EvalInt(m.Weight.Substitute(b))
			if err != nil {
				return err
			}
			tuple := make([]string, 0, len(m.Tuple))
			for _, t := range m.Tuple {
				et, err := logic.Eval(t.Substitute(b))
				if err != nil {
					return err
				}
				tuple = append(tuple, et.String())
			}
			tupleKey := strings.Join(tuple, ",")
			pos, neg, err := gr.groundBody(body, b)
			if err != nil {
				return err
			}
			dedupKey := fmt.Sprintf("%d@%d[%s]", w, m.Priority, tupleKey)
			guard, ok := gr.minGuard[dedupKey]
			if !ok {
				guard = gr.out.NewInternalAtom("min")
				gr.minGuard[dedupKey] = guard
				gr.out.Minimize = append(gr.out.Minimize, GroundMinimize{
					Weight: w, Priority: m.Priority, Tuple: tupleKey, Guard: guard,
				})
			}
			gr.out.AddBasic(guard, pos, neg)
			return nil
		}
		if err := gr.join(body, -1, logic.Bindings{}, emit); err != nil {
			return err
		}
	}
	return nil
}

// simplifyNegatives drops negative body literals whose atom can never be
// derived (not possible): such literals are trivially true.
func (gr *refGrounder) simplifyNegatives() {
	poss := make([]bool, gr.out.NumAtoms()+1)
	for key, ok := range gr.isPoss {
		if !ok {
			continue
		}
		if id, found := gr.out.LookupAtom(key); found {
			poss[id] = true
		}
	}
	// Guard/internal atoms have rules; they are derivable.
	for _, r := range gr.out.Rules {
		if r.Kind == KindBasic && r.Head != 0 {
			poss[r.Head] = true
		}
	}
	for i := range gr.out.Rules {
		r := &gr.out.Rules[i]
		kept := r.Neg[:0]
		for _, n := range r.Neg {
			if poss[n] {
				kept = append(kept, n)
			}
		}
		r.Neg = kept
	}
}
