package solver

import (
	"encoding/binary"
	"fmt"
	"strings"

	"cpsrisk/internal/budget"
	"cpsrisk/internal/logic"
)

// Ground instantiates a logic program into a GroundProgram using semi-naive
// bottom-up evaluation over the over-approximation of derivable atoms
// (negative literals are ignored while computing possibility, so every atom
// of every stable model is instantiated — the same guarantee clingo gives).
// Each rule is compiled once into join plans (joinplan.go).
//
// The budget (nil = unlimited) governs the instantiation: its context is
// polled periodically and MaxGroundRules bounds the emitted ground rules.
// Exceeding either aborts with an *budget.ExhaustedError (stage "ground")
// — a partially grounded program would be unsound to solve, so grounding
// has no partial-result mode; callers degrade by switching engine instead.
func Ground(prog *logic.Program, bud *budget.Budget) (*GroundProgram, error) {
	gr, err := groundAll(prog, bud)
	if err != nil {
		return nil, err
	}
	return gr.out, nil
}

// groundAll is Ground, returning the grounder with its compiled rules.
func groundAll(prog *logic.Program, bud *budget.Budget) (*grounder, error) {
	if err := prog.CheckSafety(); err != nil {
		return nil, err
	}
	gr := newGrounder(bud)
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
	return gr, nil
}

// atomPool holds the possible ground atoms of one predicate signature in
// insertion order with their keys, plus lazily built per-argument-position
// indexes mapping a ground argument value to the positions of the atoms
// carrying it. Index lists preserve insertion order, so an indexed scan
// visits atoms in the same order a linear scan would — grounding output
// stays byte-identical.
//
// The semi-naive frontiers are ranges of atoms: atoms[dLo:dHi] is the
// frontier the current iteration joins against (the atoms the previous
// iteration made possible), and atoms from nLo on are the frontier under
// construction.
type atomPool struct {
	atoms         []logic.Atom
	keys          []string
	index         []map[termKey][]int32 // per arg position; nil until first used
	dLo, dHi, nLo int
}

// termKey identifies an evaluated ground term in an argument index:
// equal keys mean equal terms.
type termKey struct {
	s    string
	n    int
	kind uint8
}

func keyOf(t logic.Term) termKey {
	switch tt := t.(type) {
	case logic.Number:
		return termKey{n: tt.Value}
	case logic.Symbol:
		return termKey{s: tt.Name, kind: 1}
	}
	return termKey{s: t.String(), kind: 2}
}

// indexThreshold is the pool size below which a linear scan beats
// building and probing an argument index.
const indexThreshold = 8

func (p *atomPool) buildIndex(i int) {
	idx := make(map[termKey][]int32, len(p.atoms))
	for pi, a := range p.atoms {
		k := keyOf(a.Args[i])
		idx[k] = append(idx[k], int32(pi))
	}
	p.index[i] = idx
}

type grounder struct {
	out      *GroundProgram
	pools    map[poolKey]*atomPool // signature -> possible-atom pool
	poolList []*atomPool           // the pools in creation order
	isPoss   map[string]bool       // atom key -> possible
	seen     map[string]bool       // rule-instantiation dedup keys
	minGuard map[string]AtomID     // minimize (prio,weight,tuple) -> guard

	// code holds the compiled rules in rule order; a rule's index is its
	// position here.
	code []*ruleCode
	// nextMark is numPossible when the frontier under construction
	// started: the frontier is empty while they are equal.
	nextMark int64

	// Join and emission scratch: the binding trail, the element and the
	// collected heads of the choice rule being emitted, an atom-key
	// buffer and a slab the ground bodies are cut from.
	trail        []int32
	elem         int
	heads, conds []AtomID
	count        int
	atomBuf      []byte
	slab         []AtomID

	// Instantiation-key interning: symbol/term id tables and a reusable
	// key buffer so the dedup lookup in the hot instantiation path does
	// not allocate.
	symIDs  map[string]int32
	termIDs map[string]int32
	keyBuf  []byte

	// Incremental (multi-shot session) state: the compiled rules persist
	// across addRules calls so old rules re-ground against new frontier
	// atoms; choiceInst maps a choice-rule instantiation key to its
	// emitted rule index so a later delta that grows the possible set can
	// re-emit the instantiation with the full element set and retract the
	// stale one; numPossible counts pool atoms for the reuse statistics.
	incremental bool
	choiceInst  map[string]int
	condSeen    map[AtomID]bool
	retracted   []int
	numPossible int64

	bud      *budget.Budget
	ctxPolls int
}

func newGrounder(bud *budget.Budget) *grounder {
	return &grounder{
		out:     NewGroundProgram(),
		pools:   map[poolKey]*atomPool{},
		isPoss:  map[string]bool{},
		seen:    map[string]bool{},
		symIDs:  map[string]int32{},
		termIDs: map[string]int32{},
		bud:     bud,
	}
}

// newSessionGrounder creates a persistent grounder for a multi-shot
// session: rules accumulate across addRules calls and choice
// instantiations are tracked for growth-driven re-emission.
func newSessionGrounder(bud *budget.Budget) *grounder {
	gr := newGrounder(bud)
	gr.choiceInst = map[string]int{}
	gr.condSeen = map[AtomID]bool{}
	gr.incremental = true
	return gr
}

// poolKey is a predicate signature: name and arity.
type poolKey struct {
	pred  string
	arity int
}

// pool returns the possible-atom pool of a's signature, creating it
// empty on first use.
func (gr *grounder) pool(a logic.Atom) *atomPool {
	sig := poolKey{a.Pred, len(a.Args)}
	p := gr.pools[sig]
	if p == nil {
		p = &atomPool{index: make([]map[termKey][]int32, len(a.Args))}
		gr.pools[sig] = p
		gr.poolList = append(gr.poolList, p)
	}
	return p
}

// startFrontier begins an empty frontier under construction.
func (gr *grounder) startFrontier() {
	for _, p := range gr.poolList {
		p.nLo = len(p.atoms)
	}
	gr.nextMark = gr.numPossible
}

// advanceFrontier makes the frontier under construction the one the
// next iteration joins against, and starts a new one.
func (gr *grounder) advanceFrontier() {
	for _, p := range gr.poolList {
		p.dLo, p.dHi = p.nLo, len(p.atoms)
	}
	gr.startFrontier()
}

// clearDelta empties the frontier joined against.
func (gr *grounder) clearDelta() {
	for _, p := range gr.poolList {
		p.dLo, p.dHi = 0, 0
	}
}

func (p *atomPool) hasDelta() bool { return p.dHi > p.dLo }

// emitMode says what a complete binding of a plan does.
type emitMode uint8

const (
	modeEmit      emitMode = iota // emit the rule instantiation, once
	modeMark                      // mark the choice heads possible
	modeChoiceInc                 // reconcile a choice instantiation with its earlier emission
	modeElemMark                  // element of modeMark: mark its atom possible
	modeElemEmit                  // element of emitChoice: collect its head and guard
	modeElemCount                 // element of countChoiceInsts: count it
	modeMinimize                  // emit a #minimize element instantiation
)

// emit handles one complete binding of plan pl of rc.
func (gr *grounder) emit(rc *ruleCode, pl *joinPlan, mode emitMode) error {
	switch mode {
	case modeElemMark:
		_, err := gr.internAtom(rc, rc.elems[gr.elem].atom, false)
		return err
	case modeElemEmit:
		return gr.emitElem(rc, pl)
	case modeElemCount:
		gr.count++
		return nil
	case modeMinimize:
		return gr.emitMinimize(rc, pl)
	}
	if err := gr.checkBudget(); err != nil {
		return err
	}
	switch mode {
	case modeMark:
		return gr.forElems(rc, modeElemMark)
	case modeChoiceInc:
		return gr.emitChoiceInc(rc, pl)
	}
	if gr.instSeen(rc) {
		return nil
	}
	return gr.emitGround(rc, pl)
}

// forElems expands each choice element of rc under the body's bindings:
// once without conditions, else once per condition instantiation.
func (gr *grounder) forElems(rc *ruleCode, mode emitMode) error {
	for i, e := range rc.elems {
		gr.elem = i
		var err error
		if e.plan == nil {
			err = gr.emit(rc, nil, mode)
		} else {
			err = gr.exec(rc, e.plan, 0, mode)
		}
		if err != nil {
			return err
		}
	}
	return nil
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
func (gr *grounder) addRules(newRules []logic.Rule) (retractedAny bool, err error) {
	newRules, err = expandIntervalFacts(newRules)
	if err != nil {
		return false, err
	}
	base := len(gr.code)
	for _, r := range newRules {
		gr.code = append(gr.code, gr.compileRule(r))
	}
	poolBefore := gr.numPossible
	// Iteration 0: the new rules against the full current possible set.
	gr.clearDelta()
	gr.startFrontier()
	for ri := base; ri < len(gr.code); ri++ {
		if err := gr.groundFull(ri, false); err != nil {
			return false, err
		}
	}
	// Semi-naive iterations over all rules with the new frontier; old
	// rules re-fire only for instantiations touching frontier atoms, and
	// instSeen dedup keeps previously emitted instantiations out.
	if err := gr.fixpoint(); err != nil {
		return false, err
	}
	// Choice emission over the stable possible set: new choice rules
	// always; old ones only if the pool grew (their instantiation and
	// element sets are otherwise unchanged).
	gr.clearDelta()
	poolGrew := gr.numPossible > poolBefore
	for ri, rc := range gr.code {
		if !rc.rule.Choice || (ri < base && !poolGrew) {
			continue
		}
		// Enumerate the body instantiations and reconcile each against
		// the previously emitted ground rule (if any) via choiceInst —
		// bypassing instSeen, which would hide instantiations whose
		// element sets may have grown.
		if err := gr.exec(rc, rc.full, 0, modeChoiceInc); err != nil {
			return false, err
		}
	}
	if len(gr.retracted) > 0 {
		gr.compactRules()
		return true, nil
	}
	return false, nil
}

func (gr *grounder) emitChoiceInc(rc *ruleCode, pl *joinPlan) error {
	key := string(gr.instKey(rc))
	if oldIdx, ok := gr.choiceInst[key]; ok {
		n, err := gr.countChoiceInsts(rc)
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
	pos, neg, err := gr.groundBody(rc, pl)
	if err != nil {
		return err
	}
	before := len(gr.out.Rules)
	if err := gr.emitChoice(rc, pos, neg); err != nil {
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
func (gr *grounder) countChoiceInsts(rc *ruleCode) (int, error) {
	gr.count = 0
	if err := gr.forElems(rc, modeElemCount); err != nil {
		return 0, err
	}
	return gr.count, nil
}

// compactRules splices retracted rules out of the ground program and
// remaps choiceInst indexes. Only called when retractions happened, which
// forces the owning session to rebuild its translation anyway.
func (gr *grounder) compactRules() {
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
func (gr *grounder) checkBudget() error {
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

func (gr *grounder) run(rules []logic.Rule) error {
	// Fixpoint phase: compute the possible-atom set. Basic rules are also
	// emitted here (their instantiation is fully determined by the body
	// binding); choice rules only mark their heads possible, because the
	// element conditions must be expanded over the *final* possible set.
	//
	// Iteration 0: all rules against the (initially empty) possible set;
	// rules without positive body literals fire only here.
	for _, r := range rules {
		gr.code = append(gr.code, gr.compileRule(r))
	}
	gr.clearDelta()
	gr.startFrontier()
	for ri := range gr.code {
		if err := gr.groundFull(ri, false); err != nil {
			return err
		}
	}
	if err := gr.fixpoint(); err != nil {
		return err
	}
	// Emission phase for choice rules, over the stable possible set.
	gr.clearDelta()
	for ri, rc := range gr.code {
		if rc.rule.Choice {
			if err := gr.groundFull(ri, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// groundFull joins rule ri's whole body against the possible set. Choice
// rules emit only when emitChoices is set; otherwise they mark their
// heads possible.
func (gr *grounder) groundFull(ri int, emitChoices bool) error {
	rc := gr.code[ri]
	mode := modeEmit
	if rc.rule.Choice && !emitChoices {
		mode = modeMark
	}
	return gr.exec(rc, rc.full, 0, mode)
}

// fixpoint runs the semi-naive iterations: while the last iteration made
// atoms possible, re-ground every rule with a positive body literal over
// that frontier. Choice rules also re-run (with a full join) when an
// element-condition predicate grew.
func (gr *grounder) fixpoint() error {
	for gr.numPossible > gr.nextMark {
		gr.advanceFrontier()
		for _, rc := range gr.code {
			mode := modeEmit
			if rc.rule.Choice {
				mode = modeMark
			}
			for j, i := range rc.posIdx {
				if rc.lits[i].pool.hasDelta() {
					if err := gr.exec(rc, rc.delta[j], 0, mode); err != nil {
						return err
					}
				}
			}
			if rc.rule.Choice && rc.condInDelta() {
				if err := gr.exec(rc, rc.full, 0, modeMark); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (rc *ruleCode) condInDelta() bool {
	for _, e := range rc.elems {
		for _, c := range e.conds {
			if c.pool.hasDelta() {
				return true
			}
		}
	}
	return false
}

// instSeen canonically identifies a rule instantiation by (rule index,
// interned binding tuple) and records it, reporting whether it was seen
// before. The key is built as binary ids in a reused buffer, so the
// lookup on the already-seen path is allocation-free.
func (gr *grounder) instSeen(rc *ruleCode) bool {
	buf := gr.instKey(rc)
	if gr.seen[string(buf)] {
		return true
	}
	gr.seen[string(buf)] = true
	return false
}

// instKey builds the canonical (rule index, interned binding tuple) key in
// the reused buffer and returns it; the buffer is invalidated by the next
// instKey call.
func (gr *grounder) instKey(rc *ruleCode) []byte {
	buf := gr.keyBuf[:0]
	buf = binary.AppendUvarint(buf, uint64(rc.index))
	for _, s := range rc.keySlots {
		t := rc.vals[s]
		switch tt := t.(type) {
		case nil:
			buf = append(buf, 0)
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

func internID(tab map[string]int32, key string) int32 {
	if id, ok := tab[key]; ok {
		return id
	}
	id := int32(len(tab) + 1)
	tab[key] = id
	return id
}

// internAtom builds the key of the ground atom a instantiates to under
// rc's bindings, interns it when intern is set, and marks the atom
// possible. Atoms already possible are not built again.
func (gr *grounder) internAtom(rc *ruleCode, a *catom, intern bool) (AtomID, error) {
	buf, ok := appendKey(gr.atomBuf[:0], a, rc.vals)
	gr.atomBuf = buf
	if !ok {
		return 0, rc.instError(a.src)
	}
	var id AtomID
	if intern {
		id = gr.out.atomIDForBytes(buf)
	}
	if gr.isPoss[string(buf)] {
		return id, nil
	}
	key := string(buf)
	if intern {
		key = gr.out.AtomName(id)
	}
	gr.markPossible(a.pool, instantiate(a, rc.vals), key)
	return id, nil
}

// emitGround materializes one rule instantiation into the ground program
// and marks newly possible head atoms.
func (gr *grounder) emitGround(rc *ruleCode, pl *joinPlan) error {
	pos, neg, err := gr.groundBody(rc, pl)
	if err != nil {
		return err
	}
	if rc.rule.Choice {
		return gr.emitChoice(rc, pos, neg)
	}
	var head AtomID
	if rc.head != nil {
		if head, err = gr.internAtom(rc, rc.head, true); err != nil {
			return err
		}
	}
	gr.out.AddBasic(head, pos, neg)
	return nil
}

// groundBody interns the body's ground literals in body order. A positive
// literal's atom is the pool atom it matched; a negative one's key is
// built from the bindings.
func (gr *grounder) groundBody(rc *ruleCode, pl *joinPlan) (pos, neg []AtomID, err error) {
	pos, neg = gr.ids(len(rc.posIdx)), gr.ids(rc.nNeg)
	for i, e := range rc.rule.Body {
		lit, ok := e.(logic.Literal)
		if !ok {
			continue // comparisons already verified during the join
		}
		a := rc.lits[i]
		if !lit.Negated {
			pos = append(pos, gr.out.AtomIDFor(a.pool.keys[pl.matched[i]]))
			continue
		}
		buf, ok := appendKey(gr.atomBuf[:0], a, rc.vals)
		gr.atomBuf = buf
		if !ok {
			return nil, nil, rc.instError(a.src)
		}
		neg = append(neg, gr.out.atomIDForBytes(buf))
	}
	return pos, neg, nil
}

// ids cuts an empty slice of capacity n from the slab (nil for n = 0).
func (gr *grounder) ids(n int) []AtomID {
	if n == 0 {
		return nil
	}
	if len(gr.slab)+n > cap(gr.slab) {
		gr.slab = make([]AtomID, 0, max(256, n))
	}
	at := len(gr.slab)
	gr.slab = gr.slab[:at+n]
	return gr.slab[at : at : at+n]
}

func (gr *grounder) emitChoice(rc *ruleCode, pos, neg []AtomID) error {
	for _, e := range rc.rule.Elems {
		for _, c := range e.Cond {
			if c.Negated {
				return fmt.Errorf("solver: negated choice-element condition %s is not supported", c)
			}
		}
	}
	gr.heads, gr.conds = nil, nil
	if err := gr.forElems(rc, modeElemEmit); err != nil {
		return err
	}
	heads, conds := gr.heads, gr.conds
	gr.heads, gr.conds = nil, nil
	r := rc.rule
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

// emitElem collects one instantiation of choice element gr.elem: its
// head atom and the guard of its conditions (pl is their plan).
func (gr *grounder) emitElem(rc *ruleCode, pl *joinPlan) error {
	e := &rc.elems[gr.elem]
	hid, err := gr.internAtom(rc, e.atom, true)
	if err != nil {
		return err
	}
	var guard AtomID
	if len(e.conds) > 0 {
		guard = gr.condGuard(e, pl)
	}
	gr.heads = append(gr.heads, hid)
	gr.conds = append(gr.conds, guard)
	return nil
}

// condGuard interns a guard atom equivalent to the conjunction of the
// (ground, positive) condition literals pl matched. Single conditions
// reuse the condition atom itself.
func (gr *grounder) condGuard(e *choiceCode, pl *joinPlan) AtomID {
	if len(e.conds) == 1 {
		return gr.out.AtomIDFor(e.conds[0].pool.keys[pl.matched[0]])
	}
	var pos []AtomID
	keys := make([]string, 0, len(e.conds))
	for i, c := range e.conds {
		key := c.pool.keys[pl.matched[i]]
		pos = append(pos, gr.out.AtomIDFor(key))
		keys = append(keys, key)
	}
	guard := gr.out.AtomIDFor("__cond(" + strings.Join(keys, ",") + ")")
	gr.out.internal[int(guard)-1] = true
	if gr.incremental {
		// Re-emission after choice growth revisits old elements; the
		// guard's support rule is identical (the key encodes the
		// conjunction), so emit it once per session.
		if gr.condSeen[guard] {
			return guard
		}
		gr.condSeen[guard] = true
	}
	gr.out.AddBasic(guard, pos, nil)
	return guard
}

func (gr *grounder) markPossible(p *atomPool, a logic.Atom, key string) {
	gr.isPoss[key] = true
	gr.numPossible++
	pi := int32(len(p.atoms))
	p.atoms = append(p.atoms, a)
	p.keys = append(p.keys, key)
	// Keep any already-built argument indexes current.
	for i, idx := range p.index {
		if idx != nil {
			k := keyOf(a.Args[i])
			idx[k] = append(idx[k], pi)
		}
	}
}

// groundMinimize instantiates #minimize elements. Each ground element gets
// a guard atom derived from its condition; elements with equal
// (priority, weight, tuple) share a guard (counted once, like clingo).
func (gr *grounder) groundMinimize(elems []logic.MinimizeElem) error {
	gr.minGuard = map[string]AtomID{}
	for _, m := range elems {
		mc := gr.compileMinimize(m)
		if err := gr.exec(mc, mc.full, 0, modeMinimize); err != nil {
			return err
		}
	}
	return nil
}

func (gr *grounder) emitMinimize(mc *ruleCode, pl *joinPlan) error {
	m := mc.min
	w, ok := evalInt(&mc.weight, mc.vals)
	if !ok {
		_, err := logic.EvalInt(m.Weight.Substitute(mc.bindings()))
		return err
	}
	buf := gr.atomBuf[:0]
	for i := range mc.tuple {
		if i > 0 {
			buf = append(buf, ',')
		}
		if buf, ok = appendValue(buf, &mc.tuple[i], mc.vals); !ok {
			_, err := logic.Eval(m.Tuple[i].Substitute(mc.bindings()))
			return err
		}
	}
	gr.atomBuf = buf
	tupleKey := string(buf)
	pos, neg, err := gr.groundBody(mc, pl)
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

// simplifyNegatives drops negative body literals whose atom can never be
// derived (not possible): such literals are trivially true.
func (gr *grounder) simplifyNegatives() {
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

// expandIntervalFacts replaces facts whose head arguments contain intervals
// with one fact per member of the cartesian product.
func expandIntervalFacts(rules []logic.Rule) ([]logic.Rule, error) {
	out := make([]logic.Rule, 0, len(rules))
	for _, r := range rules {
		if !r.IsFact() || !hasInterval(r.Head.Args) {
			if r.Head != nil && hasInterval(r.Head.Args) {
				return nil, fmt.Errorf("solver: interval in non-fact head of %s", r)
			}
			out = append(out, r)
			continue
		}
		expanded, err := expandArgs(r.Head.Args)
		if err != nil {
			return nil, fmt.Errorf("solver: fact %s: %w", r, err)
		}
		for _, args := range expanded {
			out = append(out, logic.Fact(logic.Atom{Pred: r.Head.Pred, Args: args}))
		}
	}
	return out, nil
}

func hasInterval(args []logic.Term) bool {
	for _, a := range args {
		if _, ok := a.(logic.Interval); ok {
			return true
		}
	}
	return false
}

func expandArgs(args []logic.Term) ([][]logic.Term, error) {
	result := [][]logic.Term{{}}
	for _, a := range args {
		iv, ok := a.(logic.Interval)
		if !ok {
			for i := range result {
				result[i] = append(result[i], a)
			}
			continue
		}
		lo, err := logic.EvalInt(iv.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := logic.EvalInt(iv.Hi)
		if err != nil {
			return nil, err
		}
		if hi < lo {
			return nil, fmt.Errorf("empty interval %d..%d", lo, hi)
		}
		grown := make([][]logic.Term, 0, len(result)*(hi-lo+1))
		for _, prefix := range result {
			for v := lo; v <= hi; v++ {
				row := make([]logic.Term, len(prefix), len(prefix)+1)
				copy(row, prefix)
				grown = append(grown, append(row, logic.Num(v)))
			}
		}
		result = grown
	}
	return result, nil
}
