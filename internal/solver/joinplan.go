package solver

import (
	"fmt"
	"sort"
	"strconv"

	"cpsrisk/internal/logic"
)

// A rule is compiled once into join plans (gringo's compiled rule
// instantiation; Kaminski and Schaub, TPLP 2023). The rule's variables
// are numbered into slots, and a binding is a slice of slot values
// undone through a trail. Each plan fixes the order in which body
// elements are joined.
//
// The order can be fixed because the selection rule (ready comparisons
// first, then the delta literal, then ready positive literals, then
// unready ones) looks only at which body elements are done and which
// variables they bound. A matched literal binds every variable it
// contains, and an assignment binds exactly its one variable, so the
// bound set, and with it every readiness test, is a function of the
// done set: from a given start the selection takes the same order on
// every path. plan replays it over bound-variable sets, once per (rule,
// delta position).

// ctKind classifies a compiled term.
type ctKind uint8

const (
	ctConst ctKind = iota // ground and evaluable: val, and str its text
	ctVar                 // a variable: slot
	ctFunc                // a compound with variables: str is the functor
	ctArith               // arithmetic with variables: op over args[0], args[1]
	ctNever               // never evaluates: an interval, or failing ground arithmetic
)

// cterm is a term compiled against a rule's variable slots.
type cterm struct {
	kind ctKind
	op   logic.ArithOp
	slot int32
	val  logic.Term
	str  string
	args []cterm
}

// catom is a compiled atom: the pattern of a body literal or condition,
// or a head to instantiate. pool is the possible-atom pool of its
// signature, resolved when the rule is compiled.
type catom struct {
	src  logic.Atom
	args []cterm
	pool *atomPool
}

// stepKind is the operation of one join step.
type stepKind uint8

const (
	stepMatch  stepKind = iota // unify a positive literal with pool atoms
	stepAssign                 // bind slot to the value of r
	stepTest                   // check the ground comparison l op r
	stepStuck                  // a comparison kept unbound variables: error
)

type joinStep struct {
	kind  stepKind
	elem  int  // body element index
	delta bool // stepMatch: only the pool's frontier
	lit   *catom
	// probe lists the pattern arguments that are ground before a match
	// step; their values select an argument index of the pool.
	probe []int
	slot  int32
	l, r  cterm
	cmp   logic.Comparison
}

// emptyPlan is the plan of an empty body: one binding, no steps.
var emptyPlan joinPlan

// joinPlan is one compiled join order over a body. matched records, per
// body element, the pool index of the atom its literal currently
// matches, so emission reads the ground atom's key instead of building
// it again.
type joinPlan struct {
	steps   []joinStep
	matched []int32
}

// ruleCode is a rule compiled for the grounder.
type ruleCode struct {
	rule  logic.Rule
	index int          // position in the grounder's rule list
	names []string     // slot -> variable name
	vals  []logic.Term // slot -> bound value; nil while unbound
	// keySlots lists the slots in variable-name order: the order of the
	// instantiation dedup key.
	keySlots []int32
	lits     []*catom    // per body element; nil for comparisons
	posIdx   []int       // positive body literals: the semi-naive delta positions
	nNeg     int         // negative body literals
	full     *joinPlan   // the plan without a delta literal
	delta    []*joinPlan // per posIdx entry
	head     *catom
	elems    []choiceCode

	// Minimize elements only: the element, and its weight and tuple
	// terms.
	min    logic.MinimizeElem
	weight cterm
	tuple  []cterm
}

// choiceCode is a compiled choice element: its atom, its conditions and
// the plan joining them from the body's bindings (nil without
// conditions).
type choiceCode struct {
	atom  *catom
	conds []*catom
	plan  *joinPlan
}

// bindings renders the bound slots as logic.Bindings, for the error
// messages that quote substituted terms.
func (rc *ruleCode) bindings() logic.Bindings {
	b := make(logic.Bindings, len(rc.names))
	for s, v := range rc.vals {
		if v != nil {
			b[rc.names[s]] = v
		}
	}
	return b
}

// instError reproduces the error instantiating atom a under the current
// bindings, for a compiled instantiation that failed.
func (rc *ruleCode) instError(a logic.Atom) error {
	if _, err := a.Substitute(rc.bindings()).Eval(); err != nil {
		return err
	}
	return fmt.Errorf("solver: internal error: compiled instantiation of %s failed", a)
}

// compiler numbers a rule's variables into slots.
type compiler struct {
	gr    *grounder
	names []string // slot -> variable name
}

// slot returns the slot of variable name, numbering it on first use.
// Rules have few variables, so a scan beats a map.
func (c *compiler) slot(name string) int32 {
	for i, n := range c.names {
		if n == name {
			return int32(i)
		}
	}
	c.names = append(c.names, name)
	return int32(len(c.names) - 1)
}

// markBound marks the slots of t's variables bound.
func (c *compiler) markBound(t logic.Term, bound []bool) {
	switch tt := t.(type) {
	case logic.Variable:
		bound[c.slot(tt.Name)] = true
	case logic.Compound:
		for _, a := range tt.Args {
			c.markBound(a, bound)
		}
	case logic.BinOp:
		c.markBound(tt.Left, bound)
		c.markBound(tt.Right, bound)
	case logic.Interval:
		c.markBound(tt.Lo, bound)
		c.markBound(tt.Hi, bound)
	}
}

func (c *compiler) term(t logic.Term) cterm {
	if t.Ground() {
		v, err := logic.Eval(t)
		if err != nil {
			return cterm{kind: ctNever}
		}
		return cterm{kind: ctConst, val: v, str: v.String()}
	}
	switch tt := t.(type) {
	case logic.Variable:
		return cterm{kind: ctVar, slot: c.slot(tt.Name)}
	case logic.Compound:
		args := make([]cterm, len(tt.Args))
		for i, a := range tt.Args {
			args[i] = c.term(a)
		}
		return cterm{kind: ctFunc, str: tt.Functor, args: args}
	case logic.BinOp:
		return cterm{kind: ctArith, op: tt.Op, args: []cterm{c.term(tt.Left), c.term(tt.Right)}}
	default:
		return cterm{kind: ctNever}
	}
}

func (c *compiler) atom(a logic.Atom) *catom {
	ca := &catom{src: a, args: make([]cterm, len(a.Args)), pool: c.gr.pool(a)}
	for i, t := range a.Args {
		ca.args[i] = c.term(t)
	}
	return ca
}

// compileRule compiles r: its slots, its body literals, the full plan
// and one plan per delta position, its head and its choice elements.
func (gr *grounder) compileRule(r logic.Rule) *ruleCode {
	c := &compiler{gr: gr}
	for _, v := range r.Vars() {
		c.slot(v) // every variable gets its slot before a plan sizes its bound set
	}
	rc := &ruleCode{rule: r, index: len(gr.code)}
	if len(r.Body) > 0 {
		rc.lits = make([]*catom, len(r.Body))
	}
	for i, e := range r.Body {
		lit, ok := e.(logic.Literal)
		if !ok {
			continue
		}
		rc.lits[i] = c.atom(lit.Atom)
		if lit.Negated {
			rc.nNeg++
		} else {
			rc.posIdx = append(rc.posIdx, i)
		}
	}
	if r.Head != nil {
		rc.head = c.atom(*r.Head)
	}
	rc.full = c.plan(r.Body, rc.lits, -1, nil)
	for _, i := range rc.posIdx {
		rc.delta = append(rc.delta, c.plan(r.Body, rc.lits, i, nil))
	}
	if len(r.Elems) > 0 {
		// Conditions join from the bindings of a complete body join:
		// every positive literal and every comparison is done by then.
		bound := make([]bool, len(c.names))
		for _, e := range r.Body {
			switch be := e.(type) {
			case logic.Literal:
				if !be.Negated {
					for _, a := range be.Atom.Args {
						c.markBound(a, bound)
					}
				}
			case logic.Comparison:
				c.markBound(be.Left, bound)
				c.markBound(be.Right, bound)
			}
		}
		for _, e := range r.Elems {
			cc := choiceCode{atom: c.atom(e.Atom)}
			if len(e.Cond) > 0 {
				body := make([]logic.BodyElem, len(e.Cond))
				cc.conds = make([]*catom, len(e.Cond))
				for i, cond := range e.Cond {
					body[i] = cond
					cc.conds[i] = c.atom(cond.Atom)
				}
				cc.plan = c.plan(body, cc.conds, -1, bound)
			}
			rc.elems = append(rc.elems, cc)
		}
	}
	rc.finish(c)
	return rc
}

// compileMinimize compiles one #minimize element: its condition is the
// body, and its weight and tuple are instantiated per binding.
func (gr *grounder) compileMinimize(m logic.MinimizeElem) *ruleCode {
	rc := gr.compileRule(logic.Rule{Body: m.Cond})
	c := &compiler{gr: gr, names: rc.names}
	rc.min, rc.weight = m, c.term(m.Weight)
	for _, t := range m.Tuple {
		rc.tuple = append(rc.tuple, c.term(t))
	}
	rc.finish(c) // a variable that only the weight or tuple names gets a slot too
	return rc
}

// finish sizes the binding slots and derives the dedup key order.
func (rc *ruleCode) finish(c *compiler) {
	if len(c.names) == 0 {
		return
	}
	rc.names = c.names
	rc.vals = make([]logic.Term, len(c.names))
	sorted := append([]string(nil), c.names...)
	sort.Strings(sorted)
	rc.keySlots = make([]int32, len(sorted))
	for i, v := range sorted {
		rc.keySlots[i] = c.slot(v)
	}
}

// plan compiles one join order by replaying the selection rule over the
// set of bound slots. init is the bound set at the start (nil: nothing
// bound).
func (c *compiler) plan(body []logic.BodyElem, lits []*catom, deltaIdx int, init []bool) *joinPlan {
	if len(body) == 0 {
		return &emptyPlan
	}
	bound := make([]bool, len(c.names))
	copy(bound, init)
	done := make([]bool, len(body))
	pl := &joinPlan{matched: make([]int32, len(body))}
	for {
		idx := c.selectElem(body, deltaIdx, done, bound)
		if idx < 0 {
			// Only negative literals may remain; a comparison left here
			// has variables no element binds.
			for i, e := range body {
				if cmp, ok := e.(logic.Comparison); ok && !done[i] {
					pl.steps = append(pl.steps, joinStep{kind: stepStuck, elem: i, cmp: cmp})
					break
				}
			}
			return pl
		}
		done[idx] = true
		switch e := body[idx].(type) {
		case logic.Comparison:
			if v, expr, ok := c.assignment(e, bound); ok {
				s := c.slot(v)
				pl.steps = append(pl.steps, joinStep{kind: stepAssign, elem: idx, slot: s, r: c.term(expr), cmp: e})
				bound[s] = true
				continue
			}
			pl.steps = append(pl.steps, joinStep{kind: stepTest, elem: idx, l: c.term(e.Left), r: c.term(e.Right), cmp: e})
		case logic.Literal:
			st := joinStep{kind: stepMatch, elem: idx, delta: idx == deltaIdx, lit: lits[idx]}
			for i, a := range e.Atom.Args {
				if c.groundUnder(a, bound) {
					st.probe = append(st.probe, i)
				}
			}
			pl.steps = append(pl.steps, st)
			for _, a := range e.Atom.Args {
				c.markBound(a, bound)
			}
		}
	}
}

func (c *compiler) selectElem(body []logic.BodyElem, deltaIdx int, done, bound []bool) int {
	for i, e := range body {
		if cmp, ok := e.(logic.Comparison); ok && !done[i] && c.cmpReady(cmp, bound) {
			return i
		}
	}
	if deltaIdx >= 0 && !done[deltaIdx] && c.litReady(body[deltaIdx].(logic.Literal), bound) {
		return deltaIdx
	}
	for i, e := range body {
		if lit, ok := e.(logic.Literal); ok && !done[i] && !lit.Negated && c.litReady(lit, bound) {
			return i
		}
	}
	if deltaIdx >= 0 && !done[deltaIdx] {
		return deltaIdx
	}
	for i, e := range body {
		if lit, ok := e.(logic.Literal); ok && !done[i] && !lit.Negated {
			return i
		}
	}
	return -1
}

// groundUnder reports whether t is ground once the bound slots are
// substituted.
func (c *compiler) groundUnder(t logic.Term, bound []bool) bool {
	switch tt := t.(type) {
	case logic.Variable:
		return bound[c.slot(tt.Name)]
	case logic.Compound:
		for _, a := range tt.Args {
			if !c.groundUnder(a, bound) {
				return false
			}
		}
	case logic.BinOp:
		return c.groundUnder(tt.Left, bound) && c.groundUnder(tt.Right, bound)
	case logic.Interval:
		return c.groundUnder(tt.Lo, bound) && c.groundUnder(tt.Hi, bound)
	}
	return true
}

// assignment recognizes V = expr / expr = V with V unbound and expr
// ground under the bound slots, left side first.
func (c *compiler) assignment(cmp logic.Comparison, bound []bool) (string, logic.Term, bool) {
	if cmp.Op != logic.CmpEq {
		return "", nil, false
	}
	if v, ok := cmp.Left.(logic.Variable); ok && !bound[c.slot(v.Name)] && c.groundUnder(cmp.Right, bound) {
		return v.Name, cmp.Right, true
	}
	if v, ok := cmp.Right.(logic.Variable); ok && !bound[c.slot(v.Name)] && c.groundUnder(cmp.Left, bound) {
		return v.Name, cmp.Left, true
	}
	return "", nil, false
}

func (c *compiler) cmpReady(cmp logic.Comparison, bound []bool) bool {
	if _, _, ok := c.assignment(cmp, bound); ok {
		return true
	}
	return c.groundUnder(cmp.Left, bound) && c.groundUnder(cmp.Right, bound)
}

// litReady reports whether every arithmetic sub-term of the literal's
// arguments is ground under the bound slots, so unification against
// ground atoms can succeed.
func (c *compiler) litReady(lit logic.Literal, bound []bool) bool {
	for _, a := range lit.Atom.Args {
		if !c.matchReady(a, bound) {
			return false
		}
	}
	return true
}

func (c *compiler) matchReady(t logic.Term, bound []bool) bool {
	switch tt := t.(type) {
	case logic.BinOp:
		return c.groundUnder(tt, bound)
	case logic.Compound:
		for _, a := range tt.Args {
			if !c.matchReady(a, bound) {
				return false
			}
		}
	}
	return true
}

// ---- evaluation over slots ------------------------------------------

// termEqual is logic.Compare(a, b) == 0 for evaluated ground terms.
func termEqual(a, b logic.Term) bool {
	switch at := a.(type) {
	case logic.Symbol:
		bt, ok := b.(logic.Symbol)
		return ok && at.Name == bt.Name
	case logic.Number:
		bt, ok := b.(logic.Number)
		return ok && at.Value == bt.Value
	}
	return logic.Compare(a, b) == 0
}

// evalInt evaluates t to an integer; ok is false wherever logic.EvalInt
// of the substituted term fails.
func evalInt(t *cterm, vals []logic.Term) (int, bool) {
	switch t.kind {
	case ctConst:
		n, ok := t.val.(logic.Number)
		return n.Value, ok
	case ctVar:
		n, ok := vals[t.slot].(logic.Number)
		return n.Value, ok
	case ctArith:
		l, ok := evalInt(&t.args[0], vals)
		if !ok {
			return 0, false
		}
		r, ok := evalInt(&t.args[1], vals)
		if !ok {
			return 0, false
		}
		switch t.op {
		case logic.OpAdd:
			return l + r, true
		case logic.OpSub:
			return l - r, true
		case logic.OpMul:
			return l * r, true
		case logic.OpDiv:
			if r == 0 {
				return 0, false
			}
			return l / r, true
		case logic.OpMod:
			if r == 0 {
				return 0, false
			}
			return l % r, true
		}
	}
	return 0, false
}

// eval evaluates t; ok is false wherever logic.Eval of the substituted
// term fails.
func eval(t *cterm, vals []logic.Term) (logic.Term, bool) {
	switch t.kind {
	case ctConst:
		return t.val, true
	case ctVar:
		v := vals[t.slot]
		return v, v != nil
	case ctFunc:
		args := make([]logic.Term, len(t.args))
		for i := range t.args {
			a, ok := eval(&t.args[i], vals)
			if !ok {
				return nil, false
			}
			args[i] = a
		}
		return logic.Compound{Functor: t.str, Args: args}, true
	case ctArith:
		n, ok := evalInt(t, vals)
		if !ok {
			return nil, false
		}
		return logic.Num(n), true
	}
	return nil, false
}

// appendTerm appends v.String() for an evaluated ground term.
func appendTerm(buf []byte, v logic.Term) []byte {
	switch tt := v.(type) {
	case logic.Symbol:
		return append(buf, tt.String()...)
	case logic.Number:
		return strconv.AppendInt(buf, int64(tt.Value), 10)
	case logic.Compound:
		buf = append(buf, tt.Functor...)
		buf = append(buf, '(')
		for i, a := range tt.Args {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendTerm(buf, a)
		}
		return append(buf, ')')
	}
	return append(buf, v.String()...)
}

// appendValue appends the text of t's value; ok is false where eval
// fails.
func appendValue(buf []byte, t *cterm, vals []logic.Term) ([]byte, bool) {
	switch t.kind {
	case ctConst:
		return append(buf, t.str...), true
	case ctVar:
		v := vals[t.slot]
		if v == nil {
			return buf, false
		}
		return appendTerm(buf, v), true
	case ctFunc:
		buf = append(buf, t.str...)
		buf = append(buf, '(')
		for i := range t.args {
			if i > 0 {
				buf = append(buf, ',')
			}
			var ok bool
			if buf, ok = appendValue(buf, &t.args[i], vals); !ok {
				return buf, false
			}
		}
		return append(buf, ')'), true
	case ctArith:
		n, ok := evalInt(t, vals)
		if !ok {
			return buf, false
		}
		return strconv.AppendInt(buf, int64(n), 10), true
	}
	return buf, false
}

// appendKey appends the key of the ground atom a instantiates to (the
// Key of its substituted, evaluated form); ok is false where that
// evaluation fails.
func appendKey(buf []byte, a *catom, vals []logic.Term) ([]byte, bool) {
	buf = append(buf, a.src.Pred...)
	if len(a.args) == 0 {
		return buf, true
	}
	buf = append(buf, '(')
	for i := range a.args {
		if i > 0 {
			buf = append(buf, ',')
		}
		var ok bool
		if buf, ok = appendValue(buf, &a.args[i], vals); !ok {
			return buf, false
		}
	}
	return append(buf, ')'), true
}

// instantiate builds the ground atom a instantiates to. The caller has
// built its key, so every argument evaluates.
func instantiate(a *catom, vals []logic.Term) logic.Atom {
	if len(a.args) == 0 {
		return logic.Atom{Pred: a.src.Pred}
	}
	args := make([]logic.Term, len(a.args))
	for i := range a.args {
		args[i], _ = eval(&a.args[i], vals)
	}
	return logic.Atom{Pred: a.src.Pred, Args: args}
}

// ---- plan execution -------------------------------------------------

// match unifies pattern t with the ground term g, binding unbound slots
// on the trail.
func (gr *grounder) match(t *cterm, g logic.Term, vals []logic.Term) bool {
	switch t.kind {
	case ctConst:
		return termEqual(t.val, g)
	case ctVar:
		if v := vals[t.slot]; v != nil {
			return termEqual(v, g)
		}
		vals[t.slot] = g
		gr.trail = append(gr.trail, t.slot)
		return true
	case ctFunc:
		gc, ok := g.(logic.Compound)
		if !ok || gc.Functor != t.str || len(gc.Args) != len(t.args) {
			return false
		}
		for i := range t.args {
			if !gr.match(&t.args[i], gc.Args[i], vals) {
				return false
			}
		}
		return true
	case ctArith:
		n, ok := evalInt(t, vals)
		if !ok {
			return false
		}
		gn, ok := g.(logic.Number)
		return ok && gn.Value == n
	}
	return false
}

// undo unbinds the slots bound since the trail had length mark.
func (gr *grounder) undo(vals []logic.Term, mark int) {
	for _, s := range gr.trail[mark:] {
		vals[s] = nil
	}
	gr.trail = gr.trail[:mark]
}

// exec runs plan pl of rc from step k, calling emit(rc, pl, mode) for
// every complete binding.
func (gr *grounder) exec(rc *ruleCode, pl *joinPlan, k int, mode emitMode) error {
	if k == len(pl.steps) {
		return gr.emit(rc, pl, mode)
	}
	st := &pl.steps[k]
	vals := rc.vals
	switch st.kind {
	case stepAssign:
		v, ok := eval(&st.r, vals)
		if !ok {
			// Reproduce logic.Eval's error on the substituted side.
			sub := st.cmp.Substitute(rc.bindings())
			side := sub.Right
			if _, isVar := sub.Left.(logic.Variable); !isVar {
				side = sub.Left
			}
			_, err := logic.Eval(side)
			return err
		}
		vals[st.slot] = v
		err := gr.exec(rc, pl, k+1, mode)
		vals[st.slot] = nil
		return err
	case stepTest:
		l, okL := eval(&st.l, vals)
		r, okR := eval(&st.r, vals)
		if !okL || !okR {
			_, err := st.cmp.Substitute(rc.bindings()).Holds()
			return err
		}
		holds, ok := compareHolds(st.cmp.Op, logic.Compare(l, r))
		if !ok {
			_, err := st.cmp.Substitute(rc.bindings()).Holds()
			return err
		}
		if !holds {
			return nil
		}
		return gr.exec(rc, pl, k+1, mode)
	case stepStuck:
		return fmt.Errorf("solver: comparison %s has unbound variables after join", st.cmp.Substitute(rc.bindings()))
	}
	p := st.lit.pool
	if st.delta {
		// Delta frontiers are small: always scan linearly.
		for i := p.dLo; i < p.dHi; i++ {
			if err := gr.matchStep(rc, pl, k, int32(i), mode); err != nil {
				return err
			}
		}
		return nil
	}
	if cands, ok := gr.candidates(st, p, vals); ok {
		for _, i := range cands {
			if err := gr.matchStep(rc, pl, k, i, mode); err != nil {
				return err
			}
		}
		return nil
	}
	// Atoms marked possible during the scan are not visited.
	for i, n := 0, len(p.atoms); i < n; i++ {
		if err := gr.matchStep(rc, pl, k, int32(i), mode); err != nil {
			return err
		}
	}
	return nil
}

// matchStep unifies step k's literal with pool atom i and, on success,
// runs the rest of the plan.
func (gr *grounder) matchStep(rc *ruleCode, pl *joinPlan, k int, i int32, mode emitMode) error {
	st := &pl.steps[k]
	args := st.lit.pool.atoms[i].Args
	mark := len(gr.trail)
	ok := true
	for j := range st.lit.args {
		if !gr.match(&st.lit.args[j], args[j], rc.vals) {
			ok = false
			break
		}
	}
	var err error
	if ok {
		pl.matched[st.elem] = i
		err = gr.exec(rc, pl, k+1, mode)
	}
	gr.undo(rc.vals, mark)
	return err
}

// candidates narrows a pool with the argument indexes: every argument
// ground before the step probes its index and the shortest list wins.
// ok is false when no argument is ground or the pool is small; the
// caller then scans the pool. Lists keep insertion order, so the visit
// order is the scan's.
func (gr *grounder) candidates(st *joinStep, p *atomPool, vals []logic.Term) ([]int32, bool) {
	if len(p.atoms) < indexThreshold || len(st.probe) == 0 {
		return nil, false
	}
	var best []int32
	for n, i := range st.probe {
		v, ok := eval(&st.lit.args[i], vals)
		if !ok {
			// An unevaluable ground argument (an interval, say) unifies
			// with nothing.
			return nil, true
		}
		if p.index[i] == nil {
			p.buildIndex(i)
		}
		cands := p.index[i][keyOf(v)]
		if n == 0 || len(cands) < len(best) {
			best = cands
		}
		if len(best) == 0 {
			break
		}
	}
	return best, true
}

// compareHolds applies op to a logic.Compare result; ok is false for an
// unknown operator.
func compareHolds(op logic.CompareOp, c int) (holds, ok bool) {
	switch op {
	case logic.CmpEq:
		return c == 0, true
	case logic.CmpNeq:
		return c != 0, true
	case logic.CmpLt:
		return c < 0, true
	case logic.CmpLeq:
		return c <= 0, true
	case logic.CmpGt:
		return c > 0, true
	case logic.CmpGeq:
		return c >= 0, true
	}
	return false, false
}
