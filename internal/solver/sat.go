package solver

import (
	"context"
	"fmt"
	"sort"

	"cpsrisk/internal/budget"
)

// lit is a propositional literal: +v for the positive, -v for the negative
// literal of variable v (v >= 1). litTrue is the pseudo-literal "constant
// true" used in support bookkeeping (never appears inside clauses).
type lit int

const litTrue lit = 0

func (l lit) variable() int { return abs(int(l)) }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// watchIdx maps a literal to its watch-list slot: positive literals at 2v,
// negative at 2v+1.
func watchIdx(l lit) int {
	v := l.variable()
	if l > 0 {
		return 2 * v
	}
	return 2*v + 1
}

// clause is one disjunction of literals; lits[0] and lits[1] are the
// watched literals. Learned clauses additionally carry an activity score
// driving learned-DB reduction.
type clause struct {
	lits   []lit
	act    float64
	learnt bool
}

// sat is a CDCL SAT engine: two-watched-literal propagation, first-UIP
// conflict analysis with clause learning and non-chronological
// backjumping, EVSIDS activity-based branching with phase saving, Luby
// restarts, and activity-driven learned-clause DB reduction. It supports
// adding clauses mid-search (used for loop formulas, blocking clauses,
// and optimization bounds) and an objective propagator for
// branch-and-bound.
type sat struct {
	nVars   int
	clauses []*clause // problem clauses: permanent, incl. mid-search additions
	learnts []*clause // conflict-learned clauses, subject to DB reduction
	watches [][]*clause

	// witness holds, per problem clause, the literal that satisfied it
	// at the last validateTotal, as its variable and the value that makes
	// it true; it is tried first at the next check.
	witness []witness

	// Clauses and their literals are cut from chunks, so a clause costs
	// no allocation of its own.
	clauseSlab []clause
	litArena   []lit

	assign   []int8    // var -> 0 unknown, 1 true, -1 false
	level    []int     // var -> decision level it was assigned at
	reason   []*clause // var -> implying clause (nil: decision or unassigned)
	trail    []lit
	trailLim []int // decision-level start indices into trail

	qhead int

	// EVSIDS branching: a max-heap of variables ordered by activity,
	// ties broken by variable index for determinism. phase saves the
	// last polarity of each variable (-1 initially: prefer false, so
	// smaller answer sets are found first).
	activity []float64
	varInc   float64
	phase    []int8
	heap     []int
	heapPos  []int // var -> heap slot, -1 when absent

	claInc float64

	// Luby restart schedule (units of restartBase conflicts).
	lubySeq      int
	sinceRestart int64
	restartLimit int64

	// Learned-DB reduction threshold; 0 until the first search fixes it.
	maxLearnts int

	// Conflict-analysis scratch.
	seen    []bool
	markBuf []int8 // clause-simplification stamps: 0 none, 1 pos, 2 neg

	// Objective propagator (branch and bound).
	weight  []int64 // var -> objective weight of assigning true (0 if none)
	curCost int64
	bound   int64 // prune when curCost >= bound
	pruning bool

	// Assumption-based solving (multi-shot sessions): assumps are asserted
	// as pseudo-decisions at successive levels before any branching; a
	// falsified assumption ends the search with assumpFailed set and the
	// responsible assumption subset in finalCore (final-conflict analysis).
	assumps      []lit
	assumpFailed bool
	finalCore    []lit

	// costGuard, when nonzero, is appended to every objective-bound
	// conflict clause so the clause can be retired after the query (the
	// bound is query-local in a session; the guard literal is assumed
	// false during the query and asserted true afterwards).
	costGuard lit

	// Statistics.
	decisions, conflicts, propagations, restarts int64
	learned, backjumps, dbReductions             int64

	unsatRoot bool // an empty clause was added: trivially unsatisfiable

	// Resource governance: zero caps mean unlimited, nil ctx means no
	// cancellation. The context is polled every ctxPollInterval budget
	// checks to keep the hot loop cheap.
	maxDecisions, maxConflicts int64
	ctx                        context.Context
	ctxPolls                   int
}

// ctxPollInterval is how many search-loop iterations pass between
// context polls.
const ctxPollInterval = 64

// restartBase is the Luby restart unit, in conflicts.
const restartBase = 100

// varDecayInv is the inverse EVSIDS decay factor, applied per conflict.
const varDecayInv = 1 / 0.95

// checkBudget reports why the search must stop now (as an
// *budget.ExhaustedError with stage "solve"), or nil.
func (s *sat) checkBudget() error {
	if s.maxDecisions > 0 && s.decisions >= s.maxDecisions {
		return &budget.ExhaustedError{
			Stage: "solve", Reason: budget.ReasonDecisions,
			Detail: fmt.Sprintf("%d decisions", s.decisions),
		}
	}
	if s.maxConflicts > 0 && s.conflicts >= s.maxConflicts {
		return &budget.ExhaustedError{
			Stage: "solve", Reason: budget.ReasonConflicts,
			Detail: fmt.Sprintf("%d conflicts", s.conflicts),
		}
	}
	if s.ctx != nil {
		s.ctxPolls++
		if s.ctxPolls >= ctxPollInterval {
			s.ctxPolls = 0
			if err := s.ctx.Err(); err != nil {
				return budget.New(s.ctx, budget.Limits{}).Err("solve")
			}
		}
	}
	return nil
}

// applyBudget installs the caps of a budget (nil = unlimited) and
// forces an immediate context poll on the first check.
func (s *sat) applyBudget(b *budget.Budget) {
	if b == nil {
		return
	}
	l := b.Limits()
	s.maxDecisions = l.MaxDecisions
	s.maxConflicts = l.MaxConflicts
	s.ctx = b.Context()
	s.ctxPolls = ctxPollInterval
}

func newSAT() *sat {
	s := &sat{
		bound:        1 << 62,
		varInc:       1,
		claInc:       1,
		restartLimit: restartBase,
	}
	s.newVar() // allocate var 0 placeholder so vars start at 1
	return s
}

func (s *sat) newVar() int {
	v := s.nVars
	s.nVars++
	s.assign = append(s.assign, 0)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.weight = append(s.weight, 0)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, -1)
	s.seen = append(s.seen, false)
	s.markBuf = append(s.markBuf, 0)
	s.heapPos = append(s.heapPos, -1)
	s.watches = append(s.watches, nil, nil)
	if v > 0 {
		s.heapInsert(v)
	}
	return v
}

func (s *sat) value(l lit) int8 {
	v := s.assign[l.variable()]
	if l < 0 {
		return -v
	}
	return v
}

func (s *sat) decisionLevel() int { return len(s.trailLim) }

// ---- branching heap -------------------------------------------------

func (s *sat) varLess(a, b int) bool {
	if s.activity[a] != s.activity[b] {
		return s.activity[a] > s.activity[b]
	}
	return a < b
}

func (s *sat) heapUp(i int) {
	v := s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.varLess(v, s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		s.heapPos[s.heap[i]] = i
		i = p
	}
	s.heap[i] = v
	s.heapPos[v] = i
}

func (s *sat) heapDown(i int) {
	v := s.heap[i]
	n := len(s.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.varLess(s.heap[c+1], s.heap[c]) {
			c++
		}
		if !s.varLess(s.heap[c], v) {
			break
		}
		s.heap[i] = s.heap[c]
		s.heapPos[s.heap[i]] = i
		i = c
	}
	s.heap[i] = v
	s.heapPos[v] = i
}

func (s *sat) heapInsert(v int) {
	if s.heapPos[v] >= 0 {
		return
	}
	s.heap = append(s.heap, v)
	s.heapPos[v] = len(s.heap) - 1
	s.heapUp(len(s.heap) - 1)
}

func (s *sat) heapPop() int {
	v := s.heap[0]
	s.heapPos[v] = -1
	last := len(s.heap) - 1
	if last > 0 {
		s.heap[0] = s.heap[last]
		s.heapPos[s.heap[0]] = 0
	}
	s.heap = s.heap[:last]
	if last > 0 {
		s.heapDown(0)
	}
	return v
}

func (s *sat) varBump(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.heapPos[v] >= 0 {
		s.heapUp(s.heapPos[v])
	}
}

func (s *sat) varDecay() { s.varInc *= varDecayInv }

func (s *sat) claBump(c *clause) {
	c.act += s.claInc
	if c.act > 1e20 {
		for _, lc := range s.learnts {
			lc.act *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

func (s *sat) claDecay() { s.claInc *= 1 / 0.999 }

// seedActivities installs the initial branching preference: earlier
// variables in order get infinitesimally higher starting activity, so the
// first decisions follow it until conflict-driven bumps take over.
func (s *sat) seedActivities(order []int) {
	const eps = 1e-9
	for i, v := range order {
		s.activity[v] = eps * float64(len(order)-i)
	}
	// Rebuild the heap under the new activities.
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		s.heapDown(i)
	}
}

// ---- clause management ----------------------------------------------

// attach installs watches on lits[0] and lits[1].
func (s *sat) attach(c *clause) {
	s.watch(c.lits[0], c)
	s.watch(c.lits[1], c)
}

// watch appends c to l's watch list, starting an empty list with room
// for a few clauses.
func (s *sat) watch(l lit, c *clause) {
	ws := &s.watches[watchIdx(l)]
	if *ws == nil {
		*ws = make([]*clause, 0, 4)
	}
	*ws = append(*ws, c)
}

// detach removes the clause from its two watch lists.
func (s *sat) detach(c *clause) {
	for _, l := range c.lits[:2] {
		ws := s.watches[watchIdx(l)]
		for i, wc := range ws {
			if wc == c {
				ws[i] = ws[len(ws)-1]
				s.watches[watchIdx(l)] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// addClause installs a problem clause. At decision level 0 it simplifies
// against the fixed assignment; during search the caller must ensure the
// solver is backtracked (via backtrackForClause) until the clause is not
// conflicting.
func (s *sat) addClause(ls []lit) {
	// Simplify: drop duplicate literals; detect tautologies. markBuf
	// stamps variables with the polarity seen (1 pos, 2 neg). The input
	// slice is filtered in place and retained; callers always pass fresh
	// slices.
	out := ls[:0]
	taut := false
	for _, l := range ls {
		if l == litTrue {
			taut = true // clause contains constant true
			break
		}
		v := l.variable()
		stamp := int8(1)
		if l < 0 {
			stamp = 2
		}
		switch s.markBuf[v] {
		case 0:
			s.markBuf[v] = stamp
			out = append(out, l)
		case stamp:
			// duplicate literal
		default:
			taut = true // l and ¬l
		}
		if taut {
			break
		}
	}
	for _, l := range out {
		s.markBuf[l.variable()] = 0
	}
	if taut {
		return
	}
	if len(out) == 0 {
		s.unsatRoot = true
		return
	}
	if len(out) == 1 {
		// A unit clause holds in every model: restart to level 0 so the
		// assignment persists for the rest of the search.
		if s.decisionLevel() > 0 {
			s.restarts++
			s.cancelUntil(0)
		}
		switch s.value(out[0]) {
		case 1:
			return
		case -1:
			s.unsatRoot = true
			return
		}
		s.uncheckedEnqueue(out[0], nil)
		return
	}
	w1, w2 := s.pickWatches(out)
	out[0], out[w1] = out[w1], out[0]
	if w2 == 0 {
		w2 = w1
	}
	out[1], out[w2] = out[w2], out[1]
	c := s.newClause(clause{lits: out})
	s.clauses = append(s.clauses, c)
	s.witness = append(s.witness, witnessOf(out[0]))
	s.attach(c)
	// If unit under the current assignment, enqueue with the clause as
	// reason.
	if s.value(out[0]) == 0 && s.value(out[1]) == -1 {
		s.uncheckedEnqueue(out[0], c)
	}
}

// newClause stores c in the clause slab and returns its address.
func (s *sat) newClause(c clause) *clause {
	if len(s.clauseSlab) == cap(s.clauseSlab) {
		s.clauseSlab = make([]clause, 0, 64)
	}
	s.clauseSlab = append(s.clauseSlab, c)
	return &s.clauseSlab[len(s.clauseSlab)-1]
}

// storeLits copies ls into the literal arena, for a clause built in
// scratch space.
func (s *sat) storeLits(ls []lit) []lit {
	if len(s.litArena)+len(ls) > cap(s.litArena) {
		s.litArena = make([]lit, 0, max(1024, len(ls)))
	}
	at := len(s.litArena)
	s.litArena = append(s.litArena, ls...)
	return s.litArena[at:len(s.litArena):len(s.litArena)]
}

// pickWatches selects two watch positions: non-false literals first, then
// false literals assigned at the deepest levels (so the watches are the
// last to be unassigned on backtracking).
func (s *sat) pickWatches(c []lit) (int, int) {
	w1, w2 := -1, -1
	rank := func(i int) int {
		if s.value(c[i]) != -1 {
			return 1 << 30
		}
		return s.level[c[i].variable()]
	}
	for i := range c {
		switch {
		case w1 < 0 || rank(i) > rank(w1):
			w2 = w1
			w1 = i
		case w2 < 0 || rank(i) > rank(w2):
			w2 = i
		}
	}
	return w1, w2
}

// clauseStatus returns 1 if satisfied, -1 if conflicting (all false),
// 0 otherwise.
func (s *sat) clauseStatus(c []lit) int {
	allFalse := true
	for _, l := range c {
		switch s.value(l) {
		case 1:
			return 1
		case 0:
			allFalse = false
		}
	}
	if allFalse {
		return -1
	}
	return 0
}

func (s *sat) uncheckedEnqueue(l lit, from *clause) {
	v := l.variable()
	if l > 0 {
		s.assign[v] = 1
		s.curCost += s.weight[v]
	} else {
		s.assign[v] = -1
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the conflicting clause,
// or nil when a fixpoint is reached.
func (s *sat) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propagations++
		// Visit clauses watching ¬p.
		wi := watchIdx(-p)
		ws := s.watches[wi]
		kept := ws[:0]
		for n := 0; n < len(ws); n++ {
			c := ws[n]
			li := c.lits
			// Ensure li[0] is the other watch.
			if li[0] == -p {
				li[0], li[1] = li[1], li[0]
			}
			if s.value(li[0]) == 1 {
				kept = append(kept, c)
				continue
			}
			// Find a new watch.
			found := false
			for k := 2; k < len(li); k++ {
				if s.value(li[k]) != -1 {
					li[1], li[k] = li[k], li[1]
					s.watch(li[1], c)
					found = true
					break
				}
			}
			if found {
				continue
			}
			kept = append(kept, c)
			if s.value(li[0]) == -1 {
				// Conflict: restore remaining watches and fail.
				kept = append(kept, ws[n+1:]...)
				s.watches[wi] = kept
				return c
			}
			s.uncheckedEnqueue(li[0], c)
		}
		s.watches[wi] = kept
	}
	return nil
}

// decide starts a new decision level with literal l.
func (s *sat) decide(l lit) {
	s.decisions++
	s.trailLim = append(s.trailLim, len(s.trail))
	s.uncheckedEnqueue(l, nil)
}

// cancelUntil undoes all decision levels above lvl, saving phases and
// restoring unassigned variables to the branching heap.
func (s *sat) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	limit := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= limit; i-- {
		l := s.trail[i]
		v := l.variable()
		if l > 0 {
			s.curCost -= s.weight[v]
		}
		s.phase[v] = s.assign[v]
		s.assign[v] = 0
		s.reason[v] = nil
		s.heapInsert(v)
	}
	s.trail = s.trail[:limit]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = limit
}

// analyze performs first-UIP conflict analysis. The conflicting clause
// must be falsified with at least one literal at the current decision
// level. It returns the learned clause (asserting literal first, a
// deepest-level literal second) and the backjump level.
func (s *sat) analyze(confl *clause) ([]lit, int) {
	learnt := make([]lit, 1, 8)
	counter := 0
	p := litTrue
	idx := len(s.trail) - 1
	for {
		if confl.learnt {
			s.claBump(confl)
		}
		for _, q := range confl.lits {
			if q == p {
				continue
			}
			v := q.variable()
			if !s.seen[v] && s.level[v] > 0 {
				s.seen[v] = true
				s.varBump(v)
				if s.level[v] >= s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Walk back to the next marked trail literal.
		for !s.seen[s.trail[idx].variable()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.variable()
		s.seen[v] = false
		counter--
		if counter <= 0 {
			break
		}
		confl = s.reason[v]
	}
	learnt[0] = -p

	// Cheap self-subsumption minimization: a lower-level literal is
	// redundant when its reason is covered by the learned clause.
	clearVars := make([]int, 0, len(learnt))
	for _, l := range learnt[1:] {
		clearVars = append(clearVars, l.variable())
	}
	j := 1
	for i := 1; i < len(learnt); i++ {
		v := learnt[i].variable()
		r := s.reason[v]
		redundant := r != nil
		if r != nil {
			for _, q := range r.lits {
				qv := q.variable()
				if qv == v {
					continue
				}
				if !s.seen[qv] && s.level[qv] > 0 {
					redundant = false
					break
				}
			}
		}
		if !redundant {
			learnt[j] = learnt[i]
			j++
		}
	}
	learnt = learnt[:j]
	for _, v := range clearVars {
		s.seen[v] = false
	}

	// Backjump level: the deepest level among the non-asserting
	// literals; move one such literal to the second watch slot.
	bt := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].variable()] > s.level[learnt[maxI].variable()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bt = s.level[learnt[1].variable()]
	}
	return learnt, bt
}

// analyzeFinal computes the subset of the assumption set responsible for
// falsifying assumption p (the unsat core): it walks the implication
// graph backwards from ¬p, collecting every assumption decision reached.
// At the moment a falsified assumption is detected, all decisions on the
// trail are assumptions (branching only starts after the full assumption
// prefix is asserted), so reason-less marked trail literals are exactly
// the core members.
func (s *sat) analyzeFinal(p lit) []lit {
	core := []lit{p}
	if s.decisionLevel() == 0 {
		return core
	}
	s.seen[p.variable()] = true
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		v := s.trail[i].variable()
		if !s.seen[v] {
			continue
		}
		if r := s.reason[v]; r == nil {
			core = append(core, s.trail[i])
		} else {
			for _, q := range r.lits {
				if s.level[q.variable()] > 0 {
					s.seen[q.variable()] = true
				}
			}
		}
		s.seen[v] = false
	}
	s.seen[p.variable()] = false
	return core
}

// record installs a learned clause after backjumping and enqueues its
// asserting literal.
func (s *sat) record(learnt []lit) {
	if len(learnt) == 1 {
		s.uncheckedEnqueue(learnt[0], nil)
		return
	}
	c := s.newClause(clause{lits: learnt, learnt: true, act: s.claInc})
	s.learnts = append(s.learnts, c)
	s.learned++
	s.attach(c)
	s.uncheckedEnqueue(learnt[0], c)
}

// handleConflict runs conflict analysis and backjumps. It returns false
// when the conflict proves the remaining space empty (conflict at level
// 0).
func (s *sat) handleConflict(confl *clause) bool {
	s.conflicts++
	s.sinceRestart++
	// Mid-search clause additions can surface conflicts below the
	// current decision level: drop to the deepest falsified level first
	// so first-UIP analysis sees a current-level literal.
	ml := 0
	for _, l := range confl.lits {
		if lv := s.level[l.variable()]; lv > ml {
			ml = lv
		}
	}
	if ml == 0 {
		return false
	}
	s.cancelUntil(ml)
	learnt, bt := s.analyze(confl)
	if s.decisionLevel()-bt > 1 {
		s.backjumps++
	}
	s.cancelUntil(bt)
	s.record(learnt)
	s.varDecay()
	s.claDecay()
	return true
}

// costConflict handles an objective-bound violation (curCost >= bound)
// as a conflict on the clause "some currently true weighted literal must
// be false". The clause is valid for the rest of the search because the
// bound only ever decreases. It returns false when no improving
// assignment exists.
func (s *sat) costConflict() bool {
	var c clause
	ml := 0
	for v := 1; v < s.nVars; v++ {
		if s.weight[v] > 0 && s.assign[v] == 1 {
			c.lits = append(c.lits, lit(-v))
			if lv := s.level[v]; lv > ml {
				ml = lv
			}
		}
	}
	if s.costGuard != 0 && s.value(s.costGuard) != 0 {
		// Session query: the bound clause is only valid while this query's
		// guard is assumed false; the guard literal makes it retirable.
		// An unassigned guard (level 0, before the assumptions are
		// re-asserted) has a stale recorded level, so level-0 cost alone
		// decides the conflict.
		c.lits = append(c.lits, s.costGuard)
		if lv := s.level[s.costGuard.variable()]; lv > ml {
			ml = lv
		}
	}
	if len(c.lits) == 0 || ml == 0 {
		// The bound is beaten by level-0 cost alone: nothing better
		// exists anywhere in the space.
		return false
	}
	s.cancelUntil(ml)
	return s.handleConflict(&c)
}

// restart abandons the current assignment (keeping level 0 and all
// learned clauses) and bumps the Luby schedule.
func (s *sat) restart() {
	s.restarts++
	s.cancelUntil(0)
	s.sinceRestart = 0
	s.lubySeq++
	s.restartLimit = restartBase * luby(s.lubySeq)
}

// luby returns the i-th element (0-based) of the Luby restart sequence
// 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
func luby(i int) int64 {
	size, seq := 1, 0
	for size < i+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != i {
		size = (size - 1) / 2
		seq--
		i %= size
	}
	return int64(1) << seq
}

// reduceDB removes the less active half of the learned clauses, keeping
// binary clauses and clauses that are the reason of a current assignment.
func (s *sat) reduceDB() {
	s.dbReductions++
	sort.SliceStable(s.learnts, func(i, j int) bool {
		return s.learnts[i].act < s.learnts[j].act
	})
	half := len(s.learnts) / 2
	kept := s.learnts[:0]
	for i, c := range s.learnts {
		if i < half && len(c.lits) > 2 && !s.locked(c) {
			s.detach(c)
			continue
		}
		kept = append(kept, c)
	}
	s.learnts = kept
}

func (s *sat) locked(c *clause) bool {
	v := c.lits[0].variable()
	return s.assign[v] != 0 && s.reason[v] == c
}

// backtrackForClause backjumps until the given clause is no longer
// conflicting (or level 0 is reached while still conflicting; the caller
// then declares root unsatisfiability).
func (s *sat) backtrackForClause(c []lit) {
	for s.decisionLevel() > 0 && s.clauseStatus(c) == -1 {
		ml := 0
		for _, l := range c {
			if lv := s.level[l.variable()]; lv > ml {
				ml = lv
			}
		}
		if ml == 0 {
			return
		}
		s.cancelUntil(ml - 1)
	}
}

// pickBranchVar returns the unassigned variable with the highest
// activity, or 0 when the assignment is total.
func (s *sat) pickBranchVar() int {
	for len(s.heap) > 0 {
		v := s.heapPop()
		if s.assign[v] == 0 {
			return v
		}
	}
	return 0
}

// search runs CDCL until a total assignment satisfies all clauses,
// calling onTotal. onTotal returns "accept": if false (model rejected,
// e.g. a loop clause was added) the search continues from the (possibly
// backjumped) state; if true the search also continues (enumeration)
// after the caller installed a blocking clause. search returns when the
// space is exhausted or onTotal signals stop via the returned stop flag.
// A budget cap or cancellation aborts the search with an
// *budget.ExhaustedError; the caller decides whether models found so far
// constitute a usable partial answer.
func (s *sat) search(onTotal func() (stop bool)) error {
	if s.maxLearnts == 0 {
		s.maxLearnts = 300 + len(s.clauses)/3
	}
	for {
		if s.unsatRoot {
			return nil
		}
		if err := s.checkBudget(); err != nil {
			return err
		}
		if confl := s.propagate(); confl != nil {
			if !s.handleConflict(confl) {
				// A propagation conflict at level 0 refutes the permanent
				// clause DB itself (query-guarded clauses cannot be
				// falsified at level 0 unless their guard is a level-0
				// consequence, which likewise refutes the unguarded DB),
				// so later session queries can short-circuit.
				s.unsatRoot = true
				return nil
			}
			continue
		}
		if s.pruning && s.curCost >= s.bound {
			if !s.costConflict() {
				return nil
			}
			continue
		}
		if s.sinceRestart >= s.restartLimit && s.decisionLevel() > 0 {
			s.restart()
			continue
		}
		if len(s.learnts) >= s.maxLearnts {
			s.reduceDB()
			s.maxLearnts += s.maxLearnts / 10
		}
		// Assert pending assumptions as pseudo-decisions at successive
		// levels before any branching. Restarts and backjumps may cancel
		// them; they are simply re-asserted here. A falsified assumption
		// means the space under the assumption set is exhausted: final-
		// conflict analysis extracts the responsible subset (unsat core).
		if s.decisionLevel() < len(s.assumps) {
			p := s.assumps[s.decisionLevel()]
			switch s.value(p) {
			case 1:
				// Already implied: open a dummy level so deeper
				// backjumps cannot remove it without re-assertion.
				s.trailLim = append(s.trailLim, len(s.trail))
			case -1:
				s.finalCore = s.analyzeFinal(p)
				s.assumpFailed = true
				return nil
			default:
				s.decide(p)
			}
			continue
		}
		v := s.pickBranchVar()
		if v == 0 {
			if onTotal() {
				return nil
			}
			if s.unsatRoot {
				return nil
			}
			// Continue: the callback added clauses or tightened the
			// bound; if the state is unchanged, total, and consistent
			// there is no way to force progress — the space is done.
			if s.qhead == len(s.trail) && len(s.heap) == 0 &&
				!(s.pruning && s.curCost >= s.bound) {
				return nil
			}
			continue
		}
		if s.phase[v] > 0 {
			s.decide(lit(v))
		} else {
			s.decide(lit(-v))
		}
	}
}

// witness is a literal held as its variable and the assignment value
// that makes it true.
type witness struct {
	v    int32
	want int8
}

func witnessOf(l lit) witness {
	if l < 0 {
		return witness{int32(-l), -1}
	}
	return witness{int32(l), 1}
}

// validateTotal checks that every problem clause holds at the current
// total assignment. Each clause's last witness is tried first; only a
// clause whose witness turned false is scanned.
func (s *sat) validateTotal() error {
	for ci, w := range s.witness {
		if s.assign[w.v] == w.want {
			continue
		}
		found := false
		for _, l := range s.clauses[ci].lits {
			if s.value(l) == 1 {
				s.witness[ci] = witnessOf(l)
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("solver: internal error: clause %d unsatisfied at total assignment", ci)
		}
	}
	return nil
}
