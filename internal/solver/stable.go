package solver

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"time"

	"cpsrisk/internal/budget"
	"cpsrisk/internal/logic"
	"cpsrisk/internal/obs"
)

// Options configures Solve.
type Options struct {
	// MaxModels bounds the number of returned models; 0 means all.
	MaxModels int
	// Optimize enables #minimize optimization: only optimal models are
	// returned (ignored when the program has no minimize statements).
	Optimize bool
	// Budget governs solver effort: context cancellation/deadline plus
	// decision and conflict caps (and, via SolveProgram, the grounding
	// cap). Nil means unlimited. When the budget trips mid-search, Solve
	// returns the models found so far with Result.Interrupted set instead
	// of an error.
	Budget *budget.Budget
}

// Model is one answer set.
type Model struct {
	// Atoms are the true, non-auxiliary ground atom keys, sorted.
	Atoms []string
	// Cost holds the objective per priority level for optimizing solves,
	// highest priority first.
	Cost []PriorityCost
}

// PriorityCost is the objective value at one priority level.
type PriorityCost struct {
	Priority int
	Cost     int
}

// Contains reports whether the model contains the atom key.
func (m *Model) Contains(key string) bool {
	i := sort.SearchStrings(m.Atoms, key)
	return i < len(m.Atoms) && m.Atoms[i] == key
}

// WithPredicate returns the atom keys of the model with the given
// predicate name.
func (m *Model) WithPredicate(pred string) []string {
	var out []string
	for _, a := range m.Atoms {
		if len(a) >= len(pred) && a[:len(pred)] == pred &&
			(len(a) == len(pred) || a[len(pred)] == '(') {
			out = append(out, a)
		}
	}
	return out
}

// Stats reports solver effort.
type Stats struct {
	Atoms        int
	GroundRules  int
	Vars         int
	Clauses      int
	Decisions    int64
	Conflicts    int64
	Propagations int64
	LoopClauses  int64
	StableChecks int64
	// Restarts counts level-0 restarts: Luby scheduled restarts and unit
	// clauses learned mid-search.
	Restarts int64
	// LearnedClauses counts clauses learned from first-UIP conflict
	// analysis (units excluded).
	LearnedClauses int64
	// Backjumps counts non-chronological backtracks: conflicts whose
	// backjump skipped more than one decision level.
	Backjumps int64
	// DBReductions counts learned-clause database reductions.
	DBReductions int64
	// Duration is the wall-clock time spent in Solve (translation plus
	// search).
	Duration time.Duration

	// Multi-shot counters. They count what ran: Sessions counts solver
	// sessions opened; Queries counts SolveAssuming calls answered across
	// them (a single-shot Solve is one session answering one query); Adds
	// counts incremental program deltas grounded into live sessions.
	Sessions int64
	Queries  int64
	Adds     int64
	// GroundAtomsReused counts possible ground atoms already present in a
	// session's atom pool when an incremental Add ran — grounding work
	// amortized instead of redone.
	GroundAtomsReused int64
	// LearnedReused counts learned clauses carried into a query from
	// earlier queries of the same session instead of being rediscovered.
	LearnedReused int64
}

// Result is the outcome of a Solve call.
type Result struct {
	Satisfiable bool
	Models      []Model
	// Optimal is true when Models are proven optimal.
	Optimal bool
	// Interrupted is true when the search stopped on budget exhaustion:
	// Models holds whatever was found up to that point (for optimizing
	// solves, the best model known so far) and InterruptReason says why
	// ("deadline", "cancelled", "decision-cap", "conflict-cap").
	Interrupted     bool
	InterruptReason string
	// Core names the assumptions responsible for unsatisfiability, in
	// sorted order, when a Session.SolveAssuming query fails: a (non-
	// minimal but conflict-directed) unsat core from final-conflict
	// analysis. Nil for satisfiable queries and for programs that are
	// unsatisfiable regardless of assumptions.
	Core  []string
	Stats Stats
}

// SolveProgram grounds and solves a logic program. Grounding is governed
// by opts.Budget too: exceeding the grounding-rule cap (or the deadline
// during grounding) aborts with an *budget.ExhaustedError, because a
// partially grounded program would be unsound to solve.
func SolveProgram(prog *logic.Program, opts Options) (*Result, error) {
	gp, err := Ground(prog, opts.Budget)
	if err != nil {
		return nil, err
	}
	return Solve(gp, opts)
}

// SolveSource parses, grounds, and solves program text.
func SolveSource(src string, opts Options) (*Result, error) {
	prog, err := logic.Parse(src)
	if err != nil {
		return nil, err
	}
	return SolveProgram(prog, opts)
}

// Solve computes stable models of a ground program: a one-query session
// that answers with no assumptions and is then closed. With a budget in
// opts, an exhausted cap does not error: the models found so far are
// returned with Result.Interrupted set and the final Stats filled in.
func Solve(gp *GroundProgram, opts Options) (*Result, error) {
	start := time.Now()
	sess, err := newSession(nil, gp, opts)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	res, err := sess.SolveAssuming(nil, opts)
	if err != nil {
		return nil, err
	}
	res.Stats.Duration = time.Since(start)
	PublishStats(obs.RegistryFromContext(opts.Budget.Context()), &res.Stats)
	return res, nil
}

// derivRule is the reduct-derivation view of a ground rule: one entry per
// basic rule head and per choice-rule head element (whose guard condition
// counts as a positive dependency).
type derivRule struct {
	head    AtomID
	pos     []AtomID
	neg     []AtomID
	choice  bool
	support lit // body var (basic) or body∧cond var (choice)
}

type translation struct {
	gp *GroundProgram
	s  *sat

	atomVar []int // AtomID -> sat var (0 = none)
	vTrue   int   // var forced true

	deriv  []derivRule
	posOcc [][]int32 // atom -> deriv rule indices with it in pos

	bodyMemo map[string]lit
	keyBuf   []byte
	sortBuf  []AtomID
	andMemo  map[[2]lit]lit

	costOffset int64
	loopAdds   int64
	stableCks  int64

	// The stability check's cone: the atoms that positively depend on a
	// non-trivial positive SCC (self-loops count), in ID order; the
	// derivation rules whose head is in the cone; and the atoms outside
	// the cone that those rules use positively. An empty cone means the
	// program is tight: the Clark completion is exact and every model of
	// the completion is stable (Fages' theorem).
	cone       []AtomID
	coneRules  []int32
	coneInputs []AtomID

	// sortedExt caches the non-internal atom IDs in name order so model
	// extraction avoids a per-model string sort.
	sortedExt []AtomID

	// minPrio maps each minimize element to its slot in a model's cost
	// vector; prios lists the priorities, highest first.
	minPrio []int
	prios   []int

	// Per-model scratch, reused across stability checks and blocking
	// clauses.
	ufDerived   []bool
	ufRemaining []int
	ufQueue     []AtomID
	blockBuf    []lit
	modelBuf    []string

	// Incremental extension state (multi-shot sessions): supports and
	// factHead persist so completion clauses for atoms introduced by a
	// later Add can be emitted against the full support picture;
	// translatedRules and knownAtoms record how far translation has
	// progressed into gp.
	supports        map[AtomID][]lit
	factHead        map[AtomID]bool
	translatedRules int
	knownAtoms      int
}

func translate(gp *GroundProgram) (*translation, error) {
	tr := &translation{
		gp:       gp,
		s:        newSAT(),
		atomVar:  make([]int, gp.NumAtoms()+1),
		bodyMemo: map[string]lit{},
		andMemo:  map[[2]lit]lit{},
		posOcc:   make([][]int32, gp.NumAtoms()+1),
	}
	tr.vTrue = tr.s.newVar()
	tr.s.addClause([]lit{lit(tr.vTrue)})
	for id := AtomID(1); id <= AtomID(gp.NumAtoms()); id++ {
		tr.atomVar[id] = tr.s.newVar()
	}

	tr.supports = make(map[AtomID][]lit)
	tr.factHead = make(map[AtomID]bool)

	for _, r := range gp.Rules {
		switch r.Kind {
		case KindBasic:
			if err := tr.translateBasic(r, tr.supports, tr.factHead); err != nil {
				return nil, err
			}
		case KindChoice:
			if err := tr.translateChoice(r, tr.supports); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("solver: unknown ground rule kind %d", r.Kind)
		}
	}

	// Completion support clauses: a true atom needs some support.
	for id := AtomID(1); id <= AtomID(gp.NumAtoms()); id++ {
		tr.emitCompletion(id)
	}

	if err := tr.translateObjective(); err != nil {
		return nil, err
	}
	tr.buildCone()
	tr.buildOrder()
	tr.translatedRules = len(gp.Rules)
	tr.knownAtoms = gp.NumAtoms()
	return tr, nil
}

// emitCompletion adds the support clause of one atom: a true atom needs
// some support (¬a ∨ sup1 ∨ ... ∨ supK). Fact heads and tautological
// supports skip the clause.
func (tr *translation) emitCompletion(id AtomID) {
	if tr.factHead[id] {
		return
	}
	sup := tr.supports[id]
	clause := make([]lit, 0, len(sup)+1)
	clause = append(clause, -tr.atomLit(id))
	for _, l := range sup {
		if l == tr.trueLit() {
			return
		}
		clause = append(clause, l)
	}
	tr.s.addClause(clause)
}

// growAtoms allocates solver variables (and completion clauses, when
// emitNewCompletions is set) for atoms interned into gp since the last
// translation pass.
func (tr *translation) growAtoms(emitNewCompletions bool) {
	gp := tr.gp
	if gp.NumAtoms() <= tr.knownAtoms {
		return
	}
	first := AtomID(tr.knownAtoms + 1)
	for id := first; id <= AtomID(gp.NumAtoms()); id++ {
		tr.atomVar = append(tr.atomVar, tr.s.newVar())
		tr.posOcc = append(tr.posOcc, nil)
	}
	if emitNewCompletions {
		for id := first; id <= AtomID(gp.NumAtoms()); id++ {
			tr.emitCompletion(id)
		}
	}
	tr.knownAtoms = gp.NumAtoms()
	tr.sortedExt = nil
}

// extendTranslation incorporates the rules appended to gp since the last
// translation pass. Precondition (enforced by Session.Add): every new
// rule head is an atom first interned by this delta, so no existing
// completion clause loses exactness — all previously learned clauses
// remain logical consequences of the extended program. Must run at
// decision level 0; a level-0 propagation conflict afterwards proves the
// extended program unsatisfiable.
func (tr *translation) extendTranslation() error {
	gp := tr.gp
	firstNew := AtomID(tr.knownAtoms + 1)
	tr.growAtoms(false)
	for _, r := range gp.Rules[tr.translatedRules:] {
		switch r.Kind {
		case KindBasic:
			if err := tr.translateBasic(r, tr.supports, tr.factHead); err != nil {
				return err
			}
		case KindChoice:
			if err := tr.translateChoice(r, tr.supports); err != nil {
				return err
			}
		default:
			return fmt.Errorf("solver: unknown ground rule kind %d", r.Kind)
		}
	}
	for id := firstNew; id <= AtomID(gp.NumAtoms()); id++ {
		tr.emitCompletion(id)
	}
	tr.translatedRules = len(gp.Rules)
	tr.buildCone()
	if !tr.s.unsatRoot {
		if confl := tr.s.propagate(); confl != nil {
			tr.s.unsatRoot = true
		}
	}
	return nil
}

// addConstraintsInSearch injects a constraints-only delta into a live
// search through the backjump-then-add path, preserving the search state
// (learned clauses, activities, phases, and the trail above the deepest
// conflicting level). This is the hot path of iterated enumeration:
// blocking constraints land as single clauses, no restart. Atoms first
// interned by the delta head no rule anywhere, so they are pinned false
// by their (empty-support) completion unit.
func (tr *translation) addConstraintsInSearch() {
	gp := tr.gp
	tr.growAtoms(true)
	for _, r := range gp.Rules[tr.translatedRules:] {
		clause := make([]lit, 0, len(r.Pos)+len(r.Neg))
		for _, p := range r.Pos {
			clause = append(clause, -tr.atomLit(p))
		}
		for _, n := range r.Neg {
			clause = append(clause, tr.atomLit(n))
		}
		tr.addSearchClause(clause)
		if tr.s.unsatRoot {
			break
		}
	}
	tr.translatedRules = len(gp.Rules)
}

// buildCone computes the stability check's cone over the positive
// dependency graph (head -> positive body atoms over all derivation
// rules): Tarjan's algorithm finds the atoms in non-trivial SCCs or on
// self-loops, and a backward search over posOcc adds every atom that
// positively depends on one of them. It runs on every (re)translation,
// so Session.Add keeps the cone current.
func (tr *translation) buildCone() {
	n := tr.gp.NumAtoms()
	headRules := make([][]int32, n+1)
	for ri := range tr.deriv {
		if h := tr.deriv[ri].head; h != 0 {
			headRules[h] = append(headRules[h], int32(ri))
		}
	}
	num := make([]int32, n+1) // DFS number; 0 = unvisited
	low := make([]int32, n+1)
	onStack := make([]bool, n+1)
	inCone := make([]bool, n+1)
	var sccStack, queue []AtomID
	type frame struct {
		id     AtomID
		ri, pi int // next edge: pos[pi] of rule headRules[id][ri]
	}
	var frames []frame
	next := int32(0)
	visit := func(id AtomID) {
		next++
		num[id], low[id] = next, next
		onStack[id] = true
		sccStack = append(sccStack, id)
		frames = append(frames, frame{id: id})
	}
	for start := AtomID(1); start <= AtomID(n); start++ {
		if num[start] != 0 {
			continue
		}
		visit(start)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			descended := false
			for f.ri < len(headRules[f.id]) {
				pos := tr.deriv[headRules[f.id][f.ri]].pos
				if f.pi >= len(pos) {
					f.ri++
					f.pi = 0
					continue
				}
				w := pos[f.pi]
				f.pi++
				if num[w] == 0 {
					visit(w)
					descended = true
					break
				}
				if onStack[w] {
					low[f.id] = min(low[f.id], num[w])
					if w == f.id {
						inCone[w] = true // self-loop
					}
				}
			}
			if descended {
				continue
			}
			id := f.id
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].id
				low[p] = min(low[p], low[id])
			}
			if low[id] != num[id] {
				continue
			}
			// id roots an SCC: pop it; two or more atoms make it cyclic.
			k := len(sccStack) - 1
			for sccStack[k] != id {
				k--
			}
			scc := sccStack[k:]
			for _, a := range scc {
				onStack[a] = false
				if len(scc) > 1 {
					inCone[a] = true
				}
			}
			sccStack = sccStack[:k]
		}
	}
	for id := AtomID(1); id <= AtomID(n); id++ {
		if inCone[id] {
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		a := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ri := range tr.posOcc[a] {
			if h := tr.deriv[ri].head; !inCone[h] {
				inCone[h] = true
				queue = append(queue, h)
			}
		}
	}
	tr.cone, tr.coneRules, tr.coneInputs = tr.cone[:0], tr.coneRules[:0], tr.coneInputs[:0]
	for id := AtomID(1); id <= AtomID(n); id++ {
		if inCone[id] {
			tr.cone = append(tr.cone, id)
		}
	}
	if len(tr.cone) == 0 {
		return
	}
	input := onStack // all false again: reuse as the input marks
	for ri := range tr.deriv {
		dr := &tr.deriv[ri]
		if !inCone[dr.head] {
			continue
		}
		tr.coneRules = append(tr.coneRules, int32(ri))
		for _, p := range dr.pos {
			if !inCone[p] && !input[p] {
				input[p] = true
				tr.coneInputs = append(tr.coneInputs, p)
			}
		}
	}
	tr.ufDerived = make([]bool, n+1)
	tr.ufRemaining = make([]int, len(tr.deriv))
}

func (tr *translation) trueLit() lit  { return lit(tr.vTrue) }
func (tr *translation) falseLit() lit { return -lit(tr.vTrue) }

func (tr *translation) atomLit(id AtomID) lit { return lit(tr.atomVar[id]) }

func (tr *translation) translateBasic(r GroundRule, supports map[AtomID][]lit, factHead map[AtomID]bool) error {
	beta := tr.bodyVar(r.Pos, r.Neg)
	if r.Head == 0 {
		// Integrity constraint: body must be false.
		if beta == tr.trueLit() {
			tr.s.unsatRoot = true
			return nil
		}
		tr.s.addClause([]lit{-beta})
		return nil
	}
	h := tr.atomLit(r.Head)
	if beta == tr.trueLit() {
		tr.s.addClause([]lit{h})
		factHead[r.Head] = true
	} else {
		tr.s.addClause([]lit{-beta, h}) // forward: body -> head
	}
	supports[r.Head] = append(supports[r.Head], beta)
	tr.addDeriv(derivRule{head: r.Head, pos: r.Pos, neg: r.Neg, support: beta})
	return nil
}

func (tr *translation) translateChoice(r GroundRule, supports map[AtomID][]lit) error {
	beta := tr.bodyVar(r.Pos, r.Neg)
	n := len(r.Heads)
	counted := make([]lit, 0, n)
	for i, h := range r.Heads {
		condLit := tr.trueLit()
		var pos []AtomID
		pos = append(pos, r.Pos...)
		if r.Conds[i] != 0 {
			condLit = tr.atomLit(r.Conds[i])
			pos = append(pos, r.Conds[i])
		}
		sigma := tr.and(beta, condLit)
		supports[h] = append(supports[h], sigma)
		tr.addDeriv(derivRule{head: h, pos: pos, neg: r.Neg, choice: true, support: sigma})
		counted = append(counted, tr.and(tr.atomLit(h), condLit))
	}
	lower, upper := r.Lower, r.Upper
	if lower == logic.Unbounded {
		lower = 0
	}
	if lower == 0 && (upper == logic.Unbounded || upper >= n) {
		return nil // no cardinality constraint
	}
	if lower > n {
		// Impossible bound: body must be false.
		if beta == tr.trueLit() {
			tr.s.unsatRoot = true
			return nil
		}
		tr.s.addClause([]lit{-beta})
		return nil
	}
	atLeast := tr.seqCounter(counted, maxBoundCol(lower, upper, n))
	if lower > 0 {
		tr.s.addClause([]lit{-beta, atLeast(lower)})
	}
	if upper != logic.Unbounded && upper < n {
		tr.s.addClause([]lit{-beta, -atLeast(upper + 1)})
	}
	return nil
}

func maxBoundCol(lower, upper, n int) int {
	k := lower
	if upper != logic.Unbounded && upper+1 > k {
		k = upper + 1
	}
	if k > n {
		k = n
	}
	return k
}

func (tr *translation) addDeriv(dr derivRule) {
	idx := int32(len(tr.deriv))
	tr.deriv = append(tr.deriv, dr)
	for _, p := range dr.pos {
		tr.posOcc[p] = append(tr.posOcc[p], idx)
	}
}

// bodyVar returns a literal equivalent to the conjunction of the body.
func (tr *translation) bodyVar(pos, neg []AtomID) lit {
	if len(pos) == 0 && len(neg) == 0 {
		return tr.trueLit()
	}
	if len(pos) == 1 && len(neg) == 0 {
		return tr.atomLit(pos[0])
	}
	if len(pos) == 0 && len(neg) == 1 {
		return -tr.atomLit(neg[0])
	}
	key := tr.bodyKey(pos, neg)
	if b, ok := tr.bodyMemo[string(key)]; ok {
		return b
	}
	v := tr.s.newVar()
	beta := lit(v)
	long := make([]lit, 0, len(pos)+len(neg)+1)
	long = append(long, beta)
	for _, p := range pos {
		l := tr.atomLit(p)
		tr.s.addClause([]lit{-beta, l})
		long = append(long, -l)
	}
	for _, n := range neg {
		l := -tr.atomLit(n)
		tr.s.addClause([]lit{-beta, l})
		long = append(long, -l)
	}
	tr.s.addClause(long)
	tr.bodyMemo[string(key)] = beta
	return beta
}

// bodyKey renders a body into the reused key buffer: its positive and
// its negative atom IDs, each sorted with repeats kept, as uvarints with
// a zero byte between the two lists (IDs start at 1, so no uvarint of
// one holds a zero byte).
func (tr *translation) bodyKey(pos, neg []AtomID) []byte {
	buf := tr.keyBuf[:0]
	for i, ids := range [2][]AtomID{pos, neg} {
		if i > 0 {
			buf = append(buf, 0)
		}
		tr.sortBuf = append(tr.sortBuf[:0], ids...)
		slices.Sort(tr.sortBuf)
		for _, id := range tr.sortBuf {
			buf = binary.AppendUvarint(buf, uint64(id))
		}
	}
	tr.keyBuf = buf
	return buf
}

// and returns a literal equivalent to a ∧ b.
func (tr *translation) and(a, b lit) lit {
	if a == tr.trueLit() {
		return b
	}
	if b == tr.trueLit() {
		return a
	}
	if a == tr.falseLit() || b == tr.falseLit() {
		return tr.falseLit()
	}
	if a == b {
		return a
	}
	if a == -b {
		return tr.falseLit()
	}
	key := [2]lit{a, b}
	if a > b {
		key = [2]lit{b, a}
	}
	if x, ok := tr.andMemo[key]; ok {
		return x
	}
	x := lit(tr.s.newVar())
	tr.s.addClause([]lit{-x, a})
	tr.s.addClause([]lit{-x, b})
	tr.s.addClause([]lit{x, -a, -b})
	tr.andMemo[key] = x
	return x
}

// or returns a literal equivalent to a ∨ b.
func (tr *translation) or(a, b lit) lit { return -tr.and(-a, -b) }

// seqCounter builds a sequential cardinality counter over lits and returns
// a function mapping k (1..maxK) to a literal equivalent to
// "at least k of lits are true".
func (tr *translation) seqCounter(lits []lit, maxK int) func(int) lit {
	n := len(lits)
	// prev[j] = at-least-j among first i literals.
	prev := make([]lit, maxK+1)
	prev[0] = tr.trueLit()
	for j := 1; j <= maxK; j++ {
		prev[j] = tr.falseLit()
	}
	for i := 1; i <= n; i++ {
		cur := make([]lit, maxK+1)
		cur[0] = tr.trueLit()
		for j := 1; j <= maxK; j++ {
			// cur[j] = prev[j] ∨ (lits[i-1] ∧ prev[j-1])
			cur[j] = tr.or(prev[j], tr.and(lits[i-1], prev[j-1]))
		}
		prev = cur
	}
	return func(k int) lit {
		if k <= 0 {
			return tr.trueLit()
		}
		if k > maxK {
			return tr.falseLit()
		}
		return prev[k]
	}
}

// translateObjective folds multi-priority minimize elements into a single
// nonnegative objective on sat variables (big-M combination of priorities;
// negative weights are shifted through the complement literal).
func (tr *translation) translateObjective() error {
	if len(tr.gp.Minimize) == 0 {
		return nil
	}
	// Per-priority sum of |weights| to size the scales.
	sums := map[int]int64{}
	prios := []int{}
	for _, m := range tr.gp.Minimize {
		if _, ok := sums[m.Priority]; !ok {
			prios = append(prios, m.Priority)
		}
		w := int64(m.Weight)
		if w < 0 {
			w = -w
		}
		sums[m.Priority] += w
	}
	sort.Ints(prios) // ascending: lowest priority least significant
	scale := map[int]int64{}
	var acc int64 = 1
	for _, p := range prios {
		scale[p] = acc
		next := acc * (sums[p] + 1)
		if next < acc || next > 1<<60 {
			return fmt.Errorf("solver: objective overflow combining priorities")
		}
		acc = next
	}
	for _, m := range tr.gp.Minimize {
		g := tr.atomLit(m.Guard)
		w := int64(m.Weight) * scale[m.Priority]
		if w >= 0 {
			tr.s.weight[g.variable()] += w
			continue
		}
		// w*g == w + (-w)*(¬g): put -w on a complement variable.
		x := tr.s.newVar()
		tr.s.addClause([]lit{lit(x), g})
		tr.s.addClause([]lit{-lit(x), -g})
		tr.s.weight[x] += -w
		tr.costOffset += w
	}
	return nil
}

// buildOrder seeds the branching activities so choice-supported atoms
// (the generators) are tried first, then everything else in index order,
// until conflict-driven bumps take over.
func (tr *translation) buildOrder() {
	choiceVars := map[int]bool{}
	for _, dr := range tr.deriv {
		if dr.choice {
			choiceVars[tr.atomVar[dr.head]] = true
		}
	}
	order := make([]int, 0, tr.s.nVars)
	for v := 1; v < tr.s.nVars; v++ {
		if choiceVars[v] {
			order = append(order, v)
		}
	}
	for v := 1; v < tr.s.nVars; v++ {
		if !choiceVars[v] {
			order = append(order, v)
		}
	}
	tr.s.seedActivities(order)
}

func (tr *translation) fillStats(st *Stats) {
	st.Atoms = tr.gp.NumAtoms()
	st.GroundRules = len(tr.gp.Rules)
	st.Vars = tr.s.nVars - 1
	st.Clauses = len(tr.s.clauses)
	st.Decisions = tr.s.decisions
	st.Conflicts = tr.s.conflicts
	st.Propagations = tr.s.propagations
	st.LoopClauses = tr.loopAdds
	st.StableChecks = tr.stableCks
	st.Restarts = tr.s.restarts
	st.LearnedClauses = tr.s.learned
	st.Backjumps = tr.s.backjumps
	st.DBReductions = tr.s.dbReductions
}

// atomTrue reports the truth of an atom in the current total assignment.
func (tr *translation) atomTrue(id AtomID) bool {
	return tr.s.assign[tr.atomVar[id]] == 1
}

// unfoundedSet returns the set of true-but-underivable atoms for the
// current total assignment, in ID order, or nil if the assignment is
// stable. The caller has checked every clause (validateTotal), so the
// completion holds: a true atom outside the cone is founded, by
// induction over its acyclic positive dependencies. The fixpoint
// therefore runs over the cone alone, with each input atom derived iff
// it is true, and returns exactly the whole-program fixpoint's set.
func (tr *translation) unfoundedSet() []AtomID {
	tr.stableCks++
	if len(tr.cone) == 0 {
		return nil
	}
	derived := tr.ufDerived
	remaining := tr.ufRemaining
	queue := tr.ufQueue[:0]
	for _, a := range tr.cone {
		derived[a] = false
	}
	for _, a := range tr.coneInputs {
		derived[a] = tr.atomTrue(a)
	}

	// fire derives rule ri's (true) head when no negative body atom is
	// true.
	fire := func(ri int32) {
		dr := &tr.deriv[ri]
		for _, n := range dr.neg {
			if tr.atomTrue(n) {
				return
			}
		}
		if id := dr.head; !derived[id] && tr.atomTrue(id) {
			derived[id] = true
			queue = append(queue, id)
		}
	}

	for _, ri := range tr.coneRules {
		cnt := 0
		for _, p := range tr.deriv[ri].pos {
			if !derived[p] {
				cnt++
			}
		}
		remaining[ri] = cnt
		if cnt == 0 {
			fire(ri)
		}
	}
	for len(queue) > 0 {
		a := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ri := range tr.posOcc[a] {
			dr := &tr.deriv[ri]
			// Decrement once per occurrence of a in pos.
			for _, p := range dr.pos {
				if p == a {
					remaining[ri]--
				}
			}
			if remaining[ri] <= 0 {
				// Fire only if truly all pos derived (duplicates handled by
				// exact re-count).
				ok := true
				for _, p := range dr.pos {
					if !derived[p] {
						ok = false
						break
					}
				}
				if ok {
					fire(ri)
				}
			}
		}
	}
	tr.ufQueue = queue[:0]

	var unfounded []AtomID
	for _, id := range tr.cone {
		if tr.atomTrue(id) && !derived[id] {
			unfounded = append(unfounded, id)
		}
	}
	return unfounded
}

// loopClause builds the loop formula for an unfounded set:
// ⋁_{u∈U} ¬u  ∨  ⋁ external supports of U.
func (tr *translation) loopClause(unfounded []AtomID) []lit {
	inU := map[AtomID]bool{}
	for _, u := range unfounded {
		inU[u] = true
	}
	clause := make([]lit, 0, len(unfounded)+4)
	for _, u := range unfounded {
		clause = append(clause, -tr.atomLit(u))
	}
	seen := map[lit]bool{}
	for _, dr := range tr.deriv {
		if !inU[dr.head] {
			continue
		}
		external := true
		for _, p := range dr.pos {
			if inU[p] {
				external = false
				break
			}
		}
		if !external || dr.support == tr.trueLit() || seen[dr.support] {
			continue
		}
		seen[dr.support] = true
		clause = append(clause, dr.support)
	}
	return clause
}

// addSearchClause adds c during search, backjumping until it is not
// conflicting. c may be scratch: the stored clause is a copy in the
// engine's literal arena.
func (tr *translation) addSearchClause(c []lit) {
	tr.s.backtrackForClause(c)
	if tr.s.clauseStatus(c) == -1 {
		// Conflicting even at level 0: no further models exist.
		tr.s.unsatRoot = true
		return
	}
	tr.s.addClause(tr.s.storeLits(c))
}

// sortedExternal returns (and caches) the non-internal atom IDs sorted
// by atom name.
func (tr *translation) sortedExternal() []AtomID {
	if tr.sortedExt == nil {
		ids := make([]AtomID, 0, tr.gp.NumAtoms())
		for id := AtomID(1); id <= AtomID(tr.gp.NumAtoms()); id++ {
			if !tr.gp.IsInternal(id) {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool {
			return tr.gp.AtomName(ids[i]) < tr.gp.AtomName(ids[j])
		})
		tr.sortedExt = ids
	}
	return tr.sortedExt
}

// extractModel reads the current stable assignment into a Model,
// allocating only the model's own slices.
func (tr *translation) extractModel() Model {
	buf := tr.modelBuf[:0]
	for _, id := range tr.sortedExternal() {
		if tr.atomTrue(id) {
			buf = append(buf, tr.gp.AtomName(id))
		}
	}
	tr.modelBuf = buf
	m := Model{Atoms: make([]string, len(buf))}
	copy(m.Atoms, buf)
	if len(tr.gp.Minimize) > 0 {
		m.Cost = tr.modelCosts()
	}
	return m
}

// modelCosts sums the true minimize guards' weights per priority,
// highest priority first.
func (tr *translation) modelCosts() []PriorityCost {
	if tr.minPrio == nil {
		slot := map[int]int{}
		for _, gm := range tr.gp.Minimize {
			if _, ok := slot[gm.Priority]; !ok {
				slot[gm.Priority] = 0
				tr.prios = append(tr.prios, gm.Priority)
			}
		}
		sort.Sort(sort.Reverse(sort.IntSlice(tr.prios)))
		for i, p := range tr.prios {
			slot[p] = i
		}
		tr.minPrio = make([]int, len(tr.gp.Minimize))
		for i, gm := range tr.gp.Minimize {
			tr.minPrio[i] = slot[gm.Priority]
		}
	}
	out := make([]PriorityCost, len(tr.prios))
	for i, p := range tr.prios {
		out[i].Priority = p
	}
	for i, gm := range tr.gp.Minimize {
		if tr.atomTrue(gm.Guard) {
			out[tr.minPrio[i]].Cost += gm.Weight
		}
	}
	return out
}

// blockingClause excludes the current total assignment by the negation of
// its decision literals (clasp-style solution recording). It returns
// scratch that the next call reuses; addSearchClause stores a copy. The decisions are the
// first trail literal of each level with no reason: branching decisions
// and the assumption pseudo-decisions, the guard's own included; a dummy
// assumption level opens on an already-implied literal and contributes
// nothing. Above level 0 only decide enqueues without a reason (unit
// clauses, learned or imported, cancel to level 0 first), so the
// assignment is the propagation closure of these literals under clauses
// that hold in every model not yet reported. Every auxiliary variable is
// defined by an equivalence over atoms, so the clause blocks exactly this
// model and no other.
func (tr *translation) blockingClause() []lit {
	s := tr.s
	clause := tr.blockBuf[:0]
	for i, start := range s.trailLim {
		end := len(s.trail)
		if i+1 < len(s.trailLim) {
			end = s.trailLim[i+1]
		}
		if start == end {
			continue // dummy assumption level
		}
		if d := s.trail[start]; s.reason[d.variable()] == nil {
			clause = append(clause, -d)
		}
	}
	tr.blockBuf = clause
	return clause
}
