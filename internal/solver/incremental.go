package solver

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"cpsrisk/internal/budget"
	"cpsrisk/internal/faultinject"
	"cpsrisk/internal/logic"
	"cpsrisk/internal/obs"
)

// Session is a persistent multi-shot solver, the clingo-style counterpart
// to single-shot SolveProgram: the base program is grounded and translated
// once, incremental deltas are grounded only against the new frontier of
// the persistent atom pool, and a stream of queries is answered under
// assumptions while learned clauses, EVSIDS activities, and saved phases
// carry over from query to query. Single-shot Solve is a one-query
// session, so every search runs through SolveAssuming.
//
// A Session is one CDCL engine and strictly single-goroutine: concurrent
// use panics. Callers that parallelize (hazard sweeps, CEGAR oracles)
// keep one session per worker.
type Session struct {
	gr   *grounder // nil for Solve's one-query session, which never Adds
	opts Options

	inUse  atomic.Bool
	broken error // set when an Add/solve error leaves the state inconsistent
	closed bool

	// tr is the session's engine. cardFns caches its cardinality circuits
	// (predicate -> at-least-k literal function over the predicate's
	// ground atoms); the cache is dropped whenever an Add emits
	// non-constraint rules (the predicate's atom set may grow).
	tr      *translation
	cardFns map[string]func(int) lit

	// Cumulative session counters and engine counters banked from
	// translations discarded by slow-path rebuilds.
	queries, adds               int64
	groundReused, learnedReused int64
	accum                       Stats
}

// Assumption fixes a literal for the duration of one SolveAssuming call
// without changing the program. Either Atom or Count is set:
//
//   - Atom names a ground atom key (e.g. "active(c1,stuck)"); the query
//     is restricted to answer sets where it is True (or false).
//   - Count names a predicate; the query is restricted to answer sets
//     with at least K true atoms of that predicate (True), or fewer than
//     K (False). The cardinality circuit is built lazily per predicate
//     and shared by all bounds.
//
// Assumptions are decisions, not axioms: clauses learned under them are
// consequences of the program alone and stay valid for later queries.
type Assumption struct {
	Atom  string
	Count string
	K     int
	True  bool
}

// AssumeTrue restricts a query to answer sets containing the atom.
func AssumeTrue(atom string) Assumption { return Assumption{Atom: atom, True: true} }

// AssumeFalse restricts a query to answer sets excluding the atom.
func AssumeFalse(atom string) Assumption { return Assumption{Atom: atom} }

// AssumeCountGE restricts a query to answer sets with at least k true
// atoms of the predicate.
func AssumeCountGE(pred string, k int) Assumption {
	return Assumption{Count: pred, K: k, True: true}
}

// AssumeCountLT restricts a query to answer sets with fewer than k true
// atoms of the predicate.
func AssumeCountLT(pred string, k int) Assumption {
	return Assumption{Count: pred, K: k}
}

func (a Assumption) describe() string {
	if a.Count != "" {
		if a.True {
			return fmt.Sprintf("#count{%s} >= %d", a.Count, a.K)
		}
		return fmt.Sprintf("#count{%s} < %d", a.Count, a.K)
	}
	if a.True {
		return a.Atom
	}
	return "not " + a.Atom
}

// NewSession grounds and translates the base program into a persistent
// solver. opts supplies the default budget and solve options for queries;
// MaxModels/Optimize can be overridden per SolveAssuming call. #minimize
// statements are allowed only in the base program.
func NewSession(prog *logic.Program, opts Options) (*Session, error) {
	if err := prog.CheckSafety(); err != nil {
		return nil, err
	}
	sp := startSpan(opts.Budget, "session-ground")
	defer sp.End()
	gr := newSessionGrounder(opts.Budget)
	if _, err := gr.addRules(prog.Rules); err != nil {
		return nil, err
	}
	if err := gr.groundMinimize(prog.Minimize); err != nil {
		return nil, err
	}
	return newSession(gr, gr.out, opts)
}

// newSession translates gp into the session's engine. gr is the grounder
// Add extends; Solve passes nil.
func newSession(gr *grounder, gp *GroundProgram, opts Options) (*Session, error) {
	tr, err := translate(gp)
	if err != nil {
		return nil, err
	}
	return &Session{gr: gr, opts: opts, tr: tr, cardFns: map[string]func(int) lit{}}, nil
}

func (s *Session) acquire() {
	if !s.inUse.CompareAndSwap(false, true) {
		panic("solver: concurrent use of Session (a Session is single-goroutine; use one per worker)")
	}
}

func (s *Session) release() { s.inUse.Store(false) }

func (s *Session) usable() error {
	if s.closed {
		return fmt.Errorf("solver: session is closed")
	}
	return s.broken
}

func (s *Session) fail(err error) {
	s.broken = fmt.Errorf("solver: session unusable after error: %w", err)
}

// Close releases the session. Further calls error.
func (s *Session) Close() {
	s.acquire()
	defer s.release()
	s.closed = true
	s.gr = nil
	s.tr = nil
}

// Add grounds a program delta into the live session. The delta is
// classified by what it actually grounds to:
//
//   - constraints only: each lands as a single clause through the
//     backjump-then-add path — no restart, full search state retained
//     (the hot path of iterated enumeration);
//   - every new rule head first interned by this delta: the existing
//     completion clauses stay exact, so the translation is extended in
//     place at decision level 0, keeping learned clauses, activities,
//     and phases;
//   - anything else (new support for an existing atom, or a choice
//     instantiation whose element set grew, forcing a retraction): the
//     translation is rebuilt, carrying per-atom activities and phases
//     but dropping learned clauses.
//
// Deltas cannot introduce #minimize statements.
func (s *Session) Add(prog *logic.Program) error {
	s.acquire()
	defer s.release()
	if err := s.usable(); err != nil {
		return err
	}
	if len(prog.Minimize) > 0 {
		return fmt.Errorf("solver: session Add cannot introduce #minimize statements")
	}
	if err := prog.CheckSafety(); err != nil {
		return err
	}
	s.adds++
	asp := startSpan(s.opts.Budget, "add#%d", s.adds)
	defer asp.End()
	s.groundReused += s.gr.numPossible
	prevKnown := s.tr.knownAtoms
	retracted, err := s.gr.addRules(prog.Rules)
	if err != nil {
		s.fail(err)
		return err
	}
	if retracted {
		s.cardFns = map[string]func(int) lit{}
		if err := s.rebuildTranslation(); err != nil {
			s.fail(err)
			return err
		}
		return nil
	}
	constraintsOnly, freshHeads := true, true
	for _, r := range s.tr.gp.Rules[s.tr.translatedRules:] {
		switch r.Kind {
		case KindBasic:
			if r.Head != 0 {
				constraintsOnly = false
				if int(r.Head) <= prevKnown {
					freshHeads = false
				}
			}
		case KindChoice:
			constraintsOnly = false
			for _, h := range r.Heads {
				if int(h) <= prevKnown {
					freshHeads = false
				}
			}
		default:
			constraintsOnly, freshHeads = false, false
		}
	}
	if constraintsOnly {
		s.tr.addConstraintsInSearch()
		return nil
	}
	s.cardFns = map[string]func(int) lit{}
	if freshHeads {
		s.tr.s.cancelUntil(0)
		if err := s.tr.extendTranslation(); err != nil {
			s.fail(err)
			return err
		}
		return nil
	}
	if err := s.rebuildTranslation(); err != nil {
		s.fail(err)
		return err
	}
	return nil
}

// rebuildTranslation retranslates the (compacted) ground program from
// scratch, banking the old engine's statistics and carrying each atom's
// branching activity and saved phase into the new engine. Learned
// clauses are dropped: after a retraction they may no longer be
// consequences of the program.
func (s *Session) rebuildTranslation() error {
	old := s.tr
	var tmp Stats
	old.fillStats(&tmp)
	addEngineStats(&s.accum, &tmp)
	ntr, err := translate(old.gp)
	if err != nil {
		return err
	}
	oldS, newS := old.s, ntr.s
	newS.varInc = oldS.varInc
	for id := 1; id <= old.knownAtoms; id++ {
		ov, nv := old.atomVar[id], ntr.atomVar[id]
		newS.activity[nv] = oldS.activity[ov]
		if v := oldS.assign[ov]; v != 0 {
			newS.phase[nv] = v
		} else if oldS.phase[ov] != 0 {
			newS.phase[nv] = oldS.phase[ov]
		}
	}
	// Restore the heap invariant under the carried activities.
	for i := len(newS.heap)/2 - 1; i >= 0; i-- {
		newS.heapDown(i)
	}
	s.tr = ntr
	return nil
}

func addEngineStats(dst, src *Stats) {
	dst.Decisions += src.Decisions
	dst.Conflicts += src.Conflicts
	dst.Propagations += src.Propagations
	dst.LoopClauses += src.LoopClauses
	dst.StableChecks += src.StableChecks
	dst.Restarts += src.Restarts
	dst.LearnedClauses += src.LearnedClauses
	dst.Backjumps += src.Backjumps
	dst.DBReductions += src.DBReductions
}

// countFn returns (building and caching on first use) the at-least-k
// literal function over the predicate's ground atoms, in atom-id order.
// Must be called at decision level 0.
func (s *Session) countFn(pred string) func(int) lit {
	if fn, ok := s.cardFns[pred]; ok {
		return fn
	}
	tr := s.tr
	gp := tr.gp
	var lits []lit
	for id := AtomID(1); id <= AtomID(gp.NumAtoms()); id++ {
		if gp.IsInternal(id) {
			continue
		}
		name := gp.AtomName(id)
		if len(name) >= len(pred) && name[:len(pred)] == pred &&
			(len(name) == len(pred) || name[len(pred)] == '(') {
			lits = append(lits, tr.atomLit(id))
		}
	}
	fn := tr.seqCounter(lits, len(lits))
	s.cardFns[pred] = fn
	return fn
}

// assumptionLit maps one assumption to the literal to assert. known is
// false when the assumption names an atom absent from the ground program:
// such an atom is false in every answer set, so assuming it false is
// vacuous and assuming it true is immediately unsatisfiable.
func (s *Session) assumptionLit(a Assumption) (l lit, known bool) {
	if a.Count != "" {
		l = s.countFn(a.Count)(a.K)
		if !a.True {
			l = -l
		}
		return l, true
	}
	id, ok := s.tr.gp.LookupAtom(a.Atom)
	if !ok {
		return 0, false
	}
	l = s.tr.atomLit(id)
	if !a.True {
		l = -l
	}
	return l, true
}

// SolveAssuming answers one query under the given assumptions, retaining
// all search state for the next one. Enumerated models, optimization
// bounds, and blocking clauses are query-local (guarded by a per-query
// literal and retired afterwards); loop formulas and learned clauses are
// program consequences and persist. An unsatisfiable assumption set
// reports the responsible subset in Result.Core.
func (s *Session) SolveAssuming(assumptions []Assumption, opts Options) (*Result, error) {
	s.acquire()
	defer s.release()
	if err := s.usable(); err != nil {
		return nil, err
	}
	start := time.Now()
	if opts.Budget == nil {
		opts.Budget = s.opts.Budget
	}
	s.queries++
	qsp := startSpan(opts.Budget, "query#%d", s.queries)
	defer qsp.End()
	defer func() {
		obs.RegistryFromContext(opts.Budget.Context()).
			Histogram("solver.query_us").Observe(time.Since(start).Microseconds())
	}()
	res, err := s.query(assumptions, opts)
	if err != nil {
		s.fail(err)
		return nil, err
	}
	res.Satisfiable = len(res.Models) > 0
	res.Stats = s.stats()
	res.Stats.Duration = time.Since(start)
	return res, nil
}

// queryPrep is the per-query state: the query guard and, for optimizing
// queries, the pass-2 guard.
type queryPrep struct {
	qg, qg2 lit
}

// query is the solver's one search driver: cancel to level 0, build the
// assumption circuits, allocate the guards, run the search under the
// caller's budget, then retire the guards so the enumeration space is
// whole again for later queries.
func (s *Session) query(assumptions []Assumption, opts Options) (*Result, error) {
	st := s.tr.s
	s.learnedReused += int64(len(st.learnts))
	optimize := opts.Optimize && len(s.tr.gp.Minimize) > 0

	st.cancelUntil(0)
	names := map[lit]string{}
	var lits []lit
	for _, a := range assumptions {
		l, known := s.assumptionLit(a)
		if !known {
			// A program that is unsatisfiable outright reports no core.
			if a.True {
				res := &Result{}
				if !st.unsatRoot {
					res.Core = []string{a.describe()}
				}
				return res, nil
			}
			continue
		}
		lits = append(lits, l)
		if _, ok := names[l]; !ok {
			names[l] = a.describe()
		}
	}
	var p queryPrep
	p.qg = lit(st.newVar())
	if optimize {
		// The pass-2 guard rides the assumption prefix so it is never
		// branched on while unused (a free variable would perturb the
		// search and the model count).
		p.qg2 = lit(st.newVar())
		st.assumps = append([]lit{-p.qg, -p.qg2}, lits...)
	} else {
		st.assumps = append([]lit{-p.qg}, lits...)
	}
	st.assumpFailed = false
	st.finalCore = nil

	res, err := s.runQuery(p, opts, optimize)
	if err != nil {
		return nil, err
	}
	core, failed := st.finalCore, st.assumpFailed

	st.assumps = nil
	st.assumpFailed = false
	st.finalCore = nil
	st.pruning = false
	st.bound = 1 << 62
	st.costGuard = 0
	st.addClause([]lit{p.qg})
	if optimize {
		st.addClause([]lit{p.qg2})
	}

	if len(res.Models) == 0 && failed {
		for _, l := range core {
			if v := l.variable(); v == p.qg.variable() || v == p.qg2.variable() {
				continue
			}
			if n, ok := names[l]; ok {
				res.Core = append(res.Core, n)
			}
		}
		sort.Strings(res.Core)
	}
	return res, nil
}

// runQuery runs the prepared query under the caller's budget, converting
// panics into errors; a panicked engine's clause database is suspect, so
// the caller poisons the session.
func (s *Session) runQuery(p queryPrep, opts Options, optimize bool) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("solver: engine panicked: %v", r)
		}
	}()
	if err := opts.Budget.Injector().Fire(faultinject.SiteSolverWorker); err != nil {
		return nil, err
	}
	s.tr.s.applyBudget(opts.Budget)
	res = &Result{}
	if optimize {
		err = optimizeQuery(s.tr, p, opts, res)
	} else {
		err = enumerateOn(s.tr, opts, res, -1, p.qg)
	}
	return res, err
}

// optimizeQuery runs an optimizing query: branch-and-bound under the
// first guard, then exact-cost re-enumeration under the pre-allocated
// second guard. Both passes are query-local: pass 1's bound clauses carry
// the first guard and are retired before pass 2 (they would otherwise
// prune the optimum itself). On budget exhaustion the best model found so
// far is returned with Interrupted set (anytime optimization).
func optimizeQuery(tr *translation, p queryPrep, opts Options, res *Result) error {
	st := tr.s
	st.pruning = true
	st.bound = 1 << 62
	st.costGuard = p.qg
	var best int64
	var incumbent Model
	found := false
	var searchErr error
	onTotal := func() bool {
		if err := st.validateTotal(); err != nil {
			searchErr = err
			return true
		}
		if u := tr.unfoundedSet(); len(u) > 0 {
			tr.loopAdds++
			tr.addSearchClause(tr.loopClause(u))
			return false
		}
		found = true
		best = st.curCost
		incumbent = tr.extractModel()
		st.bound = best // require strictly better from now on
		return false
	}
	err := st.search(onTotal)
	if ex, ok := budget.Exhausted(err); ok {
		res.Interrupted = true
		res.InterruptReason = ex.Reason
		if found {
			res.Models = []Model{incumbent}
		}
		return nil
	}
	if err != nil {
		return err
	}
	if searchErr != nil {
		return searchErr
	}
	if !found {
		// Unsatisfiable under the assumptions; finalCore (if any) is
		// harvested by the caller.
		return nil
	}
	// Optimum proven. Drop -qg from the assumption prefix BEFORE fixing qg
	// true (the unit would conflict with the live assumption), retire pass
	// 1's bound clauses, and re-enumerate at exactly the optimal cost.
	st.pruning = false
	st.costGuard = 0
	st.bound = 1 << 62
	st.assumps = append([]lit{-p.qg2}, st.assumps[2:]...)
	st.assumpFailed = false
	st.finalCore = nil
	st.addClause([]lit{p.qg})
	if err := enumerateOn(tr, opts, res, best, p.qg2); err != nil {
		return err
	}
	if res.Interrupted && len(res.Models) == 0 {
		// Enumeration could not rediscover the optimum in the leftover
		// budget: fall back to the incumbent.
		res.Models = []Model{incumbent}
	}
	res.Optimal = !res.Interrupted
	return nil
}

// enumerateOn enumerates stable models on one engine. If exactCost >= 0
// only models whose combined objective equals exactCost are kept (with
// pruning above it). Blocking clauses (and, when exactCost >= 0,
// objective-bound clauses) carry the query guard qg so they can be
// retired afterwards. A blocking clause negates the model's decision literals (blockingClause).
// ¬qg heads the assumption prefix and qg occurs only positively in
// clauses, so ¬qg is never implied before it is assumed: it is always
// level 1's pseudo-decision, and blockingClause already holds qg. The
// appended guard is a copy that addClause drops; it is kept so that
// retiring the clause does not depend on the assumption order.
func enumerateOn(tr *translation, opts Options, res *Result, exactCost int64, qg lit) error {
	st := tr.s
	if exactCost >= 0 {
		st.pruning = true
		st.bound = exactCost + 1
		st.costGuard = qg
	}
	var searchErr error
	onTotal := func() bool {
		if err := st.validateTotal(); err != nil {
			searchErr = err
			return true
		}
		if u := tr.unfoundedSet(); len(u) > 0 {
			tr.loopAdds++
			tr.addSearchClause(tr.loopClause(u))
			return false
		}
		if exactCost >= 0 && st.curCost != exactCost {
			tr.addSearchClause(append(tr.blockingClause(), qg))
			return false
		}
		res.Models = append(res.Models, tr.extractModel())
		if opts.MaxModels > 0 && len(res.Models) >= opts.MaxModels {
			return true
		}
		tr.addSearchClause(append(tr.blockingClause(), qg))
		return false
	}
	err := st.search(onTotal)
	if ex, ok := budget.Exhausted(err); ok {
		res.Interrupted = true
		res.InterruptReason = ex.Reason
		err = nil
	}
	if err != nil {
		return err
	}
	return searchErr
}

// Stats returns a cumulative snapshot of the session's effort counters.
func (s *Session) Stats() Stats {
	s.acquire()
	defer s.release()
	return s.stats()
}

// stats is Stats for callers already holding the session: the engine's
// counters plus the banked counters of engines that rebuilds replaced.
func (s *Session) stats() Stats {
	var st Stats
	if s.tr != nil {
		s.tr.fillStats(&st)
	}
	addEngineStats(&st, &s.accum)
	st.Sessions = 1
	st.Queries = s.queries
	st.Adds = s.adds
	st.GroundAtomsReused = s.groundReused
	st.LearnedReused = s.learnedReused
	return st
}
