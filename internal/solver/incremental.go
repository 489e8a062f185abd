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
// A Session is strictly single-goroutine: concurrent use panics. Callers
// that parallelize (hazard sweeps, CEGAR oracles) keep one session per
// worker.
//
// With Options.Workers > 1 a session becomes a portfolio: it keeps
// additional diversified engines in lockstep with the primary (same
// deltas, same variable numbering) and races all of them on each query,
// sharing learned clauses through the session's exchange ring. The first
// engine to answer wins; the others are cancelled but keep whatever they
// learned for the next query. The Session API is unchanged and remains
// single-goroutine from the caller's perspective.
type Session struct {
	gr   *grounder // nil for Solve's one-query session, which never Adds
	opts Options

	inUse  atomic.Bool
	broken error // set when an Add/solve error leaves the state inconsistent
	closed bool

	// engines are kept in lockstep: engines[0] is the primary, the rest
	// are portfolio helpers (none for single-worker sessions). exch is
	// the clause exchange the helpers share with the primary; race
	// counters are cumulative.
	engines        []*sessHelper
	exch           *exchange
	helperLaunches int64
	helperWins     int64
	lastWinner     int

	// Cumulative session counters and engine counters banked from
	// translations discarded by slow-path rebuilds.
	queries, adds               int64
	groundReused, learnedReused int64
	accum                       Stats
}

// sessHelper is one engine of a session: its translation plus its own
// cardinality-circuit cache (predicate -> at-least-k literal function
// over the predicate's ground atoms). Circuits allocate variables, so
// each engine builds its own, in lockstep with the primary to keep the
// variable spaces aligned; the caches are dropped whenever an Add emits
// non-constraint rules (the predicate's atom set may grow).
type sessHelper struct {
	id      int
	tr      *translation
	cardFns map[string]func(int) lit
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

// newSession translates gp into the session's engines: the primary plus,
// for a portfolio, diversified helpers wired to one clause exchange. gr
// is the grounder Add extends; Solve passes nil.
func newSession(gr *grounder, gp *GroundProgram, opts Options) (*Session, error) {
	n := effectiveWorkers(opts)
	sess := &Session{gr: gr, opts: opts}
	if n > 1 {
		sess.exch = newExchange(exchangeSlots)
	}
	for i := 0; i < n; i++ {
		tr, err := translate(gp)
		if err != nil {
			return nil, err
		}
		if sess.exch != nil {
			diversify(tr.s, i, true)
			wireWorker(tr.s, i, sess.exch)
		}
		sess.engines = append(sess.engines, &sessHelper{id: i, tr: tr, cardFns: map[string]func(int) lit{}})
	}
	return sess, nil
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
	s.engines = nil
	s.exch = nil
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
	primary := s.engines[0].tr
	prevKnown := primary.knownAtoms
	retracted, err := s.gr.addRules(prog.Rules)
	if err != nil {
		s.fail(err)
		return err
	}
	if retracted {
		s.clearCardFns()
		if err := s.rebuildTranslation(); err != nil {
			s.fail(err)
			return err
		}
		return nil
	}
	constraintsOnly, freshHeads := true, true
	for _, r := range primary.gp.Rules[primary.translatedRules:] {
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
		for _, e := range s.engines {
			e.tr.addConstraintsInSearch()
		}
		return nil
	}
	s.clearCardFns()
	if freshHeads {
		for _, e := range s.engines {
			e.tr.s.cancelUntil(0)
			if err := e.tr.extendTranslation(); err != nil {
				s.fail(err)
				return err
			}
		}
		return nil
	}
	if err := s.rebuildTranslation(); err != nil {
		s.fail(err)
		return err
	}
	return nil
}

// clearCardFns drops every engine's cached cardinality circuits.
func (s *Session) clearCardFns() {
	for _, e := range s.engines {
		e.cardFns = map[string]func(int) lit{}
	}
}

// rebuildTranslation retranslates the (compacted) ground program from
// scratch, banking the old engines' statistics and carrying each atom's
// branching activity and saved phase into the new engines. Learned
// clauses are dropped: after a retraction they may no longer be
// consequences of the program. In a portfolio session every engine is
// rebuilt and the clause exchange is replaced wholesale — clauses learned
// before the retraction are no longer safe to share either.
func (s *Session) rebuildTranslation() error {
	if s.exch != nil {
		s.exch = newExchange(exchangeSlots)
	}
	for _, e := range s.engines {
		ntr, err := s.rebuildOne(e.tr)
		if err != nil {
			return err
		}
		e.tr = ntr
		if s.exch != nil {
			// The carried phases already encode this engine's personality;
			// re-apply only the search-schedule knobs.
			diversify(ntr.s, e.id, false)
			wireWorker(ntr.s, e.id, s.exch)
		}
	}
	return nil
}

// rebuildOne rebuilds a single engine, banking its statistics into the
// session accumulator and carrying activities and phases across.
func (s *Session) rebuildOne(old *translation) (*translation, error) {
	var tmp Stats
	old.fillStats(&tmp)
	addEngineStats(&s.accum, &tmp)
	ntr, err := translate(old.gp)
	if err != nil {
		return nil, err
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
	return ntr, nil
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
	dst.ClausesExported += src.ClausesExported
	dst.ClausesImported += src.ClausesImported
	dst.ExchangeDrops += src.ExchangeDrops
}

// countFn returns (building and caching on first use) the at-least-k
// literal function over the predicate's ground atoms, in atom-id order.
// Must be called at decision level 0.
func (e *sessHelper) countFn(pred string) func(int) lit {
	if fn, ok := e.cardFns[pred]; ok {
		return fn
	}
	tr := e.tr
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
	e.cardFns[pred] = fn
	return fn
}

// assumptionLit maps one assumption to the literal to assert. known is
// false when the assumption names an atom absent from the ground program:
// such an atom is false in every answer set, so assuming it false is
// vacuous and assuming it true is immediately unsatisfiable.
func (e *sessHelper) assumptionLit(a Assumption) (l lit, known bool) {
	if a.Count != "" {
		l = e.countFn(a.Count)(a.K)
		if !a.True {
			l = -l
		}
		return l, true
	}
	id, ok := e.tr.gp.LookupAtom(a.Atom)
	if !ok {
		return 0, false
	}
	l = e.tr.atomLit(id)
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

// queryPrep is one engine's per-query state: the query guard (and, for
// optimizing queries, the pass-2 guard, pre-allocated so every engine's
// variable space stays aligned whether or not it runs pass 2).
type queryPrep struct {
	qg, qg2 lit
}

// query is the solver's one search driver. Every engine is prepared in
// lockstep (cancel to level 0, build assumption circuits, allocate
// guards), so literals carry the same meaning in every engine — the basis
// for clause sharing and for reading any engine's unsat core. The primary
// then runs alone under the caller's budget or, when the worker-pool
// governor grants helpers, races them (see race). Afterwards every engine
// is wound down, granted or not: the guards must be retired everywhere to
// keep the engines aligned and the enumeration space whole for later
// queries.
func (s *Session) query(assumptions []Assumption, opts Options) (*Result, error) {
	for _, e := range s.engines {
		s.learnedReused += int64(len(e.tr.s.learnts))
	}
	primary := s.engines[0]
	res := &Result{}
	optimize := opts.Optimize && len(primary.tr.gp.Minimize) > 0

	for _, e := range s.engines {
		e.tr.s.cancelUntil(0)
	}
	names := map[lit]string{}
	lits := make([][]lit, len(s.engines))
	for _, a := range assumptions {
		l, known := primary.assumptionLit(a)
		if !known {
			// Unknown atoms allocate nothing anywhere, so the lockstep
			// short-circuit keeps the var spaces aligned. A program that
			// is unsatisfiable outright reports no core.
			if a.True {
				if !primary.tr.s.unsatRoot {
					res.Core = []string{a.describe()}
				}
				return res, nil
			}
			continue
		}
		lits[0] = append(lits[0], l)
		if _, ok := names[l]; !ok {
			names[l] = a.describe()
		}
		for i, e := range s.engines[1:] {
			li, _ := e.assumptionLit(a)
			lits[i+1] = append(lits[i+1], li)
		}
	}
	preps := make([]queryPrep, len(s.engines))
	for i, e := range s.engines {
		st := e.tr.s
		p := &preps[i]
		p.qg = lit(st.newVar())
		if optimize {
			// The pass-2 guard rides the assumption prefix so it is never
			// branched on while unused (a free variable would perturb the
			// search and the model count).
			p.qg2 = lit(st.newVar())
			st.assumps = append([]lit{-p.qg, -p.qg2}, lits[i]...)
		} else {
			st.assumps = append([]lit{-p.qg}, lits[i]...)
		}
		st.assumpFailed = false
		st.finalCore = nil
	}

	gov := opts.Budget.Governor()
	granted := gov.AcquireUpTo(len(s.engines) - 1)
	s.helperLaunches += int64(granted)
	outs := make([]sessOutcome, 1+granted)
	w := 0
	if granted == 0 {
		outs[0] = runQueryWorker(primary, preps[0], opts, opts.Budget, optimize)
	} else {
		w = s.race(outs, preps, opts, optimize)
	}
	gov.Release(granted)
	for _, out := range outs {
		if out.err != nil {
			return nil, out.err
		}
	}
	winSt := s.engines[w].tr.s
	core, failed := winSt.finalCore, winSt.assumpFailed

	for i, e := range s.engines {
		st := e.tr.s
		st.assumps = nil
		st.assumpFailed = false
		st.finalCore = nil
		st.pruning = false
		st.bound = 1 << 62
		st.costGuard = 0
		st.sharedBound = nil
		e.tr.shared = nil
		st.addClause([]lit{preps[i].qg})
		if optimize {
			st.addClause([]lit{preps[i].qg2})
		}
	}

	res = outs[w].res
	if w != 0 {
		s.helperWins++
	}
	s.lastWinner = w
	if len(res.Models) == 0 && failed {
		for _, l := range core {
			if v := l.variable(); v == preps[w].qg.variable() || v == preps[w].qg2.variable() {
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

// sessOutcome is one engine's result for a query.
type sessOutcome struct {
	res *Result
	err error
}

// runQueryWorker runs one engine's query under bud, converting panics
// into errors; a panicked engine's clause database is suspect, so the
// caller poisons the whole session.
func runQueryWorker(e *sessHelper, p queryPrep, opts Options, bud *budget.Budget, optimize bool) (out sessOutcome) {
	defer func() {
		if r := recover(); r != nil {
			out.err = fmt.Errorf("solver: engine %d panicked: %v", e.id, r)
		}
	}()
	if err := bud.Injector().Fire(faultinject.SiteSolverWorker); err != nil {
		out.err = err
		return out
	}
	st := e.tr.s
	st.applyBudget(bud)
	res := &Result{}
	if st.unsatRoot {
		// Imports proved the program unsatisfiable outright.
		out.res = res
		return out
	}
	var err error
	if optimize {
		err = optimizeQueryWorker(e.tr, p, opts, res)
	} else {
		err = enumerateOn(e.tr, opts, res, -1, p.qg)
	}
	out.res, out.err = res, err
	return out
}

// optimizeQueryWorker runs one engine's optimizing query: branch-and-
// bound under the first guard, then exact-cost re-enumeration under the
// pre-allocated second guard. Both passes are query-local: pass 1's bound
// clauses carry the first guard and are retired before pass 2 (they would
// otherwise prune the optimum itself). In a race, incumbents are
// published to (and bounds adopted from) the race-wide shared state;
// pass-1 exhaustion proves no model beats the final bound — even when
// that bound was adopted from a peer — so the best incumbent race-wide at
// or below it is the optimum. On budget exhaustion the best model found
// so far is returned with Interrupted set (anytime optimization).
func optimizeQueryWorker(tr *translation, p queryPrep, opts Options, res *Result) error {
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
		if tr.shared != nil {
			tr.shared.publish(best, incumbent)
		}
		return false
	}
	err := st.search(onTotal)
	harvest := func() {
		if m, c, ok := tr.harvestShared(); ok && (!found || c < best) {
			found, best, incumbent = true, c, m
		}
	}
	if ex, ok := budget.Exhausted(err); ok {
		res.Interrupted = true
		res.InterruptReason = ex.Reason
		harvest()
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
	harvest()
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
	st.sharedBound = nil // the exact cost is fixed; no more bound racing
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
// retired afterwards. They are engine-local: the guard variable is
// aligned across portfolio workers, but the clause itself is a per-engine
// axiom, not a program consequence, so it must never be exported. A
// blocking clause negates the model's decision literals (blockingClause).
// ¬qg heads the assumption prefix and qg occurs only positively in
// clauses, so ¬qg is never implied before it is assumed: it is always
// level 1's pseudo-decision, and blockingClause already holds qg. The
// appended guard is a copy that addClauseTagged drops; it is kept so that
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
			tr.addLocalSearchClause(append(tr.blockingClause(), qg))
			return false
		}
		res.Models = append(res.Models, tr.extractModel())
		if opts.MaxModels > 0 && len(res.Models) >= opts.MaxModels {
			return true
		}
		tr.addLocalSearchClause(append(tr.blockingClause(), qg))
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

// stats is Stats for callers already holding the session: program sizes
// from the primary, effort summed over every engine and the banked
// counters of rebuilt ones.
func (s *Session) stats() Stats {
	var st Stats
	for i, e := range s.engines {
		if i == 0 {
			e.tr.fillStats(&st)
			continue
		}
		var tmp Stats
		e.tr.fillStats(&tmp)
		addEngineStats(&st, &tmp)
	}
	addEngineStats(&st, &s.accum)
	st.Sessions = 1
	st.Queries = s.queries
	st.Adds = s.adds
	st.GroundAtomsReused = s.groundReused
	st.LearnedReused = s.learnedReused
	st.PortfolioWorkers = s.helperLaunches
	st.PortfolioWins = s.helperWins
	st.PortfolioWinner = s.lastWinner
	return st
}
