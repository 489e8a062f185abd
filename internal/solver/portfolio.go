package solver

import (
	"context"
	"sync"
	"sync/atomic"

	"cpsrisk/internal/budget"
)

// Portfolio search: N diversified CDCL engines race on the same ground
// translation. Every engine translates the program identically (translate
// is deterministic), so all workers agree on variable numbering and can
// exchange clauses by index. Diversification only perturbs *search order*
// — restart schedule, EVSIDS decay, initial polarity, seeded random
// polarity noise — never the clause database, so any worker's answer is
// an answer for the shared program.
//
// Sharing is sound because only program consequences travel: clauses
// learned purely from problem clauses (and imported consequences) are
// exported; anything derived from a blocking clause, an objective bound,
// or another query-local construct is tainted at learn time and kept
// private (see clause.local in sat.go). Objective bounds are shared as a
// race-wide achieved cost instead — an incumbent cost is a fact about the
// program, unlike the bound *clause* derived from it, which excludes the
// incumbent itself.

const (
	// exchangeSlots bounds the clause-exchange ring. Writers never block:
	// a slow reader gets lapped and counts the overwritten publications
	// as drops.
	exchangeSlots = 1024
	// importInterval is how many search-loop iterations pass between
	// exchange drains (restarts drain too).
	importInterval = 128
	// maxPortfolioWorkers caps Options.Workers defensively.
	maxPortfolioWorkers = 64
)

type atomicInt64 = atomic.Int64

// prng is a splitmix64 generator: deterministic per seed, cheap enough
// for the branching loop, and independent of the global math/rand state.
type prng struct{ state uint64 }

func newPrng(seed uint64) *prng { return &prng{state: seed} }

func (p *prng) next() uint64 {
	p.state += 0x9e3779b97f4a7c15
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ---- clause exchange -------------------------------------------------

// xrec is one published clause. Immutable after Store: readers share the
// lits slice and copy before installing.
type xrec struct {
	pos  uint64
	src  int32
	lits []lit
}

// exchange is a bounded lock-free broadcast ring. Writers claim a slot
// with a fetch-add on head and overwrite whatever is there; each reader
// keeps a private cursor and detects overwrites by comparing the stored
// record's position with the cursor (a mismatch means the reader was
// lapped — the gap is counted as drops, never delivered out of order).
type exchange struct {
	slots []atomic.Pointer[xrec]
	head  atomic.Uint64
}

func newExchange(n int) *exchange {
	return &exchange{slots: make([]atomic.Pointer[xrec], n)}
}

// publish broadcasts a clause. The literals are copied: the caller keeps
// ownership (learned clauses are mutated in place by watch maintenance).
func (e *exchange) publish(src int, lits []lit) {
	cp := make([]lit, len(lits))
	copy(cp, lits)
	pos := e.head.Add(1) - 1
	e.slots[pos%uint64(len(e.slots))].Store(&xrec{pos: pos, src: int32(src), lits: cp})
}

// importShared drains the exchange ring into this engine: every clause
// published by a peer since the last drain is installed as a learned
// clause (with backjumping when it is conflicting under the current
// assignment). Lapped publications are counted as drops.
func (s *sat) importShared() {
	e := s.exch
	if e == nil {
		return
	}
	head := e.head.Load()
	n := uint64(len(e.slots))
	if head > s.exchCursor+n {
		// Fell a whole ring behind: skip to the oldest surviving slot.
		s.shDrops += int64(head - n - s.exchCursor)
		s.exchCursor = head - n
	}
	for s.exchCursor < head {
		rec := e.slots[s.exchCursor%n].Load()
		if rec == nil || rec.pos < s.exchCursor {
			// Slot claimed by a writer that has not stored yet; retry at
			// the next drain.
			return
		}
		if rec.pos > s.exchCursor {
			// Lapped while reading.
			s.shDrops += int64(rec.pos - s.exchCursor)
			s.exchCursor = rec.pos
			continue
		}
		s.exchCursor++
		if int(rec.src) == s.exchID {
			continue
		}
		s.importClause(rec.lits)
		if s.unsatRoot {
			return
		}
	}
}

// importClause installs one peer-learned clause. Peers share this
// engine's variable numbering (identical translation), so literals are
// meaningful as-is; level-0-false literals are stripped and level-0-true
// clauses skipped. An empty remainder proves the program unsatisfiable —
// soundly, because only program consequences are ever exported.
func (s *sat) importClause(src []lit) {
	ls := make([]lit, 0, len(src))
	for _, l := range src {
		v := l.variable()
		if v <= 0 || v >= s.nVars {
			return // foreign variable: stale record, drop defensively
		}
		if s.assign[v] != 0 && s.level[v] == 0 {
			switch s.value(l) {
			case 1:
				return // satisfied at the root forever
			case -1:
				continue // false at the root forever
			}
		}
		ls = append(ls, l)
	}
	s.shImported++
	if len(ls) == 0 {
		s.unsatRoot = true
		return
	}
	if len(ls) == 1 {
		// A unit consequence is fixed at level 0, like addClause units.
		if s.decisionLevel() > 0 {
			s.restarts++
			s.cancelUntil(0)
		}
		switch s.value(ls[0]) {
		case 1:
		case -1:
			s.unsatRoot = true
		default:
			s.uncheckedEnqueue(ls[0], nil)
		}
		return
	}
	s.backtrackForClause(ls)
	if s.clauseStatus(ls) == -1 {
		s.unsatRoot = true
		return
	}
	w1, w2 := s.pickWatches(ls)
	ls[0], ls[w1] = ls[w1], ls[0]
	if w2 == 0 {
		w2 = w1
	}
	ls[1], ls[w2] = ls[w2], ls[1]
	c := &clause{lits: ls, learnt: true, act: s.claInc}
	s.learnts = append(s.learnts, c)
	s.attach(c)
	if s.value(ls[0]) == 0 && s.value(ls[1]) == -1 {
		s.uncheckedEnqueue(ls[0], c)
	}
}

// ---- shared objective state ------------------------------------------

// raceShared is the race-wide optimization state: the best achieved
// combined cost and the model that achieved it. The incumbent is stored
// before the bound is lowered, so any worker that observes a tightened
// bound can harvest an incumbent at (or below) that cost.
type raceShared struct {
	bound   atomicInt64
	mu      sync.Mutex
	inc     Model
	incCost int64
	hasInc  bool
}

func newRaceShared() *raceShared {
	r := &raceShared{}
	r.bound.Store(1 << 62)
	return r
}

func (r *raceShared) publish(cost int64, m Model) {
	r.mu.Lock()
	if !r.hasInc || cost < r.incCost {
		r.inc, r.incCost, r.hasInc = m, cost, true
	}
	r.mu.Unlock()
	for {
		cur := r.bound.Load()
		if cost >= cur || r.bound.CompareAndSwap(cur, cost) {
			return
		}
	}
}

func (r *raceShared) best() (Model, int64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inc, r.incCost, r.hasInc
}

// harvestShared returns the race-wide best incumbent, when racing.
func (tr *translation) harvestShared() (Model, int64, bool) {
	if tr.shared == nil {
		return Model{}, 0, false
	}
	return tr.shared.best()
}

// ---- diversification -------------------------------------------------

// divProfile perturbs one helper's search order. Worker 0 always keeps
// the engine defaults, so the primary is the exact single-threaded
// solver and deterministic mode falls out for free.
type divProfile struct {
	restartUnit int64
	decay       float64
	phase       int8
	randPolPct  int
}

var divProfiles = []divProfile{
	{restartUnit: 40, decay: 0.95, phase: -1, randPolPct: 0},   // rapid restarts
	{restartUnit: 100, decay: 0.95, phase: 1, randPolPct: 0},   // prefer-true polarity
	{restartUnit: 250, decay: 0.85, phase: -1, randPolPct: 5},  // aggressive decay, light noise
	{restartUnit: 100, decay: 0.99, phase: -1, randPolPct: 10}, // slow decay, noisy
	{restartUnit: 700, decay: 0.95, phase: 1, randPolPct: 5},   // long runs, prefer-true
	{restartUnit: 60, decay: 0.90, phase: 1, randPolPct: 15},   // chaotic short runs
	{restartUnit: 400, decay: 0.97, phase: -1, randPolPct: 2},  // steady long runs
}

// diversify gives helper id its search personality. resetPhases is set
// for fresh engines; a rebuilt engine keeps the phases carried over from
// its predecessor (the personality lives in its saved phases by then).
func diversify(s *sat, id int, resetPhases bool) {
	if id == 0 {
		return
	}
	p := divProfiles[(id-1)%len(divProfiles)]
	s.restartUnit = p.restartUnit
	s.restartLimit = p.restartUnit * luby(s.lubySeq)
	s.decayInv = 1 / p.decay
	s.randPolPct = p.randPolPct
	s.rng = newPrng(uint64(id)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d)
	if resetPhases {
		for v := 1; v < s.nVars; v++ {
			s.phase[v] = p.phase
		}
	}
}

// wireWorker connects one engine to the session's clause exchange. The
// read cursor starts at the current head so pre-wiring publications are
// not replayed.
func wireWorker(s *sat, id int, e *exchange) {
	s.exch = e
	s.exchID = id
	s.exchCursor = e.head.Load()
	s.importTick = 0
}

// ---- the race ----------------------------------------------------------

// raceLost reports whether a worker's interruption came from the race
// cancel rather than the caller's own budget: the race context is dead
// but the caller's context is still live.
func raceLost(res *Result, parent *budget.Budget, raceCtx context.Context) bool {
	return res.Interrupted && raceCtx.Err() != nil && parent.Context().Err() == nil
}

// race runs one prepared query on the first len(outs) engines under a
// shared cancel and returns the winner: the first engine to answer, or
// the primary when the caller's own budget stopped everyone. The primary
// runs on the calling goroutine, the granted helpers on their own; the
// losers are cancelled but keep their learned clauses, activities, and
// phases for the next query.
func (s *Session) race(outs []sessOutcome, preps []queryPrep, opts Options, optimize bool) int {
	racers := s.engines[:len(outs)]
	if optimize {
		shared := newRaceShared()
		for _, e := range racers {
			e.tr.shared = shared
			e.tr.s.sharedBound = &shared.bound
		}
	}
	raceCtx, cancelRace := context.WithCancel(opts.Budget.Context())
	defer cancelRace()
	limits := opts.Budget.Limits()
	var winner atomic.Int32
	winner.Store(-1)
	run := func(i int) {
		out := runQueryWorker(racers[i], preps[i], opts, budget.New(raceCtx, limits), optimize)
		outs[i] = out
		if out.err == nil && !raceLost(out.res, opts.Budget, raceCtx) &&
			winner.CompareAndSwap(-1, int32(i)) {
			cancelRace()
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < len(racers); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run(i)
		}(i)
	}
	run(0)
	wg.Wait()
	if w := winner.Load(); w >= 0 {
		return int(w)
	}
	return 0
}
