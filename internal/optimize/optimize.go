// Package optimize implements the cost-benefit estimation and optimization
// step (paper §IV-D): selecting mitigation sets that trade implementation
// cost against residual loss, under an optional budget constraint, with an
// exact branch-and-bound optimizer, a greedy multi-phase planner (the
// paper's staged security-consolidation strategy for SMEs), and an ASP
// encoding for cross-checking optima through the embedded formal method.
package optimize

import (
	"encoding/binary"
	"fmt"
	"math"

	"cpsrisk/internal/logic"
	"cpsrisk/internal/mitigation"
)

// Option is a selectable mitigation with its total per-horizon cost
// (implementation plus maintenance).
type Option struct {
	ID   string
	Cost int
}

// Problem is a mitigation-selection instance.
type Problem struct {
	Options   []Option
	Scenarios []mitigation.ScenarioLoss
	// Budget caps the summed mitigation cost; negative means unlimited.
	Budget int
}

// Plan is a selection with its evaluation.
type Plan struct {
	// Selected mitigation IDs, sorted.
	Selected []string
	// Cost is the summed mitigation cost.
	Cost int
	// ResidualLoss sums the losses of scenarios left unblocked.
	ResidualLoss int
	// Total = Cost + ResidualLoss (the minimized objective).
	Total int
	// Blocked lists the IDs of blocked scenarios, sorted.
	Blocked []string
}

// Evaluate scores a selection against the problem. Only option IDs
// count: an ID that is not an option neither costs nor blocks.
func (p *Problem) Evaluate(selected map[string]bool) Plan {
	c := p.compile()
	sel := newBitset(len(c.opts))
	for i, o := range c.opts {
		if selected[o.ID] {
			sel.set(i)
		}
	}
	return c.plan(sel)
}

func (p *Problem) validate() error {
	seen := map[string]bool{}
	for _, o := range p.Options {
		if o.ID == "" {
			return fmt.Errorf("optimize: option with empty ID")
		}
		if seen[o.ID] {
			return fmt.Errorf("optimize: duplicate option %q", o.ID)
		}
		seen[o.ID] = true
		if o.Cost < 0 {
			return fmt.Errorf("optimize: option %q has negative cost", o.ID)
		}
	}
	for _, s := range p.Scenarios {
		if s.Loss < 0 {
			return fmt.Errorf("optimize: scenario %q has negative loss", s.ID)
		}
	}
	return nil
}

// Optimal finds a selection minimizing Cost + ResidualLoss subject to the
// budget, by branch and bound over the option set (exact; exponential in
// len(Options), fine for realistic mitigation catalogs). Ties prefer the
// cheaper, then lexicographically smaller selection, making the result
// deterministic.
func (p *Problem) Optimal() (Plan, error) {
	if err := p.validate(); err != nil {
		return Plan{}, err
	}
	c := p.compile()
	s := &search{c: c, budget: p.Budget, sel: newBitset(len(c.opts)), upper: newBitset(len(c.opts))}
	for i := range c.opts {
		s.upper.set(i)
	}
	s.best = c.plan(s.sel) // baseline: buy nothing
	s.branch(0, 0)
	return s.best, nil
}

// search is Optimal's branch-and-bound state. sel holds the options
// included so far; upper holds sel plus every undecided option, so its
// residual loss is the least any completion of sel reaches.
type search struct {
	c          *compiled
	budget     int
	sel, upper bitset
	best       Plan
}

func (s *search) branch(i, cost int) {
	if s.budget >= 0 && cost > s.budget {
		return
	}
	// A lower bound on every leaf below, exact at a leaf. Prune only when
	// it exceeds best.Total: a leaf that ties best.Total can still win
	// the tie-break.
	total := cost + s.c.residual(s.upper)
	if total > s.best.Total {
		return
	}
	if i == len(s.c.opts) {
		switch {
		case total < s.best.Total || cost < s.best.Cost:
			s.best = s.c.plan(s.sel)
		case cost == s.best.Cost:
			if plan := s.c.plan(s.sel); better(plan, s.best) {
				s.best = plan
			}
		}
		return
	}
	// Branch: include option i first (tends to find good bounds early
	// for blocking-heavy instances), then exclude.
	s.sel.set(i)
	s.branch(i+1, cost+s.c.opts[i].Cost)
	s.sel.unset(i)
	s.upper.unset(i)
	s.branch(i+1, cost)
	s.upper.set(i)
}

func better(a, b Plan) bool {
	if a.Total != b.Total {
		return a.Total < b.Total
	}
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	return fmt.Sprint(a.Selected) < fmt.Sprint(b.Selected)
}

// Phase is one step of the greedy multi-phase plan.
type Phase struct {
	MitigationID string
	Cost         int
	// LossReduction is the marginal residual-loss reduction the phase
	// achieves at the moment it is applied.
	LossReduction int
}

// MultiPhase builds the paper's staged consolidation strategy: repeatedly
// deploy the mitigation move with the best marginal loss-reduction per
// cost that still fits the remaining budget, until nothing improves. A
// move is a single mitigation or a minimal blocking bundle — blocking an
// attack scenario can require covering several sources at once (e.g. user
// training AND endpoint security for the spearphishing + drive-by pair),
// where no single purchase reduces loss. It returns the ordered phases
// ("first deal with the most potential and severe risk and later focus on
// the other ones") and the final plan. Bundle phases report each member
// mitigation as its own Phase entry sharing the bundle's reduction split
// on the first member.
func (p *Problem) MultiPhase() ([]Phase, Plan, error) {
	if err := p.validate(); err != nil {
		return nil, Plan{}, err
	}
	c := p.compile()
	g := &greedy{
		c:         c,
		budget:    p.Budget,
		remaining: p.Budget,
		sel:       newBitset(len(c.opts)),
		trial:     newBitset(len(c.opts)),
		seen:      map[string]bool{},
	}
	bundles := c.bundles(p.Scenarios)
	// A set already considered this round only repeats moves already seen.
	visited := make([]bool, len(bundles.sets))
	g.current = c.residual(g.sel)
	var phases []Phase
	single := make([]int, 1)
	for {
		g.found = false
		clear(g.seen)
		clear(visited)
		// Moves: every unselected single option, then the bundles of
		// every scenario the selection leaves unblocked.
		for i := range c.opts {
			single[0] = i
			g.consider(single)
		}
		for si := range c.scens {
			if c.blocked(&c.scens[si], g.sel) {
				continue
			}
			for _, k := range bundles.byScen[si] {
				if visited[k] {
					continue
				}
				visited[k] = true
				for _, b := range bundles.sets[k] {
					g.consider(b)
				}
			}
		}
		if !g.found {
			break
		}
		for mi, i := range g.best {
			g.sel.set(i)
			reduction := 0
			if mi == 0 {
				reduction = g.bestReduction
			}
			phases = append(phases, Phase{
				MitigationID:  c.opts[i].ID,
				Cost:          c.opts[i].Cost,
				LossReduction: reduction,
			})
		}
		if p.Budget >= 0 {
			g.remaining -= g.bestCost
		}
		g.current = c.residual(g.sel)
	}
	return phases, c.plan(g.sel), nil
}

// greedy is MultiPhase's state: the selection so far and the best move
// of the current round.
type greedy struct {
	c                 *compiled
	budget, remaining int
	sel, trial        bitset
	current           int // residual loss of sel

	// seen holds the round's moves so far, keyed by their option
	// indices rendered into key.
	seen map[string]bool
	key  []byte
	move []int

	found                   bool
	best                    []int
	bestGain                float64
	bestReduction, bestCost int
}

// consider scores one candidate move, given as option indices in ID
// order: its members not yet selected, unless that leaves nothing or a
// move already seen this round.
func (g *greedy) consider(members []int) {
	g.move = g.move[:0]
	for _, i := range members {
		if !g.sel.has(i) {
			g.move = append(g.move, i)
		}
	}
	if len(g.move) == 0 {
		return
	}
	g.key = g.key[:0]
	for _, i := range g.move {
		g.key = binary.AppendUvarint(g.key, uint64(i))
	}
	if g.seen[string(g.key)] {
		return
	}
	g.seen[string(g.key)] = true
	cost := 0
	for _, i := range g.move {
		cost += g.c.opts[i].Cost
	}
	if g.budget >= 0 && cost > g.remaining {
		return
	}
	copy(g.trial, g.sel)
	for _, i := range g.move {
		g.trial.set(i)
	}
	reduction := g.current - g.c.residual(g.trial)
	if reduction <= 0 {
		return
	}
	gain := float64(reduction) / math.Max(float64(cost), 0.5)
	if !g.found || gain > g.bestGain ||
		(gain == g.bestGain && g.c.moveKey(g.move) < g.c.moveKey(g.best)) {
		g.found = true
		g.best = append(g.best[:0], g.move...)
		g.bestGain = gain
		g.bestReduction = reduction
		g.bestCost = cost
	}
}

// EncodeASP renders the selection problem as an ASP optimization program:
//
//	option(M). cost(M, C).
//	{ select(M) : option(M) }.
//	:- budget(B), ... (budget handled via weight bound constraint)
//	blocked(S) :- ... per-scenario blocking structure
//	#minimize { C,m(M) : select(M), cost(M,C) ; L,s(S) : not blocked(S), loss(S,L) }.
//
// Used to cross-check the native optimizer through the embedded formal
// method. Budgets are encoded by enumerating... a budget constraint needs
// a weight aggregate; instead the encoding is exact for unlimited budgets
// and callers cross-check budgeted instances natively.
func (p *Problem) EncodeASP() (*logic.Program, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	prog := &logic.Program{}
	sym := logic.Sym
	for _, o := range p.Options {
		prog.AddFact(logic.A("option", sym(o.ID)))
		prog.AddFact(logic.A("cost", sym(o.ID), logic.Num(o.Cost)))
	}
	prog.AddRule(logic.ChoiceRule(logic.Unbounded, logic.Unbounded, []logic.ChoiceElem{{
		Atom: logic.A("select", logic.Var("M")),
		Cond: []logic.Literal{logic.Pos(logic.A("option", logic.Var("M")))},
	}}))
	for _, s := range p.Scenarios {
		prog.AddFact(logic.A("scenario", sym(s.ID)))
		prog.AddFact(logic.A("loss", sym(s.ID), logic.Num(s.Loss)))
		// blocked(S) :- actBlocked(S, i) for some activation i whose
		// sources are all covered.
		for ai, sources := range s.Activations {
			if len(sources) == 0 {
				continue
			}
			actAtom := logic.A("act_blocked", sym(s.ID), logic.Num(ai))
			body := make([]logic.BodyElem, 0, len(sources))
			ok := true
			for si, blockers := range sources {
				if len(blockers) == 0 {
					ok = false
					break
				}
				srcAtom := logic.A("src_blocked", sym(s.ID), logic.Num(ai), logic.Num(si))
				for _, m := range blockers {
					prog.AddRule(logic.NormalRule(srcAtom, logic.Pos(logic.A("select", sym(m)))))
				}
				body = append(body, logic.Pos(srcAtom))
			}
			if !ok {
				continue
			}
			prog.AddRule(logic.NormalRule(actAtom, body...))
			prog.AddRule(logic.NormalRule(logic.A("blocked", sym(s.ID)),
				logic.Pos(actAtom)))
		}
	}
	min, err := logic.Parse(`
		residual(S, L) :- scenario(S), loss(S, L), not blocked(S).
		#minimize { C,m(M) : select(M), cost(M, C) }.
		#minimize { L,s(S) : residual(S, L) }.
	`)
	if err != nil {
		return nil, err
	}
	prog.Extend(min)
	return prog, nil
}
