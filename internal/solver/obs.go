package solver

import (
	"fmt"

	"cpsrisk/internal/budget"
	"cpsrisk/internal/obs"
)

// Observability integration. The solver publishes its effort onto the
// pipeline metrics registry and attaches spans to the trace, both
// carried by the governing budget's context — the same channel the
// resource caps already ride, so no solver API changes. Instrumentation
// happens at call boundaries only (session construction, one span per
// query/add); the CDCL inner loops stay untouched.

// PublishStats adds a Stats record onto the registry under the canonical
// solver.* metric names: search counters accumulate, program sizes are
// last-write-wins gauges. Nil-safe on both arguments.
func PublishStats(reg *obs.Registry, st *Stats) {
	if reg == nil || st == nil {
		return
	}
	reg.Gauge("solver.atoms").Set(int64(st.Atoms))
	reg.Gauge("solver.ground_rules").Set(int64(st.GroundRules))
	reg.Gauge("solver.vars").Set(int64(st.Vars))
	reg.Gauge("solver.clauses").Set(int64(st.Clauses))
	reg.Counter("solver.decisions").Add(st.Decisions)
	reg.Counter("solver.conflicts").Add(st.Conflicts)
	reg.Counter("solver.propagations").Add(st.Propagations)
	reg.Counter("solver.loop_clauses").Add(st.LoopClauses)
	reg.Counter("solver.stable_checks").Add(st.StableChecks)
	reg.Counter("solver.restarts").Add(st.Restarts)
	reg.Counter("solver.learned_clauses").Add(st.LearnedClauses)
	reg.Counter("solver.backjumps").Add(st.Backjumps)
	reg.Counter("solver.db_reductions").Add(st.DBReductions)
	reg.Counter("solver.sessions").Add(st.Sessions)
	reg.Counter("solver.queries").Add(st.Queries)
	reg.Counter("solver.adds").Add(st.Adds)
	reg.Counter("solver.ground_atoms_reused").Add(st.GroundAtomsReused)
	reg.Counter("solver.learned_reused").Add(st.LearnedReused)
	reg.Histogram("solver.solve_us").Observe(st.Duration.Microseconds())
}

// startSpan opens a child of the budget context's span. The name is only
// formatted when a span is actually present, so untraced runs pay one
// context lookup per call boundary and nothing else.
func startSpan(bud *budget.Budget, format string, args ...any) *obs.Span {
	parent := obs.SpanFromContext(bud.Context())
	if parent == nil {
		return nil
	}
	if len(args) == 0 {
		return parent.StartChild(format)
	}
	return parent.StartChild(fmt.Sprintf(format, args...))
}
