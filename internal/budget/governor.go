package budget

import (
	"context"
	"runtime"
	"sync/atomic"
)

// Governor is the global worker-pool semaphore: one per pipeline run,
// shared by every component that spawns helper goroutines (scenario-sweep
// workers, CEGAR oracle checkers). It bounds the *extra* concurrency
// beyond each call site's own goroutine so that stacked parallel stages
// cannot oversubscribe the machine to k×N runnable workers.
//
// The contract is best-effort and non-blocking: AcquireUpTo never waits,
// it grants however many slots are free (possibly zero). Call sites must
// therefore be written so that zero grants still make progress on the
// calling goroutine — the governor throttles parallelism, never liveness,
// and in particular can never deadlock a nested acquirer.
//
// A nil *Governor is valid and unlimited — every method is nil-receiver
// safe, matching the Budget/Injector conventions.
type Governor struct {
	capacity int64
	inUse    atomic.Int64
	granted  atomic.Int64 // slots handed out over the run
	denied   atomic.Int64 // slots requested but refused (pool full)
}

// NewGovernor creates a governor for a run allowed `limit` total
// workers. A non-positive limit defaults to GOMAXPROCS, mirroring how
// the sweep picks its worker count.
//
// The pool holds limit-1 slots: each call site's own goroutine is the
// implicit first worker (it never acquires, so zero grants still make
// progress), and the pool meters only the extras. In particular
// limit=1 — a sequential run, or a single-core machine — yields an
// empty pool: every helper request is denied and all constructs
// collapse to their sequential paths instead of time-sharing one core.
func NewGovernor(limit int) *Governor {
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	return &Governor{capacity: int64(limit - 1)}
}

// AcquireUpTo grants between 0 and n slots without blocking and returns
// the grant. The caller owes Release for exactly the returned count. A
// nil governor grants everything requested.
func (g *Governor) AcquireUpTo(n int) int {
	if n <= 0 {
		return 0
	}
	if g == nil {
		return n
	}
	for {
		used := g.inUse.Load()
		free := g.capacity - used
		if free <= 0 {
			g.denied.Add(int64(n))
			return 0
		}
		take := int64(n)
		if take > free {
			take = free
		}
		if g.inUse.CompareAndSwap(used, used+take) {
			g.granted.Add(take)
			if take < int64(n) {
				g.denied.Add(int64(n) - take)
			}
			return int(take)
		}
	}
}

// Release returns n previously granted slots to the pool.
func (g *Governor) Release(n int) {
	if g == nil || n <= 0 {
		return
	}
	if g.inUse.Add(-int64(n)) < 0 {
		panic("budget: governor released more slots than acquired")
	}
}

// Capacity returns the extra-worker slot capacity (0 for a nil
// governor = unlimited).
func (g *Governor) Capacity() int {
	if g == nil {
		return 0
	}
	return int(g.capacity)
}

// InUse returns the currently held slot count.
func (g *Governor) InUse() int {
	if g == nil {
		return 0
	}
	return int(g.inUse.Load())
}

// Granted returns the cumulative slots handed out over the run.
func (g *Governor) Granted() int64 {
	if g == nil {
		return 0
	}
	return g.granted.Load()
}

// Denied returns the cumulative slots refused because the pool was full.
func (g *Governor) Denied() int64 {
	if g == nil {
		return 0
	}
	return g.denied.Load()
}

type governorKey struct{}

// ContextWithGovernor attaches g to ctx so nested stages — and the
// budgets they derive — share one worker pool.
func ContextWithGovernor(ctx context.Context, g *Governor) context.Context {
	if g == nil {
		return ctx
	}
	return context.WithValue(ctx, governorKey{}, g)
}

// GovernorFromContext returns the governor carried by ctx, or nil.
func GovernorFromContext(ctx context.Context) *Governor {
	if ctx == nil {
		return nil
	}
	g, _ := ctx.Value(governorKey{}).(*Governor)
	return g
}

// Governor returns the worker-pool governor captured from the budget's
// context (nil for a nil budget or an ungoverned run).
func (b *Budget) Governor() *Governor {
	if b == nil {
		return nil
	}
	return b.gov
}
