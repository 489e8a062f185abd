// Package faultinject is a deterministic, seed-driven fault-injection
// harness for the assessment pipeline. Robustness claims — the sweep
// resumes from its checkpoint, the cache quarantines torn writes, worker
// panics degrade instead of crashing — are only real if the failure
// paths run in tests. An Injector arms named sites scattered through the
// pipeline (worker chunks, EPA runs, cache writes, oracle checks, core
// stages) with failures that fire on exact, reproducible arrivals.
//
// The harness rides the same context carriage as the resource budget and
// the observability registry: a run installs its injector with
// ContextWith, internal/budget captures it once per Budget, and every
// instrumented site pays one pointer nil check when injection is off —
// the same disabled-cost contract the tracer honors.
//
// Failures are deterministic, not probabilistic: a site fires on its
// Nth arrival (an atomic per-site counter), on every arrival, or on a
// pseudo-random arrival derived from the seed and the site name — the
// same seed always yields the same schedule, so a chaos run is exactly
// reproducible and its report byte-comparable across executions.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Canonical injection sites. Free-form site names work too; these
// constants document where the pipeline is instrumented.
const (
	// SiteEPARun fires at the entry of every EPA propagation run.
	SiteEPARun = "epa.run"
	// SiteSweepChunk fires at the start of every sweep worker chunk.
	SiteSweepChunk = "hazard.chunk"
	// SiteCheckpointWrite fires before the sweep frontier is persisted.
	SiteCheckpointWrite = "hazard.checkpoint"
	// SiteOracle fires before every CEGAR oracle check.
	SiteOracle = "cegar.oracle"
	// SiteSolverWorker fires before a solver session's engine runs a
	// query.
	SiteSolverWorker = "solver.worker"
	// SiteStagePrefix prefixes per-stage sites in core ("core.stage.hazard").
	SiteStagePrefix = "core.stage."
)

// Environment knobs read by FromEnv (and therefore by riskassess and the
// chaos scripts).
const (
	// EnvSpec holds the injection spec, e.g.
	// "hazard.chunk=panic@2,hazard.checkpoint=torn@1".
	EnvSpec = "CPSRISK_FAULTS"
	// EnvSeed holds the integer seed for @r sites (default 1).
	EnvSeed = "CPSRISK_FAULT_SEED"
)

// Action is what an armed site does when it fires.
type Action uint8

// Actions.
const (
	// ActErr returns a permanent *InjectedError (callers fail hard).
	ActErr Action = iota + 1
	// ActTransient returns an *InjectedError wrapped as transient
	// (callers retry with backoff).
	ActTransient
	// ActPanic panics inside the caller (exercises recover paths).
	ActPanic
	// ActCancel calls the cancel function bound with BindCancel
	// (simulates mid-flight cancellation) and returns nil.
	ActCancel
	// ActTorn returns an *InjectedError with Torn set; writers interpret
	// it by leaving a deliberately truncated file behind (simulating a
	// crash mid-write) before failing.
	ActTorn
)

var actionNames = map[string]Action{
	"err":       ActErr,
	"transient": ActTransient,
	"panic":     ActPanic,
	"cancel":    ActCancel,
	"torn":      ActTorn,
}

// String implements fmt.Stringer.
func (a Action) String() string {
	for n, v := range actionNames {
		if v == a {
			return n
		}
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// InjectedError is the failure an armed site returns.
type InjectedError struct {
	// Site is the injection site that fired.
	Site string
	// Arrival is the 1-based arrival index at which it fired.
	Arrival int64
	// Torn asks the writer to simulate a torn (partial) write.
	Torn bool
}

// Error implements error.
func (e *InjectedError) Error() string {
	kind := "failure"
	if e.Torn {
		kind = "torn write"
	}
	return fmt.Sprintf("faultinject: injected %s at %s (arrival %d)", kind, e.Site, e.Arrival)
}

// IsInjected unwraps err as an *InjectedError.
func IsInjected(err error) (*InjectedError, bool) {
	var e *InjectedError
	if errors.As(err, &e) {
		return e, true
	}
	return nil, false
}

// IsTorn reports whether err asks for a torn-write simulation.
func IsTorn(err error) bool {
	e, ok := IsInjected(err)
	return ok && e.Torn
}

// armed is one site's arming plus its live arrival counter.
type armed struct {
	action   Action
	at       int64 // arrival that fires (1-based); 0 with every=true
	every    bool
	arrivals atomic.Int64
	fired    atomic.Int64
}

// Injector holds the armed sites of one chaos run. A nil *Injector is
// valid and inert; every method is nil-receiver safe. The rules map is
// immutable after New, so Fire is lock-free.
type Injector struct {
	seed  int64
	rules map[string]*armed

	mu     sync.Mutex
	cancel func()
}

// New parses a spec into an injector. The spec is a comma-separated list
// of armings:
//
//	site=action@N   fire on exactly the Nth arrival (1-based)
//	site=action@*   fire on every arrival
//	site=action@rM  fire once, on a seed-derived arrival in [1, M]
//
// with action one of err, transient, panic, cancel, torn. An empty spec
// yields a nil (inert) injector.
func New(seed int64, spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	inj := &Injector{seed: seed, rules: map[string]*armed{}}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		site, rest, ok := strings.Cut(part, "=")
		if !ok || site == "" {
			return nil, fmt.Errorf("faultinject: arming %q: want site=action@arrival", part)
		}
		actName, arr, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("faultinject: arming %q: missing @arrival", part)
		}
		action, ok := actionNames[actName]
		if !ok {
			return nil, fmt.Errorf("faultinject: arming %q: unknown action %q", part, actName)
		}
		a := &armed{action: action}
		switch {
		case arr == "*":
			a.every = true
		case strings.HasPrefix(arr, "r"):
			max, err := strconv.ParseInt(arr[1:], 10, 64)
			if err != nil || max < 1 {
				return nil, fmt.Errorf("faultinject: arming %q: bad random bound %q", part, arr)
			}
			a.at = 1 + int64(seededArrival(seed, site)%uint64(max))
		default:
			n, err := strconv.ParseInt(arr, 10, 64)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("faultinject: arming %q: bad arrival %q", part, arr)
			}
			a.at = n
		}
		if _, dup := inj.rules[site]; dup {
			return nil, fmt.Errorf("faultinject: site %q armed twice", site)
		}
		inj.rules[site] = a
	}
	return inj, nil
}

// FromEnv builds an injector from the CPSRISK_FAULTS / CPSRISK_FAULT_SEED
// environment knobs; (nil, nil) when unset.
func FromEnv() (*Injector, error) {
	spec := os.Getenv(EnvSpec)
	if spec == "" {
		return nil, nil
	}
	seed := int64(1)
	if s := os.Getenv(EnvSeed); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("faultinject: %s=%q: %w", EnvSeed, s, err)
		}
		seed = n
	}
	return New(seed, spec)
}

// seededArrival mixes the seed and the site name into a stable 64-bit
// value (FNV-1a then a splitmix64 finalizer) so @r armings are
// deterministic per (seed, site) yet spread across sites.
func seededArrival(seed int64, site string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", seed, site)
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// BindCancel installs the function ActCancel sites call — typically the
// cancel of the run's budget context.
func (i *Injector) BindCancel(fn func()) {
	if i == nil {
		return
	}
	i.mu.Lock()
	i.cancel = fn
	i.mu.Unlock()
}

// Seed returns the injector's seed (0 for nil).
func (i *Injector) Seed() int64 {
	if i == nil {
		return 0
	}
	return i.seed
}

// Fire registers one arrival at the site and triggers its armed failure
// when the schedule says so: it panics (ActPanic), cancels (ActCancel,
// returning nil — the cancellation surfaces through the context), or
// returns the injected error. Unarmed sites and nil injectors return nil.
func (i *Injector) Fire(site string) error {
	if i == nil {
		return nil
	}
	a := i.rules[site]
	if a == nil {
		return nil
	}
	n := a.arrivals.Add(1)
	if !a.every && n != a.at {
		return nil
	}
	a.fired.Add(1)
	switch a.action {
	case ActPanic:
		panic(fmt.Sprintf("faultinject: injected panic at %s (arrival %d)", site, n))
	case ActCancel:
		i.mu.Lock()
		cancel := i.cancel
		i.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return nil
	case ActTransient:
		return Transient(&InjectedError{Site: site, Arrival: n})
	case ActTorn:
		return &InjectedError{Site: site, Arrival: n, Torn: true}
	default:
		return &InjectedError{Site: site, Arrival: n}
	}
}

// Fired returns how many times the site has triggered (0 for nil or
// unarmed sites).
func (i *Injector) Fired(site string) int64 {
	if i == nil {
		return 0
	}
	a := i.rules[site]
	if a == nil {
		return 0
	}
	return a.fired.Load()
}

// Counts returns fired counts per armed site, sorted by name — the
// chaos-report projection.
func (i *Injector) Counts() []SiteCount {
	if i == nil {
		return nil
	}
	out := make([]SiteCount, 0, len(i.rules))
	for site, a := range i.rules {
		out = append(out, SiteCount{Site: site, Arrivals: a.arrivals.Load(), Fired: a.fired.Load()})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Site < out[b].Site })
	return out
}

// SiteCount is one site's arrival/fired tally.
type SiteCount struct {
	Site     string
	Arrivals int64
	Fired    int64
}

type injectorKey struct{}

// ContextWith returns ctx carrying the injector (ctx unchanged for nil).
func ContextWith(ctx context.Context, i *Injector) context.Context {
	if i == nil {
		return ctx
	}
	return context.WithValue(ctx, injectorKey{}, i)
}

// FromContext returns the carried injector, or nil.
func FromContext(ctx context.Context) *Injector {
	if ctx == nil {
		return nil
	}
	i, _ := ctx.Value(injectorKey{}).(*Injector)
	return i
}
