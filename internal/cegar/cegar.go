// Package cegar implements the CEGAR-styled model refinement of the
// framework (paper Fig. 1, step 5): the shortlist of potentially
// successful attacks from the abstract qualitative analysis may contain
// spurious solutions due to over-abstraction (but no hazard is
// overlooked); each abstract counterexample is validated against a
// concrete oracle, spurious ones trigger refinement to the next, more
// precise abstraction level and re-analysis, until the remaining findings
// are confirmed or marked for expert review.
//
// Judge validates the findings of one existing analysis: the pipeline's
// step 5 judges exactly the analysis its report holds. RunParallel drives
// the multi-level loop, sweeping each level and judging it through Judge,
// so there is one path from findings to verdicts.
package cegar

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cpsrisk/internal/budget"
	"cpsrisk/internal/epa"
	"cpsrisk/internal/faultinject"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/obs"
	"cpsrisk/internal/plant"
)

// Finding is one abstract counterexample: a scenario flagged as violating
// a requirement.
type Finding struct {
	Scenario epa.Scenario
	ReqID    string
}

// String implements fmt.Stringer.
func (f Finding) String() string { return f.Scenario.Key() + " violates " + f.ReqID }

// Verdict classifies a finding after oracle validation.
type Verdict int

// Verdicts.
const (
	// Confirmed: the concrete oracle reproduced the violation.
	Confirmed Verdict = iota + 1
	// Spurious: the oracle refuted the violation at this abstraction.
	Spurious
	// Undetermined: the oracle cannot decide (e.g. the scenario is not
	// concretely representable); the paper routes these to expert review.
	Undetermined
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Confirmed:
		return "confirmed"
	case Spurious:
		return "spurious"
	case Undetermined:
		return "undetermined"
	default:
		return "unknown-verdict"
	}
}

// Oracle validates an abstract counterexample concretely.
//
// When findings are judged with parallelism > 1 (Judge, RunParallel),
// Check is called from multiple goroutines concurrently and the
// implementation must be safe for that. PlantOracle is: a check reads
// the configuration, steps its probes on run state local to the call,
// and swaps its probe memo atomically.
type Oracle interface {
	// Check returns the verdict for a finding.
	Check(f Finding) (Verdict, error)
}

// Level is one abstraction level of the analysis: an EPA engine (model +
// behaviour precision), its candidate mutations, and the requirement
// conditions at that precision. Levels are ordered coarse to fine.
type Level struct {
	Name         string
	Engine       *epa.Engine
	Mutations    []faults.Mutation
	Requirements []hazard.Requirement
}

// Judged is a finding with its verdict and the level that produced it.
type Judged struct {
	Finding Finding
	Verdict Verdict
	Level   string
}

// Result is the loop outcome.
type Result struct {
	// Findings holds the final classification of every finding of the
	// finest analyzed level.
	Findings []Judged
	// Iterations counts analyzed levels.
	Iterations int
	// PerLevelFindings records how many findings each level produced
	// (shrinking counts show the refinement working).
	PerLevelFindings []int
	// PerLevelScreened is never filled.
	//
	// Deprecated: the formal re-check screen it counted is gone; every
	// finding reaches the oracle.
	PerLevelScreened []int
	// Truncations records budget exhaustions hit during the loop: a
	// truncated hazard analysis, or validation cut short (remaining
	// findings routed to Undetermined).
	Truncations []budget.Truncation
}

// Confirmed lists confirmed findings.
func (r *Result) Confirmed() []Judged { return r.filter(Confirmed) }

// Spurious lists spurious findings.
func (r *Result) Spurious() []Judged { return r.filter(Spurious) }

// Undetermined lists findings needing expert review.
func (r *Result) Undetermined() []Judged { return r.filter(Undetermined) }

func (r *Result) filter(v Verdict) []Judged {
	var out []Judged
	for _, j := range r.Findings {
		if j.Verdict == v {
			out = append(out, j)
		}
	}
	return out
}

// RunParallel executes the refinement loop: analyze the coarsest level;
// judge its findings; while any finding is spurious and a finer level
// exists, move to the next level and re-analyze. The final level's
// findings are returned with their verdicts. maxCard bounds scenario
// cardinality.
//
// Each level is one hazard.AnalyzeSweep under bud followed by Judge, so
// a level degrades as the sweep does under a budget (its truncation is
// collected on the result, stage-prefixed "cegar/<level>/") and is
// validated exactly as Judge validates. Validation cut short by the
// budget stops the loop. A nil budget is unlimited; parallelism sizes
// both the sweep's and the oracle's worker pool (<= 0 picks GOMAXPROCS,
// 1 runs a pool of one).
func RunParallel(levels []Level, oracle Oracle, maxCard int, bud *budget.Budget, parallelism int) (*Result, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("cegar: no abstraction levels")
	}
	res := &Result{}
	for li, level := range levels {
		analysis, err := hazard.AnalyzeSweep(level.Engine, level.Mutations, maxCard, level.Requirements,
			hazard.SweepConfig{Budget: bud, Parallelism: parallelism})
		if err != nil {
			return nil, fmt.Errorf("cegar: level %q: %w", level.Name, err)
		}
		if analysis.Truncation != nil {
			t := *analysis.Truncation
			t.Stage = "cegar/" + level.Name + "/" + t.Stage
			res.Truncations = append(res.Truncations, t)
		}
		lres, err := Judge(level.Name, analysis, oracle, bud, parallelism)
		if err != nil {
			return nil, err
		}
		res.Iterations++
		res.PerLevelFindings = append(res.PerLevelFindings, len(lres.Findings))
		res.Truncations = append(res.Truncations, lres.Truncations...)
		res.Findings = lres.Findings
		if len(lres.Truncations) > 0 || len(lres.Spurious()) == 0 || li == len(levels)-1 {
			break
		}
		// Spurious findings remain: refine (continue with the next finer
		// level) and re-analyze.
	}
	return res, nil
}

// Judge validates the findings of an analysis that already exists, as
// one refinement level named name: every hazardous scenario paired with
// each requirement it violates, in Hazards() order, is checked against
// the oracle. Nothing is re-analyzed, so the verdicts annotate exactly
// the findings the analysis holds. The result has one iteration. The
// analysis's own Truncation is not re-recorded; whoever produced the
// analysis reports it.
//
// The budget is polled before every oracle call (concrete validation can
// dominate wall-clock time); once it trips, every not-yet-validated
// finding is routed to Undetermined (expert review), matching the
// paper's handling of undecidable counterexamples, and one truncation
// says how many were validated. A nil budget is unlimited. Findings are
// checked from a worker pool (the oracle must be safe for concurrent
// Check calls); parallelism <= 0 picks GOMAXPROCS and 1 runs a pool of
// one. Verdicts are deterministic and in the findings' order at every
// width; only the point at which a wall-clock exhaustion cuts validation
// over to Undetermined can vary.
func Judge(name string, analysis *hazard.Analysis, oracle Oracle, bud *budget.Budget, parallelism int) (*Result, error) {
	// The level gets its own span; oracle checks nest under it through
	// the derived budget.
	lctx, lspan := obs.StartSpan(bud.Context(), "level["+name+"]")
	defer lspan.End()
	lbud := bud
	if lspan != nil {
		lbud = budget.New(lctx, bud.Limits())
	}
	reg := obs.RegistryFromContext(bud.Context())
	reg.Counter("cegar.levels").Inc()
	var findings []Finding
	for _, s := range analysis.Scenarios {
		for _, reqID := range s.Violated {
			findings = append(findings, Finding{Scenario: s.Scenario, ReqID: reqID})
		}
	}
	reg.Counter("cegar.findings").Add(int64(len(findings)))
	judged, trunc, err := validateFindings(name, findings, oracle, lbud, parallelism)
	if err != nil {
		return nil, err
	}
	res := &Result{Findings: judged, Iterations: 1, PerLevelFindings: []int{len(judged)}}
	if trunc != nil {
		trunc.Stamp(lctx)
		res.Truncations = []budget.Truncation{*trunc}
	}
	for _, j := range judged {
		reg.Counter("cegar.verdict." + j.Verdict.String()).Inc()
	}
	return res, nil
}

// RunParallelScreened is RunParallel.
//
// Deprecated: the formal re-check screen it ran before the oracle is
// gone; use RunParallel.
func RunParallelScreened(levels []Level, oracle Oracle, maxCard int, bud *budget.Budget, parallelism int) (*Result, error) {
	return RunParallel(levels, oracle, maxCard, bud, parallelism)
}

// validateFindings runs the oracle over one level's findings from a
// worker pool, polling the budget before every check; once it trips, the
// remaining findings are routed to Undetermined and a single truncation
// reports how many were validated. Verdict order is preserved by index.
// One worker is a pool of one.
func validateFindings(levelName string, findings []Finding, oracle Oracle, bud *budget.Budget, parallelism int) ([]Judged, *budget.Truncation, error) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	workers := max(1, min(parallelism, len(findings)))
	// Oracle workers beyond the first draw launch slots from the run-wide
	// worker-pool governor when the budget carries one; zero grants leave
	// a pool of one, never a stall.
	if workers > 1 {
		gov := bud.Governor()
		granted := gov.AcquireUpTo(workers - 1)
		defer gov.Release(granted)
		workers = 1 + granted
	}
	judged := make([]Judged, len(findings))
	checked := make([]bool, len(findings))
	errs := make([]error, len(findings))
	panics := make([]any, len(findings))
	exhaustedReason := make([]string, len(findings))

	parentSpan := obs.SpanFromContext(bud.Context())
	cOracle := obs.RegistryFromContext(bud.Context()).Counter("cegar.oracle_checks")
	inj := bud.Injector()
	check := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panics[i] = r
			}
		}()
		f := findings[i]
		if budErr := bud.Err("cegar"); budErr != nil {
			judged[i] = Judged{Finding: f, Verdict: Undetermined, Level: levelName}
			if ex, ok := budget.Exhausted(budErr); ok {
				exhaustedReason[i] = ex.Reason
			}
			return
		}
		var sp *obs.Span
		if parentSpan != nil {
			sp = parentSpan.StartChild(fmt.Sprintf("oracle#%d", i))
		}
		// A flaky oracle (or an injected transient) is retried with
		// backoff before the finding is abandoned — refinement loops are
		// long-lived and one transient must not void a whole level.
		var verdict Verdict
		err := faultinject.Retry(bud.Context(), 2, time.Millisecond, func() error {
			if inj != nil {
				if ferr := inj.Fire(faultinject.SiteOracle); ferr != nil {
					return ferr
				}
			}
			cOracle.Inc()
			v, cerr := oracle.Check(f)
			if cerr == nil {
				verdict = v
			}
			return cerr
		})
		sp.End()
		if err != nil {
			errs[i] = fmt.Errorf("cegar: oracle on %s: %w", f, err)
			return
		}
		judged[i] = Judged{Finding: f, Verdict: verdict, Level: levelName}
		checked[i] = true
	}

	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				check(i)
			}
		}()
	}
	for i := range findings {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()

	// A panicking oracle panics the caller, and the first failing
	// finding decides, as if the checks had run in order on the caller's
	// goroutine.
	for i, err := range errs {
		if panics[i] != nil {
			panic(panics[i])
		}
		if err != nil {
			return nil, nil, err
		}
	}
	validated := 0
	for _, ok := range checked {
		if ok {
			validated++
		}
	}
	var trunc *budget.Truncation
	for _, reason := range exhaustedReason {
		if reason != "" {
			trunc = &budget.Truncation{
				Stage:  "cegar/" + levelName + "/validate",
				Reason: reason,
				Detail: fmt.Sprintf("%d findings validated before exhaustion; the rest need expert review", validated),
			}
			break
		}
	}
	return judged, trunc, nil
}

// PlantOracle validates water-tank findings by simulating the concrete
// plant. Because the qualitative analysis abstracts from timing, the
// oracle probes several injection instants (including mid-fill, where
// sensor blindness bites) and confirms the finding if any probe violates
// the requirement. Scenarios the plant cannot represent are Undetermined
// (expert review).
type PlantOracle struct {
	Config plant.Config

	// probes memoizes probeSteps for the Config it was computed from.
	probes atomic.Pointer[probeMemo]
}

// probeMemo is one configuration's probe steps.
type probeMemo struct {
	config plant.Config
	steps  []int
}

// NewPlantOracle builds an oracle over the default plant configuration.
func NewPlantOracle() *PlantOracle { return &PlantOracle{Config: plant.DefaultConfig()} }

var _ Oracle = (*PlantOracle)(nil)

// Check implements Oracle. It resolves the scenario's faults once and
// judges each probe without recording a trace, stopping a run as soon as
// the requirement's verdict is settled.
func (o *PlantOracle) Check(f Finding) (Verdict, error) {
	fs, err := plant.FaultSetFromScenario(f.Scenario)
	if err != nil {
		return Undetermined, nil //nolint:nilerr // unrepresentable -> expert review
	}
	cfg := o.Config
	probes, err := o.probeSteps(cfg)
	if err != nil {
		return Undetermined, err
	}
	var stop plant.Stop
	switch f.ReqID {
	case "R1":
		stop = plant.StopAtOverflow
	case "R2":
		stop = plant.StopAtAlertAfterOverflow
	default:
		return Undetermined, nil
	}
	for _, at := range probes {
		out, err := fs.Judge(cfg, at, stop)
		if err != nil {
			return Undetermined, err
		}
		// StopAtOverflow leaves AlertedAfterOverflow false, so one test
		// decides both requirements.
		if out.Overflowed && !out.AlertedAfterOverflow {
			return Confirmed, nil
		}
	}
	return Spurious, nil
}

// probeSteps picks injection instants: at start, during the first filling
// phase, and during the first draining phase of the nominal run. They
// depend on cfg alone, so the last configuration's steps are kept and
// reused while Config is unchanged.
func (o *PlantOracle) probeSteps(cfg plant.Config) ([]int, error) {
	if m := o.probes.Load(); m != nil && m.config == cfg {
		return m.steps, nil
	}
	nominal, err := plant.Simulate(cfg, nil)
	if err != nil {
		return nil, err
	}
	steps := []int{0}
	fill, drain := -1, -1
	for _, s := range nominal.Steps {
		if fill < 0 && s.InFlow > 0 {
			fill = s.T + 1
		}
		if drain < 0 && s.OutFlow > 0 {
			drain = s.T + 1
		}
		if fill >= 0 && drain >= 0 {
			break
		}
	}
	if fill >= 0 {
		steps = append(steps, fill)
	}
	if drain >= 0 {
		steps = append(steps, drain)
	}
	o.probes.Store(&probeMemo{config: cfg, steps: steps})
	return steps, nil
}
