// Package core wires the framework's pipeline (paper Fig. 1) into one
// assessment API: system model -> candidate system mutations -> reasoning
// (native EPA fixpoint or the ASP encoding) -> hazard identification ->
// optional CEGAR-styled refinement -> qualitative risk analysis ->
// mitigation solution space -> cost-benefit optimization.
package core

import (
	"context"
	"fmt"
	"time"

	"cpsrisk/internal/artifact"
	"cpsrisk/internal/attack"
	"cpsrisk/internal/budget"
	"cpsrisk/internal/cegar"
	"cpsrisk/internal/epa"
	"cpsrisk/internal/faultinject"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/kb"
	"cpsrisk/internal/mitigation"
	"cpsrisk/internal/obs"
	"cpsrisk/internal/optimize"
	"cpsrisk/internal/sysmodel"
)

// Config parameterizes a pipeline run.
type Config struct {
	// Model is the merged system model; composites are refined before
	// analysis (the original is not modified).
	Model *sysmodel.Model
	// Types is the component-type library.
	Types *sysmodel.TypeLibrary
	// Behaviors is the EPA behaviour library; nil uses conservative
	// defaults for every type.
	Behaviors *epa.BehaviorLibrary
	// KB injects attack-induced candidates; nil analyzes spontaneous
	// faults only.
	KB *kb.KB
	// Requirements are the violation conditions checked per scenario.
	Requirements []hazard.Requirement
	// MutationSources selects candidate generation inputs; zero value with
	// a non-empty ExtraMutations analyzes exactly those.
	MutationSources faults.Options
	// ExtraMutations are hand-specified candidates merged into the set.
	ExtraMutations []faults.Mutation
	// ActiveMitigations filters blocked candidates before analysis
	// (paper Listing 1 semantics).
	ActiveMitigations map[string]bool
	// MaxCardinality bounds scenario size (negative = unbounded).
	MaxCardinality int
	// UseASP routes hazard identification through the embedded formal
	// method instead of the native fixpoint engine.
	UseASP bool
	// Optimize runs the mitigation cost-benefit step.
	Optimize bool
	// Budget caps mitigation spending (negative = unlimited); only used
	// when Optimize is set.
	Budget int
	// Oracle enables CEGAR validation of the findings when non-nil,
	// classifying hazards as confirmed/spurious/undetermined.
	Oracle cegar.Oracle
	// Resources governs computational effort: wall-clock timeout, solver
	// decision/conflict caps, grounding and scenario caps. The zero value
	// is unlimited. When a cap fires the run degrades gracefully — partial
	// results plus a Degradation report — instead of erroring out.
	Resources budget.Limits
	// Parallelism is the worker-pool size for the native scenario sweep
	// and for CEGAR counterexample validation: 0 picks GOMAXPROCS, 1
	// runs one worker. The results are identical either way;
	// only wall-clock time changes. When an Oracle is configured with
	// Parallelism != 1 it must be safe for concurrent Check calls.
	// It also sizes the run-wide worker-pool governor: sweep workers and
	// oracle checks beyond each construct's first draw from one
	// Parallelism-sized pool, so concurrent stages cannot multiply into
	// oversubscription.
	Parallelism int
	// Deprecated: ignored; a session is one engine.
	SolverWorkers int
	// TraceID is an external correlation ID for the run — the assessment
	// service stamps every request's trace ID here so logs, the JSON
	// report, and the Chrome trace export all carry the same handle.
	// Empty means unidentified; it never affects analysis results.
	TraceID string
	// Tenant scopes artifact-cache keys in multi-tenant service runs: it
	// folds into the configuration hash, so two tenants submitting the
	// same model never share warm/delta resolutions (cache isolation by
	// construction). Empty — the CLI default — is itself one tenant.
	Tenant string
	// Trace, when non-nil, collects a hierarchical span tree of the run
	// (stage -> sub-stage -> per-worker/per-chunk/per-query), snapshotted
	// into Assessment.Trace. Nil disables tracing at the cost of one
	// pointer check per instrumentation site.
	Trace *obs.Trace
	// Metrics, when non-nil, aggregates pipeline counters and histograms
	// (sweep throughput, solver effort, CEGAR verdicts), snapshotted into
	// Assessment.Metrics. Nil disables metrics collection.
	Metrics *obs.Registry
	// CheckpointDir, when set, makes the sweep crash-safe: the completion
	// frontier is persisted there and the next run over identical inputs
	// resumes, producing the identical report. A resumed run sweeps the
	// ranks below the frontier again in memory but does not charge them
	// to Resources.MaxScenarios, so a capped run advances with each
	// invocation.
	CheckpointDir string
	// NoPrune disables sweep pruning (dominance skipping and symmetry
	// orbit replication). Pruning is on by default because it never
	// changes the report — it only skips EPA runs whose outcome is
	// already implied — but this switch forces every scenario through
	// the engine, e.g. to cross-check the pruner itself.
	NoPrune bool
	// ArtifactCache, when non-nil, memoizes compiled pipeline artifacts
	// (lowered model, EPA engine, finished analysis) across runs in this
	// process. A repeat run of an identical model+configuration returns
	// the cached analysis without any EPA or solver work ("warm"); a run
	// whose model differs from a cached one by at most MaxDeltaTouched
	// components re-executes only the invalidated scenario ranks, or
	// none when the edit is invisible to the analysis ("delta"; see
	// artifact.go for the ASP path); anything else runs cold. The
	// resolution taken is stamped into Assessment.Artifact. The cache is
	// safe for concurrent use and may be shared by many runs; runs with
	// Faults armed bypass it entirely.
	ArtifactCache *artifact.Cache
	// Faults arms the deterministic fault-injection harness: injected
	// panics, I/O errors, torn writes and cancellations at the registered
	// sites (see faultinject). Nil — the default — costs one pointer
	// check per site. Production code never sets this; the chaos suite
	// and the CPSRISK_FAULTS env knob do.
	Faults *faultinject.Injector
}

// Assessment is the pipeline output.
type Assessment struct {
	// TraceID echoes Config.TraceID (empty when none was assigned).
	TraceID string
	// ModelStats describes the analyzed (flattened) model.
	ModelStats sysmodel.Stats
	// Candidates is the full candidate-mutation set before mitigation
	// filtering; Analyzed is the set actually analyzed.
	Candidates []faults.Mutation
	Analyzed   []faults.Mutation
	// Compromisable lists the assets an attacker can take over (attack
	// graph over the KB); nil without a KB.
	Compromisable []string
	// Analysis holds the exhaustive scenario results.
	Analysis *hazard.Analysis
	// Ranked is the risk-prioritized scenario list.
	Ranked []hazard.ScenarioResult
	// RelevantMitigations spans the mitigation solution space.
	RelevantMitigations []*kb.Mitigation
	// Plan and Phases are the optimization outputs (Optimize only).
	Plan   optimize.Plan
	Phases []optimize.Phase
	// Refinement is the CEGAR outcome (Oracle only).
	Refinement *cegar.Result
	// Artifact records how the artifact cache resolved this run (nil
	// unless Config.ArtifactCache was set and consulted).
	Artifact *ArtifactInfo
	// Degradation records every resource-driven truncation of the run.
	// Always non-nil; empty when the assessment completed exactly.
	Degradation *budget.Degradation
	// Duration is the wall-clock time of the whole pipeline run, taken
	// from the root span when tracing is on and measured directly
	// otherwise. Always populated.
	Duration time.Duration
	// Trace is the span-tree snapshot of the run (nil unless Config.Trace
	// was set).
	Trace *obs.SpanSnapshot
	// Metrics is the metrics snapshot of the run (nil unless
	// Config.Metrics was set).
	Metrics *obs.MetricsSnapshot
}

// runStage executes one pipeline stage with a panic guard: a panic inside
// any stage (a malformed behaviour library, a bad custom Condition, a
// solver bug) becomes an error naming the stage instead of crashing the
// embedding tool. Regular errors pass through unwrapped.
func runStage(name string, f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: stage %q panicked: %v", name, r)
		}
	}()
	return f()
}

// Run executes the pipeline without external cancellation. Resource
// limits from cfg.Resources still apply.
func Run(cfg Config) (*Assessment, error) {
	return RunCtx(context.Background(), cfg)
}

// RunCtx executes the pipeline under ctx and cfg.Resources. Exhausting
// the budget is not an error: the assessment degrades stage by stage —
// hazard identification falls back to the largest fully-analyzed
// cardinality, the ASP path falls back to the native fixpoint engine,
// validation and optimization are skipped when no time remains — and
// every truncation is recorded in Assessment.Degradation.
func RunCtx(ctx context.Context, cfg Config) (*Assessment, error) {
	if cfg.Model == nil || cfg.Types == nil {
		return nil, fmt.Errorf("core: model and type library are required")
	}
	if len(cfg.Requirements) == 0 {
		return nil, fmt.Errorf("core: at least one requirement is required")
	}
	// The fault injector rides the context like the tracing span does, so
	// every governed stage downstream reaches it through its budget. Its
	// cancel action is bound to a real cancellation of this run.
	if cfg.Faults != nil {
		var cancelInj context.CancelFunc
		ctx, cancelInj = context.WithCancel(ctx)
		defer cancelInj()
		cfg.Faults.BindCancel(cancelInj)
		ctx = faultinject.ContextWith(ctx, cfg.Faults)
	}
	// The worker-pool governor rides the context like the fault injector:
	// every budget derived downstream captures it, and every parallel
	// construct (sweep pool, oracle pool) asks it for slots beyond its
	// first worker. One pool for the whole run keeps concurrent stages
	// from oversubscribing the machine. A governor already installed in
	// ctx is reused instead — that is how the assessment service meters
	// many concurrent tenants' runs against one machine-wide pool.
	gov := budget.GovernorFromContext(ctx)
	if gov == nil {
		gov = budget.NewGovernor(cfg.Parallelism)
		ctx = budget.ContextWithGovernor(ctx, gov)
	}
	bud, cancel := budget.WithTimeout(ctx, cfg.Resources)
	defer cancel()

	out := &Assessment{TraceID: cfg.TraceID, Degradation: &budget.Degradation{}}

	// Observability rides the budget's context: every stage derives a
	// budget whose context carries the stage span (and the metrics
	// registry), so worker pools and solver sessions downstream attach
	// sub-spans without any API changes. With tracing and metrics off the
	// derived budget is bud itself and nothing is paid.
	start := time.Now()
	root := cfg.Trace.Root()
	baseCtx := obs.ContextWithRegistry(bud.Context(), cfg.Metrics)
	baseCtx = obs.ContextWithSpan(baseCtx, root)
	obsBud := bud
	if cfg.Trace != nil || cfg.Metrics != nil {
		obsBud = budget.New(baseCtx, bud.Limits())
	}
	stageBud := func(sp *obs.Span) *budget.Budget {
		if sp == nil {
			return obsBud
		}
		return budget.New(obs.ContextWithSpan(baseCtx, sp), bud.Limits())
	}
	stage := func(name string, f func(b *budget.Budget) error) error {
		sp := root.StartChild(name)
		defer sp.End()
		return runStage(name, func() error {
			b := stageBud(sp)
			// Stage boundaries are fault-injection sites, and transient
			// stage failures get one retry cycle — the harness's proof
			// that the pipeline shell recovers from recoverable faults.
			return faultinject.Retry(b.Context(), 2, time.Millisecond, func() error {
				if inj := b.Injector(); inj != nil {
					if err := inj.Fire(faultinject.SiteStagePrefix + name); err != nil {
						return err
					}
				}
				return f(b)
			})
		})
	}
	finish := func() {
		out.Duration = time.Since(start)
		if cfg.Metrics != nil {
			cfg.Metrics.Gauge("governor.capacity").Set(int64(gov.Capacity()))
			cfg.Metrics.Gauge("governor.granted").Set(gov.Granted())
			cfg.Metrics.Gauge("governor.denied").Set(gov.Denied())
		}
		if cfg.Trace != nil {
			cfg.Trace.Finish()
			out.Duration = root.Duration()
			out.Trace = cfg.Trace.Snapshot()
		}
		if cfg.Metrics != nil {
			out.Metrics = cfg.Metrics.Snapshot()
		}
	}

	var (
		model     *sysmodel.Model
		behaviors *epa.BehaviorLibrary
		eng       *epa.Engine
		muts      []faults.Mutation
		analyzed  []faults.Mutation
	)
	err := stage("model", func(_ *budget.Budget) error {
		model = cfg.Model.Clone()
		if err := model.RefineAll(); err != nil {
			return fmt.Errorf("core: refine: %w", err)
		}
		if err := model.Validate(cfg.Types); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		behaviors = cfg.Behaviors
		if behaviors == nil {
			behaviors = epa.NewBehaviorLibrary(cfg.Types)
		}
		out.ModelStats = model.Stats()
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Step 2: candidate system mutations.
	err = stage("candidates", func(_ *budget.Budget) error {
		var err error
		muts, err = faults.Candidates(model, cfg.Types, cfg.KB, cfg.MutationSources)
		if err != nil {
			return err
		}
		muts = mergeMutations(muts, cfg.ExtraMutations)
		out.Candidates = muts

		if cfg.KB != nil {
			g, err := attack.Build(model, cfg.Types, cfg.KB, attack.Options{
				ActiveMitigations: cfg.ActiveMitigations,
			})
			if err != nil {
				return err
			}
			out.Compromisable = g.Compromisable()
		}

		analyzed = muts
		if cfg.KB != nil && len(cfg.ActiveMitigations) > 0 {
			analyzed = mitigation.Filter(cfg.KB, muts, cfg.ActiveMitigations)
		}
		out.Analyzed = analyzed
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Steps 3-4: reasoning and hazard identification. The ASP path can
	// abort wholesale (grounding or solving exhausted); when it does, the
	// native fixpoint engine takes over — it degrades per scenario rather
	// than per answer set, so a partial result is always available.
	err = stage("hazard", func(b *budget.Budget) error {
		var err error
		// Artifact-cache resolution. An exact warm hit returns the cached
		// engine and analysis with no compile, sweep, or solver work; a
		// miss falls through, possibly arming delta re-assessment below.
		ac := cfg.ArtifactCache
		var (
			fp    *sysmodel.Fingerprint
			key   artifact.Key
			entry *artifact.Entry
		)
		if ac != nil && cfg.Faults == nil {
			fp = model.Fingerprint()
			key = artifact.Key{Model: fp.ModelHash, Cfg: cfgHash(cfg)}
			out.Artifact = &ArtifactInfo{Path: "cold", ModelHash: fmt.Sprintf("%016x", fp.ModelHash)}
			if e, ok := ac.Get(key); ok && e.Complete {
				out.Artifact.Path = "warm"
				bump(cfg.Metrics, "artifact.hits")
				eng = e.Engine
				out.Analysis = e.Analysis
				out.Ranked = e.Ranked()
				return nil
			}
			bump(cfg.Metrics, "artifact.misses")
			entry = &artifact.Entry{}
		}
		// register files this run's outcome in the artifact cache; it runs
		// once the analysis and ranking are final, on either path below.
		register := func() {
			entry.Fingerprint = fp
			entry.Model = model
			entry.Engine = eng
			entry.Candidates = out.Candidates
			entry.Analyzed = analyzed
			entry.Compromisable = out.Compromisable
			entry.Analysis = out.Analysis
			entry.SetRanked(out.Ranked)
			entry.Complete = out.Analysis.Truncation == nil && !out.Degradation.Degraded()
			entry.Pins = []any{cfg.Types, cfg.Behaviors, cfg.KB}
			ac.Put(key, entry)
			if cfg.Metrics != nil {
				cfg.Metrics.Gauge("artifact.evictions").Set(ac.Stats().Evictions)
			}
		}
		// Nearest-parent resolution for delta re-assessment: the closest
		// complete entry under the same configuration, within the K gate.
		var (
			parent      *artifact.Entry
			parentDelta *sysmodel.Delta
		)
		if entry != nil {
			if p, d := ac.Nearest(key.Cfg, fp); p != nil && d.Touched() <= MaxDeltaTouched {
				parent, parentDelta = p, d
			}
		}
		var affected map[string]bool
		if parent != nil {
			affected = affectedComponents(parent.Model, model, parentDelta)
			if len(affected) == 0 && sameScoredMutations(parent.Analyzed, analyzed) {
				// Zero-invalidation delta: the edit is invisible to the
				// engine and the ASP encoding, and the candidate scoring is
				// identical, so the parent's analysis IS this run's
				// analysis on either path. Re-register it under the child
				// hash so successive edits keep chaining.
				out.Artifact.Path = "delta"
				out.Artifact.Touched = parentDelta.Touched()
				bump(cfg.Metrics, "artifact.delta_reassess")
				eng = parent.Engine
				out.Analysis = parent.Analysis
				out.Ranked = parent.Ranked()
				register()
				return nil
			}
		}
		if parent != nil && behaviorallyEmpty(parentDelta) {
			// A metadata-only diff compiles to an identical engine; skip
			// the recompile.
			eng = parent.Engine
		} else {
			eng, err = epa.NewEngine(model, behaviors)
			if err != nil {
				return err
			}
		}
		// Durability machinery: the sweep checkpoint. It is best-effort —
		// an unopenable directory degrades the run (recorded, sweep
		// proceeds without a checkpoint) rather than failing an otherwise
		// sound assessment.
		sweepCfg := hazard.SweepConfig{Budget: b, Parallelism: cfg.Parallelism, Prune: !cfg.NoPrune}
		if cfg.CheckpointDir != "" {
			ck, kerr := hazard.OpenCheckpoint(cfg.CheckpointDir, 0)
			if kerr != nil {
				out.Degradation.Add("hazard", "checkpoint-unavailable", kerr.Error())
			} else {
				sweepCfg.Checkpoint = ck
			}
		}
		// Delta re-assessment (native sweep): the nearest complete parent
		// under the same configuration supplies a reuse oracle, so only
		// scenarios the edit could have changed execute. Any other ASP
		// edit runs cold.
		if parent != nil && !cfg.UseASP {
			sweepCfg.Reuse = deltaOracle(parent.Analysis, affected)
			out.Artifact.Path = "delta"
			out.Artifact.Touched = parentDelta.Touched()
			out.Artifact.Affected = len(affected)
			bump(cfg.Metrics, "artifact.delta_reassess")
		}
		if cfg.UseASP {
			out.Analysis, err = hazard.AnalyzeASPOpts(eng, analyzed, cfg.MaxCardinality, cfg.Requirements, hazard.ASPOptions{Budget: b})
			if ex, ok := budget.Exhausted(err); ok {
				t := budget.Truncation{Stage: "hazard-asp", Reason: ex.Reason,
					Detail: "ASP identification aborted; falling back to the native fixpoint engine"}
				t.Stamp(b.Context())
				out.Degradation.Record(t)
				out.Analysis, err = hazard.AnalyzeSweep(eng, analyzed, cfg.MaxCardinality, cfg.Requirements, sweepCfg)
			}
		} else {
			out.Analysis, err = hazard.AnalyzeSweep(eng, analyzed, cfg.MaxCardinality, cfg.Requirements, sweepCfg)
		}
		if err != nil {
			return err
		}
		if out.Analysis.Truncation != nil {
			out.Degradation.Record(*out.Analysis.Truncation)
		}
		out.Ranked = out.Analysis.Ranked()
		if entry != nil {
			register()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Step 5: CEGAR-styled validation. The oracle judges the findings of
	// out.Analysis, the analysis step 4 produced and the report shows, as
	// one level named "assessment"; nothing is swept again, so warm, delta,
	// ASP and capped runs validate exactly what they report.
	// Multi-level refinement is driven via the cegar package directly.
	// Skipped entirely when the budget is already spent — validating
	// against a concrete oracle is the most expensive stage and partial
	// hazard results are still worth reporting.
	if cfg.Oracle != nil {
		if budErr := bud.Err("validate"); budErr != nil {
			if !out.Degradation.RecordError(budErr) {
				return nil, budErr
			}
			stampLast(out.Degradation, baseCtx)
		} else {
			err = stage("validate", func(b *budget.Budget) error {
				ref, err := cegar.Judge("assessment", out.Analysis, cfg.Oracle, b, cfg.Parallelism)
				if err != nil {
					return err
				}
				out.Refinement = ref
				for _, t := range ref.Truncations {
					out.Degradation.Record(t)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
	}

	// Steps 6-7: mitigation space and cost-benefit optimization.
	if cfg.KB != nil {
		err = stage("mitigation", func(b *budget.Budget) error {
			out.RelevantMitigations = mitigation.Relevant(cfg.KB, muts)
			if !cfg.Optimize {
				return nil
			}
			if budErr := b.Err("optimize"); budErr != nil {
				if !out.Degradation.RecordError(budErr) {
					return budErr
				}
				stampLast(out.Degradation, b.Context())
				return nil
			}
			problem := &optimize.Problem{Budget: cfg.Budget}
			for _, m := range out.RelevantMitigations {
				problem.Options = append(problem.Options, optimize.Option{
					ID: m.ID, Cost: m.Cost + m.MaintenanceCost,
				})
			}
			problem.Scenarios = mitigation.PrepareLosses(cfg.KB, out.Analysis, muts)
			var err error
			out.Plan, err = problem.Optimal()
			if err != nil {
				return err
			}
			out.Phases, _, err = problem.MultiPhase()
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	finish()
	return out, nil
}

// stampLast annotates the most recent degradation entry with the span
// and elapsed time from ctx (no-op when untraced or empty).
func stampLast(d *budget.Degradation, ctx context.Context) {
	if n := len(d.Truncations); n > 0 {
		d.Truncations[n-1].Stamp(ctx)
	}
}

// mergeMutations unions the extra candidates into the generated set,
// merging sources and keeping the maximum likelihood per activation.
func mergeMutations(base, extra []faults.Mutation) []faults.Mutation {
	if len(extra) == 0 {
		return base
	}
	idx := map[epa.Activation]int{}
	out := append([]faults.Mutation(nil), base...)
	for i, m := range out {
		idx[m.Activation] = i
	}
	for _, m := range extra {
		if i, ok := idx[m.Activation]; ok {
			out[i].Sources = mergeSources(out[i].Sources, m.Sources)
			if m.Likelihood > out[i].Likelihood {
				out[i].Likelihood = m.Likelihood
			}
			continue
		}
		idx[m.Activation] = len(out)
		out = append(out, m)
	}
	return out
}

func mergeSources(a, b []string) []string {
	seen := map[string]bool{}
	out := make([]string, 0, len(a)+len(b))
	for _, s := range append(append([]string(nil), a...), b...) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
