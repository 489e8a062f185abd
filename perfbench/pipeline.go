package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"cpsrisk/internal/attack"
	"cpsrisk/internal/budget"
	"cpsrisk/internal/cegar"
	"cpsrisk/internal/core"
	"cpsrisk/internal/epa"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/kb"
	"cpsrisk/internal/mitigation"
	"cpsrisk/internal/obs"
	"cpsrisk/internal/optimize"
	"cpsrisk/internal/qual"
	"cpsrisk/internal/sysmodel"
	"cpsrisk/internal/watertank"
)

// planInputs is the plan-asp input: the paper's Fig. 1 water tank over
// the full mutation surface, assessed with the ASP method, the CEGAR
// plant oracle and the cost-benefit optimizer.
type planInputs struct {
	types     *sysmodel.TypeLibrary
	behaviors *epa.BehaviorLibrary
	kb        *kb.KB
	oracle    cegar.Oracle
}

func newPlanInputs() planInputs {
	types := watertank.Types()
	return planInputs{
		types:     types,
		behaviors: watertank.Behaviors(types),
		kb:        kb.MustDefaultKB(),
		oracle:    cegar.NewPlantOracle(),
	}
}

func (in planInputs) config() core.Config {
	return core.Config{
		Model:           watertank.Model(),
		Types:           in.types,
		Behaviors:       in.behaviors,
		KB:              in.kb,
		Requirements:    watertank.Requirements(),
		MutationSources: faults.AllSources(),
		ExtraMutations:  watertank.PaperCandidates(),
		MaxCardinality:  3,
		UseASP:          true,
		SolverWorkers:   1,
		Oracle:          in.oracle,
		Optimize:        true,
		Budget:          -1,
		Parallelism:     runtime.NumCPU(),
	}
}

// starSensors sizes the sweep-star plant: 10 sensors give 21 candidates
// and 27,896 scenarios at k=5, about 160 ms per run on a 2-CPU host, so
// a 20 s run holds well over 100 operations and lat_ms.p90 has more than
// ten samples beyond it.
const starSensors = 10

// starInputs is the sweep-star input: the redundant sensor star (every
// sensor feeds one hub the requirement watches), swept natively at k=5
// with the CLI defaults. No KB, oracle or optimizer.
type starInputs struct {
	model     *sysmodel.Model
	types     *sysmodel.TypeLibrary
	behaviors *epa.BehaviorLibrary
	muts      []faults.Mutation
}

func newStarInputs() starInputs {
	types := sysmodel.NewTypeLibrary()
	types.MustAdd(&sysmodel.ComponentType{
		Name:  "sensor",
		Ports: []sysmodel.PortSpec{{Name: "out", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow}},
		FaultModes: []sysmodel.FaultModeSpec{
			{Name: "corrupt", Likelihood: "M"}, {Name: "stuck", Likelihood: "L"},
		},
	})
	types.MustAdd(&sysmodel.ComponentType{
		Name: "hub",
		Ports: []sysmodel.PortSpec{
			{Name: "in", Dir: sysmodel.In, Flow: sysmodel.SignalFlow},
			{Name: "out", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow},
		},
		FaultModes: []sysmodel.FaultModeSpec{{Name: "crash", Likelihood: "L"}},
	})
	m := sysmodel.NewModel("redundant-star")
	m.MustAddComponent(&sysmodel.Component{ID: "hub", Type: "hub"})
	var muts []faults.Mutation
	for i := 0; i < starSensors; i++ {
		id := fmt.Sprintf("s%02d", i)
		m.MustAddComponent(&sysmodel.Component{ID: id, Type: "sensor"})
		m.Connect(id, "out", "hub", "in", sysmodel.SignalFlow)
		muts = append(muts,
			faults.Mutation{Activation: epa.Activation{Component: id, Fault: "corrupt"}, Likelihood: qual.Medium},
			faults.Mutation{Activation: epa.Activation{Component: id, Fault: "stuck"}, Likelihood: qual.Low})
	}
	muts = append(muts, faults.Mutation{
		Activation: epa.Activation{Component: "hub", Fault: "crash"}, Likelihood: qual.Low})
	lib := epa.NewBehaviorLibrary(types)
	lib.MustRegister(&epa.TypeBehavior{
		Type: "sensor",
		Effects: []epa.FaultEffect{
			{Fault: "corrupt", Port: "out", Emit: epa.StateOf(epa.ErrValue)},
			{Fault: "stuck", Port: "out", Emit: epa.StateOf(epa.ErrTiming)},
		},
	})
	lib.MustRegister(&epa.TypeBehavior{
		Type:      "hub",
		Effects:   []epa.FaultEffect{{Fault: "crash", Port: "out", Emit: epa.StateOf(epa.ErrOmission)}},
		Transfers: epa.IdentityTransfers("in", "out"),
	})
	return starInputs{model: m, types: types, behaviors: lib, muts: muts}
}

func (in starInputs) config() core.Config {
	return core.Config{
		Model:     in.model,
		Types:     in.types,
		Behaviors: in.behaviors,
		Requirements: []hazard.Requirement{{
			ID: "R-HUB", Severity: qual.High, Condition: hazard.Comp("hub", epa.ErrValue),
		}},
		ExtraMutations: in.muts,
		MaxCardinality: 5,
		Parallelism:    runtime.NumCPU(),
	}
}

// cliWorkload is a closed loop of cold core.RunCtx calls, one client:
// each operation is what one riskassess invocation computes.
type cliWorkload struct {
	cfg  core.Config
	want digests
}

func (w *cliWorkload) clients() int { return 1 }

// op collects the previous operation's garbage before the clock starts
// (a CLI run starts on a fresh heap), times one cold run, and checks the
// report after the clock stops.
func (w *cliWorkload) op(int) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	a, err := core.RunCtx(context.Background(), w.cfg)
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	return lat, w.check(a)
}

func (w *cliWorkload) check(a *core.Assessment) error {
	got, err := assessmentDigests(a)
	if err != nil {
		return err
	}
	return w.want.compare(got)
}

func (w *cliWorkload) close() {}

// traced runs the per-layer pass: n operations as a sequence of timed
// public calls, each checked against the golden digests, then n
// interleaved untraced/traced core.RunCtx pairs for the tracing overhead.
func (w *cliWorkload) traced(n int, m metricSet) error {
	var layers layerSamples
	for i := 0; i < n; i++ {
		runtime.GC()
		a, err := tracedPipeline(w.cfg, &layers)
		if err != nil {
			return err
		}
		if err := w.check(a); err != nil {
			return fmt.Errorf("traced pipeline: %w", err)
		}
	}
	layers.report(m)
	frac, err := obsOverhead(w.cfg, n)
	if err != nil {
		return err
	}
	m["obs.overhead_frac"] = frac
	return nil
}

// obsOverhead runs n interleaved pairs of cold core.RunCtx calls, one
// untraced and one with a span tree and metrics registry attached, in
// alternating order, and returns traced p50 / untraced p50 - 1.
func obsOverhead(cfg core.Config, n int) (float64, error) {
	var off, on []float64
	for i := 0; i < n; i++ {
		for _, traced := range []bool{i%2 == 1, i%2 == 0} {
			c := cfg
			if traced {
				c.Trace = obs.New("assessment")
				c.Metrics = obs.NewRegistry()
			}
			runtime.GC()
			start := time.Now()
			if _, err := core.RunCtx(context.Background(), c); err != nil {
				return 0, err
			}
			ms := msSince(start)
			if traced {
				on = append(on, ms)
			} else {
				off = append(off, ms)
			}
		}
	}
	return quantile(on, 0.5)/quantile(off, 0.5) - 1, nil
}

// countingOracle counts the concrete checks the CEGAR loop makes.
type countingOracle struct {
	inner  cegar.Oracle
	checks atomic.Int64
}

func (o *countingOracle) Check(f cegar.Finding) (cegar.Verdict, error) {
	o.checks.Add(1)
	return o.inner.Check(f)
}

// tracedPipeline performs core.RunCtx's stages as a sequence of calls
// into each layer's public functions, timing every call from outside.
// It returns the assessment those calls produce, which must match
// core.RunCtx's report.
func tracedPipeline(cfg core.Config, ls *layerSamples) (*core.Assessment, error) {
	lt := layerTimes{}
	wall := time.Now()
	ctx := budget.ContextWithGovernor(context.Background(), budget.NewGovernor(cfg.Parallelism))
	bud := budget.New(ctx, cfg.Resources)
	out := &core.Assessment{Degradation: &budget.Degradation{}}

	start := time.Now()
	model := cfg.Model.Clone()
	if err := model.RefineAll(); err != nil {
		return nil, err
	}
	if err := model.Validate(cfg.Types); err != nil {
		return nil, err
	}
	behaviors := cfg.Behaviors
	if behaviors == nil {
		behaviors = epa.NewBehaviorLibrary(cfg.Types)
	}
	out.ModelStats = model.Stats()
	lt["sysmodel.ms"] = msSince(start)

	start = time.Now()
	muts, err := faults.Candidates(model, cfg.Types, cfg.KB, cfg.MutationSources)
	if err != nil {
		return nil, err
	}
	muts = mergeMutations(muts, cfg.ExtraMutations)
	if cfg.KB != nil {
		g, err := attack.Build(model, cfg.Types, cfg.KB, attack.Options{})
		if err != nil {
			return nil, err
		}
		out.Compromisable = g.Compromisable()
	}
	out.Candidates, out.Analyzed = muts, muts
	lt["faults.candidates_ms"] = msSince(start)

	start = time.Now()
	eng, err := epa.NewEngine(model, behaviors)
	if err != nil {
		return nil, err
	}
	lt["epa.compile_ms"] = msSince(start)

	if cfg.UseASP {
		start = time.Now()
		out.Analysis, err = hazard.AnalyzeASPOpts(eng, muts, cfg.MaxCardinality, cfg.Requirements,
			hazard.ASPOptions{Budget: bud, SolverWorkers: cfg.SolverWorkers})
		if err != nil {
			return nil, err
		}
		lt["hazard.asp_ms"] = msSince(start)
		if st := out.Analysis.SolverStats; st != nil {
			lt["solver.decisions"] = float64(st.Decisions)
			lt["solver.conflicts"] = float64(st.Conflicts)
		}
	} else {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start = time.Now()
		out.Analysis, err = hazard.AnalyzeSweep(eng, muts, cfg.MaxCardinality, cfg.Requirements,
			hazard.SweepConfig{Budget: bud, Parallelism: cfg.Parallelism, Prune: !cfg.NoPrune})
		if err != nil {
			return nil, err
		}
		lt["hazard.sweep_ms"] = msSince(start)
		runtime.ReadMemStats(&after)
		rows := float64(len(out.Analysis.Scenarios))
		lt["hazard.allocs_per_row"] = float64(after.Mallocs-before.Mallocs) / rows
		lt["hazard.bytes_per_row"] = float64(after.TotalAlloc-before.TotalAlloc) / rows
		if sw := out.Analysis.Sweep; sw != nil {
			lt["hazard.executed_frac"] = float64(sw.Executed) / rows
		}
	}
	lt["hazard.rows"] = float64(len(out.Analysis.Scenarios))
	start = time.Now()
	out.Ranked = out.Analysis.Ranked()
	lt["hazard.rank_ms"] = msSince(start)

	if cfg.Oracle != nil {
		oracle := &countingOracle{inner: cfg.Oracle}
		start = time.Now()
		ref, err := cegar.RunParallelScreened([]cegar.Level{{
			Name: "assessment", Engine: eng, Mutations: muts, Requirements: cfg.Requirements,
		}}, oracle, cfg.MaxCardinality, bud, cfg.Parallelism)
		if err != nil {
			return nil, err
		}
		lt["cegar.ms"] = msSince(start)
		out.Refinement = ref
		screened := 0
		for _, s := range ref.PerLevelScreened {
			screened += s
		}
		lt["cegar.oracle_checks"] = float64(oracle.checks.Load())
		if len(ref.Findings) > 0 {
			lt["cegar.screened_frac"] = float64(screened) / float64(len(ref.Findings))
		}
	}

	if cfg.KB != nil {
		start = time.Now()
		out.RelevantMitigations = mitigation.Relevant(cfg.KB, muts)
		var problem *optimize.Problem
		if cfg.Optimize {
			problem = &optimize.Problem{Budget: cfg.Budget}
			for _, m := range out.RelevantMitigations {
				problem.Options = append(problem.Options, optimize.Option{ID: m.ID, Cost: m.Cost + m.MaintenanceCost})
			}
			problem.Scenarios = mitigation.PrepareLosses(cfg.KB, out.Analysis, muts)
		}
		lt["mitigation.ms"] = msSince(start)
		if problem != nil {
			start = time.Now()
			if out.Plan, err = problem.Optimal(); err != nil {
				return nil, err
			}
			lt["optimize.optimal_ms"] = msSince(start)
			start = time.Now()
			if out.Phases, _, err = problem.MultiPhase(); err != nil {
				return nil, err
			}
			lt["optimize.multiphase_ms"] = msSince(start)
		}
	}

	start = time.Now()
	if _, err := json.Marshal(out.Summarize()); err != nil {
		return nil, err
	}
	lt["core.encode_ms"] = msSince(start)

	ls.add(lt, msSince(wall))
	return out, nil
}

// mergeMutations unions the extra candidates into the generated set the
// way core does: sources merged, the higher likelihood kept.
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
		i, ok := idx[m.Activation]
		if !ok {
			idx[m.Activation] = len(out)
			out = append(out, m)
			continue
		}
		seen := map[string]bool{}
		sources := make([]string, 0, len(out[i].Sources)+len(m.Sources))
		for _, s := range append(append([]string(nil), out[i].Sources...), m.Sources...) {
			if !seen[s] {
				seen[s] = true
				sources = append(sources, s)
			}
		}
		out[i].Sources = sources
		if m.Likelihood > out[i].Likelihood {
			out[i].Likelihood = m.Likelihood
		}
	}
	return out
}
