// Command riskassess runs the full assessment pipeline on a system model
// loaded from JSON: candidate-mutation generation from the built-in
// security knowledge base, exhaustive hazard identification against the
// model's LTLf requirements (interpreted as topology-criticality checks
// when no behaviour library exists), risk ranking, and mitigation
// optimization.
//
// Usage:
//
//	riskassess -model model.json -types types.json [-maxcard 2] [-asp]
//	           [-optimize] [-budget N] [-mitigations M-0917,M-0949]
//	           [-timeout 30s] [-max-decisions N] [-max-scenarios N]
//	           [-parallel N] [-top N] [-trace out.json]
//	           [-checkpoint dir] [-cache dir]
//	           [-delta old.json] [-watch [-watch-interval d] [-watch-max N]]
//	           [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Repeat runs: -delta old.json assesses the older model first to warm an
// in-process artifact cache, then assesses -model incrementally — only
// scenarios invalidated by the edit re-execute. -watch keeps the process
// alive, re-assessing -model whenever the file changes; successive runs
// resolve warm (unchanged) or delta (small edit) against the cache.
//
// Requirements in the model file carry LTLf formulas for documentation;
// the generic violation condition used here flags a requirement when any
// component marked criticality H/VH exhibits any error mode.
//
// The resource flags make the run an anytime computation: when the
// timeout or a cap fires, the tool reports the partial results it
// completed plus a degradation summary saying exactly what was cut short.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"cpsrisk/internal/artifact"
	"cpsrisk/internal/budget"
	"cpsrisk/internal/core"
	"cpsrisk/internal/faultinject"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/kb"
	"cpsrisk/internal/obs"
	"cpsrisk/internal/serve"
	"cpsrisk/internal/sysmodel"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "riskassess:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("riskassess", flag.ContinueOnError)
	modelPath := fs.String("model", "", "system model JSON (required)")
	typesPath := fs.String("types", "", "component-type library JSON (required)")
	maxCard := fs.Int("maxcard", 2, "maximum simultaneous activations (-1 = unbounded)")
	useASP := fs.Bool("asp", false, "use the ASP engine for hazard identification")
	doOpt := fs.Bool("optimize", false, "run mitigation cost-benefit optimization")
	mitBudget := fs.Int("budget", -1, "mitigation budget (-1 = unlimited)")
	mitigations := fs.String("mitigations", "", "comma-separated active mitigation IDs")
	jsonOut := fs.Bool("json", false, "emit the machine-readable JSON summary instead of text")
	dotPath := fs.String("dot", "", "also write the model as GraphViz DOT to this file")
	timeout := fs.Duration("timeout", 0, "wall-clock limit for the whole run (0 = none); partial results on expiry")
	maxDecisions := fs.Int64("max-decisions", 0, "cap on ASP solver branching decisions (0 = unlimited)")
	maxScenarios := fs.Int("max-scenarios", 0, "cap on analyzed scenarios (0 = unlimited)")
	parallel := fs.Int("parallel", runtime.NumCPU(), "scenario-sweep workers (1 = one worker; results are identical)")
	solverWorkers := fs.Int("solver-workers", 1, "ASP portfolio engines per query (0 = derive from -parallel, 1 = single engine)")
	solverDet := fs.Bool("solver-det", false, "deterministic ASP search: forces a single engine so reports are byte-identical across runs")
	topN := fs.Int("top", 20, "ranked scenarios to print (0 = all)")
	noPrune := fs.Bool("no-prune", false, "disable sweep pruning (dominance skipping + symmetry orbits); every scenario runs through the EPA engine")
	shard := fs.String("shard", "", "sweep one rank-range shard of the scenario space, as \"i/m\" (0-based index i of m shards); shards share -cache and merge via a final whole-space run")
	checkpointDir := fs.String("checkpoint", "", "persist sweep checkpoints (and the result cache) in this directory; an interrupted run resumes from it")
	cacheDir := fs.String("cache", "", "persist the EPA result cache in this directory (defaults to <checkpoint>/cache when -checkpoint is set)")
	deltaOld := fs.String("delta", "", "assess this older model first to warm the artifact cache, then assess -model incrementally against it")
	watch := fs.Bool("watch", false, "keep running and re-assess -model whenever the file changes; repeat runs resolve warm or delta from the artifact cache")
	watchInterval := fs.Duration("watch-interval", 500*time.Millisecond, "poll interval for -watch")
	watchMax := fs.Int("watch-max", 0, "stop -watch after this many assessments (0 = run until interrupted)")
	tracePath := fs.String("trace", "", "trace the run and write Chrome trace_event JSON to this file (chrome://tracing, Perfetto)")
	traceID := fs.String("trace-id", "", "correlation ID stamped into the report summary and the trace export")
	artifactCache := fs.Bool("artifact-cache", false, "arm the in-process artifact cache even for a single run (the service default); the run reports its cold/warm/delta resolution")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" || *typesPath == "" {
		fs.Usage()
		return fmt.Errorf("-model and -types are required")
	}
	shardIndex, shardCount, err := parseShard(*shard)
	if err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "riskassess: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "riskassess: memprofile:", err)
			}
		}()
	}

	// Fault injection is armed exclusively from the environment
	// (CPSRISK_FAULTS / CPSRISK_FAULT_SEED) so production invocations
	// can't trip it by flag typo; unset env means a nil injector and
	// nil-check-only overhead.
	injector, err := faultinject.FromEnv()
	if err != nil {
		return err
	}

	types, err := loadTypes(*typesPath)
	if err != nil {
		return err
	}
	active := map[string]bool{}
	if *mitigations != "" {
		for _, id := range strings.Split(*mitigations, ",") {
			active[strings.TrimSpace(id)] = true
		}
	}
	knowledge := kb.MustDefaultKB()

	// The artifact cache pays off only across runs inside one process, so
	// it is armed exactly for the repeat-run modes.
	var ac *artifact.Cache
	if *watch || *deltaOld != "" || *artifactCache {
		ac = artifact.New(0)
		defer ac.Close()
	}

	// assess loads and runs one model file. The type library and KB are
	// shared across every run in this process — the artifact cache
	// identifies them by pointer, so repeat runs must present the same
	// instances to hash to the same configuration. Tracing is
	// per-assessment: the trace file always holds the latest run.
	assess := func(path string) (*core.Assessment, *sysmodel.Model, error) {
		var trace *obs.Trace
		var metrics *obs.Registry
		if *tracePath != "" {
			trace = obs.New("assessment")
			metrics = obs.NewRegistry()
		}
		model, err := loadModel(path)
		if err != nil {
			return nil, nil, err
		}
		reqs, err := hazard.GenericRequirements(model)
		if err != nil {
			return nil, nil, err
		}
		a, err := core.Run(core.Config{
			Model:               model,
			Types:               types,
			KB:                  knowledge,
			Requirements:        reqs,
			MutationSources:     faults.AllSources(),
			ActiveMitigations:   active,
			MaxCardinality:      *maxCard,
			UseASP:              *useASP,
			Optimize:            *doOpt,
			Budget:              *mitBudget,
			Parallelism:         *parallel,
			SolverWorkers:       *solverWorkers,
			SolverDeterministic: *solverDet,
			TraceID:             *traceID,
			Trace:               trace,
			Metrics:             metrics,
			CheckpointDir:       *checkpointDir,
			CacheDir:            *cacheDir,
			NoPrune:             *noPrune,
			ShardIndex:          shardIndex,
			ShardCount:          shardCount,
			Faults:              injector,
			ArtifactCache:       ac,
			Resources: budget.Limits{
				Timeout:      *timeout,
				MaxDecisions: *maxDecisions,
				MaxScenarios: *maxScenarios,
			},
		})
		return a, model, err
	}

	emit := func(a *core.Assessment, model *sysmodel.Model) error {
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				return err
			}
			// The correlation ID rides on the root span so downstream trace
			// tooling can join the export against logs and reports.
			var args map[string]any
			if *traceID != "" {
				args = map[string]any{"traceId": *traceID}
			}
			if err := obs.WriteChromeTraceSnapshotArgs(f, a.Trace, args); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		if *dotPath != "" {
			f, err := os.Create(*dotPath)
			if err != nil {
				return err
			}
			if err := model.WriteDOT(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		if *jsonOut {
			return a.WriteJSON(stdout)
		}
		fmt.Fprint(stdout, a.RenderFull(*topN))
		return nil
	}

	// -delta: warm the cache with the baseline model, discarding its
	// report; the main assessment below then resolves incrementally.
	if *deltaOld != "" {
		if _, _, err := assess(*deltaOld); err != nil {
			return fmt.Errorf("delta baseline %s: %v", *deltaOld, err)
		}
	}

	if *watch {
		// Each re-assessment cycle logs one structured line to stderr
		// (stdout stays the report stream), in the same JSON dialect the
		// service emits, so a supervised watch process is grep- and
		// dashboard-friendly.
		wlog := serve.NewJSONLogger(os.Stderr)
		runs := 0
		var last time.Time
		for {
			st, err := os.Stat(*modelPath)
			if err != nil {
				return err
			}
			if st.ModTime().Equal(last) {
				time.Sleep(*watchInterval)
				continue
			}
			cycleStart := time.Now()
			a, model, err := assess(*modelPath)
			if err != nil {
				// The file may be mid-write; report and retry next tick.
				fmt.Fprintln(os.Stderr, "riskassess: watch:", err)
				time.Sleep(*watchInterval)
				continue
			}
			last = st.ModTime()
			runs++
			artifactPath := ""
			if a.Artifact != nil {
				artifactPath = a.Artifact.Path
			}
			wlog.LogAttrs(context.Background(), slog.LevelInfo, "watch-cycle",
				slog.Int("run", runs),
				slog.String("model", *modelPath),
				slog.Time("trigger", st.ModTime()),
				slog.String("artifact", artifactPath),
				slog.Int64("durationMs", time.Since(cycleStart).Milliseconds()),
			)
			if !*jsonOut {
				fmt.Fprintf(stdout, "== watch run %d ==\n", runs)
			}
			if err := emit(a, model); err != nil {
				return err
			}
			if *watchMax > 0 && runs >= *watchMax {
				return nil
			}
		}
	}

	a, model, err := assess(*modelPath)
	if err != nil {
		return err
	}
	return emit(a, model)
}

// parseShard parses the -shard flag ("" = whole space, "i/m" = shard i
// of m, 0-based).
func parseShard(s string) (index, count int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return 0, 0, fmt.Errorf("-shard %q: want \"i/m\", e.g. 0/4", s)
	}
	index, err = strconv.Atoi(s[:i])
	if err == nil {
		count, err = strconv.Atoi(s[i+1:])
	}
	if err != nil {
		return 0, 0, fmt.Errorf("-shard %q: want \"i/m\", e.g. 0/4", s)
	}
	if count < 1 || index < 0 || index >= count {
		return 0, 0, fmt.Errorf("-shard %q: index must be in [0,%d)", s, count)
	}
	return index, count, nil
}

func loadModel(path string) (*sysmodel.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sysmodel.ReadJSON(f)
}

func loadTypes(path string) (*sysmodel.TypeLibrary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sysmodel.ReadTypesJSON(f)
}
