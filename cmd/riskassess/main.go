// Command riskassess runs the full assessment pipeline on a system model
// loaded from JSON: candidate-mutation generation from the built-in
// security knowledge base, exhaustive hazard identification against the
// model's LTLf requirements (interpreted as topology-criticality checks
// when no behaviour library exists), risk ranking, and mitigation
// optimization.
//
// Usage:
//
//	riskassess -model model.json -types types.json [assessment flags]
//	           [-json] [-dot out.dot] [-trace out.json] [-trace-id id]
//	           [-checkpoint dir] [-artifact-cache]
//	           [-delta old.json] [-watch [-watch-interval d] [-watch-max N]]
//	           [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The assessment flags, shared with riskserve through core.Settings, are
// -maxcard -asp -optimize -budget -mitigations -parallel -no-prune
// -timeout -max-decisions -max-scenarios -top.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"cpsrisk/internal/artifact"
	"cpsrisk/internal/core"
	"cpsrisk/internal/faultinject"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/kb"
	"cpsrisk/internal/obs"
	"cpsrisk/internal/serve"
	"cpsrisk/internal/sysmodel"
)

// runCore runs one assessment; tests swap it to capture the Config.
var runCore = core.Run

func main() {
	os.Exit(exitCode(run(os.Args[1:], os.Stdout), os.Stderr))
}

// exitCode reports err on stderr and returns the process status: 0 for
// success and for -h/-help, whose usage the flag package has printed;
// 1 for any other error.
func exitCode(err error, stderr io.Writer) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	fmt.Fprintln(stderr, "riskassess:", err)
	return 1
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("riskassess", flag.ContinueOnError)
	set := core.DefaultSettings()
	set.Bind(fs)
	modelPath := fs.String("model", "", "system model JSON (required)")
	typesPath := fs.String("types", "", "component-type library JSON (required)")
	jsonOut := fs.Bool("json", false, "emit the machine-readable JSON summary instead of text")
	dotPath := fs.String("dot", "", "also write the model as GraphViz DOT to this file")
	checkpointDir := fs.String("checkpoint", "", "persist the sweep frontier in this directory; an interrupted or -max-scenarios-capped run resumes from it, sweeping the completed ranks again without charging them to the cap")
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
	base := set.Config()
	base.MutationSources = faults.AllSources()
	base.TraceID = *traceID
	base.CheckpointDir = *checkpointDir

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
	var err error
	base.Faults, err = faultinject.FromEnv()
	if err != nil {
		return err
	}

	base.Types, err = loadTypes(*typesPath)
	if err != nil {
		return err
	}
	base.KB = kb.MustDefaultKB()

	// The artifact cache pays off only across runs inside one process, so
	// it is armed exactly for the repeat-run modes.
	if *watch || *deltaOld != "" || *artifactCache {
		base.ArtifactCache = artifact.New(0)
	}

	// assess loads and runs one model file on base. The type library and
	// KB in base are shared across every run in this process — the
	// artifact cache identifies them by pointer, so repeat runs must
	// present the same instances to hash to the same configuration.
	// Tracing is per-assessment: the trace file always holds the latest run.
	assess := func(path string) (*core.Assessment, *sysmodel.Model, error) {
		cfg := base
		if *tracePath != "" {
			cfg.Trace = obs.New("assessment")
			cfg.Metrics = obs.NewRegistry()
		}
		model, err := loadModel(path)
		if err != nil {
			return nil, nil, err
		}
		reqs, err := hazard.GenericRequirements(model)
		if err != nil {
			return nil, nil, err
		}
		cfg.Model = model
		cfg.Requirements = reqs
		a, err := runCore(cfg)
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
		fmt.Fprint(stdout, a.RenderFull(set.TopN))
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
