// Command perfbench is the repository benchmark. It drives the pipeline
// through the entry points users hit — core.RunCtx as the riskassess CLI
// calls it, and the serve HTTP API as tenants call it — checks every
// report against golden digests computed by the exhaustive sequential
// sweep, and prints one JSON result line. Run it from the repository
// root through run.sh:
//
//	bash perfbench/run.sh --workload plan-asp --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh golden    # regenerate perfbench/golden.json
//	bash perfbench/run.sh selftest  # short run of every workload
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// repeats the timed loop for the runtime counters and then runs a
// separate traced pass that times each layer's public calls from
// outside. WORKLOADS.md records why each workload exists and the noise
// controls.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics --trace 0 reports, the same on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"lat_ms.p50", "ms"},
	{"lat_ms.p90", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics --trace 1 reports. A layer a workload does not
// exercise reads 0 there.
var perLayer = []metricDef{
	{"sysmodel.ms", "ms"},
	{"faults.candidates_ms", "ms"},
	{"epa.compile_ms", "ms"},
	{"hazard.sweep_ms", "ms"},
	{"hazard.rank_ms", "ms"},
	{"hazard.rows", "count"},
	{"hazard.executed_frac", "ratio"},
	{"hazard.allocs_per_row", "allocs/row"},
	{"hazard.bytes_per_row", "B/row"},
	{"hazard.asp_ms", "ms"},
	{"solver.decisions", "count"},
	{"solver.conflicts", "count"},
	{"cegar.ms", "ms"},
	{"cegar.oracle_checks", "count"},
	{"cegar.screened_frac", "ratio"},
	{"mitigation.ms", "ms"},
	{"optimize.optimal_ms", "ms"},
	{"optimize.multiphase_ms", "ms"},
	{"core.encode_ms", "ms"},
	{"serve.submit_ms.p50", "ms"},
	{"serve.queue_ms.p50", "ms"},
	{"serve.run_ms.p50", "ms"},
	{"serve.notice_ms.p50", "ms"},
	{"serve.fetch_ms.p50", "ms"},
	{"serve.polls_per_job", "count"},
	{"artifact.warm_frac", "ratio"},
	{"artifact.delta_frac", "ratio"},
	{"artifact.cold_frac", "ratio"},
	{"obs.overhead_frac", "ratio"},
	{"runtime.alloc_mb_per_op", "MB/op"},
	{"runtime.gc_cycles_per_op", "count/op"},
	{"runtime.gc_pause_ms_per_op", "ms/op"},
	{"trace.coverage", "ratio"},
	{"host.calib_ms", "ms"},
}

// workloadSpec builds a workload ready for its first operation.
type workloadSpec struct {
	setup func(seed int64, gold *goldenSet) (workload, error)
	// setups is how many fresh processes a run sets the workload up in;
	// setup_s is the median.
	setups int
	// tracedOps is the traced pass's size (operations per client).
	tracedOps int
	// oneShot marks workloads whose users run one operation per process
	// (the CLI): peak_rss_mb is then the median peak of the fresh set-up
	// processes instead of the long-lived benchmark process's.
	oneShot bool
}

var workloads = map[string]workloadSpec{
	"plan-asp": {
		setup: func(_ int64, gold *goldenSet) (workload, error) {
			return &cliWorkload{cfg: newPlanInputs().config(), want: gold.PlanASP}, nil
		},
		setups: 9, tracedOps: 30, oneShot: true,
	},
	"sweep-star": {
		setup: func(_ int64, gold *goldenSet) (workload, error) {
			return &cliWorkload{cfg: newStarInputs().config(), want: gold.SweepStar}, nil
		},
		setups: 11, tracedOps: 15, oneShot: true,
	},
	"tenant-edits": {setup: setupTenant, setups: 25, tracedOps: 300},
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	start := time.Now()
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		var err error
		switch os.Args[1] {
		case "golden":
			err = generateGolden()
		case "selftest":
			err = selftest()
		case "setup":
			err = setupOnce(start, os.Args[2:])
		default:
			err = fmt.Errorf("unknown subcommand %q (want golden, selftest or setup)", os.Args[1])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: plan-asp, sweep-star or tenant-edits")
	seed := fs.Int64("seed", 1, "seed for the workload's inputs")
	seconds := fs.Int("seconds", 20, "length of the timed loop")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	gold, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(os.Stdout, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, gold, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up, runs its timed loop and, when traced, its
// per-layer pass. Diagnostic lines go to out; the result is returned.
// tracedOps overrides the workload's traced-pass size when positive.
func run(out io.Writer, name string, seed int64, d time.Duration, traced bool, gold *goldenSet, tracedOps int) (*result, error) {
	spec, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if tracedOps <= 0 {
		tracedOps = spec.tracedOps
	}
	calib := calibrate()
	printJSON(out, map[string]any{"host": hostFingerprint(calib)})

	m := metricSet{"host.calib_ms": calib}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	// Every verified operation counts as attempted, the first operation
	// of each set-up too. A failed set-up operation ends the run with the
	// result line it has so far: the reports are deterministic, so the
	// timed loop would only repeat the failure.
	res := &result{Metrics: map[string]metricValue{}}
	finish := func() *result {
		for _, d := range defs {
			res.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
		}
		res.Correct = res.Failed == 0
		return res
	}

	// setup_s: a fresh process, from its start to its first verified
	// result, several times.
	var setups, freshRSS []float64
	for i := 0; i < spec.setups && !traced; i++ {
		r, err := freshSetup(name, seed)
		if err != nil {
			return nil, err
		}
		res.Attempted++
		if r.Error != "" {
			fmt.Fprintf(os.Stderr, "perfbench: %s fresh set-up: first operation: %s\n", name, r.Error)
			res.Failed++
			return finish(), nil
		}
		setups = append(setups, r.SetupS)
		freshRSS = append(freshRSS, r.PeakRSSMB)
	}
	w, err := spec.setup(seed, gold)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", name, err)
	}
	defer w.close()
	res.Attempted++
	if _, err := w.op(0); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s setup: first operation: %v\n", name, err)
		res.Failed++
		return finish(), nil
	}

	loop := closedLoop(w, d)
	res.Attempted += loop.attempted
	res.Failed += loop.failed
	if loop.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed; first: %v\n",
			name, loop.failed, loop.attempted, loop.firstErr)
	}
	beyond := 0
	p90 := quantile(loop.latMS, 0.9)
	for _, l := range loop.latMS {
		if l > p90 {
			beyond++
		}
	}
	detail := map[string]any{
		"workload": name, "seed": seed, "clients": w.clients(), "ops": len(loop.latMS),
		"beyond_p90": beyond, "setups": len(setups),
	}
	if mw, ok := w.(interface{ mix() map[string]any }); ok {
		detail["mix"] = mw.mix()
	}
	printJSON(out, map[string]any{"detail": detail})

	if !traced {
		m["setup_s"] = quantile(setups, 0.5)
		m["lat_ms.p50"] = quantile(loop.latMS, 0.5)
		m["lat_ms.p90"] = p90
		m["peak_rss_mb"] = peakRSSMB()
		if spec.oneShot {
			m["peak_rss_mb"] = quantile(freshRSS, 0.5)
		}
	} else {
		ops := float64(max(loop.attempted, 1))
		m["runtime.alloc_mb_per_op"] = float64(loop.mem.TotalAlloc) / (1 << 20) / ops
		m["runtime.gc_cycles_per_op"] = float64(loop.mem.NumGC-loop.mem.NumForcedGC) / ops
		m["runtime.gc_pause_ms_per_op"] = float64(loop.mem.PauseTotalNs) / 1e6 / ops
		if err := w.traced(tracedOps, m); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced pass: %v\n", name, err)
			res.Attempted++
			res.Failed++
		}
	}
	return finish(), nil
}

// setupResult is what one fresh set-up process reports. Error is set,
// and the process exits 1, when its first operation failed.
type setupResult struct {
	SetupS    float64 `json:"setup_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	Error     string  `json:"error,omitempty"`
}

// freshSetup runs `perfbench setup` in a new process and returns what it
// reports. An error means the process could not set the workload up.
func freshSetup(name string, seed int64) (setupResult, error) {
	var r setupResult
	exe, err := os.Executable()
	if err != nil {
		return r, err
	}
	cmd := exec.Command(exe, "setup", "--workload", name, "--seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	if err := json.Unmarshal(out, &r); err != nil {
		return r, fmt.Errorf("%s fresh set-up: %w", name, errors.Join(runErr, err))
	}
	if runErr != nil && r.Error == "" {
		return r, fmt.Errorf("%s fresh set-up: %w", name, runErr)
	}
	return r, nil
}

// setupOnce is the body of a fresh set-up process: set the workload up,
// run and check its first operation, and report the time since the
// process started and the process's peak resident set.
func setupOnce(start time.Time, args []string) error {
	fs := flag.NewFlagSet("perfbench setup", flag.ExitOnError)
	name := fs.String("workload", "", "workload")
	seed := fs.Int64("seed", 1, "seed for the workload's inputs")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	spec, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	gold, err := loadGolden()
	if err != nil {
		return err
	}
	w, err := spec.setup(*seed, gold)
	if err != nil {
		return err
	}
	defer w.close()
	if _, err := w.op(0); err != nil {
		printJSON(os.Stdout, setupResult{Error: err.Error()})
		return fmt.Errorf("first operation: %w", err)
	}
	printJSON(os.Stdout, setupResult{SetupS: time.Since(start).Seconds(), PeakRSSMB: peakRSSMB()})
	return nil
}

func printJSON(out io.Writer, v any) {
	line, err := json.Marshal(v)
	if err != nil {
		panic(err) // only strings and numbers reach here
	}
	fmt.Fprintln(out, string(line))
}

// calibSink keeps the calibration loop from being optimized away.
var calibSink uint64

// calibrate times a fixed CPU-bound loop (median of five), so a reader
// can tell host drift from a regression.
func calibrate() float64 {
	var xs []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		x, acc := uint64(88172645463325252), uint64(0)
		for j := 0; j < 10_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			acc += x & 0xff
		}
		calibSink += acc
		xs = append(xs, msSince(start))
	}
	return quantile(xs, 0.5)
}

func hostFingerprint(calibMS float64) map[string]any {
	return map[string]any{
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"calib_ms": calibMS,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo ("unknown"
// where there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
