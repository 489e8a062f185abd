package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// workload is one benchmark workload, set up and ready for its first
// operation.
type workload interface {
	// clients is the number of closed-loop clients.
	clients() int
	// op runs client c's next operation and returns its latency. The
	// report is checked after the clock stops; a mismatch is an error.
	op(c int) (time.Duration, error)
	// traced runs the per-layer pass of n operations (per client) and
	// records its metrics into m.
	traced(n int, m metricSet) error
	close()
}

// metricSet maps metric names to measured values; units come from the
// metric tables in main.go.
type metricSet map[string]float64

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msSince(t time.Time) float64 { return ms(time.Since(t)) }

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// loopResult is the outcome of a closed-loop run.
type loopResult struct {
	latMS             []float64 // successful operations only
	attempted, failed int
	firstErr          error
	mem               runtime.MemStats // delta over the loop
}

// closedLoop runs every client back to back until the deadline: each
// client issues its next operation only after the previous one finished.
func closedLoop(w workload, d time.Duration) loopResult {
	n := w.clients()
	lats := make([][]float64, n)
	failed := make([]int, n)
	firstErr := make([]error, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				lat, err := w.op(c)
				if err != nil {
					if failed[c] == 0 {
						firstErr[c] = err
					}
					failed[c]++
					continue
				}
				lats[c] = append(lats[c], ms(lat))
			}
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	var r loopResult
	for c := 0; c < n; c++ {
		r.latMS = append(r.latMS, lats[c]...)
		r.failed += failed[c]
		if r.firstErr == nil {
			r.firstErr = firstErr[c]
		}
	}
	r.attempted = len(r.latMS) + r.failed
	r.mem.TotalAlloc = after.TotalAlloc - before.TotalAlloc
	r.mem.NumGC = after.NumGC - before.NumGC
	r.mem.NumForcedGC = after.NumForcedGC - before.NumForcedGC
	r.mem.PauseTotalNs = after.PauseTotalNs - before.PauseTotalNs
	return r
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// layerTimes is one traced operation's per-layer measurements.
type layerTimes map[string]float64

// layerSamples collects layerTimes over the traced pass.
type layerSamples struct {
	samples  map[string][]float64
	coverage []float64
}

// timedLayers are the per-layer wall times that add up to a traced
// pipeline operation.
var timedLayers = []string{
	"sysmodel.ms", "faults.candidates_ms", "epa.compile_ms",
	"hazard.sweep_ms", "hazard.asp_ms", "hazard.rank_ms", "cegar.ms",
	"mitigation.ms", "optimize.optimal_ms", "optimize.multiphase_ms", "core.encode_ms",
}

func (ls *layerSamples) add(lt layerTimes, wallMS float64) {
	if ls.samples == nil {
		ls.samples = map[string][]float64{}
	}
	covered := 0.0
	for _, name := range timedLayers {
		covered += lt[name]
	}
	ls.coverage = append(ls.coverage, covered/wallMS)
	for k, v := range lt {
		ls.samples[k] = append(ls.samples[k], v)
	}
}

// report records each layer's median over the pass, and the median share
// of an operation's wall time the timed layers cover.
func (ls *layerSamples) report(m metricSet) {
	for k, xs := range ls.samples {
		m[k] = quantile(xs, 0.5)
	}
	m["trace.coverage"] = quantile(ls.coverage, 0.5)
}
