package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cpsrisk/internal/artifact"
	"cpsrisk/internal/budget"
	"cpsrisk/internal/core"
	"cpsrisk/internal/faultinject"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/kb"
	"cpsrisk/internal/obs"
	"cpsrisk/internal/sysmodel"
)

// Options configures a Server. The zero value plus Types is runnable.
type Options struct {
	// Types is the component-type library every submitted model is
	// validated against (required).
	Types *sysmodel.TypeLibrary
	// KB is the security knowledge base (nil = the built-in default).
	KB *kb.KB

	// Settings are every job's assessment settings, read as the
	// riskassess flags are; nil means core.DefaultSettings(), so the zero
	// Options assesses at MaxCardinality 2 with an unlimited budget. A
	// zero field means what the zero flag means (Budget 0 spends nothing,
	// TopN 0 renders every row): start from core.DefaultSettings().
	// Parallelism also sizes the governor shared by all jobs.
	Settings *core.Settings

	// ArtifactCap is the LRU entry cap of the shared artifact cache
	// (0 = the cache package default). The cache is shared by all
	// tenants; tenant isolation comes from folding the tenant into the
	// configuration hash, partitioning the key space.
	ArtifactCap int

	// JobWorkers is the number of concurrent assessment workers
	// (0 = 2). Queued jobs beyond the worker pool wait in FIFO order.
	JobWorkers int
	// MaxQueue bounds the job queue; submits beyond it get 429
	// (0 = 64).
	MaxQueue int
	// MaxJobs bounds the retained job table; the oldest finished jobs
	// are evicted beyond it (0 = 256).
	MaxJobs int
	// MaxBodyBytes bounds a submitted model document (0 = 8 MiB).
	MaxBodyBytes int64

	// SLOWindow / SLOThreshold configure the critical-event SLO
	// (zero values pick the package defaults: 5 events per 7 days).
	SLOWindow    time.Duration
	SLOThreshold int

	// Injector is a pre-armed fault injector (chaos drills); nil = off.
	Injector *faultinject.Injector

	// Logger receives the structured request/job log (nil = discard).
	Logger *slog.Logger
	// Clock overrides time.Now for the SLO monitor (tests).
	Clock func() time.Time
}

// Server is the assessment-as-a-service front end: an async job queue
// over core.Run with a shared artifact cache, a shared concurrency
// governor, Prometheus metrics, per-request tracing, structured logs,
// and an SLO critical-event monitor.
type Server struct {
	opts Options
	log  *slog.Logger
	mux  *http.ServeMux

	reg   *obs.Registry
	gov   *budget.Governor
	cache *artifact.Cache
	slo   *SLOMonitor

	jobMu    sync.Mutex
	jobs     map[string]*job
	jobOrder []string // insertion order, for eviction
	queue    chan *job
	seq      atomic.Int64

	inFlight atomic.Int64
	draining atomic.Bool
	wg       sync.WaitGroup
	baseCtx  context.Context
	baseStop context.CancelFunc

	// faultMu guards lastFired, the high-water mark of injector trips
	// already journaled as critical events.
	faultMu   sync.Mutex
	lastFired int64

	start time.Time
}

// New builds and starts a server: routes registered, workers running.
// Callers serve s (it implements http.Handler) and Drain it on the way
// down.
func New(opts Options) (*Server, error) {
	if opts.Types == nil {
		return nil, fmt.Errorf("serve: Options.Types is required")
	}
	if opts.KB == nil {
		opts.KB = kb.MustDefaultKB()
	}
	if opts.JobWorkers <= 0 {
		opts.JobWorkers = 2
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 64
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 256
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 8 << 20
	}
	if opts.Logger == nil {
		opts.Logger = NewJSONLogger(io.Discard)
	}
	settings := core.DefaultSettings()
	if opts.Settings != nil {
		settings = *opts.Settings // a copy: the caller may reuse theirs
	}
	opts.Settings = &settings
	s := &Server{
		opts:  opts,
		log:   opts.Logger,
		reg:   obs.NewRegistry(),
		gov:   budget.NewGovernor(settings.Parallelism),
		cache: artifact.New(opts.ArtifactCap),
		slo:   NewSLOMonitor(opts.SLOWindow, opts.SLOThreshold, opts.Clock),
		jobs:  make(map[string]*job),
		queue: make(chan *job, opts.MaxQueue),
		start: time.Now(),
	}
	s.baseCtx, s.baseStop = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/assess", s.instrument("assess", s.handleAssess))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("job", s.handleJob))
	s.mux.HandleFunc("GET /v1/jobs/{id}/report", s.instrument("report", s.handleReport))
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.instrument("trace", s.handleTrace))
	s.mux.HandleFunc("GET /v1/slo", s.instrument("slo", s.handleSLO))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReadyz))
	for i := 0; i < opts.JobWorkers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Registry exposes the server-wide metrics registry (tests, embedding).
func (s *Server) Registry() *obs.Registry { return s.reg }

// SLO exposes the critical-event monitor (tests, embedding).
func (s *Server) SLO() *SLOMonitor { return s.slo }

// Drain stops accepting submissions, lets in-flight and queued jobs
// finish until ctx expires, then cancels whatever is still running.
// Safe to call once.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.jobMu.Lock()
	close(s.queue) // submits are rejected before enqueue once draining
	s.jobMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Deadline: cancel every running job and wait for the workers
		// to observe it.
		s.baseStop()
		<-done
		err = ctx.Err()
	}
	s.baseStop()
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "drained",
		slog.Int64("uptimeMs", time.Since(s.start).Milliseconds()))
	return err
}

// ---- middleware ----

type ctxKey int

const (
	ctxTraceID ctxKey = iota
	ctxTenant
)

// statusRecorder captures the response status for logging/metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.status, r.wrote = code, true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if !r.wrote {
		r.status, r.wrote = http.StatusOK, true
	}
	return r.ResponseWriter.Write(b)
}

// instrument wraps a handler with the service telemetry: trace-ID
// propagation (inbound X-Trace-Id honored, one minted otherwise),
// tenant extraction, in-flight and latency instruments, panic recovery,
// 5xx critical-event classification, and one structured log line per
// request.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		traceID := sanitizeHeaderToken(r.Header.Get("X-Trace-Id"))
		if traceID == "" {
			traceID = newTraceID()
		}
		tenant := sanitizeHeaderToken(r.Header.Get("X-Tenant"))
		ctx := context.WithValue(r.Context(), ctxTraceID, traceID)
		ctx = context.WithValue(ctx, ctxTenant, tenant)
		r = r.WithContext(ctx)
		w.Header().Set("X-Trace-Id", traceID)

		s.reg.Gauge("http.in_flight").Set(s.inFlight.Add(1))
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}

		defer func() {
			s.reg.Gauge("http.in_flight").Set(s.inFlight.Add(-1))
			if p := recover(); p != nil {
				s.reg.Counter("http.panics").Inc()
				s.slo.Record(EventPanic, traceID, tenant, fmt.Sprintf("route %s: %v", route, p))
				if !rec.wrote {
					writeJSON(rec, http.StatusInternalServerError, map[string]string{"error": "internal error"})
				}
				rec.status = http.StatusInternalServerError
			}
			dur := time.Since(start)
			s.reg.Counter("http.requests." + route).Inc()
			s.reg.Histogram("http.latency_us." + route).Observe(dur.Microseconds())
			// 503 is deliberate backpressure (draining, not-ready) — a
			// signal, not a failure — so only true 5xx responses count
			// against the SLO.
			if rec.status >= 500 && rec.status != http.StatusServiceUnavailable {
				s.reg.Counter("http.errors." + route).Inc()
				s.slo.Record(EventServerError, traceID, tenant,
					fmt.Sprintf("%s %s -> %d", r.Method, r.URL.Path, rec.status))
			}
			s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("route", route),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", rec.status),
				slog.Int64("durationUs", dur.Microseconds()),
				slog.String("traceId", traceID),
				slog.String("tenant", tenant),
			)
		}()
		h(rec, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best effort once the status is out
}

// ---- handlers ----

func (s *Server) handleAssess(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "draining"})
		return
	}
	traceID, _ := r.Context().Value(ctxTraceID).(string)
	tenant, _ := r.Context().Value(ctxTenant).(string)

	model, err := sysmodel.ReadJSON(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "model: " + err.Error()})
		return
	}
	reqs, err := hazard.GenericRequirements(model)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": err.Error()})
		return
	}

	j := &job{
		id:        newID(s.seq.Add(1)),
		traceID:   traceID,
		tenant:    tenant,
		model:     model,
		reqs:      reqs,
		state:     JobQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}

	// The 202 reports the job as accepted: once queued, a worker may
	// run it to completion before this handler writes the response.
	accepted := j.status()
	s.jobMu.Lock()
	if s.draining.Load() {
		s.jobMu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "draining"})
		return
	}
	select {
	case s.queue <- j:
	default:
		s.jobMu.Unlock()
		s.reg.Counter("jobs.rejected").Inc()
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": "job queue full"})
		return
	}
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	s.evictJobsLocked()
	s.jobMu.Unlock()

	s.reg.Counter("jobs.submitted").Inc()
	s.reg.Gauge("jobs.queue_depth").Set(int64(len(s.queue)))
	writeJSON(w, http.StatusAccepted, accepted)
}

// evictJobsLocked drops the oldest finished jobs beyond the retention
// cap. Jobs still queued or running are never evicted — the table can
// exceed the cap transiently while they finish.
func (s *Server) evictJobsLocked() {
	for len(s.jobOrder) > s.opts.MaxJobs {
		evicted := false
		for i, id := range s.jobOrder {
			j := s.jobs[id]
			j.mu.Lock()
			terminal := j.state == JobDone || j.state == JobFailed
			j.mu.Unlock()
			if terminal {
				delete(s.jobs, id)
				s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return
		}
	}
}

func (s *Server) lookup(r *http.Request) *job {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	return s.jobs[r.PathValue("id")]
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r)
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r)
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
		return
	}
	a, _, state, errMsg := j.result()
	switch state {
	case JobQueued, JobRunning:
		writeJSON(w, http.StatusConflict, map[string]string{"error": "job not finished", "state": state})
		return
	case JobFailed:
		// The failure was journaled when the job finished; reporting it
		// is a client read, not a fresh server error.
		writeJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": errMsg})
		return
	}
	full := r.URL.Query().Get("full") == "1"
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// The text report is the CLI's default output, byte for byte:
		// report body, ranked table, degradation summary. Jobs always
		// run traced and metered for /trace and /metrics, so the TIMING
		// and METRICS tails are stripped unless ?full=1 asks for them.
		view := *a
		if !full {
			view.Trace = nil
			view.Metrics = nil
		}
		io.WriteString(w, view.RenderFull(s.opts.Settings.TopN)) //nolint:errcheck
		return
	}
	if full {
		w.Header().Set("Content-Type", "application/json")
		a.WriteJSON(w) //nolint:errcheck
		return
	}
	// Default JSON projection: the CLI's -json output, with the trace
	// and metrics blocks stripped for the same reason as above.
	sum := a.Summarize()
	sum.Trace = nil
	sum.Metrics = nil
	writeJSON(w, http.StatusOK, sum)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r)
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
		return
	}
	_, snap, state, _ := j.result()
	if snap == nil || (state != JobDone && state != JobFailed) {
		writeJSON(w, http.StatusConflict, map[string]string{"error": "job not finished", "state": state})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	args := map[string]any{"traceId": j.traceID}
	if j.tenant != "" {
		args["tenant"] = j.tenant
	}
	obs.WriteChromeTraceSnapshotArgs(w, snap, args) //nolint:errcheck
}

func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	recent := 0
	if q := r.URL.Query().Get("recent"); q != "" {
		recent, _ = strconv.Atoi(q)
	}
	writeJSON(w, http.StatusOK, s.slo.Report(recent))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Scrape-time gauges: point-in-time state owned by other components.
	st := s.cache.Stats()
	s.reg.Gauge("artifact.cache.len").Set(int64(s.cache.Len()))
	s.reg.Counter("artifact.cache.hits").Add(st.Hits - s.reg.Counter("artifact.cache.hits").Value())
	s.reg.Counter("artifact.cache.misses").Add(st.Misses - s.reg.Counter("artifact.cache.misses").Value())
	s.reg.Counter("artifact.cache.evictions").Add(st.Evictions - s.reg.Counter("artifact.cache.evictions").Value())
	s.reg.Gauge("governor.capacity").Set(int64(s.gov.Capacity()))
	s.reg.Gauge("governor.in_use").Set(int64(s.gov.InUse()))
	s.reg.Gauge("jobs.queue_depth").Set(int64(len(s.queue)))
	s.reg.Gauge("slo.window_events").Set(int64(s.slo.WindowCount()))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w) //nolint:errcheck
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":            true,
		"uptimeSeconds": int64(time.Since(s.start).Seconds()),
	})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	compliant := s.slo.Compliant()
	draining := s.draining.Load()
	body := map[string]any{
		"ready":    compliant && !draining,
		"draining": draining,
		"slo": map[string]any{
			"compliant":   compliant,
			"windowCount": s.slo.WindowCount(),
		},
	}
	status := http.StatusOK
	if !compliant || draining {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

// ---- job execution ----

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
		s.reg.Gauge("jobs.queue_depth").Set(int64(len(s.queue)))
	}
}

// runJob executes one queued assessment: a traced, metered core run
// against the shared artifact cache and governor, followed by outcome
// classification into the metrics registry and the SLO journal.
func (s *Server) runJob(j *job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	// The shared governor meters sweep/solver helpers across every
	// concurrent job; core reuses a governor installed in the context.
	ctx = budget.ContextWithGovernor(ctx, s.gov)

	cfg := s.JobConfig(j.model, j.reqs, j.traceID, j.tenant)

	started := time.Now()
	j.mu.Lock()
	j.state = JobRunning
	j.started = started
	j.cancel = cancel
	j.mu.Unlock()

	a, err := core.RunCtx(ctx, cfg)

	now := time.Now()
	// Account for the job before it reads as finished, so a client that
	// saw it finish finds it in /metrics and /v1/slo.
	s.classify(j, a, err)
	// Fold the job's pipeline metrics (stage timings, sweep counters)
	// into the server-wide registry; the log2 buckets merge exactly.
	s.reg.MergeSnapshot(cfg.Metrics.Snapshot())
	s.reg.Histogram("jobs.duration_us").Observe(now.Sub(started).Microseconds())

	j.mu.Lock()
	j.finished = now
	j.assessment = a
	j.traceSnap = cfg.Trace.Snapshot()
	if err != nil {
		j.state = JobFailed
		j.errMsg = err.Error()
	} else {
		j.state = JobDone
	}
	j.mu.Unlock()
	close(j.done)

	s.log.LogAttrs(context.Background(), slog.LevelInfo, "job",
		slog.String("id", j.id),
		slog.String("traceId", j.traceID),
		slog.String("tenant", j.tenant),
		slog.String("state", j.status().State),
		slog.String("artifact", j.status().ArtifactPath),
		slog.Int64("durationMs", now.Sub(started).Milliseconds()),
		slog.String("error", j.status().Error),
	)
}

// JobConfig is the core.Config a job runs with: the server's settings
// through core.Settings.Config, as riskassess does, plus the job's own.
func (s *Server) JobConfig(model *sysmodel.Model, reqs []hazard.Requirement, traceID, tenant string) core.Config {
	cfg := s.opts.Settings.Config()
	cfg.Model = model
	cfg.Types = s.opts.Types
	cfg.KB = s.opts.KB
	cfg.Requirements = reqs
	cfg.MutationSources = faults.AllSources()
	cfg.TraceID = traceID
	cfg.Tenant = tenant
	cfg.Trace = obs.New("assessment")
	cfg.Metrics = obs.NewRegistry()
	cfg.ArtifactCache = s.cache
	cfg.Faults = s.opts.Injector
	return cfg
}

// classify journals the job's outcome: completion counters, artifact
// path, and the critical-event taxonomy (panic, budget degradation,
// fault trips).
func (s *Server) classify(j *job, a *core.Assessment, err error) {
	if err != nil {
		s.reg.Counter("jobs.failed").Inc()
		if strings.Contains(err.Error(), "panic") {
			s.slo.Record(EventPanic, j.traceID, j.tenant, err.Error())
		}
	} else {
		s.reg.Counter("jobs.completed").Inc()
	}
	if a != nil {
		if a.Artifact != nil {
			s.reg.Counter("jobs.artifact." + a.Artifact.Path).Inc()
		}
		if a.Degradation.Degraded() {
			s.reg.Counter("jobs.degraded").Inc()
			detail := ""
			if ts := a.Degradation.Truncations; len(ts) > 0 {
				detail = ts[0].String()
			}
			s.slo.Record(EventBudgetDegraded, j.traceID, j.tenant, detail)
		}
	}
	if inj := s.opts.Injector; inj != nil {
		var total int64
		for _, sc := range inj.Counts() {
			total += sc.Fired
		}
		s.faultMu.Lock()
		delta := total - s.lastFired
		if delta > 0 {
			s.lastFired = total
		}
		s.faultMu.Unlock()
		if delta > 0 {
			s.reg.Counter("faults.tripped").Add(delta)
			s.slo.Record(EventFaultTrip, j.traceID, j.tenant,
				fmt.Sprintf("%d fault site trip(s) during job %s", delta, j.id))
		}
	}
}
