package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"cpsrisk/internal/core"
	"cpsrisk/internal/obs"
	"cpsrisk/internal/sysmodel"
)

const (
	modelPath = "../../models/sme-plant.json"
	typesPath = "../../models/types.json"
)

func loadTypes(t *testing.T) *sysmodel.TypeLibrary {
	t.Helper()
	f, err := os.Open(typesPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	types, err := sysmodel.ReadTypesJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	return types
}

// singleFaults is the default settings at MaxCardinality 1, the fast
// test size.
func singleFaults() *core.Settings {
	set := core.DefaultSettings()
	set.MaxCardinality = 1
	return &set
}

// newTestServer builds a server with fast-test defaults; mutate tweaks
// the options before construction.
func newTestServer(t *testing.T, mutate func(*Options)) (*Server, *httptest.Server) {
	t.Helper()
	opts := Options{
		Types:      loadTypes(t),
		Settings:   singleFaults(),
		JobWorkers: 2,
	}
	if mutate != nil {
		mutate(&opts)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

// submit POSTs the sample model and returns the accepted job status.
func submit(t *testing.T, ts *httptest.Server, traceID, tenant string) JobStatus {
	t.Helper()
	st, code := trySubmit(t, ts, traceID, tenant)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	return st
}

func trySubmit(t *testing.T, ts *httptest.Server, traceID, tenant string) (JobStatus, int) {
	t.Helper()
	body, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/assess", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if traceID != "" {
		req.Header.Set("X-Trace-Id", traceID)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

// wait polls the job until it reaches a terminal state.
func wait(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == JobDone || st.State == JobFailed {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func TestAssessLifecycle(t *testing.T) {
	_, ts := newTestServer(t, nil)
	st := submit(t, ts, "trace-abc", "acme")
	if st.State != JobQueued || st.ID == "" {
		t.Fatalf("accepted status = %+v", st)
	}
	if st.TraceID != "trace-abc" || st.Tenant != "acme" {
		t.Errorf("correlation fields = %q/%q", st.TraceID, st.Tenant)
	}

	final := wait(t, ts, st.ID)
	if final.State != JobDone {
		t.Fatalf("final = %+v", final)
	}
	if final.ArtifactPath != "cold" {
		t.Errorf("first run artifact = %q, want cold", final.ArtifactPath)
	}
	if final.Scenarios == 0 || final.Hazardous == 0 {
		t.Errorf("summary counts = %+v", final)
	}

	// JSON report carries the trace ID and the scenario table.
	code, body := get(t, ts.URL+"/v1/jobs/"+st.ID+"/report")
	if code != http.StatusOK {
		t.Fatalf("report status %d", code)
	}
	var sum struct {
		TraceID   string            `json:"traceId"`
		Scenarios []json.RawMessage `json:"scenarios"`
		Trace     json.RawMessage   `json:"trace"`
		Artifact  *struct {
			Path string `json:"path"`
		} `json:"artifact"`
	}
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.TraceID != "trace-abc" || len(sum.Scenarios) == 0 {
		t.Errorf("report: traceId=%q scenarios=%d", sum.TraceID, len(sum.Scenarios))
	}
	if sum.Trace != nil {
		t.Error("default report must strip the trace block (CLI parity)")
	}
	if sum.Artifact == nil || sum.Artifact.Path != "cold" {
		t.Errorf("report artifact = %+v", sum.Artifact)
	}

	// ?full=1 keeps the trace and metrics blocks.
	code, body = get(t, ts.URL+"/v1/jobs/"+st.ID+"/report?full=1")
	if code != http.StatusOK {
		t.Fatalf("full report status %d", code)
	}
	if !bytes.Contains(body, []byte(`"trace"`)) || !bytes.Contains(body, []byte(`"metrics"`)) {
		t.Error("full report lacks trace/metrics blocks")
	}

	// Text report is the CLI's text deliverable.
	code, body = get(t, ts.URL+"/v1/jobs/"+st.ID+"/report?format=text")
	if code != http.StatusOK {
		t.Fatalf("text report status %d", code)
	}
	for _, want := range []string{"SYSTEM", "HAZARD IDENTIFICATION", "== Risk-prioritized scenarios =="} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("text report lacks %q", want)
		}
	}
}

func TestTracePropagationAndExport(t *testing.T) {
	_, ts := newTestServer(t, nil)

	// The response echoes an inbound X-Trace-Id on every route.
	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Trace-Id", "fixed-id-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != "fixed-id-1" {
		t.Errorf("echoed trace ID = %q", got)
	}

	// Without one, the server mints a trace ID.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Error("no minted trace ID")
	}

	st := submit(t, ts, "fixed-id-2", "acme")
	wait(t, ts, st.ID)

	code, body := get(t, ts.URL+"/v1/jobs/"+st.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace status %d", code)
	}
	// The export is a valid Chrome trace carrying the correlation ID in
	// the root span's args.
	if _, err := obs.ValidateChromeTrace(bytes.NewReader(body)); err != nil {
		t.Fatalf("trace export invalid: %v", err)
	}
	var envelope struct {
		TraceEvents []obs.ChromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range envelope.TraceEvents {
		if args, ok := ev.Args.(map[string]any); ok {
			if args["traceId"] == "fixed-id-2" && args["tenant"] == "acme" {
				found = true
			}
		}
	}
	if !found {
		t.Error("no event carries traceId/tenant args")
	}
}

// TestMultiTenantBurst drives concurrent submissions from distinct
// tenants through the shared cache and governor: the first wave resolves
// cold per tenant, the repeat wave warm — tenants never share entries.
func TestMultiTenantBurst(t *testing.T) {
	_, ts := newTestServer(t, func(o *Options) {
		o.JobWorkers = 4
	})
	tenants := []string{"acme", "globex", "initech"}

	runWave := func(wave string, wantPath string) {
		var wg sync.WaitGroup
		ids := make([]string, len(tenants))
		for i, tenant := range tenants {
			wg.Add(1)
			go func(i int, tenant string) {
				defer wg.Done()
				st := submit(t, ts, fmt.Sprintf("%s-%s", wave, tenant), tenant)
				ids[i] = st.ID
			}(i, tenant)
		}
		wg.Wait()
		for i, id := range ids {
			st := wait(t, ts, id)
			if st.State != JobDone {
				t.Fatalf("wave %s tenant %s: %+v", wave, tenants[i], st)
			}
			if st.ArtifactPath != wantPath {
				t.Errorf("wave %s tenant %s: artifact %q, want %q",
					wave, tenants[i], st.ArtifactPath, wantPath)
			}
		}
	}

	// Wave 1: every tenant's first run compiles from scratch — the cache
	// is partitioned per tenant, so no tenant rides another's entry.
	runWave("w1", "cold")
	// Wave 2: repeat submissions hit each tenant's own warm entry.
	runWave("w2", "warm")
}

func TestReadyzFlipsOnSLOBreach(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	var mu sync.Mutex
	s, ts := newTestServer(t, func(o *Options) {
		o.SLOThreshold = 2
		o.SLOWindow = time.Hour
		o.Clock = func() time.Time { mu.Lock(); defer mu.Unlock(); return clk.t }
	})

	code, _ := get(t, ts.URL+"/readyz")
	if code != http.StatusOK {
		t.Fatalf("fresh readyz = %d", code)
	}

	s.SLO().Record(EventPanic, "t1", "", "boom")
	s.SLO().Record(EventServerError, "t2", "", "bang")

	code, body := get(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("breached readyz = %d: %s", code, body)
	}
	code, body = get(t, ts.URL+"/v1/slo")
	if code != http.StatusOK {
		t.Fatalf("slo status %d", code)
	}
	var rep SLOReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Compliant || rep.WindowCount != 2 || len(rep.Recent) != 2 {
		t.Errorf("slo report = %+v", rep)
	}
	if rep.ByClass[EventPanic] != 1 || rep.ByClass[EventServerError] != 1 {
		t.Errorf("byClass = %v", rep.ByClass)
	}

	// Events age out; readiness recovers on its own.
	mu.Lock()
	clk.advance(2 * time.Hour)
	mu.Unlock()
	code, _ = get(t, ts.URL+"/readyz")
	if code != http.StatusOK {
		t.Fatalf("recovered readyz = %d", code)
	}
	// Liveness never flips on SLO state.
	code, _ = get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
}

// TestMetricsExposition scrapes /metrics after a finished job and checks
// the Prometheus text format: counters for the HTTP layer and the job
// pipeline, histogram series with the le label, and quantile gauges.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, nil)
	st := submit(t, ts, "", "")
	wait(t, ts, st.ID)

	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	text := string(body)
	for _, want := range []string{
		"cpsrisk_http_requests_assess ",
		"cpsrisk_jobs_submitted 1",
		"cpsrisk_jobs_completed 1",
		"cpsrisk_jobs_artifact_cold 1",
		"cpsrisk_jobs_duration_us_bucket{le=",
		"cpsrisk_jobs_duration_us_quantile{quantile=\"0.95\"}",
		"cpsrisk_artifact_cache_len 1",
		"cpsrisk_governor_capacity ",
		"cpsrisk_slo_window_events 0",
		// Per-job pipeline metrics merged into the server registry.
		"cpsrisk_sweep_scenarios ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	// Every non-comment line must be "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

func TestAssessRejections(t *testing.T) {
	_, ts := newTestServer(t, nil)

	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/assess", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d", resp.StatusCode)
	}

	// Valid model without critical components: no requirements derivable.
	resp, err = http.Post(ts.URL+"/v1/assess", "application/json",
		strings.NewReader(`{"components":[{"id":"a","type":"plc"}],"connections":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("requirement-free model: status %d", resp.StatusCode)
	}

	// Unknown job.
	code, _ := get(t, ts.URL+"/v1/jobs/zzz")
	if code != http.StatusNotFound {
		t.Errorf("unknown job: status %d", code)
	}
	code, _ = get(t, ts.URL+"/v1/jobs/zzz/report")
	if code != http.StatusNotFound {
		t.Errorf("unknown job report: status %d", code)
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	s, err := New(Options{Types: loadTypes(t), Settings: singleFaults()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	st := submit(t, ts, "", "")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The in-flight job finished before the drain returned.
	final := wait(t, ts, st.ID)
	if final.State != JobDone {
		t.Fatalf("drained job = %+v", final)
	}
	// New submissions are refused once draining.
	if _, code := trySubmit(t, ts, "", ""); code != http.StatusServiceUnavailable {
		t.Errorf("submit while drained: status %d", code)
	}
	code, _ := get(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Errorf("readyz while drained: status %d", code)
	}
}
