package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"cpsrisk/internal/core"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/kb"
	"cpsrisk/internal/serve"
	"cpsrisk/internal/sysmodel"
)

// Model documents of the tenant-edits workload, relative to the
// repository root the benchmark runs from.
const (
	smePlantPath = "models/sme-plant.json"
	typesPath    = "models/types.json"
)

// variant is one catalogue model: the sme-plant with at most one
// connection dropped (an index into the base connections) or added.
type variant struct {
	name string
	drop int
	add  *sysmodel.Connection
}

func signal(from, fromPort, to, toPort string) *sysmodel.Connection {
	return &sysmodel.Connection{
		From: sysmodel.PortRef{Component: from, Port: fromPort},
		To:   sysmodel.PortRef{Component: to, Port: toPort},
		Flow: sysmodel.SignalFlow,
	}
}

// catalogue is the fixed set of models tenants submit. Every submission
// is one of them plus a rev attribute on the panel; golden.json holds one
// digest per entry.
var catalogue = []variant{
	{name: "base", drop: -1},
	{name: "drop-office-scada", drop: 0},
	{name: "drop-scada-plc", drop: 1},
	{name: "drop-scada-panel", drop: 2},
	{name: "drop-plc-press", drop: 3},
	{name: "add-office-plc", drop: -1, add: signal("office_ws", "net", "plc1", "in")},
	{name: "add-office-panel", drop: -1, add: signal("office_ws", "net", "panel", "in")},
	{name: "add-plc-panel", drop: -1, add: signal("plc1", "cmd", "panel", "in")},
}

// revComponent carries the rev attribute: metadata the engine never
// reads, so a rev-only edit takes the zero-invalidation delta path.
const revComponent = "panel"

// tenantInputs holds the parsed sme-plant model and type library.
type tenantInputs struct {
	base  *sysmodel.Model
	types *sysmodel.TypeLibrary
	kb    *kb.KB
}

func newTenantInputs() (*tenantInputs, error) {
	mf, err := os.Open(smePlantPath)
	if err != nil {
		return nil, err
	}
	defer mf.Close()
	base, err := sysmodel.ReadJSON(mf)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", smePlantPath, err)
	}
	if _, ok := base.Component(revComponent); !ok {
		return nil, fmt.Errorf("%s: no component %q to carry the rev attribute", smePlantPath, revComponent)
	}
	tf, err := os.Open(typesPath)
	if err != nil {
		return nil, err
	}
	defer tf.Close()
	types, err := sysmodel.ReadTypesJSON(tf)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", typesPath, err)
	}
	return &tenantInputs{base: base, types: types, kb: kb.MustDefaultKB()}, nil
}

// document renders catalogue entry v with the given rev stamp.
func (in *tenantInputs) document(v, rev int) []byte {
	m := in.base.Clone()
	panel, _ := m.Component(revComponent)
	panel.SetAttr("rev", strconv.Itoa(rev))
	if d := catalogue[v].drop; d >= 0 {
		m.Connections = append(m.Connections[:d], m.Connections[d+1:]...)
	}
	if c := catalogue[v].add; c != nil {
		m.Connections = append(m.Connections, *c)
	}
	out, err := json.Marshal(m)
	if err != nil {
		panic(err) // a model read from JSON marshals back
	}
	return out
}

// config is the configuration the service runs a submitted document
// under with default options: k=2, native sweep, no optimizer.
func (in *tenantInputs) config(body []byte) (core.Config, error) {
	m, err := sysmodel.ReadJSON(bytes.NewReader(body))
	if err != nil {
		return core.Config{}, err
	}
	reqs, err := hazard.GenericRequirements(m)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Model:           m,
		Types:           in.types,
		KB:              in.kb,
		Requirements:    reqs,
		MutationSources: faults.AllSources(),
		MaxCardinality:  2,
		Budget:          -1,
		Parallelism:     runtime.NumCPU(),
	}, nil
}

// Submission kinds of the tenant-edits draw, with their weights.
const (
	kindRepeat    = iota // exact resubmission: resolves warm
	kindAttrEdit         // rev-only edit: zero-invalidation delta
	kindConnEdit         // another catalogue model: delta over the affected ranks
	kindNewTenant        // first submit of a fresh tenant: cold
)

// kindWeights is an assumed mix: nothing in the repository records how
// often real tenants repeat, edit or arrive. The kinds fall into two
// latency groups: repeats and rev edits (warm and zero-invalidation
// delta, about 0.95 ms p50 a round trip on a 2-vCPU host) and connection
// edits and new tenants (delta over ranks and cold, about 1.75 ms). The
// fast group holds 70%, so the group boundary lies 20 points from both
// p50 and p90 and neither reported quantile rides on it. Within a group
// the kinds share equally, so a regression on either path moves its
// quantile as much as on the other.
var kindWeights = [...]int{kindRepeat: 35, kindAttrEdit: 35, kindConnEdit: 15, kindNewTenant: 15}

var kindNames = [...]string{kindRepeat: "repeat", kindAttrEdit: "attr-edit", kindConnEdit: "conn-edit", kindNewTenant: "new-tenant"}

// pollWait and pollWaitMax bound the status-poll backoff. The first poll
// goes out at once, since a warm job is usually done by then; each further
// one waits pollWait, doubling up to pollWaitMax. A busy-polling client
// competes with the job it waits for, and a sleep before the first poll
// puts the host's timer wake-up latency on every operation.
const (
	pollWait    = 100 * time.Microsecond
	pollWaitMax = time.Millisecond
)

// tenantWorkload is a closed loop of tenants calling an in-process
// assessment service over loopback HTTP, one connection per client.
type tenantWorkload struct {
	in      *tenantInputs
	gold    map[string]digests
	srv     *serve.Server
	hs      *http.Server
	serving chan error
	url     string
	cls     []*tenantClient
}

// tenantClient is one client: it acts as a sequence of tenants, each
// submitting catalogue models with fresh rev stamps.
type tenantClient struct {
	id           int
	http         *http.Client
	rng          *rand.Rand
	tenant       string
	tenants, rev int
	cur          int    // catalogue entry of the last submission
	kind         int    // submission kind of the last draw
	body         []byte // last submitted document
	last         opTrace
	// kindMS and paths record every verified submission: latency by
	// submission kind, and the artifact path the server resolved it on.
	kindMS [len(kindWeights)][]float64
	paths  map[string]int
}

// opTrace breaks one submission down by HTTP call and server stamp.
type opTrace struct {
	wall, submit, fetch, inHTTP time.Duration
	polls                       int
	submitted, started          time.Time
	finished, doneSeen          time.Time
	path                        string
}

const tenantClients = 2

func setupTenant(seed int64, gold *goldenSet) (workload, error) {
	in, err := newTenantInputs()
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{Types: in.types})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background()) //nolint:errcheck // no job was submitted
		return nil, err
	}
	w := &tenantWorkload{
		in: in, gold: gold.TenantEdits, srv: srv,
		hs:      &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		serving: make(chan error, 1),
		url:     "http://" + ln.Addr().String(),
	}
	go func() { w.serving <- w.hs.Serve(ln) }()
	for c := 0; c < tenantClients; c++ {
		w.cls = append(w.cls, &tenantClient{
			id: c,
			http: &http.Client{Transport: &http.Transport{
				MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
			}},
			rng:   rand.New(rand.NewSource(seed*tenantClients + int64(c))),
			paths: map[string]int{},
		})
	}
	return w, nil
}

func (w *tenantWorkload) clients() int { return len(w.cls) }

// next draws the client's next submission and renders its document.
func (cl *tenantClient) next(in *tenantInputs) {
	kind := kindNewTenant
	if cl.tenant != "" {
		r := cl.rng.Intn(100)
		for k, wt := range kindWeights {
			if r < wt {
				kind = k
				break
			}
			r -= wt
		}
	}
	cl.kind = kind
	switch kind {
	case kindRepeat:
		return
	case kindNewTenant:
		cl.tenants++
		cl.tenant = fmt.Sprintf("c%d-t%d", cl.id, cl.tenants)
		cl.cur = 0
	case kindConnEdit:
		cl.cur = (cl.cur + 1 + cl.rng.Intn(len(catalogue)-1)) % len(catalogue)
	}
	cl.rev++
	cl.body = in.document(cl.cur, cl.rev)
}

// op submits the client's next document, polls until the job is done,
// fetches the report, and checks it against the golden digest after the
// clock stops.
func (w *tenantWorkload) op(c int) (time.Duration, error) {
	cl := w.cls[c]
	cl.next(w.in)
	report, err := cl.roundTrip(w.url)
	if err != nil {
		return 0, err
	}
	got, err := reportDigests(report)
	if err != nil {
		return cl.last.wall, err
	}
	if err := w.gold[catalogue[cl.cur].name].compare(got); err != nil {
		return cl.last.wall, fmt.Errorf("tenant %s model %s: %w", cl.tenant, catalogue[cl.cur].name, err)
	}
	cl.kindMS[cl.kind] = append(cl.kindMS[cl.kind], ms(cl.last.wall))
	cl.paths[cl.last.path]++
	return cl.last.wall, nil
}

// mix describes the submissions verified so far: each kind's share and
// latency quantiles, and each artifact path's share. It shows where the
// kinds' latencies fall relative to the reported quantiles.
func (w *tenantWorkload) mix() map[string]any {
	total := 0
	kinds := map[string]any{}
	for k, name := range kindNames {
		var lat []float64
		for _, cl := range w.cls {
			lat = append(lat, cl.kindMS[k]...)
		}
		total += len(lat)
		kinds[name] = map[string]float64{
			"n": float64(len(lat)), "p10_ms": quantile(lat, 0.1),
			"p50_ms": quantile(lat, 0.5), "p90_ms": quantile(lat, 0.9),
		}
	}
	paths := map[string]float64{}
	for _, cl := range w.cls {
		for p, n := range cl.paths {
			paths[p] += float64(n) / float64(max(total, 1))
		}
	}
	return map[string]any{"kinds": kinds, "paths": paths}
}

func (cl *tenantClient) roundTrip(base string) ([]byte, error) {
	tr := opTrace{}
	start := time.Now()
	call := func(req *http.Request, want int) ([]byte, error) {
		t := time.Now()
		resp, err := cl.http.Do(req)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		tr.inHTTP += time.Since(t)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != want {
			return nil, fmt.Errorf("%s %s: HTTP %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(body))
		}
		return body, nil
	}
	status := func(body []byte) (serve.JobStatus, error) {
		var st serve.JobStatus
		err := json.Unmarshal(body, &st)
		return st, err
	}

	req, err := http.NewRequest(http.MethodPost, base+"/v1/assess", bytes.NewReader(cl.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Tenant", cl.tenant)
	body, err := call(req, http.StatusAccepted)
	if err != nil {
		return nil, err
	}
	tr.submit = time.Since(start)
	st, err := status(body)
	if err != nil {
		return nil, err
	}
	var wait time.Duration
	for st.State != serve.JobDone {
		if st.State == serve.JobFailed {
			return nil, fmt.Errorf("job %s failed: %s", st.ID, st.Error)
		}
		if wait > 0 {
			time.Sleep(wait)
		}
		wait = min(max(2*wait, pollWait), pollWaitMax)
		req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+st.ID, nil)
		if err != nil {
			return nil, err
		}
		if body, err = call(req, http.StatusOK); err != nil {
			return nil, err
		}
		tr.polls++
		if st, err = status(body); err != nil {
			return nil, err
		}
	}
	tr.doneSeen = time.Now()
	req, err = http.NewRequest(http.MethodGet, base+"/v1/jobs/"+st.ID+"/report", nil)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	report, err := call(req, http.StatusOK)
	if err != nil {
		return nil, err
	}
	tr.fetch = time.Since(t)
	tr.wall = time.Since(start)
	tr.path = st.ArtifactPath
	for _, stamp := range []struct {
		s string
		t *time.Time
	}{{st.Submitted, &tr.submitted}, {st.Started, &tr.started}, {st.Finished, &tr.finished}} {
		if *stamp.t, err = time.Parse(time.RFC3339Nano, stamp.s); err != nil {
			return nil, fmt.Errorf("job %s: %w", st.ID, err)
		}
	}
	cl.last = tr
	return report, nil
}

// traced runs n submissions per client recording each one's breakdown,
// then the cold job's pipeline as timed public calls and the tracing
// overhead of core.RunCtx on the base model.
func (w *tenantWorkload) traced(n int, m metricSet) error {
	traces := make([][]opTrace, len(w.cls))
	errs := make([]error, len(w.cls))
	var wg sync.WaitGroup
	for c := range w.cls {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := w.op(c); err != nil {
					errs[c] = err
					return
				}
				traces[c] = append(traces[c], w.cls[c].last)
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	var submit, queue, run, notice, fetch, coverage []float64
	paths := map[string]int{}
	polls, total := 0, 0
	for _, ts := range traces {
		for _, t := range ts {
			submit = append(submit, ms(t.submit))
			queue = append(queue, ms(t.started.Sub(t.submitted)))
			run = append(run, ms(t.finished.Sub(t.started)))
			notice = append(notice, ms(t.doneSeen.Sub(t.finished)))
			fetch = append(fetch, ms(t.fetch))
			coverage = append(coverage, float64(t.inHTTP)/float64(t.wall))
			paths[t.path]++
			polls += t.polls
			total++
		}
	}
	m["serve.submit_ms.p50"] = quantile(submit, 0.5)
	m["serve.queue_ms.p50"] = quantile(queue, 0.5)
	m["serve.run_ms.p50"] = quantile(run, 0.5)
	m["serve.notice_ms.p50"] = quantile(notice, 0.5)
	m["serve.fetch_ms.p50"] = quantile(fetch, 0.5)
	m["serve.polls_per_job"] = float64(polls) / float64(total)
	m["artifact.warm_frac"] = float64(paths["warm"]) / float64(total)
	m["artifact.delta_frac"] = float64(paths["delta"]) / float64(total)
	m["artifact.cold_frac"] = float64(paths["cold"]) / float64(total)

	// The served pipeline itself, as a new tenant's cold job runs it.
	cfg, err := w.in.config(w.in.document(0, 0))
	if err != nil {
		return err
	}
	want := w.gold[catalogue[0].name]
	var layers layerSamples
	for i := 0; i < n; i++ {
		a, err := tracedPipeline(cfg, &layers)
		if err != nil {
			return err
		}
		got, err := assessmentDigests(a)
		if err != nil {
			return err
		}
		if err := want.compare(got); err != nil {
			return fmt.Errorf("traced pipeline: %w", err)
		}
	}
	layers.report(m)
	// Served requests: the share of a submission's wall time spent inside
	// HTTP calls; the rest is poll backoff and client overhead.
	m["trace.coverage"] = quantile(coverage, 0.5)
	frac, err := obsOverhead(cfg, n)
	if err != nil {
		return err
	}
	m["obs.overhead_frac"] = frac
	return nil
}

func (w *tenantWorkload) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w.hs.Shutdown(ctx) //nolint:errcheck // the drain below reports a stuck job
	<-w.serving
	w.srv.Drain(ctx) //nolint:errcheck // in-flight jobs are abandoned at exit anyway
	for _, cl := range w.cls {
		cl.http.CloseIdleConnections()
	}
}
