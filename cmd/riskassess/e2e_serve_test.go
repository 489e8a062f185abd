package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"cpsrisk/internal/serve"
	"cpsrisk/internal/sysmodel"
)

// startServer boots an in-process riskserve with opts plus the model
// types the CLI runs of the e2e comparisons load.
func startServer(t *testing.T, opts serve.Options) *httptest.Server {
	t.Helper()
	f, err := os.Open("../../models/types.json")
	if err != nil {
		t.Fatal(err)
	}
	opts.Types, err = sysmodel.ReadTypesJSON(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

// serveReport submits the model and fetches the finished report body
// from the given endpoint suffix.
func serveReport(t *testing.T, ts *httptest.Server, traceID, suffix string) []byte {
	t.Helper()
	body, err := os.ReadFile("../../models/sme-plant.json")
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("POST", ts.URL+"/v1/assess", bytes.NewReader(body))
	req.Header.Set("X-Trace-Id", traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for st.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", st.ID, st.State)
		}
		time.Sleep(10 * time.Millisecond)
		r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + suffix)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("report status %d", r.StatusCode)
	}
	var out bytes.Buffer
	if _, err := out.ReadFrom(r.Body); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// stripVolatile removes the lines carrying wall-clock numbers — the only
// fields allowed to differ between a served report and a CLI run.
func stripVolatile(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, `"durationMs"`) {
			// durationMs is omitempty, so a sub-millisecond run omits it
			// entirely. When it was the object's last field, dropping the
			// line leaves a dangling comma on the previous one — trim it
			// so presence vs absence of the field can't affect the diff.
			if !strings.HasSuffix(line, ",") && len(keep) > 0 {
				keep[len(keep)-1] = strings.TrimSuffix(keep[len(keep)-1], ",")
			}
			continue
		}
		if strings.Contains(line, "assessed in") ||
			strings.Contains(line, "sweep:") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// TestServedReportMatchesCLIJSON: the service's JSON report for a model
// is byte-identical to `riskassess -json` on the same model — same
// configuration hash, same trace ID, same artifact-cache arming — once
// wall-clock duration lines are stripped. This is the contract that lets
// clients switch between the CLI and the service without re-parsing.
func TestServedReportMatchesCLIJSON(t *testing.T) {
	ts := startServer(t, serve.Options{MaxCardinality: 1})
	served := serveReport(t, ts, "e2e-json", "/report")

	var cli bytes.Buffer
	err := run([]string{
		"-model", "../../models/sme-plant.json",
		"-types", "../../models/types.json",
		"-maxcard", "1",
		"-json",
		"-trace-id", "e2e-json",
		"-artifact-cache",
	}, &cli)
	if err != nil {
		t.Fatal(err)
	}

	got, want := stripVolatile(string(served)), stripVolatile(cli.String())
	if got != want {
		t.Errorf("served JSON report diverges from the CLI:\n--- served ---\n%s\n--- cli ---\n%s", got, want)
	}
}

// TestServedReportMatchesCLIASP: same contract on the ASP path. The
// service's defaults must leave the solver exactly as the CLI's do, so a
// served ASP report carries the CLI's solver counters too.
func TestServedReportMatchesCLIASP(t *testing.T) {
	ts := startServer(t, serve.Options{MaxCardinality: 1, UseASP: true})
	served := serveReport(t, ts, "e2e-asp", "/report")

	var cli bytes.Buffer
	err := run([]string{
		"-model", "../../models/sme-plant.json",
		"-types", "../../models/types.json",
		"-maxcard", "1",
		"-asp",
		"-json",
		"-trace-id", "e2e-asp",
		"-artifact-cache",
	}, &cli)
	if err != nil {
		t.Fatal(err)
	}

	got, want := stripVolatile(string(served)), stripVolatile(cli.String())
	if got != want {
		t.Errorf("served ASP JSON report diverges from the CLI:\n--- served ---\n%s\n--- cli ---\n%s", got, want)
	}
}

// TestServedReportMatchesCLIBudgetZero: a mitigation budget of 0 means
// the same to the service as to the CLI — the optimizer may spend
// nothing — rather than being read as unlimited.
func TestServedReportMatchesCLIBudgetZero(t *testing.T) {
	ts := startServer(t, serve.Options{MaxCardinality: 1, Optimize: true, MitBudget: 0})
	served := serveReport(t, ts, "e2e-budget0", "/report")

	var cli bytes.Buffer
	err := run([]string{
		"-model", "../../models/sme-plant.json",
		"-types", "../../models/types.json",
		"-maxcard", "1",
		"-budget", "0",
		"-optimize",
		"-json",
		"-trace-id", "e2e-budget0",
		"-artifact-cache",
	}, &cli)
	if err != nil {
		t.Fatal(err)
	}

	got, want := stripVolatile(string(served)), stripVolatile(cli.String())
	if got != want {
		t.Errorf("served budget-0 report diverges from the CLI:\n--- served ---\n%s\n--- cli ---\n%s", got, want)
	}
}

// TestServedReportMatchesCLIText: same contract for the text deliverable.
func TestServedReportMatchesCLIText(t *testing.T) {
	ts := startServer(t, serve.Options{MaxCardinality: 1})
	served := serveReport(t, ts, "e2e-text", "/report?format=text")

	var cli bytes.Buffer
	err := run([]string{
		"-model", "../../models/sme-plant.json",
		"-types", "../../models/types.json",
		"-maxcard", "1",
		"-artifact-cache",
	}, &cli)
	if err != nil {
		t.Fatal(err)
	}

	got, want := stripVolatile(string(served)), stripVolatile(cli.String())
	if got != want {
		t.Errorf("served text report diverges from the CLI:\n--- served ---\n%s\n--- cli ---\n%s", got, want)
	}
}
