package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"cpsrisk/internal/core"
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

// checkServedMatchesCLI is the served-vs-CLI contract: a riskserve
// whose settings come from flags, as the riskserve binary binds them,
// serves the sample model's report byte-identical to `riskassess` run
// with the same flags, the same trace ID and the same artifact-cache
// arming, once wall-clock lines are stripped. text compares the text
// report; otherwise the JSON one. This is what lets clients switch
// between the CLI and the service without re-parsing.
func checkServedMatchesCLI(t *testing.T, traceID string, text bool, flags ...string) {
	t.Helper()
	set := core.DefaultSettings()
	fs := flag.NewFlagSet("riskserve", flag.ContinueOnError)
	set.Bind(fs)
	if err := fs.Parse(flags); err != nil {
		t.Fatal(err)
	}
	ts := startServer(t, serve.Options{Settings: &set})

	args := append([]string{
		"-model", "../../models/sme-plant.json",
		"-types", "../../models/types.json",
		"-trace-id", traceID,
		"-artifact-cache",
	}, flags...)
	suffix := "/report"
	if text {
		suffix += "?format=text"
	} else {
		args = append(args, "-json")
	}
	served := serveReport(t, ts, traceID, suffix)
	var cli bytes.Buffer
	if err := run(args, &cli); err != nil {
		t.Fatal(err)
	}

	got, want := stripVolatile(string(served)), stripVolatile(cli.String())
	if got != want {
		t.Errorf("served report (%d bytes) diverges from the CLI's (%d bytes) at %q:\n--- served ---\n%s\n--- cli ---\n%s",
			len(served), cli.Len(), flags, got, want)
	}
}

func TestServedReportMatchesCLIJSON(t *testing.T) {
	checkServedMatchesCLI(t, "e2e-json", false, "-maxcard", "1")
}

// TestServedReportMatchesCLIASP: the service leaves the solver exactly
// as the CLI does, so a served ASP report carries the CLI's solver
// counters too.
func TestServedReportMatchesCLIASP(t *testing.T) {
	checkServedMatchesCLI(t, "e2e-asp", false, "-maxcard", "1", "-asp")
}

// TestServedReportMatchesCLIBudgetZero: a mitigation budget of 0 means
// the same to the service as to the CLI — the optimizer may spend
// nothing — rather than being read as unlimited.
func TestServedReportMatchesCLIBudgetZero(t *testing.T) {
	checkServedMatchesCLI(t, "e2e-budget0", false, "-maxcard", "1", "-budget", "0", "-optimize")
}

func TestServedReportMatchesCLIText(t *testing.T) {
	checkServedMatchesCLI(t, "e2e-text", true, "-maxcard", "1")
}

// TestServedReportMatchesCLIMaxCardZero: -maxcard 0 assesses the empty
// scenario only, for the service as for the CLI, rather than being read
// as the default cardinality.
func TestServedReportMatchesCLIMaxCardZero(t *testing.T) {
	checkServedMatchesCLI(t, "e2e-maxcard0", false, "-maxcard", "0")
}

// TestServedReportMatchesCLITopZero: -top 0 renders every ranked
// scenario in the served text report, as the flag's help says, rather
// than the default 20.
func TestServedReportMatchesCLITopZero(t *testing.T) {
	checkServedMatchesCLI(t, "e2e-top0", true, "-top", "0")
}
