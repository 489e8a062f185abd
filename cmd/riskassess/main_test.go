package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestRunOnSampleModel(t *testing.T) {
	err := run([]string{
		"-model", "../../models/sme-plant.json",
		"-types", "../../models/types.json",
		"-optimize",
		"-maxcard", "1",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithMitigations(t *testing.T) {
	err := run([]string{
		"-model", "../../models/sme-plant.json",
		"-types", "../../models/types.json",
		"-mitigations", "M-0917,M-0949,M-0932",
		"-maxcard", "1",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunMissingArgs(t *testing.T) {
	if err := run(nil, io.Discard); err == nil || !strings.Contains(err.Error(), "required") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunMissingFiles(t *testing.T) {
	if err := run([]string{"-model", "nope.json", "-types", "nope.json"}, io.Discard); err == nil {
		t.Fatal("expected file error")
	}
}

func TestRunJSONAndDot(t *testing.T) {
	dot := t.TempDir() + "/model.dot"
	err := run([]string{
		"-model", "../../models/sme-plant.json",
		"-types", "../../models/types.json",
		"-maxcard", "1",
		"-json",
		"-dot", dot,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph") {
		t.Errorf("dot output = %q", data)
	}
}

// rankedCount counts data rows ("<rank> S<id> ...") in the
// "Risk-prioritized scenarios" table.
func rankedCount(out string) int {
	_, tail, ok := strings.Cut(out, "== Risk-prioritized scenarios ==")
	if !ok {
		return -1
	}
	n := 0
	for _, line := range strings.Split(tail, "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || !strings.HasPrefix(f[1], "S") {
			continue
		}
		if _, err := strconv.Atoi(f[0]); err == nil {
			n++
		}
	}
	return n
}

func TestRunTopFlagLimitsRanking(t *testing.T) {
	base := []string{
		"-model", "../../models/sme-plant.json",
		"-types", "../../models/types.json",
		"-maxcard", "2",
	}
	var all, top5 bytes.Buffer
	if err := run(append(base, "-top", "0"), &all); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-top", "5"), &top5); err != nil {
		t.Fatal(err)
	}
	nAll, n5 := rankedCount(all.String()), rankedCount(top5.String())
	if n5 != 5 {
		t.Errorf("-top 5 printed %d scenarios", n5)
	}
	if nAll <= 20 {
		t.Fatalf("fixture too small to exercise -top 0: %d scenarios", nAll)
	}
}

func TestRunTimeoutDegradesGracefully(t *testing.T) {
	const timeout = 50 * time.Millisecond
	var out bytes.Buffer
	start := time.Now()
	// The decision cap guarantees the ASP search is interrupted even on a
	// machine fast enough to finish inside the deadline; the deadline
	// bounds the wall clock either way.
	err := run([]string{
		"-model", "../../models/sme-plant.json",
		"-types", "../../models/types.json",
		"-maxcard", "-1",
		"-asp",
		"-timeout", timeout.String(),
		"-max-decisions", "50",
	}, &out)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	// ~2x the deadline plus scheduling slack: budget polls sit between
	// units of work, not inside them.
	if elapsed > 2*timeout+2*time.Second {
		t.Errorf("run took %v with -timeout %v", elapsed, timeout)
	}
	text := out.String()
	if !strings.Contains(text, "== Degraded results ==") {
		t.Fatalf("no degradation summary in output:\n%s", text)
	}
	// The completed ranked scenarios must still be reported.
	if !strings.Contains(text, "== Risk-prioritized scenarios ==") {
		t.Error("ranked scenarios missing from degraded output")
	}
}

func TestRunJSONCarriesSolverStatsAndDegradation(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-model", "../../models/sme-plant.json",
		"-types", "../../models/types.json",
		"-maxcard", "1",
		"-asp",
		"-json",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var sum struct {
		Solver *struct {
			Decisions  int64 `json:"decisions"`
			Restarts   int64 `json:"restarts"`
			DurationMS int64 `json:"durationMs"`
			Sessions   int64 `json:"sessions"`
			Queries    int64 `json:"queries"`
		} `json:"solver"`
		Degradation []struct {
			Stage  string `json:"stage"`
			Reason string `json:"reason"`
		} `json:"degradation"`
	}
	if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Solver == nil {
		t.Fatal("no solver stats in -asp -json output")
	}
	if sum.Solver.Decisions <= 0 {
		t.Errorf("solver stats = %+v", sum.Solver)
	}
	// The ASP path is multi-shot: one session answering one query per
	// cardinality level (0 and 1 with -maxcard 1).
	if sum.Solver.Sessions != 1 || sum.Solver.Queries != 2 {
		t.Errorf("multi-shot counters sessions=%d queries=%d, want 1/2", sum.Solver.Sessions, sum.Solver.Queries)
	}
	// The CDCL counters must be present as JSON keys even when zero for
	// this small model.
	for _, key := range []string{`"learnedClauses"`, `"backjumps"`, `"dbReductions"`, `"restarts"`} {
		if !bytes.Contains(out.Bytes(), []byte(key)) {
			t.Errorf("solver summary missing %s key:\n%s", key, out.String())
		}
	}
	if len(sum.Degradation) != 0 {
		t.Errorf("unexpected degradation: %+v", sum.Degradation)
	}

	// A scenario cap must surface in the JSON degradation list.
	out.Reset()
	err = run([]string{
		"-model", "../../models/sme-plant.json",
		"-types", "../../models/types.json",
		"-maxcard", "2",
		"-max-scenarios", "3",
		"-json",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if len(sum.Degradation) == 0 {
		t.Fatal("scenario cap not reported in JSON degradation")
	}
	if sum.Degradation[0].Reason != "scenario-cap" {
		t.Errorf("degradation = %+v", sum.Degradation)
	}
}

func TestRunParallelFlagIsDeterministic(t *testing.T) {
	base := []string{
		"-model", "../../models/sme-plant.json",
		"-types", "../../models/types.json",
		"-maxcard", "2",
	}
	var seq, par bytes.Buffer
	if err := run(append(base, "-parallel", "1"), &seq); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-parallel", "4"), &par); err != nil {
		t.Fatal(err)
	}
	// Strip the throughput and duration lines: they carry wall-clock
	// numbers.
	strip := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.Contains(line, "sweep:") || strings.Contains(line, "assessed in") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	if strip(seq.String()) != strip(par.String()) {
		t.Error("-parallel 4 output differs from -parallel 1")
	}

	var out bytes.Buffer
	if err := run(append(base, "-parallel", "4", "-json"), &out); err != nil {
		t.Fatal(err)
	}
	var sum struct {
		Sweep *struct {
			Workers   int `json:"workers"`
			Scenarios int `json:"scenarios"`
		} `json:"sweep"`
	}
	if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Sweep == nil || sum.Sweep.Workers != 4 || sum.Sweep.Scenarios == 0 {
		t.Errorf("sweep stats = %+v", sum.Sweep)
	}
}

// TestRunParallelJSONIsDeterministic: at -maxcard 2, where which rows
// prune depends on worker timing, the -json report is the same at
// -parallel 1 and 4 once the sweep effort counters and the duration are
// masked — rows, ranking and truncation do not depend on the width.
func TestRunParallelJSONIsDeterministic(t *testing.T) {
	masked := func(width string) string {
		var out bytes.Buffer
		if err := run([]string{
			"-model", "../../models/sme-plant.json",
			"-types", "../../models/types.json",
			"-maxcard", "2", "-parallel", width, "-json",
		}, &out); err != nil {
			t.Fatal(err)
		}
		var sum map[string]json.RawMessage
		if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
			t.Fatal(err)
		}
		if sum["sweep"] == nil {
			t.Fatalf("-parallel %s: no sweep summary", width)
		}
		delete(sum, "sweep")
		delete(sum, "durationMs")
		b, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if seq, par := masked("1"), masked("4"); seq != par {
		t.Errorf("-json at -parallel 4 differs from -parallel 1:\n%s\n%s", par, seq)
	}
}

// jsonRun executes the CLI with -json and decodes the summary fields the
// pruning tests care about.
func jsonRun(t *testing.T, extra ...string) (scenarios []json.RawMessage, sweep struct {
	Executed     int64 `json:"executed"`
	Pruned       int64 `json:"pruned"`
	OrbitHits    int64 `json:"orbitHits"`
	OrbitClasses int   `json:"orbitClasses"`
}) {
	t.Helper()
	args := append([]string{
		"-model", "../../models/sme-plant.json",
		"-types", "../../models/types.json",
		"-maxcard", "2",
		"-parallel", "2", // force the sweep path even on 1-CPU machines
		"-json",
	}, extra...)
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	var sum struct {
		Scenarios []json.RawMessage `json:"scenarios"`
		Sweep     json.RawMessage   `json:"sweep"`
	}
	if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Sweep != nil {
		if err := json.Unmarshal(sum.Sweep, &sweep); err != nil {
			t.Fatal(err)
		}
	}
	return sum.Scenarios, sweep
}

// scenarioSet renders scenario rows for comparison. The JSON export
// lists scenarios risk-ranked; rows are sorted so the comparison checks
// the scenario set, not the order the ranking lists it in.
func scenarioSet(rows []json.RawMessage) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = string(r)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestRunNoPruneFlag: pruning is on by default and never changes the
// report; -no-prune forces every scenario through the engine.
func TestRunNoPruneFlag(t *testing.T) {
	prunedRows, pruned := jsonRun(t)
	plainRows, plain := jsonRun(t, "-no-prune")
	if scenarioSet(prunedRows) != scenarioSet(plainRows) {
		t.Fatal("pruned and unpruned CLI runs disagree on scenarios")
	}
	if plain.Pruned != 0 || plain.OrbitHits != 0 {
		t.Errorf("-no-prune still pruned: %+v", plain)
	}
	if plain.Executed != int64(len(plainRows)) {
		t.Errorf("-no-prune executed %d of %d scenarios", plain.Executed, len(plainRows))
	}
	if pruned.Executed+pruned.Pruned+pruned.OrbitHits != int64(len(prunedRows)) {
		t.Errorf("pruned-run accounting off: %+v over %d rows", pruned, len(prunedRows))
	}
}

// editModel reads a model JSON, applies f to the decoded document, and
// writes it to path.
func editModel(t *testing.T, src, dst string, f func(map[string]any)) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if f != nil {
		f(doc)
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// annotatePanel stamps a metadata-only attr on the panel component — an
// edit the EPA engine cannot observe, so delta re-assessment reuses
// every scenario row.
func annotatePanel(note string) func(map[string]any) {
	return func(doc map[string]any) {
		for _, c := range doc["components"].([]any) {
			comp := c.(map[string]any)
			if comp["id"] == "panel" {
				comp["attrs"] = map[string]any{"note": note}
			}
		}
	}
}

// TestRunDeltaFlag: -delta warms the artifact cache with the baseline
// model and the main assessment resolves incrementally, reporting the
// same scenarios as a cold run of the edited model.
func TestRunDeltaFlag(t *testing.T) {
	dir := t.TempDir()
	oldPath, newPath := dir+"/old.json", dir+"/new.json"
	editModel(t, "../../models/sme-plant.json", oldPath, nil)
	editModel(t, "../../models/sme-plant.json", newPath, annotatePanel("rewired cabinet"))

	base := []string{"-types", "../../models/types.json", "-maxcard", "2", "-json"}
	var deltaOut, coldOut bytes.Buffer
	if err := run(append(base, "-model", newPath, "-delta", oldPath), &deltaOut); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-model", newPath), &coldOut); err != nil {
		t.Fatal(err)
	}

	type summary struct {
		Scenarios []json.RawMessage `json:"scenarios"`
		Artifact  *struct {
			Path      string `json:"path"`
			ModelHash string `json:"modelHash"`
		} `json:"artifact"`
	}
	var delta, cold summary
	if err := json.Unmarshal(deltaOut.Bytes(), &delta); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(coldOut.Bytes(), &cold); err != nil {
		t.Fatal(err)
	}
	if delta.Artifact == nil || delta.Artifact.Path != "delta" {
		t.Fatalf("artifact = %+v, want delta", delta.Artifact)
	}
	if delta.Artifact.ModelHash == "" {
		t.Error("artifact lacks the model hash")
	}
	if cold.Artifact != nil {
		t.Errorf("cold run without -delta stamped artifact %+v", cold.Artifact)
	}
	if scenarioSet(delta.Scenarios) != scenarioSet(cold.Scenarios) {
		t.Fatal("-delta scenarios diverged from a cold run of the same model")
	}
}

// TestRunDeltaFlagBadBaseline: an unreadable baseline fails fast.
func TestRunDeltaFlagBadBaseline(t *testing.T) {
	err := run([]string{
		"-model", "../../models/sme-plant.json",
		"-types", "../../models/types.json",
		"-delta", "no-such-file.json",
	}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "delta baseline") {
		t.Fatalf("err = %v", err)
	}
}

// TestRunWatchFlag: -watch re-assesses the model when the file changes;
// the first run is cold and the re-run resolves against the cache.
func TestRunWatchFlag(t *testing.T) {
	dir := t.TempDir()
	modelPath := dir + "/plant.json"
	editModel(t, "../../models/sme-plant.json", modelPath, nil)

	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-model", modelPath,
			"-types", "../../models/types.json",
			"-maxcard", "1",
			"-watch",
			"-watch-interval", "20ms",
			"-watch-max", "2",
		}, &out)
	}()

	// Let the first assessment land, then edit the model to trigger the
	// second; retry the edit until the watcher consumes it.
	deadline := time.After(30 * time.Second)
	for i := 0; ; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			text := out.String()
			for _, want := range []string{"== watch run 1 ==", "== watch run 2 ==", "artifact: cold run", "artifact: delta run"} {
				if !strings.Contains(text, want) {
					t.Fatalf("watch output lacks %q:\n%s", want, text)
				}
			}
			return
		case <-deadline:
			t.Fatal("watch did not complete two runs in 30s")
		case <-time.After(100 * time.Millisecond):
			editModel(t, "../../models/sme-plant.json", modelPath, annotatePanel("edit "+strconv.Itoa(i)))
		}
	}
}
