// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a JSON benchmark ledger, merging the run under a label so that
// before/after snapshots of the same suite can live in one file:
//
//	go test -bench=. -benchmem ./... | benchjson -label after -out bench.local.json
//
// The output maps label -> benchmark name -> {nsPerOp, bytesPerOp,
// allocsPerOp}. Existing labels in -out are preserved; re-running with
// the same label replaces that label's entries. The trailing -<procs>
// GOMAXPROCS suffix go adds to benchmark names is stripped, so ledgers
// from machines with different core counts stay comparable by name.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark measurement.
type Entry struct {
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp,omitempty"`
	AllocsPerOp int64   `json:"allocsPerOp,omitempty"`
}

// benchLine matches `BenchmarkName-8  123  456 ns/op [789 B/op 12 allocs/op]`.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+(\d+) B/op\s+(\d+) allocs/op)?`)

func main() {
	label := flag.String("label", "run", "label to file this run under")
	out := flag.String("out", "bench.local.json", "ledger file to merge into")
	flag.Parse()
	if err := run(os.Stdin, os.Stdout, *label, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(in io.Reader, echo io.Writer, label, outPath string) error {
	entries, err := parse(in, echo)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("no benchmark lines on stdin")
	}
	ledger := map[string]map[string]Entry{}
	if data, err := os.ReadFile(outPath); err == nil {
		if err := json.Unmarshal(data, &ledger); err != nil {
			return fmt.Errorf("existing ledger %s: %w", outPath, err)
		}
	}
	ledger[label] = entries
	data, err := json.MarshalIndent(ledger, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	names := make([]string, 0, len(entries))
	for n := range entries {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(echo, "benchjson: %d benchmarks -> %s under label %q\n", len(names), outPath, label)
	if t := coldWarmTable(entries); t != "" {
		fmt.Fprint(echo, t)
	}
	return nil
}

// coldWarmTable renders the repeat-run comparison for benchmarks that
// come as `<base>/cold` + `<base>/warm-delta` sibling pairs (the
// artifact-cache suite): per-op time of each arm and the cold/warm
// speedup factor. Returns "" when the run holds no such pair.
func coldWarmTable(entries map[string]Entry) string {
	var bases []string
	for name := range entries {
		base, ok := strings.CutSuffix(name, "/cold")
		if !ok {
			continue
		}
		if _, ok := entries[base+"/warm-delta"]; ok {
			bases = append(bases, base)
		}
	}
	if len(bases) == 0 {
		return ""
	}
	sort.Strings(bases)
	var sb strings.Builder
	sb.WriteString("benchjson: cold vs warm-delta\n")
	for _, base := range bases {
		cold, warm := entries[base+"/cold"], entries[base+"/warm-delta"]
		speedup := 0.0
		if warm.NsPerOp > 0 {
			speedup = cold.NsPerOp / warm.NsPerOp
		}
		fmt.Fprintf(&sb, "  %-42s %11.0f ns cold %11.0f ns warm %6.1fx\n",
			base, cold.NsPerOp, warm.NsPerOp, speedup)
	}
	return sb.String()
}

// parse extracts benchmark entries from go test output, echoing every
// line so the tool is pipeline-transparent.
func parse(in io.Reader, echo io.Writer) (map[string]Entry, error) {
	entries := map[string]Entry{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		e := Entry{NsPerOp: ns}
		if m[3] != "" {
			e.BytesPerOp, _ = strconv.ParseInt(m[3], 10, 64)
			e.AllocsPerOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		entries[m[1]] = e
	}
	return entries, sc.Err()
}
