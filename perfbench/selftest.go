package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// selftest runs every workload briefly and prints every metric by name
// with its unit. It asserts that the metric tables match BENCHMARK.json,
// that each run emits every metric with its unit and no failed
// operation, that golden.json matches a fresh reference computation, and
// that corrupted golden digests drive the failed-operation count above
// zero.
func selftest() error {
	if err := checkBenchmarkJSON("BENCHMARK.json"); err != nil {
		return err
	}
	gold, err := loadGolden()
	if err != nil {
		return err
	}
	fresh, err := computeGolden()
	if err != nil {
		return err
	}
	if err := sameGolden(gold, fresh); err != nil {
		return fmt.Errorf("golden.json is stale (regenerate with `perfbench golden`): %w", err)
	}
	corrupt := corrupted(gold)
	for _, name := range []string{"plan-asp", "sweep-star", "tenant-edits"} {
		for _, traced := range []bool{false, true} {
			res, err := run(io.Discard, name, 1, time.Second, traced, gold, 3)
			if err != nil {
				return err
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if err := checkResult(res, defs); err != nil {
				return fmt.Errorf("%s (traced=%v): %w", name, traced, err)
			}
			for _, d := range defs {
				fmt.Printf("%s %s = %g %s\n", name, d.name, res.Metrics[d.name].Value, d.unit)
			}
		}
		// Setup checks its first operation, so a corrupted reference must
		// fail there, and still give a result that counts the failure.
		res, err := run(io.Discard, name, 1, time.Second, false, corrupt, 3)
		if err != nil {
			return err
		}
		if res.Correct || res.Failed == 0 || len(res.Metrics) != len(endToEnd) {
			return fmt.Errorf("%s: corrupted golden digests were not detected (correct=%v failed=%d)", name, res.Correct, res.Failed)
		}
		w, err := workloads[name].setup(1, corrupt)
		if err != nil {
			return err
		}
		loop := closedLoop(w, 200*time.Millisecond)
		w.close()
		if loop.failed == 0 {
			return fmt.Errorf("%s: corrupted golden digests left the failed count at 0", name)
		}
		fmt.Printf("selftest %s: ok (corrupted digests failed %d of %d operations)\n", name, loop.failed, loop.attempted)
	}
	return nil
}

func checkResult(res *result, defs []metricDef) error {
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		return fmt.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		return fmt.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok || v.Unit != d.unit {
			return fmt.Errorf("metric %s missing or without unit %q", d.name, d.unit)
		}
	}
	return nil
}

// checkBenchmarkJSON asserts the metric tables match BENCHMARK.json by
// name and unit, in order.
func checkBenchmarkJSON(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, t := range []struct {
		key  string
		defs []metricDef
		got  []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, bench.EndToEnd}, {"per_layer", perLayer, bench.PerLayer}} {
		if len(t.got) != len(t.defs) {
			return fmt.Errorf("%s: %s lists %d metrics, the benchmark emits %d", path, t.key, len(t.got), len(t.defs))
		}
		for i, d := range t.defs {
			if t.got[i].Name != d.name || t.got[i].Unit != d.unit {
				return fmt.Errorf("%s: %s[%d] is %s/%s, the benchmark emits %s/%s",
					path, t.key, i, t.got[i].Name, t.got[i].Unit, d.name, d.unit)
			}
		}
	}
	return nil
}

// corrupted returns a copy of g with every digest altered.
func corrupted(g *goldenSet) *goldenSet {
	flip := func(d digests) digests {
		out := digests{}
		for k, v := range d {
			out[k] = "corrupt-" + v
		}
		return out
	}
	c := &goldenSet{PlanASP: flip(g.PlanASP), SweepStar: flip(g.SweepStar), TenantEdits: map[string]digests{}}
	for k, d := range g.TenantEdits {
		c.TenantEdits[k] = flip(d)
	}
	return c
}

func sameGolden(want, got *goldenSet) error {
	if err := want.PlanASP.compare(got.PlanASP); err != nil {
		return fmt.Errorf("plan-asp: %w", err)
	}
	if err := want.SweepStar.compare(got.SweepStar); err != nil {
		return fmt.Errorf("sweep-star: %w", err)
	}
	for _, v := range catalogue {
		if err := want.TenantEdits[v.name].compare(got.TenantEdits[v.name]); err != nil {
			return fmt.Errorf("tenant-edits %s: %w", v.name, err)
		}
	}
	return nil
}
