package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"cpsrisk/internal/core"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/serve"
)

// errCaptured stops a CLI run once its Config is captured.
var errCaptured = errors.New("config captured")

// TestSettingsReachCLIAndServedConfig: with every shared assessment flag
// off its default, the Config riskassess runs and the Config a served
// job runs are equal field for field, apart from the per-job fields, and
// each setting arrives in the Config unchanged. A setting one front end
// drops or re-defaults fails here.
func TestSettingsReachCLIAndServedConfig(t *testing.T) {
	flags := []string{
		"-maxcard", "3", "-asp", "-optimize", "-budget", "7",
		"-mitigations", "M-0917, M-0949", "-parallel", strconv.Itoa(runtime.NumCPU() + 1),
		"-no-prune", "-timeout", "90s", "-max-decisions", "1234", "-max-scenarios", "56",
		"-top", "4",
	}
	set := core.DefaultSettings()
	fs := flag.NewFlagSet("riskserve", flag.ContinueOnError)
	set.Bind(fs)
	if err := fs.Parse(flags); err != nil {
		t.Fatal(err)
	}
	setV, defV := reflect.ValueOf(set), reflect.ValueOf(core.DefaultSettings())
	for i := 0; i < setV.NumField(); i++ {
		if reflect.DeepEqual(setV.Field(i).Interface(), defV.Field(i).Interface()) {
			t.Fatalf("the test flags leave Settings.%s at its default", setV.Type().Field(i).Name)
		}
	}

	var cliCfg core.Config
	runCore = func(cfg core.Config) (*core.Assessment, error) {
		cliCfg = cfg
		return nil, errCaptured
	}
	t.Cleanup(func() { runCore = core.Run })
	err := run(append([]string{
		"-model", "../../models/sme-plant.json",
		"-types", "../../models/types.json",
	}, flags...), io.Discard)
	if !errors.Is(err, errCaptured) {
		t.Fatalf("riskassess did not reach the run: %v", err)
	}

	s, err := serve.New(serve.Options{Types: cliCfg.Types, Settings: &set})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Drain(context.Background()) })
	model := cliCfg.Model
	reqs, err := hazard.GenericRequirements(model)
	if err != nil {
		t.Fatal(err)
	}
	srvCfg := s.JobConfig(model, reqs, "trace", "tenant")

	cfgV := reflect.ValueOf(cliCfg)
	for i := 0; i < setV.NumField(); i++ {
		name := setV.Type().Field(i).Name
		if name == "TopN" { // a rendering setting; TestServedReportMatchesCLITopZero covers it
			continue
		}
		if got, want := cfgV.FieldByName(name).Interface(), setV.Field(i).Interface(); !reflect.DeepEqual(got, want) {
			t.Errorf("CLI Config.%s = %v, want the setting %v", name, got, want)
		}
	}

	// Per-job fields are each front end's own.
	for _, c := range []*core.Config{&cliCfg, &srvCfg} {
		c.Model, c.Requirements, c.Trace, c.Metrics = nil, nil, nil, nil
		c.Tenant, c.TraceID = "", ""
		c.ArtifactCache, c.Faults = nil, nil
	}
	cliV, srvV := reflect.ValueOf(cliCfg), reflect.ValueOf(srvCfg)
	for i := 0; i < cliV.NumField(); i++ {
		if !reflect.DeepEqual(cliV.Field(i).Interface(), srvV.Field(i).Interface()) {
			t.Errorf("Config.%s: CLI %v, served %v", cliV.Type().Field(i).Name, cliV.Field(i), srvV.Field(i))
		}
	}
}

// TestSettingsFlagsMatchBinder: riskassess defines every shared
// assessment flag exactly as core.Settings.Bind does, so its help for
// them matches riskserve's, which checks the same.
func TestSettingsFlagsMatchBinder(t *testing.T) {
	help := stderrOf(t, func() {
		if err := run([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("-h: %v", err)
		}
	})
	requireBinderFlags(t, help)
}

// stderrOf returns what f writes to os.Stderr.
func stderrOf(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	f()
	os.Stderr = stderr
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// requireBinderFlags fails unless help, a front end's -h output, lists
// every flag core.Settings.Bind defines with Bind's default and usage.
func requireBinderFlags(t *testing.T, help string) {
	t.Helper()
	set := core.DefaultSettings()
	fs := flag.NewFlagSet("binder", flag.ContinueOnError)
	set.Bind(fs)
	fs.VisitAll(func(f *flag.Flag) {
		var want strings.Builder
		one := flag.NewFlagSet("one", flag.ContinueOnError)
		one.SetOutput(&want)
		one.Var(f.Value, f.Name, f.Usage)
		one.PrintDefaults()
		if !strings.Contains(help, want.String()) {
			t.Errorf("-h does not list -%s as the binder does:\n%s", f.Name, want.String())
		}
	})
}

// TestHelpExitsZero: -h and -help print the usage, which lists neither
// -cache nor -shard, and exit 0; any other error, an unknown -cache or
// -shard included, exits 1 with the error on stderr.
func TestHelpExitsZero(t *testing.T) {
	gone := []string{"-cache", "-shard"}
	for _, arg := range []string{"-h", "-help"} {
		var stderr strings.Builder
		code := -1
		help := stderrOf(t, func() { code = exitCode(run([]string{arg}, io.Discard), &stderr) })
		if code != 0 || stderr.Len() != 0 {
			t.Errorf("%s: exit %d, stderr %q", arg, code, stderr.String())
		}
		if !strings.Contains(help, "-model") {
			t.Errorf("%s: usage lacks -model:\n%s", arg, help)
		}
		for _, flag := range gone {
			if strings.Contains(help, "\n  "+flag) {
				t.Errorf("%s: usage lists %s:\n%s", arg, flag, help)
			}
		}
	}
	for _, flag := range gone {
		var stderr strings.Builder
		code := -1
		stderrOf(t, func() { code = exitCode(run([]string{flag, "x"}, io.Discard), &stderr) })
		if code != 1 || !strings.Contains(stderr.String(), "riskassess: flag provided but not defined: "+flag) {
			t.Errorf("%s: exit %d, stderr %q", flag, code, stderr.String())
		}
	}
}
