package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"strings"
	"testing"

	"cpsrisk/internal/core"
)

// TestSettingsFlagsMatchBinder: riskserve defines every shared
// assessment flag exactly as core.Settings.Bind does, so its help for
// them matches riskassess's, which checks the same.
func TestSettingsFlagsMatchBinder(t *testing.T) {
	help := stderrOf(t, func() {
		if err := run([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("-h: %v", err)
		}
	})

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

// TestHelpExitsZero: -h and -help print the usage and exit 0; any other
// error exits 1 with the error on stderr.
func TestHelpExitsZero(t *testing.T) {
	for _, arg := range []string{"-h", "-help"} {
		var stderr strings.Builder
		code := -1
		help := stderrOf(t, func() { code = exitCode(run([]string{arg}), &stderr) })
		if code != 0 || stderr.Len() != 0 {
			t.Errorf("%s: exit %d, stderr %q", arg, code, stderr.String())
		}
		if !strings.Contains(help, "-types") || strings.Contains(help, "\n  -cache") {
			t.Errorf("%s: usage lacks -types or lists -cache:\n%s", arg, help)
		}
	}
	var stderr strings.Builder
	code := -1
	stderrOf(t, func() { code = exitCode(run(nil), &stderr) })
	if code != 1 || !strings.Contains(stderr.String(), "riskserve: -types is required") {
		t.Errorf("no -types: exit %d, stderr %q", code, stderr.String())
	}
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
