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
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	err = run([]string{"-h"})
	os.Stderr = stderr
	w.Close()
	if !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: %v", err)
	}
	help, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}

	set := core.DefaultSettings()
	fs := flag.NewFlagSet("binder", flag.ContinueOnError)
	set.Bind(fs)
	fs.VisitAll(func(f *flag.Flag) {
		var want strings.Builder
		one := flag.NewFlagSet("one", flag.ContinueOnError)
		one.SetOutput(&want)
		one.Var(f.Value, f.Name, f.Usage)
		one.PrintDefaults()
		if !strings.Contains(string(help), want.String()) {
			t.Errorf("-h does not list -%s as the binder does:\n%s", f.Name, want.String())
		}
	})
}
