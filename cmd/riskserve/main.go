// Command riskserve runs the assessment pipeline as a long-lived
// HTTP/JSON service: clients POST system models and poll for reports,
// while the process keeps a shared artifact cache warm across requests
// and tenants, meters all concurrent work through one concurrency
// governor, and exports service-grade telemetry — Prometheus /metrics,
// per-request trace IDs with Chrome trace export, structured JSON logs,
// and an SLO critical-event monitor wired into /readyz.
//
// Usage:
//
//	riskserve -types types.json [assessment flags] [-addr :8080]
//	          [-addr-file path] [-artifact-cap N] [-job-workers N]
//	          [-slo-window 168h] [-slo-threshold 5] [-drain-timeout 30s]
//
// The assessment flags are riskassess's, bound from core.Settings; they
// apply to every job, and -parallel sizes one pool shared by all jobs.
//
// API:
//
//	POST /v1/assess               submit a model (async; returns a job)
//	GET  /v1/jobs/{id}            poll job state
//	GET  /v1/jobs/{id}/report     finished report (JSON; ?format=text, ?full=1)
//	GET  /v1/jobs/{id}/trace      Chrome trace_event JSON of the run
//	GET  /v1/slo                  critical-event journal and compliance
//	GET  /metrics                 Prometheus text exposition
//	GET  /healthz                 liveness
//	GET  /readyz                  readiness (503 on SLO breach or drain)
//
// Submissions may carry X-Trace-Id (propagated end to end; minted when
// absent) and X-Tenant (partitions the artifact cache per tenant).
// SIGINT/SIGTERM drains gracefully: in-flight jobs finish under
// -drain-timeout, then stragglers are cancelled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cpsrisk/internal/core"
	"cpsrisk/internal/faultinject"
	"cpsrisk/internal/serve"
	"cpsrisk/internal/sysmodel"
)

func main() {
	os.Exit(exitCode(run(os.Args[1:]), os.Stderr))
}

// exitCode reports err on stderr and returns the process status: 0 for
// success and for -h/-help, whose usage the flag package has printed;
// 1 for any other error.
func exitCode(err error, stderr io.Writer) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	fmt.Fprintln(stderr, "riskserve:", err)
	return 1
}

func run(args []string) error {
	fs := flag.NewFlagSet("riskserve", flag.ContinueOnError)
	set := core.DefaultSettings()
	set.Bind(fs)
	addr := fs.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening (for scripts)")
	typesPath := fs.String("types", "", "component-type library JSON (required)")
	artifactCap := fs.Int("artifact-cap", 0, "artifact cache entry cap (0 = default)")
	jobWorkers := fs.Int("job-workers", 2, "concurrent assessment jobs")
	sloWindow := fs.Duration("slo-window", serve.DefaultSLOWindow, "rolling window for the critical-event SLO")
	sloThreshold := fs.Int("slo-threshold", serve.DefaultSLOThreshold, "critical events per window before /readyz flips")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "grace period for in-flight jobs on shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *typesPath == "" {
		fs.Usage()
		return fmt.Errorf("-types is required")
	}

	f, err := os.Open(*typesPath)
	if err != nil {
		return err
	}
	types, err := sysmodel.ReadTypesJSON(f)
	f.Close()
	if err != nil {
		return err
	}

	// Fault injection arms from the environment only, like the CLI.
	injector, err := faultinject.FromEnv()
	if err != nil {
		return err
	}

	logger := serve.NewJSONLogger(os.Stderr)
	s, err := serve.New(serve.Options{
		Types:        types,
		Settings:     &set,
		ArtifactCap:  *artifactCap,
		JobWorkers:   *jobWorkers,
		SLOWindow:    *sloWindow,
		SLOThreshold: *sloThreshold,
		Injector:     injector,
		Logger:       logger,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	httpSrv := &http.Server{Handler: s}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	logger.LogAttrs(ctx, slog.LevelInfo, "listening", slog.String("addr", ln.Addr().String()))

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting connections, let in-flight jobs
	// finish under the deadline, cancel stragglers.
	logger.LogAttrs(context.Background(), slog.LevelInfo, "draining",
		slog.Duration("deadline", *drainTimeout))
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.LogAttrs(context.Background(), slog.LevelWarn, "shutdown",
			slog.String("error", err.Error()))
	}
	if err := s.Drain(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
