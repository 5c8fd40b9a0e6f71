// Command hmserved runs the simulation-as-a-service daemon: a long-lived
// HTTP/JSON server that accepts placement-study jobs (single RunConfigs,
// config grids, named figure reproductions), executes them on the
// experiments worker-pool executor, and serves results from a two-tier
// cache — an in-process result map over a persistent, content-addressed
// disk cache that survives restarts and is shared across processes.
//
//	hmserved                               # listen on :8080, cache in .hmserved-cache
//	hmserved -addr :9090 -cache-dir /var/cache/hmserved
//	hmserved -cache-max-bytes 268435456    # cap the disk tier at 256 MiB
//	hmserved -cluster http://w1:8081,http://w2:8082   # coordinator over a fleet
//
// API:
//
//	POST   /v1/runs          submit one RunConfig (idempotent by config hash; ?probe= attaches a flight recorder)
//	POST   /v1/sweeps        submit a config grid: {"configs": [...]} (?probe= as above)
//	POST   /v1/cluster/run   synchronous single-config run (coordinator dispatch)
//	GET    /v1/jobs          list jobs
//	GET    /v1/jobs/{id}     job status + results
//	GET    /v1/jobs/{id}/progress  NDJSON stream of a probed job's time series (?once=1 for one pass)
//	DELETE /v1/jobs/{id}     cancel a queued job
//	GET    /v1/figures/{id}  reproduce a paper figure (?shrink=&workloads=&workers=&topology=&migrate=&migrate-policy=)
//	POST   /v1/tune          autotune a workload's placement + migration config (internal/tune)
//	GET    /healthz          liveness (503 while draining), build identity, uptime
//	GET    /metrics          Prometheus text metrics
//	GET    /debug/vars       the same counters plus build identity, expvar-style JSON
//
// ?probe= on a run or sweep submission (spec: "on" or
// "interval=N,samples=N") attaches an in-run flight recorder (internal/obs)
// to every config; GET /v1/jobs/{id}/progress then streams the recorded
// series — per-pool bandwidth utilization, occupancy, migration activity,
// queue depths — as NDJSON chunks while the simulation runs, ending with
// the job's terminal state. Probed jobs bypass the result cache and are
// never deduplicated; results are byte-identical with probes on or off.
//
// Every daemon is a cluster worker by construction: POST /v1/cluster/run
// flows through the same idempotent job queue and two-tier cache as every
// other submission. With -cluster, the daemon additionally acts as a
// coordinator: cache-missing simulations are sharded across the listed
// worker daemons by rendezvous hashing (with retries, failover, and local
// fallback), and coordinator metrics join the /metrics export.
//
// Misconfiguration — a flag repeated on the command line, a negative
// drain, zero job workers or queue capacity, or a default run option that
// a figure request would be refused for (experiments.Options.Validate:
// an unknown -topology, a -migrate spec that does not resolve with
// -migrate-policy) — is rejected at startup with exit status 2 rather
// than silently proceeding with the last value to win. The daemon binds
// -addr before it logs anything about serving: a busy address exits 1, and
// the "listening" log line carries the bound address (with -addr
// 127.0.0.1:0, the port the kernel chose).
//
// With -telemetry, the daemon records execution spans (internal/telemetry)
// for every request: structured span logs with trace/span IDs, and span
// duration histograms merged into /metrics. Requests arriving with the
// X-Hetsim-Trace header (a tracing hmexp or coordinator) are traced and
// answered with their span records regardless of -telemetry, so client
// timelines always include the worker side. Results are byte-identical
// with telemetry on or off.
//
// On SIGINT/SIGTERM the daemon drains: new submissions get 503, queued
// jobs are canceled, and running jobs get -drain to finish before the
// process exits. Figure and sweep responses are bit-identical whether
// served from memory, disk, fresh simulation, or a worker fleet.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hetsim/cmd/internal/cli"
	"hetsim/internal/cluster"
	"hetsim/internal/serve"
	"hetsim/internal/telemetry"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		cacheDir = flag.String("cache-dir", ".hmserved-cache", "persistent result cache directory (empty disables the disk tier)")
		cacheMax = flag.Int64("cache-max-bytes", 1<<30, "disk cache size cap in bytes (<= 0 uncapped)")
		jobs     = flag.Int("job-workers", 2, "concurrently executing jobs")
		queueCap = flag.Int("queue", 64, "max queued jobs before submissions get 503")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-shutdown deadline for running jobs")
		fleet    = flag.String("cluster", "", "comma-separated worker base URLs; run as coordinator over this fleet")
		telem    = flag.Bool("telemetry", false, "record execution spans for every request (structured span logs + telemetry histograms on /metrics); header-traced requests are recorded regardless")
		run      = cli.Register(flag.CommandLine, cli.Workers|cli.Topology|cli.Migrate)
	)
	if dup := duplicateFlags(os.Args[1:]); len(dup) > 0 {
		fmt.Fprintf(os.Stderr, "hmserved: flag repeated on command line: -%s\n", strings.Join(dup, ", -"))
		os.Exit(2)
	}
	flag.Parse()
	opts, err := run.Options()
	cli.Check("hmserved", err, opts.Validate(), validateFlags(*jobs, *queueCap, *drain))

	// Bind first (see the package comment). The bound address also names
	// the process in telemetry timelines, so two port-0 workers stay apart.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hmserved:", err)
		os.Exit(1)
	}
	bound := ln.Addr().String()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	rec := telemetry.NewRecorder()
	rec.SetProc("hmserved " + bound)
	if *telem {
		rec.SetEnabled(true)
		rec.SetLogger(logger)
		logger.Info("telemetry enabled")
	}

	cfg := serve.Config{
		CacheDir:      *cacheDir,
		CacheMaxBytes: *cacheMax,
		SimWorkers:    opts.Workers,
		JobWorkers:    *jobs,
		QueueCap:      *queueCap,
		Logger:        logger,
		Telemetry:     rec,
		Topology:      opts.Topology,
		Migrate:       opts.Migrate,
		MigratePolicy: opts.MigratePolicy,
	}
	if *fleet != "" {
		coord, err := cluster.New(cluster.Config{
			Workers: strings.Split(*fleet, ","),
			Logger:  logger,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "hmserved:", err)
			os.Exit(2)
		}
		defer coord.Close()
		cfg.Remote = coord.Run
		cfg.ExtraMetrics = coord.MetricsMap
		total, _ := coord.Workers()
		logger.Info("coordinator mode", "fleet_size", total)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hmserved:", err)
		os.Exit(1)
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", bound, "cache_dir", *cacheDir)
		errc <- httpSrv.Serve(ln)
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "hmserved:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("shutting down", "drain", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Warn("drain incomplete", "err", err)
	}
	srv.Close()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("http shutdown", "err", err)
	}
	logger.Info("stopped")
}

// duplicateFlags returns the names of flags that appear more than once in
// raw command-line args. The flag package silently lets the last
// occurrence win, which for a daemon means e.g. a stale -cache-dir earlier
// in an init script overriding the one an operator just added; repeated
// flags are almost always a config-management mistake, so the daemon
// refuses to start on them.
func duplicateFlags(args []string) []string {
	seen := map[string]int{}
	var dups []string
	for _, a := range args {
		if a == "--" {
			break // everything after is positional
		}
		if !strings.HasPrefix(a, "-") || a == "-" {
			continue
		}
		name := strings.TrimLeft(a, "-")
		if i := strings.IndexByte(name, '='); i >= 0 {
			name = name[:i]
		}
		if name == "" {
			continue
		}
		seen[name]++
		if seen[name] == 2 {
			dups = append(dups, name)
		}
	}
	return dups
}

// validateFlags checks the daemon's own flags; cli.Check reports its
// errors together with the shared run options' before exiting 2.
func validateFlags(jobWorkers, queueCap int, drain time.Duration) error {
	var errs []error
	if jobWorkers <= 0 {
		errs = append(errs, fmt.Errorf("-job-workers must be > 0, got %d", jobWorkers))
	}
	if queueCap <= 0 {
		errs = append(errs, fmt.Errorf("-queue must be > 0, got %d", queueCap))
	}
	if drain < 0 {
		errs = append(errs, fmt.Errorf("-drain must be >= 0, got %s", drain))
	}
	return errors.Join(errs...)
}
