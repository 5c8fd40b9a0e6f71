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
//	GET    /v1/figures/{id}  reproduce a paper figure (?shrink=&workloads=&workers=&topology=)
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
// drain, zero job workers or queue capacity — is rejected at startup with
// exit status 2 rather than silently proceeding with the last value to
// win.
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
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hetsim/internal/cluster"
	"hetsim/internal/migrate"
	"hetsim/internal/serve"
	"hetsim/internal/telemetry"
	"hetsim/internal/topology"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		cacheDir = flag.String("cache-dir", ".hmserved-cache", "persistent result cache directory (empty disables the disk tier)")
		cacheMax = flag.Int64("cache-max-bytes", 1<<30, "disk cache size cap in bytes (<= 0 uncapped)")
		workers  = flag.Int("workers", 0, "concurrent simulations per job (0 = all CPUs)")
		jobs     = flag.Int("job-workers", 2, "concurrently executing jobs")
		queueCap = flag.Int("queue", 64, "max queued jobs before submissions get 503")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-shutdown deadline for running jobs")
		fleet    = flag.String("cluster", "", "comma-separated worker base URLs; run as coordinator over this fleet")
		telem    = flag.Bool("telemetry", false, "record execution spans for every request (structured span logs + telemetry histograms on /metrics); header-traced requests are recorded regardless")
		topo     = flag.String("topology", "", "default memory-topology preset for figure requests without ?topology= (empty = the paper's Table 1 system)")
		lanes    = flag.Int("lanes", 1, "parallel event lanes per simulation (results are byte-identical for any count)")
		migSpec  = flag.String("migrate", "", "default page-migration spec for figure requests without ?migrate= (off | on | key=value,...)")
		migPol   = flag.String("migrate-policy", "", "default migration classifier for figure requests without ?migrate-policy= (counter | ewma)")
	)
	if dup := duplicateFlags(os.Args[1:]); len(dup) > 0 {
		fmt.Fprintf(os.Stderr, "hmserved: flag repeated on command line: -%s\n", strings.Join(dup, ", -"))
		os.Exit(2)
	}
	flag.Parse()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	if errs := validateFlags(*workers, *jobs, *queueCap, *drain, *topo, *lanes, *migSpec, *migPol); len(errs) > 0 {
		for _, e := range errs {
			logger.Error("invalid configuration", "err", e)
		}
		os.Exit(2)
	}

	rec := telemetry.NewRecorder()
	rec.SetProc("hmserved " + *addr)
	if *telem {
		rec.SetEnabled(true)
		rec.SetLogger(logger)
		logger.Info("telemetry enabled")
	}

	cfg := serve.Config{
		CacheDir:      *cacheDir,
		CacheMaxBytes: *cacheMax,
		SimWorkers:    *workers,
		JobWorkers:    *jobs,
		QueueCap:      *queueCap,
		Logger:        logger,
		Telemetry:     rec,
		Topology:      *topo,
		Lanes:         *lanes,
		Migrate:       *migSpec,
		MigratePolicy: *migPol,
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

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "cache_dir", *cacheDir)
		errc <- httpSrv.ListenAndServe()
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

// validateFlags rejects values the serving layer would otherwise quietly
// clamp or misbehave on.
func validateFlags(workers, jobWorkers, queueCap int, drain time.Duration, topo string, lanes int, migSpec, migPol string) []error {
	var errs []error
	if workers < 0 {
		errs = append(errs, fmt.Errorf("-workers must be >= 0 (0 = all CPUs), got %d", workers))
	}
	if lanes < 1 {
		errs = append(errs, fmt.Errorf("-lanes must be >= 1, got %d", lanes))
	}
	if jobWorkers <= 0 {
		errs = append(errs, fmt.Errorf("-job-workers must be > 0, got %d", jobWorkers))
	}
	if queueCap <= 0 {
		errs = append(errs, fmt.Errorf("-queue must be > 0, got %d", queueCap))
	}
	if drain < 0 {
		errs = append(errs, fmt.Errorf("-drain must be >= 0, got %s", drain))
	}
	if _, err := topology.Preset(topo); err != nil {
		errs = append(errs, fmt.Errorf("-topology: %w", err))
	}
	if _, err := migrate.ParseSpec(migSpec); err != nil {
		errs = append(errs, fmt.Errorf("-migrate: %w", err))
	}
	if !migrate.KnownPolicy(migPol) {
		errs = append(errs, fmt.Errorf("-migrate-policy: unknown policy %q (have %s)",
			migPol, strings.Join(migrate.PolicyNames(), ", ")))
	}
	return errs
}
