// Command hmexp regenerates the paper's tables and figures.
//
// Examples:
//
//	hmexp all                                # every table and figure, full fidelity
//	hmexp -shrink 4 fig3 fig5                # two figures, quick mode
//	hmexp -workloads bfs,xsbench -csv fig6
//	hmexp -workloads bfs -plot cdf           # ASCII Figure 6 curve
//	hmexp -topology gh200 fig3               # rerun a figure on a GH200-class topology
//	hmexp -shrink 8 figtopo                  # every policy across every topology preset
//	hmexp -parallel 4 all                    # figures rendered concurrently
//	hmexp -workers 1 fig3                    # force sequential simulations
//	hmexp -server http://localhost:8080 fig3 # offload sweeps to hmserved
//	hmexp -cluster http://w1:8081,http://w2:8082 fig3   # shard sweeps across a fleet
//	hmexp -cluster http://w1:8081,http://w2:8082 -cluster-verify fig3
//	hmexp -trace-out sweep.json -shrink 16 fig2a     # Perfetto timeline of the run
//	hmexp -tune -shrink 8 bfs                # autotune bfs's placement + migration config
//	hmexp -tune -tune-strategy grid -tune-budget 8 -topology gh200 bfs
//	hmexp -list                              # every figure id with its one-line description
//	hmexp -probe on -shrink 16 figmig        # flight-recorder summary of every simulation
//	hmexp -probe interval=5000,out=series.csv -shrink 16 figmig
//	hmexp -probe on -trace-out t.json figmig # probe series as Perfetto counter tracks
//
// Each figure's simulations run on a worker pool sized by -workers
// (default: all CPUs); -parallel additionally renders whole figures
// concurrently. Both paths go through the same deterministic sweep
// executor, so output is identical for any -parallel/-workers setting.
//
// With -server, figures are fetched from a running hmserved daemon
// (cmd/hmserved) instead of being simulated locally, sharing its
// persistent result cache with every other client. Requests time out
// after -server-timeout and transient failures (transport errors, 5xx)
// are retried -server-retries times with exponential backoff. The
// daemon's determinism guarantee makes the output identical to a local
// run.
//
// With -cluster, figures are rendered locally but each cache-missing
// simulation is dispatched to the fleet of hmserved workers, routed by
// rendezvous hashing with retries, failover, and graceful local fallback
// (an empty or dead fleet just means a slower, purely local run).
// -cluster-verify additionally re-renders each figure locally and fails
// unless the two encodings are byte-identical. A dispatch summary is
// printed to stderr on exit. -server and -cluster are mutually exclusive.
//
// With -tune, hmexp autotunes instead of rendering figures: for each
// workload (positional args, or -workloads, default bfs) it searches the
// joint placement-policy + migration-spec space (internal/tune) under
// -tune-budget candidate evaluations and prints the winning configuration,
// the oracle comparison, and the search trace. -tune-strategy picks the
// search schedule (successive halving by default; "grid" is its one-rung
// baseline). -server runs the search on the daemon via POST /v1/tune;
// -cluster dispatches candidate evaluations across the fleet. Reports are
// byte-identical on every path.
//
// With -trace-out, the run's execution telemetry (internal/telemetry) is
// recorded and written as Chrome trace-event JSON, loadable in Perfetto
// (ui.perfetto.dev): per-figure sweeps, cache-tier consultations, cluster
// dispatches, and — when workers run with -telemetry or receive the trace
// header — the worker-side queue waits and simulation runs, all under one
// trace ID. Results are byte-identical with or without tracing.
//
// With -probe, every simulation a figure dispatches carries an in-run
// flight recorder (internal/obs) sampling per-pool bandwidth utilization,
// occupancy, migration activity, and queue depths on a fixed
// simulated-time grid. Each run's series is dumped to
// <out>.<workload.policy.key8>.<json|csv> when the spec names an out=
// path, or summarized on stderr otherwise; with -trace-out the series
// additionally appear as Perfetto counter tracks in the same timeline.
// Probed runs bypass the result cache and the cluster fleet by design
// (the series is a local side channel), so -probe trades throughput for
// visibility; figures and tables stay byte-identical. -probe requires
// local simulation and is rejected with -server — probe a daemon's runs
// with ?probe= on its REST API and stream GET /v1/jobs/{id}/progress
// instead.
//
// Flags must precede the figure identifiers (standard Go flag parsing).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"hetsim"
	"hetsim/cmd/internal/cli"
	"hetsim/internal/cluster"
	"hetsim/internal/experiments"
	"hetsim/internal/experiments/pool"
	"hetsim/internal/plot"
	"hetsim/internal/prof"
	"hetsim/internal/serve"
	"hetsim/internal/telemetry"
)

func main() {
	var (
		workloads = flag.String("workloads", "", "comma-separated workload subset (default: the paper's 19)")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned text")
		points    = flag.Int("points", 50, "sample points for the cdf command")
		doPlot    = flag.Bool("plot", false, "render the cdf command as an ASCII chart")
		parallel  = flag.Int("parallel", 1, "render this many figures concurrently")
		outDir    = flag.String("out", "", "also write each figure's CSV to <out>/<id>.csv")
		server    = flag.String("server", "", "fetch figures from a running hmserved daemon at this base URL instead of simulating locally")
		srvTO     = flag.Duration("server-timeout", 10*time.Minute, "per-request timeout for -server fetches")
		srvRetry  = flag.Int("server-retries", 2, "retries (with backoff) for transient -server failures")
		fleet     = flag.String("cluster", "", "comma-separated hmserved worker URLs; shard each figure's simulations across this fleet")
		cVerify   = flag.Bool("cluster-verify", false, "with -cluster, also render each figure locally and fail unless byte-identical")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace-event JSON timeline of this run to the file (open in Perfetto)")
		cMetrics  = flag.String("cluster-metrics", "", "with -cluster, serve the coordinator's Prometheus /metrics on this address (e.g. :9090)")
		doTune    = flag.Bool("tune", false, "autotune placement policy + migration config per workload instead of rendering figures")
		tuneBud   = flag.Int("tune-budget", heteromem.DefaultTuneBudget, "with -tune, max candidate evaluations per search")
		tuneStrat = flag.String("tune-strategy", heteromem.DefaultTuneStrategy, "with -tune, search strategy: grid | halving")
		list      = flag.Bool("list", false, "list every figure identifier with its one-line description and exit")
		run       = cli.Register(flag.CommandLine, cli.Shrink|cli.Workers|cli.Topology|cli.Migrate|cli.Probe|cli.Profile)
	)
	flag.Parse()
	if *list {
		for _, id := range heteromem.FigureIDs() {
			fmt.Printf("%-12s %s\n", id, heteromem.DescribeFigure(id))
		}
		return
	}
	opts, probeErr := run.Options()
	if *workloads != "" {
		opts.Workloads = strings.Split(*workloads, ",")
	}
	inv := invocation{
		server: *server, fleet: *fleet, clusterMetrics: *cMetrics, clusterVerify: *cVerify,
		tune: *doTune, probe: opts.Probe != nil, budget: *tuneBud, strategy: *tuneStrat,
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "tune-budget":
			inv.budgetSet = true
		case "tune-strategy":
			inv.strategySet = true
		}
	})
	cli.Check("hmexp", probeErr, opts.Validate(), validateFlags(inv))
	args := flag.Args()
	if len(args) == 0 && !*doTune {
		fmt.Fprintf(os.Stderr, "usage: hmexp [flags] all | cdf | %s\n", strings.Join(heteromem.FigureIDs(), " | "))
		os.Exit(2)
	}
	var ids []string
	for _, a := range args {
		if a == "all" {
			ids = append(ids, heteromem.FigureIDs()...)
			continue
		}
		ids = append(ids, a)
	}
	if !*doTune {
		var errs []error
		for _, id := range ids {
			errs = append(errs, experiments.CheckFigure(id, opts))
		}
		cli.Check("hmexp", errs...)
	}
	stopProf, err := prof.Start(run.CPUProfile, run.MemProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	// -probe series accumulate as Chrome counter records so -trace-out can
	// merge them into the same Perfetto timeline. The sink runs on worker
	// goroutines; sorted before writing for a deterministic trace file.
	var (
		probeMu       sync.Mutex
		probeCounters []telemetry.Counter
	)

	// -trace-out turns on the process recorder and, at exit (success or
	// failure), dumps everything it collected — including spans imported
	// from workers and any -probe counter series — as a Perfetto-loadable
	// Chrome trace.
	var root *telemetry.Span
	if *traceOut != "" {
		telemetry.Default.SetEnabled(true)
		telemetry.Default.SetProc("hmexp")
		root = telemetry.Default.Trace("").Start(nil, "hmexp")
		root.SetAttr("args", strings.Join(args, " "))
		flushTrace = func() {
			root.End()
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hmexp: trace-out:", err)
				return
			}
			defer f.Close()
			recs := telemetry.Default.Records()
			probeMu.Lock()
			counters := append([]telemetry.Counter(nil), probeCounters...)
			probeMu.Unlock()
			sort.Slice(counters, func(i, j int) bool {
				a, b := counters[i], counters[j]
				if a.Proc != b.Proc {
					return a.Proc < b.Proc
				}
				if a.Name != b.Name {
					return a.Name < b.Name
				}
				return a.TS < b.TS
			})
			if err := telemetry.WriteChromeTraceCounters(f, recs, counters); err != nil {
				fmt.Fprintln(os.Stderr, "hmexp: trace-out:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "hmexp: wrote %d spans, %d counter events (trace %s) to %s\n",
				len(recs), len(counters), root.TraceID(), *traceOut)
		}
		defer flushTrace()
	}

	if probeCfg := opts.Probe; probeCfg != nil {
		opts.ProbeSink = func(label string, snap heteromem.ProbeSnapshot) {
			probeMu.Lock()
			probeCounters = append(probeCounters, snap.Counters("probe:"+label)...)
			probeMu.Unlock()
			if probeCfg.Out == "" {
				fmt.Fprintf(os.Stderr, "hmexp: probe %s: %s\n", label, snap.Summary())
				return
			}
			path := fmt.Sprintf("%s.%s.%s", probeCfg.Out, label, probeCfg.EffectiveFormat())
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hmexp: probe:", err)
				return
			}
			defer f.Close()
			if err := snap.Write(f, probeCfg.EffectiveFormat()); err != nil {
				fmt.Fprintln(os.Stderr, "hmexp: probe:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "hmexp: probe: wrote %s (%s)\n", path, snap.Summary())
		}
	}

	var coord *cluster.Coordinator
	if *fleet != "" {
		var err error
		coord, err = cluster.New(cluster.Config{Workers: strings.Split(*fleet, ",")})
		if err != nil {
			fatal(err)
		}
		defer coord.Close()
	}
	if *cMetrics != "" {
		go func() {
			if err := http.ListenAndServe(*cMetrics, coord.MetricsHandler()); err != nil {
				fmt.Fprintln(os.Stderr, "hmexp: cluster-metrics:", err)
			}
		}()
	}

	client := &http.Client{Timeout: *srvTO}

	// -tune replaces figure rendering with a policy-autotuning search per
	// workload (positional args name workloads here, not figures).
	if *doTune {
		wls := args
		if len(wls) == 0 {
			wls = opts.Workloads
		}
		if len(wls) == 0 {
			wls = []string{"bfs"}
		}
		err := runTune(root, wls, opts, coord, *server, client, *srvRetry, *tuneStrat, *tuneBud)
		if coord != nil {
			fmt.Fprintln(os.Stderr, "hmexp:", coord.String())
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	// figure renders one figure: sharded across the fleet in cluster mode
	// (optionally verified against a local render), locally otherwise. sp
	// scopes the figure's telemetry (nil when -trace-out is off).
	figure := func(sp *telemetry.Span, id string) (heteromem.Fig, error) {
		fopts := opts
		fopts.Span = sp
		switch {
		case coord != nil && *cVerify:
			return coord.VerifyFigure(id, fopts)
		case coord != nil:
			return coord.Figure(id, fopts)
		default:
			return heteromem.Figure(id, fopts)
		}
	}

	// render prints one figure from its wire form, fetched from the daemon
	// with -server or rendered locally; a local render adds its sweep line.
	render := func(sp *telemetry.Span, id string) (string, error) {
		if id == "cdf" {
			if *server != "" {
				return "", fmt.Errorf("the cdf command is local-only; drop -server")
			}
			return renderCDF(opts, *doPlot, *csv, *points)
		}
		var (
			fr    *serve.FigureResult
			sweep heteromem.SweepStats
		)
		if *server != "" {
			u := strings.TrimSuffix(*server, "/") + "/v1/figures/" + url.PathEscape(id)
			if q := serve.EncodeFigureQuery(opts); q != "" {
				u += "?" + q
			}
			fr = new(serve.FigureResult)
			if err := fetch(sp, client, *srvRetry, id, http.MethodGet, u, nil, fr); err != nil {
				return "", err
			}
		} else {
			fig, err := figure(sp, id)
			if err != nil {
				return "", err
			}
			fr, sweep = serve.NewFigureResult(fig), fig.Sweep
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return "", err
			}
			if err := os.WriteFile(filepath.Join(*outDir, id+".csv"), []byte(fr.CSV), 0o644); err != nil {
				return "", err
			}
		}
		if *csv {
			return fr.CSV, nil
		}
		var sb strings.Builder
		sb.WriteString(fr.Text)
		for _, n := range fr.Notes {
			fmt.Fprintln(&sb, "  note:", n)
		}
		if len(fr.Headline) > 0 {
			fmt.Fprintln(&sb, "  headline:")
			for _, k := range sortedKeys(fr.Headline) {
				fmt.Fprintf(&sb, "    %-28s %.3f\n", k, fr.Headline[k])
			}
		}
		if sweep.Total() > 0 {
			fmt.Fprintln(&sb, "  sweep:", sweep)
		}
		fmt.Fprintln(&sb)
		return sb.String(), nil
	}

	// Render figures through the same worker-pool executor the figures use
	// internally, printing in submission order. Each figure is independent
	// and deterministic, so -parallel changes wall time only.
	type rendered struct {
		text string
		err  error
	}
	p := pool.Pool[string, rendered]{
		Workers: *parallel,
		Run: func(sp *telemetry.Span, id string) (rendered, error) {
			if sp != nil {
				sp.SetAttr("figure", id)
			}
			text, err := render(sp, id)
			return rendered{text, err}, nil
		},
	}
	outs, _, err := p.MapSpan(root, ids)
	if err != nil {
		fatal(err)
	}
	failed := false
	for i, out := range outs {
		fmt.Print(out.text)
		if out.err != nil {
			failed = true
			fmt.Fprintf(os.Stderr, "hmexp: %s: %v\n", ids[i], out.err)
		}
	}
	if coord != nil {
		fmt.Fprintln(os.Stderr, "hmexp:", coord.String())
	}
	if failed {
		stopProf()
		flushTrace()
		os.Exit(1)
	}
}

// invocation holds what validateFlags checks: hmexp's own flags, and
// whether -probe attaches a recorder. budgetSet and strategySet report
// whether the -tune-* flags were given (flag.Visit), so setting them
// without -tune is rejected rather than silently ignored.
type invocation struct {
	server, fleet, clusterMetrics string
	clusterVerify, tune, probe    bool
	budget                        int
	strategy                      string
	budgetSet, strategySet        bool
}

// validateFlags checks hmexp's own flags: the -tune-* values and the
// combinations of -server, -cluster and -probe. cli.Check reports its
// errors together with the shared run options' before exiting 2.
func validateFlags(in invocation) error {
	var errs []error
	if !in.tune && (in.budgetSet || in.strategySet) {
		errs = append(errs, fmt.Errorf("-tune-budget and -tune-strategy require -tune"))
	}
	if in.tune {
		if in.budget < 1 {
			errs = append(errs, fmt.Errorf("-tune-budget must be >= 1 (got %d)", in.budget))
		}
		if !heteromem.KnownTuneStrategy(in.strategy) {
			errs = append(errs, fmt.Errorf("-tune-strategy: unknown strategy %q (have %s)",
				in.strategy, strings.Join(heteromem.TuneStrategies(), ", ")))
		}
	}
	if in.server != "" && in.fleet != "" {
		errs = append(errs, fmt.Errorf("-server and -cluster are mutually exclusive"))
	}
	if in.probe && in.server != "" {
		errs = append(errs, fmt.Errorf("-probe needs local simulation; probe the daemon's runs with ?probe= and GET /v1/jobs/{id}/progress instead of -server"))
	}
	if in.probe && in.tune {
		errs = append(errs, fmt.Errorf("-probe applies to figure sweeps, not -tune searches"))
	}
	if in.clusterVerify && in.fleet == "" {
		errs = append(errs, fmt.Errorf("-cluster-verify requires -cluster"))
	}
	if in.clusterMetrics != "" && in.fleet == "" {
		errs = append(errs, fmt.Errorf("-cluster-metrics requires -cluster"))
	}
	return errors.Join(errs...)
}

// runTune autotunes each workload's placement + migration configuration
// and prints the winning config, the oracle comparison, and the search
// trace. With -server the search runs on the daemon (POST /v1/tune); with
// -cluster, locally with cache-missing evaluations dispatched to the
// fleet. Every path prints byte-identical reports (sweep statistics go to
// stderr: they vary with cache state, the report does not).
func runTune(root *telemetry.Span, wls []string, opts heteromem.Options, coord *cluster.Coordinator,
	server string, client *http.Client, retries int, strategy string, budget int) error {
	for _, wl := range wls {
		sp := root.Child("tune.workload")
		if sp != nil {
			sp.SetAttr("workload", wl)
		}
		prob := heteromem.TuneProblem{Workload: wl, Topology: opts.Topology, Shrink: opts.Shrink}
		var (
			rep heteromem.TuneReport
			err error
		)
		if server != "" {
			var body []byte
			body, err = json.Marshal(serve.TuneRequest{
				Problem: prob, Strategy: strategy, Budget: budget, Workers: opts.Workers,
			})
			if err == nil {
				err = fetch(sp, client, retries, "tune "+wl, http.MethodPost,
					strings.TrimSuffix(server, "/")+"/v1/tune", body, &rep)
			}
		} else {
			to := heteromem.TuneOptions{
				Strategy: strategy, Budget: budget,
				Workers: opts.Workers, Span: sp,
			}
			if coord != nil {
				to.Remote = coord.Run
			}
			rep, err = heteromem.Tune(prob, to)
		}
		sp.End()
		if err != nil {
			return fmt.Errorf("tune %s: %w", wl, err)
		}
		fmt.Print(rep.Text())
		fmt.Println()
		if rep.Sweep.Total() > 0 {
			fmt.Fprintln(os.Stderr, "hmexp: tune sweep:", rep.Sweep)
		}
	}
	return nil
}

// fetch sends one request (a figure GET or a tune POST with a JSON body)
// to an hmserved daemon and decodes the JSON answer into out. The client
// bounds each attempt (-server-timeout, covering the daemon's whole
// simulation when the result is cold); transport errors and 5xx answers
// are retried up to retries times with capped exponential backoff. A 4xx
// answer (unknown figure, bad options or spec) fails at once: retrying
// cannot change a deterministic rejection. label names the request in
// retry notes.
func fetch(sp *telemetry.Span, client *http.Client, retries int, label, method, url string, body []byte, out any) error {
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			delay := min(500*time.Millisecond<<(attempt-1), 5*time.Second)
			fmt.Fprintf(os.Stderr, "hmexp: %s: retrying in %s: %v\n", label, delay, lastErr)
			time.Sleep(delay)
		}
		retryable, err := fetchOnce(sp, client, method, url, body, out)
		if err == nil || !retryable {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("after %d attempts: %w", retries+1, lastErr)
}

// fetchOnce makes one attempt of fetch; retryable reports whether its
// failure is transient. A live span rides along in the trace header so the
// daemon's request log carries this run's trace ID.
func fetchOnce(sp *telemetry.Span, client *http.Client, method, url string, body []byte, out any) (retryable bool, err error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	telemetry.InjectHeader(req.Header, sp)
	resp, err := client.Do(req)
	if err != nil {
		return true, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return true, err
	}
	if resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("server: %s", resp.Status)
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			err = fmt.Errorf("server: %s (%s)", e.Error, resp.Status)
		}
		return resp.StatusCode >= 500, err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return false, fmt.Errorf("decoding response: %w", err)
	}
	return false, nil
}

// flushTrace dumps the collected telemetry spans to -trace-out; a no-op
// until -trace-out installs the real writer. Exit paths that bypass defers
// (os.Exit) call it explicitly.
var flushTrace = func() {}

// renderCDF prints the cdf command: each selected workload's page CDF
// (Figure 6) as a table, or as an ASCII chart with -plot.
func renderCDF(opts heteromem.Options, doPlot, csv bool, points int) (string, error) {
	var sb strings.Builder
	wls := opts.Workloads
	if len(wls) == 0 {
		wls = []string{"bfs"}
	}
	for _, wl := range wls {
		if doPlot {
			pts, err := cdfPoints(wl, opts.Shrink)
			if err != nil {
				return "", err
			}
			sb.WriteString(plot.Line(fmt.Sprintf("CDF: %s (pages hot to cold)", wl), pts, 64, 16))
			continue
		}
		tb, err := experiments.PrintCDF(wl, heteromem.Options{Shrink: opts.Shrink, Topology: opts.Topology}, points)
		if err != nil {
			return "", err
		}
		if csv {
			sb.WriteString(tb.CSV())
		} else {
			sb.WriteString(tb.String())
		}
	}
	return sb.String(), nil
}

func cdfPoints(workload string, shrink int) ([][2]float64, error) {
	res, err := heteromem.Profile(workload, heteromem.TrainDataset(), shrink)
	if err != nil {
		return nil, err
	}
	cdf := heteromem.PageCDF(res).CDF()
	pts := make([][2]float64, 0, 101)
	step := len(cdf) / 100
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(cdf); i += step {
		pts = append(pts, [2]float64{cdf[i].PageFrac, cdf[i].AccessFrac})
	}
	return pts, nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func fatal(err error) {
	prof.StopAll() // os.Exit bypasses defers; flush profiles explicitly
	flushTrace()
	fmt.Fprintln(os.Stderr, "hmexp:", err)
	os.Exit(1)
}
