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
// searcher (successive halving by default; "grid" is the exhaustive
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
		shrink    = flag.Int("shrink", 1, "divide simulated work by this factor for quick runs")
		workloads = flag.String("workloads", "", "comma-separated workload subset (default: the paper's 19)")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned text")
		points    = flag.Int("points", 50, "sample points for the cdf command")
		doPlot    = flag.Bool("plot", false, "render the cdf command as an ASCII chart")
		parallel  = flag.Int("parallel", 1, "render this many figures concurrently")
		workers   = flag.Int("workers", 0, "concurrent simulations per figure (0 = all CPUs)")
		outDir    = flag.String("out", "", "also write each figure's CSV to <out>/<id>.csv")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		server    = flag.String("server", "", "fetch figures from a running hmserved daemon at this base URL instead of simulating locally")
		srvTO     = flag.Duration("server-timeout", 10*time.Minute, "per-request timeout for -server fetches")
		srvRetry  = flag.Int("server-retries", 2, "retries (with backoff) for transient -server failures")
		fleet     = flag.String("cluster", "", "comma-separated hmserved worker URLs; shard each figure's simulations across this fleet")
		cVerify   = flag.Bool("cluster-verify", false, "with -cluster, also render each figure locally and fail unless byte-identical")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace-event JSON timeline of this run to the file (open in Perfetto)")
		cMetrics  = flag.String("cluster-metrics", "", "with -cluster, serve the coordinator's Prometheus /metrics on this address (e.g. :9090)")
		topo      = flag.String("topology", "", "memory-topology preset to simulate on (empty = the paper's Table 1 system; see hetsim.TopologyNames)")
		lanes     = flag.Int("lanes", 1, "parallel event lanes per simulation (output is byte-identical for any count)")
		migSpec   = flag.String("migrate", "", "add a dynamic page-migration arm to figures that support one: off | on | key=value,...")
		migPol    = flag.String("migrate-policy", "", "migration classifier: counter | ewma (overrides the -migrate spec)")
		doTune    = flag.Bool("tune", false, "autotune placement policy + migration config per workload instead of rendering figures")
		tuneBud   = flag.Int("tune-budget", heteromem.DefaultTuneBudget, "with -tune, max candidate evaluations per search")
		tuneStrat = flag.String("tune-strategy", heteromem.DefaultTuneStrategy, "with -tune, search strategy: grid | halving")
		list      = flag.Bool("list", false, "list every figure identifier with its one-line description and exit")
		probeSpec = flag.String("probe", "", "attach a flight recorder to every simulation: off | on | interval=N,samples=N,out=PATH,format=json|csv")
	)
	flag.Parse()
	if *list {
		for _, id := range heteromem.FigureIDs() {
			fmt.Printf("%-12s %s\n", id, heteromem.DescribeFigure(id))
		}
		return
	}
	budgetSet, strategySet := false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "tune-budget":
			budgetSet = true
		case "tune-strategy":
			strategySet = true
		}
	})
	if errs := validateFlags(*topo, *lanes, *migSpec, *migPol, *probeSpec,
		*doTune, *tuneBud, *tuneStrat, budgetSet, strategySet); len(errs) > 0 {
		for _, err := range errs {
			fmt.Fprintln(os.Stderr, "hmexp:", err)
		}
		os.Exit(2)
	}
	args := flag.Args()
	if len(args) == 0 && !*doTune {
		fmt.Fprintf(os.Stderr, "usage: hmexp [flags] all | cdf | %s\n", strings.Join(heteromem.FigureIDs(), " | "))
		os.Exit(2)
	}
	if *server != "" && *fleet != "" {
		fmt.Fprintln(os.Stderr, "hmexp: -server and -cluster are mutually exclusive")
		os.Exit(2)
	}
	probeCfg, _ := heteromem.ParseProbeSpec(*probeSpec) // validated above
	if *server != "" && probeCfg != nil {
		fmt.Fprintln(os.Stderr, "hmexp: -probe needs local simulation; probe the daemon's runs with ?probe= and GET /v1/jobs/{id}/progress instead of -server")
		os.Exit(2)
	}
	if *doTune && probeCfg != nil {
		fmt.Fprintln(os.Stderr, "hmexp: -probe applies to figure sweeps, not -tune searches")
		os.Exit(2)
	}
	if *cVerify && *fleet == "" {
		fmt.Fprintln(os.Stderr, "hmexp: -cluster-verify requires -cluster")
		os.Exit(2)
	}
	if *cMetrics != "" && *fleet == "" {
		fmt.Fprintln(os.Stderr, "hmexp: -cluster-metrics requires -cluster")
		os.Exit(2)
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
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

	opts := heteromem.Options{
		Shrink: *shrink, Workers: *workers, Topology: *topo, Lanes: *lanes,
		Migrate: *migSpec, MigratePolicy: *migPol,
	}
	if *workloads != "" {
		opts.Workloads = strings.Split(*workloads, ",")
	}
	if probeCfg != nil {
		opts.Probe = probeCfg
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
		err := runTune(root, wls, opts, coord, *server,
			&http.Client{Timeout: *srvTO}, *srvRetry, *tuneStrat, *tuneBud)
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

	var ids []string
	for _, a := range args {
		if a == "all" {
			ids = append(ids, heteromem.FigureIDs()...)
			continue
		}
		ids = append(ids, a)
	}

	render := func(sp *telemetry.Span, id string) (string, error) {
		var sb strings.Builder
		if *server != "" {
			if id == "cdf" {
				return "", fmt.Errorf("the cdf command is local-only; drop -server")
			}
			fr, err := fetchFigure(sp, *server, id, opts, &http.Client{Timeout: *srvTO}, *srvRetry)
			if err != nil {
				return "", err
			}
			if *outDir != "" {
				if err := os.MkdirAll(*outDir, 0o755); err != nil {
					return "", err
				}
				path := filepath.Join(*outDir, id+".csv")
				if err := os.WriteFile(path, []byte(fr.CSV), 0o644); err != nil {
					return "", err
				}
			}
			if *csv {
				sb.WriteString(fr.CSV)
				return sb.String(), nil
			}
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
			fmt.Fprintln(&sb)
			return sb.String(), nil
		}
		if id == "cdf" {
			wls := opts.Workloads
			if len(wls) == 0 {
				wls = []string{"bfs"}
			}
			for _, wl := range wls {
				if *doPlot {
					pts, err := cdfPoints(wl, *shrink)
					if err != nil {
						return "", err
					}
					sb.WriteString(plot.Line(fmt.Sprintf("CDF: %s (pages hot to cold)", wl), pts, 64, 16))
					continue
				}
				tb, err := experiments.PrintCDF(wl, heteromem.Options{Shrink: *shrink, Topology: *topo}, *points)
				if err != nil {
					return "", err
				}
				writeTable(&sb, tb, *csv)
			}
			return sb.String(), nil
		}
		fig, err := figure(sp, id)
		if err != nil {
			return "", err
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return "", err
			}
			path := filepath.Join(*outDir, id+".csv")
			if err := os.WriteFile(path, []byte(fig.Table.CSV()), 0o644); err != nil {
				return "", err
			}
		}
		writeTable(&sb, fig.Table, *csv)
		if !*csv {
			for _, n := range fig.Notes {
				fmt.Fprintln(&sb, "  note:", n)
			}
			if len(fig.Headline) > 0 {
				fmt.Fprintln(&sb, "  headline:")
				for _, k := range sortedKeys(fig.Headline) {
					fmt.Fprintf(&sb, "    %-28s %.3f\n", k, fig.Headline[k])
				}
			}
			if fig.Sweep.Total() > 0 {
				fmt.Fprintln(&sb, "  sweep:", fig.Sweep)
			}
			fmt.Fprintln(&sb)
		}
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

// validateFlags checks every spec-valued flag up front so one bad
// invocation reports all of its problems — each error naming the valid
// options — before exiting 2, matching hmserved's startup validation.
// budgetSet/strategySet report whether the -tune-* flags were set
// explicitly (flag.Visit), so setting them without -tune is rejected
// rather than silently ignored.
func validateFlags(topo string, lanes int, migSpec, migPol, probeSpec string,
	tune bool, budget int, strategy string, budgetSet, strategySet bool) []error {
	var errs []error
	if _, err := heteromem.TopologyPreset(topo); err != nil {
		errs = append(errs, err)
	}
	if lanes < 1 {
		errs = append(errs, fmt.Errorf("-lanes must be >= 1 (got %d)", lanes))
	}
	if _, err := heteromem.ParseMigrationSpec(migSpec); err != nil {
		errs = append(errs, fmt.Errorf("-migrate: %w", err))
	}
	if _, err := heteromem.ParseProbeSpec(probeSpec); err != nil {
		errs = append(errs, fmt.Errorf("-probe: %w", err))
	}
	if !heteromem.KnownMigrationPolicy(migPol) {
		errs = append(errs, fmt.Errorf("-migrate-policy: unknown policy %q (have %s)",
			migPol, strings.Join(heteromem.MigrationPolicies(), ", ")))
	}
	if !tune && (budgetSet || strategySet) {
		errs = append(errs, fmt.Errorf("-tune-budget and -tune-strategy require -tune"))
	}
	if tune {
		if budget < 1 {
			errs = append(errs, fmt.Errorf("-tune-budget must be >= 1 (got %d)", budget))
		}
		if !heteromem.KnownTuneStrategy(strategy) {
			errs = append(errs, fmt.Errorf("-tune-strategy: unknown strategy %q (have %s)",
				strategy, strings.Join(heteromem.TuneStrategies(), ", ")))
		}
	}
	return errs
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
			var r *heteromem.TuneReport
			r, err = fetchTune(sp, server, serve.TuneRequest{
				Problem: prob, Strategy: strategy, Budget: budget, Workers: opts.Workers,
			}, client, retries)
			if r != nil {
				rep = *r
			}
		} else {
			to := heteromem.TuneOptions{
				Strategy: strategy, Budget: budget,
				Workers: opts.Workers, Lanes: opts.Lanes, Span: sp,
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

// fetchTune submits one tuning problem to an hmserved daemon's POST
// /v1/tune endpoint. Retry semantics match fetchFigure: transport errors
// and 5xx retry with backoff, 4xx (bad specs) fail immediately.
func fetchTune(sp *telemetry.Span, base string, treq serve.TuneRequest, client *http.Client, retries int) (*heteromem.TuneReport, error) {
	u := strings.TrimSuffix(base, "/") + "/v1/tune"
	body, err := json.Marshal(treq)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			delay := 500 * time.Millisecond << (attempt - 1)
			if delay > 5*time.Second {
				delay = 5 * time.Second
			}
			fmt.Fprintf(os.Stderr, "hmexp: tune %s: retrying in %s: %v\n", treq.Workload, delay, lastErr)
			time.Sleep(delay)
		}
		rep, retryable, err := postTuneOnce(sp, client, u, body)
		if err == nil {
			return rep, nil
		}
		if !retryable {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("after %d attempts: %w", retries+1, lastErr)
}

// postTuneOnce performs a single tune submission; retryable reports
// whether the failure is transient.
func postTuneOnce(sp *telemetry.Span, client *http.Client, url string, body []byte) (rep *heteromem.TuneReport, retryable bool, err error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	telemetry.InjectHeader(req.Header, sp)
	resp, err := client.Do(req)
	if err != nil {
		return nil, true, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, true, err
	}
	if resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("server: %s", resp.Status)
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			err = fmt.Errorf("server: %s (%s)", e.Error, resp.Status)
		}
		return nil, resp.StatusCode >= 500, err
	}
	rep = new(heteromem.TuneReport)
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, false, fmt.Errorf("decoding tune response: %w", err)
	}
	return rep, false, nil
}

// flushTrace dumps the collected telemetry spans to -trace-out; a no-op
// until -trace-out installs the real writer. Exit paths that bypass defers
// (os.Exit) call it explicitly.
var flushTrace = func() {}

func writeTable(sb *strings.Builder, tb *heteromem.Table, csv bool) {
	if csv {
		sb.WriteString(tb.CSV())
		return
	}
	sb.WriteString(tb.String())
}

// fetchFigure asks an hmserved daemon for one figure, passing the local
// options through as query parameters. The client bounds each request
// (-server-timeout, covering the daemon's whole simulation if the figure
// is cold), and transient failures — transport errors, timeouts, 5xx —
// are retried up to `retries` times with exponential backoff. 4xx
// responses (unknown figure, bad options) fail immediately: retrying
// cannot change a deterministic rejection.
func fetchFigure(sp *telemetry.Span, base, id string, opts heteromem.Options, client *http.Client, retries int) (*serve.FigureResult, error) {
	u, err := url.Parse(strings.TrimSuffix(base, "/") + "/v1/figures/" + url.PathEscape(id))
	if err != nil {
		return nil, fmt.Errorf("bad -server URL: %w", err)
	}
	q := u.Query()
	if opts.Shrink > 1 {
		q.Set("shrink", fmt.Sprint(opts.Shrink))
	}
	if len(opts.Workloads) > 0 {
		q.Set("workloads", strings.Join(opts.Workloads, ","))
	}
	if opts.Workers > 0 {
		q.Set("workers", fmt.Sprint(opts.Workers))
	}
	if opts.Topology != "" {
		q.Set("topology", opts.Topology)
	}
	if opts.Migrate != "" {
		q.Set("migrate", opts.Migrate)
	}
	if opts.MigratePolicy != "" {
		q.Set("migrate-policy", opts.MigratePolicy)
	}
	u.RawQuery = q.Encode()

	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			delay := 500 * time.Millisecond << (attempt - 1)
			if delay > 5*time.Second {
				delay = 5 * time.Second
			}
			fmt.Fprintf(os.Stderr, "hmexp: %s: retrying in %s: %v\n", id, delay, lastErr)
			time.Sleep(delay)
		}
		fr, retryable, err := fetchOnce(sp, client, u.String())
		if err == nil {
			return fr, nil
		}
		if !retryable {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("after %d attempts: %w", retries+1, lastErr)
}

// fetchOnce performs a single figure fetch; retryable reports whether the
// failure is transient. A live span rides along in the trace header so the
// daemon's request log carries this run's trace ID.
func fetchOnce(sp *telemetry.Span, client *http.Client, url string) (fr *serve.FigureResult, retryable bool, err error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, false, err
	}
	telemetry.InjectHeader(req.Header, sp)
	resp, err := client.Do(req)
	if err != nil {
		return nil, true, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, true, err
	}
	if resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("server: %s", resp.Status)
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			err = fmt.Errorf("server: %s (%s)", e.Error, resp.Status)
		}
		return nil, resp.StatusCode >= 500, err
	}
	fr = new(serve.FigureResult)
	if err := json.Unmarshal(body, fr); err != nil {
		return nil, false, fmt.Errorf("decoding figure response: %w", err)
	}
	return fr, false, nil
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
