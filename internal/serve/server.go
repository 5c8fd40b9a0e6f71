package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"hetsim/internal/experiments"
	"hetsim/internal/experiments/pool"
	"hetsim/internal/metrics"
	"hetsim/internal/obs"
	"hetsim/internal/telemetry"
	"hetsim/internal/tune"
)

// Config tunes a Server.
type Config struct {
	// CacheDir roots the persistent disk cache; "" disables the disk tier
	// (results then live only in process memory).
	CacheDir string
	// CacheMaxBytes caps the disk cache (<= 0 means uncapped).
	CacheMaxBytes int64
	// SimWorkers caps concurrent simulations per job (0 = GOMAXPROCS).
	SimWorkers int
	// JobWorkers caps concurrently executing jobs (default 2).
	JobWorkers int
	// QueueCap bounds the number of queued-but-not-running jobs
	// (default 64); submissions beyond it get 503.
	QueueCap int
	// Logger receives structured request and job logs (default: slog
	// default logger).
	Logger *slog.Logger
	// Remote, when non-nil, turns this daemon into a cluster coordinator:
	// every cache-missing simulation is offered to it (a worker fleet,
	// internal/cluster) before running locally. Results are bit-identical
	// either way.
	Remote experiments.RemoteRunner
	// ExtraMetrics, when non-nil, is polled on every /metrics scrape and
	// merged into the counter set — the hook the cluster coordinator uses
	// to export per-worker dispatch metrics through the daemon's existing
	// metrics path. Keys may carry Prometheus label syntax
	// (`name{label="v"}`).
	ExtraMetrics func() map[string]float64
	// Telemetry, when non-nil, is the daemon's span recorder (see
	// internal/telemetry): requests arriving with a telemetry.TraceHeader
	// are traced into it under the propagated trace ID, its histograms are
	// merged into /metrics, and — when enabled — every request gets a
	// trace. nil gets a private, disabled recorder; header-carrying
	// requests are still traced request-scoped so tracing clients get
	// their spans back.
	Telemetry *telemetry.Recorder
}

// FigureResult is the wire form of a reproduced figure. It deliberately
// carries no sweep statistics or timings: every field is a deterministic
// function of the figure id and options, so the marshaled response is
// byte-identical whether its simulations ran fresh, hit the in-process
// cache, or were loaded from the disk tier. (Per-request sweep stats are
// on the job object and aggregated into /metrics instead.)
type FigureResult struct {
	ID       string             `json:"id"`
	Title    string             `json:"title"`
	Text     string             `json:"text"`
	CSV      string             `json:"csv"`
	Headline map[string]float64 `json:"headline,omitempty"`
	Notes    []string           `json:"notes,omitempty"`
}

// NewFigureResult renders a figure into its timing-free wire form — the
// canonical encoding used for byte-identity comparisons by the daemon's
// figure endpoint and the cluster merge stage.
func NewFigureResult(fig experiments.Figure) *FigureResult {
	return &FigureResult{
		ID:       fig.ID,
		Title:    fig.Title,
		Text:     fig.Table.String(),
		CSV:      fig.Table.CSV(),
		Headline: fig.Headline,
		Notes:    fig.Notes,
	}
}

// Server is the hmserved daemon: job queue, two-tier result cache, and
// HTTP API. Create with New, expose via Handler, stop with Shutdown (to
// drain) then Close.
type Server struct {
	cfg   Config
	log   *slog.Logger
	cache *pool.Cache[experiments.Result]
	disk  *DiskCache
	mux   *http.ServeMux
	start time.Time
	rec   *telemetry.Recorder
	// figureDefaults are the options of a figure request that sets no
	// query parameter (decodeFigureQuery's base).
	figureDefaults experiments.Options

	rootCtx    context.Context
	rootCancel context.CancelFunc
	workersWG  sync.WaitGroup

	mu            sync.Mutex
	jobs          map[string]*Job
	byKey         map[string]*Job
	queue         chan *Job
	seq           int
	inflight      int // jobs queued or running (not yet terminal)
	draining      bool
	jobsSubmitted int
	jobsDeduped   int
	jobsProbed    int
	sweepTotal    metrics.SweepStats
	httpRequests  uint64
	tuneRuns      int
	tuneEvals     int

	// Test seams: runSweep executes a config grid, figure reproduces a
	// figure, tune runs a policy search. Defaults run real simulations
	// through the server cache. The span is the job's telemetry scope (nil
	// when the request is untraced).
	runSweep func(ctx context.Context, sp *telemetry.Span, cfgs []experiments.RunConfig) ([]experiments.Result, metrics.SweepStats, error)
	figure   func(ctx context.Context, sp *telemetry.Span, id string, opts experiments.Options) (experiments.Figure, error)
	tune     func(ctx context.Context, sp *telemetry.Span, p tune.Problem, o tune.Options) (tune.Report, error)
}

// New builds a Server, opening the disk cache and starting the job
// workers. Call Close (after Shutdown, for a graceful stop) to release
// them.
func New(cfg Config) (*Server, error) {
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	s := &Server{
		cfg:   cfg,
		log:   cfg.Logger,
		cache: experiments.NewResultCache(),
		jobs:  make(map[string]*Job),
		byKey: make(map[string]*Job),
		queue: make(chan *Job, cfg.QueueCap),
		start: time.Now(),
	}
	s.figureDefaults = experiments.Options{Shrink: 1, Workers: cfg.SimWorkers, Cache: s.cache, Remote: cfg.Remote}
	s.rec = cfg.Telemetry
	if s.rec == nil {
		s.rec = telemetry.NewRecorder()
	}
	if cfg.CacheDir != "" {
		disk, err := OpenDiskCache(cfg.CacheDir, cfg.CacheMaxBytes)
		if err != nil {
			return nil, fmt.Errorf("serve: opening disk cache: %w", err)
		}
		s.disk = disk
		s.cache.SetBackend(disk)
	}
	s.runSweep = func(_ context.Context, sp *telemetry.Span, cfgs []experiments.RunConfig) ([]experiments.Result, metrics.SweepStats, error) {
		e := experiments.NewDistributedExecutor(cfg.SimWorkers, s.cache, cfg.Remote).WithSpan(sp)
		res, err := e.Map(cfgs)
		return res, e.Stats(), err
	}
	s.figure = func(_ context.Context, sp *telemetry.Span, id string, opts experiments.Options) (experiments.Figure, error) {
		fn, ok := experiments.ByID(id)
		if !ok {
			return experiments.Figure{}, fmt.Errorf("unknown figure %q", id)
		}
		opts.Span = sp
		return fn(opts)
	}
	s.tune = func(_ context.Context, sp *telemetry.Span, p tune.Problem, o tune.Options) (tune.Report, error) {
		o.Span = sp
		return tune.Run(p, o)
	}
	s.rootCtx, s.rootCancel = context.WithCancel(context.Background())
	s.workersWG.Add(cfg.JobWorkers)
	for i := 0; i < cfg.JobWorkers; i++ {
		go s.runJobs(s.rootCtx)
	}
	s.buildMux()
	return s, nil
}

// Handler returns the daemon's HTTP handler with request logging.
func (s *Server) Handler() http.Handler { return s.logged(s.mux) }

// Shutdown drains the daemon: new submissions are rejected with 503,
// still-queued jobs are canceled, and running jobs are given until ctx's
// deadline to finish. It returns nil once every job has reached a terminal
// state, or ctx.Err() if the drain deadline expired with jobs still
// running (those jobs are abandoned when Close cancels the workers).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	// Cancel everything still waiting in the queue; running jobs keep
	// going (simulations are not preemptible mid-run).
	for {
		select {
		case j := <-s.queue:
			if j.State == JobQueued {
				s.cancelLocked(j)
			}
		default:
			goto drained
		}
	}
drained:
	s.mu.Unlock()

	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		n := s.inflight
		s.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			s.log.Warn("drain deadline expired", "jobs_abandoned", n)
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Close stops the job workers. Call after Shutdown for a graceful stop;
// calling it directly abandons running jobs.
func (s *Server) Close() {
	s.rootCancel()
	s.workersWG.Wait()
}

// Draining reports whether the server has begun shutdown.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Server) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmitRun)
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmitSweep)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /v1/jobs/{id}/progress", s.handleProgress)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /v1/figures/{name}", s.handleFigure)
	mux.HandleFunc("POST /v1/tune", s.handleTune)
	mux.HandleFunc("POST /v1/cluster/run", s.handleClusterRun)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
}

// statusRecorder captures the response status for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += n
	return n, err
}

// logged wraps h with structured request logging and a request counter.
// Requests carrying a telemetry.TraceHeader log their trace ID, so daemon
// logs correlate with the client's exported timeline.
func (s *Server) logged(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(rec, r)
		s.mu.Lock()
		s.httpRequests++
		s.mu.Unlock()
		args := []any{
			"method", r.Method, "path", r.URL.Path,
			"status", rec.status, "bytes", rec.bytes,
			"dur_ms", float64(time.Since(start).Microseconds()) / 1000,
		}
		if id, _, ok := telemetry.ExtractHeader(r.Header); ok {
			args = append(args, "trace", id)
		}
		s.log.Info("request", args...)
	})
}

// requestTrace begins the telemetry scope of one API request: a root span
// named like "rpc.figure" under the request's propagated trace ID (when
// the telemetry.TraceHeader is present — such traces are request-scoped,
// so the client gets its spans back even if this daemon's own telemetry is
// off), or under a fresh trace when the daemon's recorder is enabled, or
// nil/nil when neither — in which case every downstream span operation is
// a no-op. Callers must End the returned span before reading tr.Records.
func (s *Server) requestTrace(r *http.Request, name string) (*telemetry.Trace, *telemetry.Span) {
	if id, parent, ok := telemetry.ExtractHeader(r.Header); ok {
		tr := s.rec.RequestTrace(id)
		sp := tr.Start(nil, name)
		if parent != 0 {
			sp.SetAttr("client_span", parent)
		}
		return tr, sp
	}
	if s.rec.Enabled() {
		tr := s.rec.Trace("")
		return tr, tr.Start(nil, name)
	}
	return nil, nil
}

// writeJSON marshals v deterministically (encoding/json sorts map keys)
// and writes it with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
	w.Write([]byte("\n"))
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// submitStatus maps a submission error to an HTTP status.
func submitError(w http.ResponseWriter, err error) {
	writeError(w, http.StatusServiceUnavailable, err.Error())
}

// handleSubmitRun enqueues a single RunConfig; one RunConfig.Validate
// refuses is a 400, and no job. Idempotent: the job is keyed by the
// config's canonical hash — unless ?probe= attaches a flight recorder,
// which makes the submission uncacheable and never deduplicated (each
// probed job owns its own recorder, streamed via /progress).
func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	var rc experiments.RunConfig
	if err := json.NewDecoder(r.Body).Decode(&rc); err != nil {
		writeError(w, http.StatusBadRequest, "decoding RunConfig: "+err.Error())
		return
	}
	if err := rc.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	probeCfg, err := parseProbe(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	cfgs := []experiments.RunConfig{rc}
	key := ""
	var probes []*obs.Probe
	if probeCfg == nil {
		if k, ok := experiments.ConfigKey(rc); ok {
			key = k
		}
	} else if probes, err = probeConfigs(*probeCfg, cfgs); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	_, root := s.requestTrace(r, "rpc.run")
	defer root.End()
	j, err := s.submit("run", key, root, s.sweepExec(cfgs))
	if err != nil {
		submitError(w, err)
		return
	}
	s.adoptProbes(j, probes)
	s.respondJob(w, j, http.StatusAccepted)
}

// sweepRequest is the body of POST /v1/sweeps.
type sweepRequest struct {
	Configs []experiments.RunConfig `json:"configs"`
}

// handleSubmitSweep enqueues a config grid as one job; a grid holding a
// config RunConfig.Validate refuses is a 400 naming the config's index,
// and no job. ?probe= attaches a flight recorder to every config in the
// grid; like probed runs, probed sweeps are never deduplicated.
func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding sweep request: "+err.Error())
		return
	}
	if len(req.Configs) == 0 {
		writeError(w, http.StatusBadRequest, "sweep has no configs")
		return
	}
	for i, rc := range req.Configs {
		if err := rc.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("config %d: %v", i, err))
			return
		}
	}
	probeCfg, err := parseProbe(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := ""
	var probes []*obs.Probe
	if probeCfg == nil {
		if k, ok := sweepKey(req.Configs); ok {
			key = k
		}
	} else if probes, err = probeConfigs(*probeCfg, req.Configs); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	_, root := s.requestTrace(r, "rpc.sweep")
	defer root.End()
	if root != nil {
		root.SetAttr("configs", len(req.Configs))
	}
	j, err := s.submit("sweep", key, root, s.sweepExec(req.Configs))
	if err != nil {
		submitError(w, err)
		return
	}
	s.adoptProbes(j, probes)
	s.respondJob(w, j, http.StatusAccepted)
}

// adoptProbes hands a probed submission's recorders to its job for the
// /progress endpoint. Probed submissions carry an empty idempotency key,
// so j is always freshly created — never a deduplicated older job. Runs
// before the submission response is written: a client cannot know the job
// ID, and so cannot hit /progress, until its probes are in place.
func (s *Server) adoptProbes(j *Job, probes []*obs.Probe) {
	if len(probes) == 0 {
		return
	}
	s.mu.Lock()
	j.probes = probes
	s.jobsProbed++
	s.mu.Unlock()
}

// ClusterRunResponse is the wire form of a synchronous worker-mode run:
// the config's canonical hash (so the coordinator can sanity-check its
// routing key) and the simulation result. Like FigureResult it carries no
// timings — the body is a deterministic function of the config, identical
// whether the run was fresh, memory-cached, or disk-cached.
type ClusterRunResponse struct {
	Key    string             `json:"key,omitempty"`
	JobID  string             `json:"job_id"`
	Result experiments.Result `json:"result"`
	// Spans are the worker-side span records of this request — present
	// only when the request carried a telemetry.TraceHeader, so untraced
	// responses (and the Result itself, always) stay deterministic
	// functions of the config. The coordinator imports them into the
	// client's trace, stitching one cross-process timeline.
	Spans []telemetry.SpanRecord `json:"spans,omitempty"`
}

// handleClusterRun is the coordinator-push worker endpoint: it executes one
// RunConfig synchronously and returns the result. Submissions flow through
// the same idempotent job queue as everything else, so a coordinator retry
// of an in-flight config parks on the running job instead of duplicating
// work, results land in the worker's two-tier cache, and a draining worker
// answers 503 (the coordinator's cue to fail the config over). Simulation
// failures are deterministic, so they return 422 — retrying elsewhere
// cannot help, and the coordinator falls back to a local run to surface
// the error.
func (s *Server) handleClusterRun(w http.ResponseWriter, r *http.Request) {
	var rc experiments.RunConfig
	if err := json.NewDecoder(r.Body).Decode(&rc); err != nil {
		writeError(w, http.StatusBadRequest, "decoding RunConfig: "+err.Error())
		return
	}
	key := ""
	if k, ok := experiments.ConfigKey(rc); ok {
		key = k
	}
	tr, root := s.requestTrace(r, "rpc.cluster_run")
	j, err := s.submit("crun", key, root, s.sweepExec([]experiments.RunConfig{rc}))
	if err != nil {
		root.End()
		submitError(w, err)
		return
	}
	select {
	case <-r.Context().Done():
		// Coordinator timed out or went away; the job finishes in the
		// background and a retried dispatch dedups onto it.
		root.End()
		return
	case <-j.done:
	}
	root.End()
	var spans []telemetry.SpanRecord
	if tr.Collecting() {
		spans = tr.Records()
	}
	s.mu.Lock()
	state, errMsg, res := j.State, j.Err, j.Results
	s.mu.Unlock()
	switch {
	case state == JobDone && len(res) == 1:
		writeJSON(w, http.StatusOK, ClusterRunResponse{Key: key, JobID: j.ID, Result: res[0], Spans: spans})
	case state == JobCanceled:
		writeError(w, http.StatusServiceUnavailable, "job canceled during shutdown")
	default:
		writeError(w, http.StatusUnprocessableEntity, errMsg)
	}
}

// sweepExec builds the exec closure shared by run and sweep jobs. The
// job's run span (set by runJobs when the job is claimed) scopes the
// sweep's telemetry.
func (s *Server) sweepExec(cfgs []experiments.RunConfig) func(ctx context.Context, j *Job) error {
	return func(ctx context.Context, j *Job) error {
		res, st, err := s.runSweep(ctx, j.rspan, cfgs)
		if err != nil {
			return err
		}
		s.mu.Lock()
		j.Results = res
		j.Sweep = st
		s.mu.Unlock()
		return nil
	}
}

func (s *Server) respondJob(w http.ResponseWriter, j *Job, status int) {
	s.mu.Lock()
	v := j.view(true)
	s.mu.Unlock()
	if v.State == JobDone {
		status = http.StatusOK
	}
	writeJSON(w, status, v)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	views := make([]jobView, 0, len(ids))
	for _, id := range ids {
		views = append(views, s.jobs[id].view(false))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no such job "+id)
		return
	}
	s.respondJob(w, j, http.StatusOK)
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ok, canceled := s.cancel(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job "+id)
		return
	}
	s.mu.Lock()
	v := s.jobs[id].view(false)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"canceled": canceled, "job": v})
}

// handleFigure reproduces a named figure synchronously: it submits an
// idempotent figure job (deduplicated with any concurrent or prior request
// for the same figure and options) and waits for it, honoring client
// disconnect — the job keeps running and lands in the cache either way.
// Options that fail decodeFigureQuery or the figure's own check
// (experiments.CheckFigure) get 400 before a job is queued.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := experiments.ByID(name); !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown figure %q (have %s)", name, strings.Join(experiments.IDs(), " ")))
		return
	}
	opts, err := decodeFigureQuery(r.URL.Query(), s.figureDefaults)
	if err == nil {
		err = experiments.CheckFigure(name, opts)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	_, root := s.requestTrace(r, "rpc.figure")
	defer root.End()
	if root != nil {
		root.SetAttr("figure", name)
	}
	key := figureKey(name, opts)
	j, err := s.submit("figure", key, root, func(ctx context.Context, j *Job) error {
		fig, err := s.figure(ctx, j.rspan, name, opts)
		if err != nil {
			return err
		}
		fr := NewFigureResult(fig)
		s.mu.Lock()
		j.Figure = fr
		j.Sweep = fig.Sweep
		s.mu.Unlock()
		return nil
	})
	if err != nil {
		submitError(w, err)
		return
	}

	select {
	case <-r.Context().Done():
		// Client went away; the job finishes in the background and warms
		// the cache for the next request.
		return
	case <-j.done:
	}
	s.mu.Lock()
	state, errMsg, fr := j.State, j.Err, j.Figure
	s.mu.Unlock()
	switch state {
	case JobDone:
		writeJSON(w, http.StatusOK, fr)
	case JobCanceled:
		writeError(w, http.StatusServiceUnavailable, "job canceled during shutdown")
	default:
		writeError(w, http.StatusInternalServerError, errMsg)
	}
}

// figureKey is the idempotency key of a figure request: the sha256 of its
// name and the encoded query of its decoded options, which carry the
// migrate spec in canonical form, so "on" and the expanded default spec
// share a key. Workers is included — it cannot change the output (the
// determinism guarantee), but requests differing in it are distinct
// submissions, which also lets callers force a re-render through the
// result cache.
func figureKey(name string, opts experiments.Options) string {
	return hashString("figure|" + name + "?" + EncodeFigureQuery(opts))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	inflight := s.inflight
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "draining", "inflight_jobs": inflight, "build": Build(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"inflight_jobs":  inflight,
		"build":          Build(),
	})
}
