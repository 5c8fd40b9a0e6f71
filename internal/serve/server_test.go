package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"hetsim/internal/experiments"
	"hetsim/internal/metrics"
	"hetsim/internal/telemetry"
)

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// metric extracts one unlabeled hmserved_ gauge/counter from /metrics
// exposition text.
func metric(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	prefix := "hmserved_" + name + " "
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric hmserved_%s not found in:\n%s", name, body)
	return 0
}

// TestFigureEndToEnd is the acceptance scenario: a daemon on a random port
// with a temp cache dir serves Figure 2a; a repeat request is a cache hit
// and byte-identical; a daemon restarted on the same cache dir serves it
// again as a disk hit, still byte-identical.
func TestFigureEndToEnd(t *testing.T) {
	dir := t.TempDir()
	figURL := "/v1/figures/fig2a?shrink=16&workloads=bfs"

	s1, ts1 := testServer(t, Config{CacheDir: dir})
	code, body1 := get(t, ts1.URL+figURL)
	if code != http.StatusOK {
		t.Fatalf("first figure request: status %d, body %s", code, body1)
	}
	runs := metric(t, ts1, "sim_runs_total")
	if runs != 5 { // bfs x 5 bandwidth scales
		t.Errorf("first request simulated %v runs, want 5", runs)
	}
	if puts := metric(t, ts1, "cache_disk_puts_total"); puts != 5 {
		t.Errorf("disk puts = %v, want 5", puts)
	}

	// Identical repeat: deduplicated onto the finished job.
	code, body2 := get(t, ts1.URL+figURL)
	if code != http.StatusOK {
		t.Fatalf("second figure request: status %d", code)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("idempotent repeat not byte-identical")
	}
	if d := metric(t, ts1, "jobs_deduped_total"); d != 1 {
		t.Errorf("jobs_deduped_total = %v, want 1", d)
	}

	// Same figure re-rendered (workers=1 is a distinct job): every config
	// is answered by the in-memory result cache, no new simulations.
	code, body3 := get(t, ts1.URL+figURL+"&workers=1")
	if code != http.StatusOK {
		t.Fatalf("re-render request: status %d", code)
	}
	if !bytes.Equal(body1, body3) {
		t.Error("memory-cache-served figure not byte-identical to fresh one")
	}
	if hits := metric(t, ts1, "sim_cache_hits_total"); hits != 5 {
		t.Errorf("sim_cache_hits_total = %v, want 5", hits)
	}
	if runs := metric(t, ts1, "sim_runs_total"); runs != 5 {
		t.Errorf("re-render simulated new runs (%v total, want 5)", runs)
	}
	if hits := metric(t, ts1, "cache_disk_hits_total"); hits != 0 {
		t.Errorf("memory-tier hits touched the disk (%v disk hits)", hits)
	}

	// Drain and restart on the same cache dir: a fresh process-empty
	// cache, so the figure must come from the disk tier, byte-identical.
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts1.Close()
	s1.Close()

	_, ts2 := testServer(t, Config{CacheDir: dir})
	code, body4 := get(t, ts2.URL+figURL)
	if code != http.StatusOK {
		t.Fatalf("post-restart figure request: status %d", code)
	}
	if !bytes.Equal(body1, body4) {
		t.Error("disk-served figure not byte-identical to fresh one")
	}
	if runs := metric(t, ts2, "sim_runs_total"); runs != 0 {
		t.Errorf("restart re-simulated %v runs, want 0 (disk should serve)", runs)
	}
	if hits := metric(t, ts2, "cache_disk_hits_total"); hits != 5 {
		t.Errorf("cache_disk_hits_total after restart = %v, want 5", hits)
	}
}

// TestRunAndSweepJobs: the async job API — submit, poll, dedup, results.
func TestRunAndSweepJobs(t *testing.T) {
	_, ts := testServer(t, Config{CacheDir: t.TempDir()})
	code, body := post(t, ts.URL+"/v1/runs", `{"Workload":"bfs","Shrink":16}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: status %d, body %s", code, body)
	}
	var j struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(30 * time.Second)
	var done struct {
		State   string               `json:"state"`
		Error   string               `json:"error"`
		Results []experiments.Result `json:"results"`
	}
	for {
		code, body = get(t, ts.URL+"/v1/jobs/"+j.ID)
		if code != http.StatusOK {
			t.Fatalf("poll: status %d", code)
		}
		if err := json.Unmarshal(body, &done); err != nil {
			t.Fatal(err)
		}
		if done.State == string(JobDone) || done.State == string(JobFailed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", j.ID, done.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if done.State != string(JobDone) {
		t.Fatalf("job failed: %s", done.Error)
	}
	if len(done.Results) != 1 || done.Results[0].Perf <= 0 {
		t.Fatalf("bad results: %+v", done.Results)
	}

	// Idempotent resubmission: same canonical config, same job.
	code, body = post(t, ts.URL+"/v1/runs", `{"Workload":"bfs","Shrink":16}`)
	if code != http.StatusOK {
		t.Fatalf("resubmit: status %d (want 200 for a done job)", code)
	}
	var again struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if again.ID != j.ID {
		t.Errorf("equivalent config got job %s, want dedup onto %s", again.ID, j.ID)
	}

	// A sweep over two configs, one of them already simulated.
	code, body = post(t, ts.URL+"/v1/sweeps",
		`{"configs":[{"Workload":"bfs","Shrink":16},{"Workload":"bfs","Policy":2,"Shrink":16}]}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("sweep submit: status %d, body %s", code, body)
	}
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	for {
		_, body = get(t, ts.URL+"/v1/jobs/"+j.ID)
		if err := json.Unmarshal(body, &done); err != nil {
			t.Fatal(err)
		}
		if done.State == string(JobDone) || done.State == string(JobFailed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep job stuck")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if done.State != string(JobDone) || len(done.Results) != 2 {
		t.Fatalf("sweep: state %s, %d results, err %q", done.State, len(done.Results), done.Error)
	}
}

// TestClusterRunEndpoint: the synchronous worker-mode endpoint returns the
// canonical key and a result identical to /v1/runs', dedups repeats onto
// the cached job, and 422s deterministic simulation failures.
func TestClusterRunEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{CacheDir: t.TempDir()})
	body := `{"Workload":"bfs","Shrink":16}`
	code, respBody := post(t, ts.URL+"/v1/cluster/run", body)
	if code != http.StatusOK {
		t.Fatalf("cluster run: status %d, body %s", code, respBody)
	}
	var resp ClusterRunResponse
	if err := json.Unmarshal(respBody, &resp); err != nil {
		t.Fatal(err)
	}
	wantKey, _ := experiments.ConfigKey(experiments.RunConfig{Workload: "bfs", Shrink: 16})
	if resp.Key != wantKey {
		t.Errorf("key = %s, want %s", resp.Key, wantKey)
	}
	if resp.Result.Perf <= 0 {
		t.Errorf("bad result: %+v", resp.Result)
	}

	// A repeat is answered from the result cache, byte-identical except for
	// the job id — so compare the result fields.
	code, respBody2 := post(t, ts.URL+"/v1/cluster/run", body)
	if code != http.StatusOK {
		t.Fatalf("repeat cluster run: status %d", code)
	}
	var resp2 ClusterRunResponse
	if err := json.Unmarshal(respBody2, &resp2); err != nil {
		t.Fatal(err)
	}
	if resp2.JobID != resp.JobID {
		t.Errorf("repeat got job %s, want dedup onto %s", resp2.JobID, resp.JobID)
	}
	r1, _ := json.Marshal(resp.Result)
	r2, _ := json.Marshal(resp2.Result)
	if !bytes.Equal(r1, r2) {
		t.Error("cached cluster-run result not byte-identical")
	}
	if runs := metric(t, ts, "sim_runs_total"); runs != 1 {
		t.Errorf("sim_runs_total = %v, want 1", runs)
	}

	// A config that fails deterministically (unknown workload) is 422:
	// retrying it on another worker cannot help.
	code, respBody = post(t, ts.URL+"/v1/cluster/run", `{"Workload":"nosuch","Shrink":16}`)
	if code != http.StatusUnprocessableEntity {
		t.Errorf("failing config: status %d (body %s), want 422", code, respBody)
	}
}

// TestClusterRunDraining: a draining worker refuses cluster runs with 503 —
// the coordinator's signal to fail the config over to the next worker.
func TestClusterRunDraining(t *testing.T) {
	s, ts := testServer(t, Config{JobWorkers: 1})
	release := make(chan struct{})
	s.runSweep = slowSweep(release)
	defer close(release)
	if code, _ := post(t, ts.URL+"/v1/runs", `{"Workload":"bfs","Shrink":16}`); code != http.StatusAccepted {
		t.Fatal("could not occupy the worker")
	}
	go s.Shutdown(context.Background())
	waitDraining(t, s)
	code, _ := post(t, ts.URL+"/v1/cluster/run", `{"Workload":"stencil","Shrink":16}`)
	if code != http.StatusServiceUnavailable {
		t.Errorf("cluster run while draining: status %d, want 503", code)
	}
}

// TestExtraMetrics: Config.ExtraMetrics entries appear on /metrics, with
// label syntax intact.
func TestExtraMetrics(t *testing.T) {
	_, ts := testServer(t, Config{ExtraMetrics: func() map[string]float64 {
		return map[string]float64{
			"cluster_workers_alive":                 2,
			`cluster_worker_jobs_total{worker="a"}`: 7,
		}
	}})
	if v := metric(t, ts, "cluster_workers_alive"); v != 2 {
		t.Errorf("cluster_workers_alive = %v, want 2", v)
	}
	_, body := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(body), `hmserved_cluster_worker_jobs_total{worker="a"} 7`) {
		t.Errorf("labeled extra metric missing from /metrics:\n%s", body)
	}
}

// TestUnknownFigure: bad figure names 404 rather than queueing work.
func TestUnknownFigure(t *testing.T) {
	_, ts := testServer(t, Config{}) // no disk tier
	code, _ := get(t, ts.URL+"/v1/figures/fig99")
	if code != http.StatusNotFound {
		t.Errorf("unknown figure: status %d, want 404", code)
	}
}

// slowSweep stubs the simulation with one that blocks until release is
// closed (or the worker context dies), for shutdown choreography tests.
func slowSweep(release <-chan struct{}) func(context.Context, *telemetry.Span, []experiments.RunConfig) ([]experiments.Result, metrics.SweepStats, error) {
	return func(ctx context.Context, _ *telemetry.Span, cfgs []experiments.RunConfig) ([]experiments.Result, metrics.SweepStats, error) {
		select {
		case <-release:
			return make([]experiments.Result, len(cfgs)), metrics.SweepStats{Runs: len(cfgs)}, nil
		case <-ctx.Done():
			return nil, metrics.SweepStats{}, ctx.Err()
		}
	}
}

// TestGracefulShutdown is the acceptance scenario: while a job is running,
// a drain rejects new submissions with 503 and flips /healthz to 503,
// cancels queued jobs, finishes the in-flight job within the deadline, and
// leaves no partial files in the cache dir.
func TestGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	s, ts := testServer(t, Config{CacheDir: dir, JobWorkers: 1})
	release := make(chan struct{})
	s.runSweep = slowSweep(release)

	// Job A occupies the single worker; job B sits in the queue.
	code, bodyA := post(t, ts.URL+"/v1/runs", `{"Workload":"bfs","Shrink":16}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit A: status %d", code)
	}
	code, bodyB := post(t, ts.URL+"/v1/runs", `{"Workload":"stencil","Shrink":16}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit B: status %d", code)
	}
	var jobA, jobB struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(bodyA, &jobA); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bodyB, &jobB); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts, jobA.ID, JobRunning)

	drainErr := make(chan error, 1)
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancelDrain()
	go func() { drainErr <- s.Shutdown(drainCtx) }()
	waitDraining(t, s)

	// New submissions and health checks are refused while draining.
	if code, _ := post(t, ts.URL+"/v1/runs", `{"Workload":"lbm","Shrink":16}`); code != http.StatusServiceUnavailable {
		t.Errorf("submission during drain: status %d, want 503", code)
	}
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: status %d, want 503", code)
	}
	if code, _ := get(t, ts.URL+"/v1/figures/fig1"); code != http.StatusServiceUnavailable {
		t.Errorf("figure request during drain: status %d, want 503", code)
	}

	// The queued job was canceled by the drain; the running one finishes.
	waitState(t, ts, jobB.ID, JobCanceled)
	close(release)
	if err := <-drainErr; err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	waitState(t, ts, jobA.ID, JobDone)
	if n := countFiles(t, dir, ".tmp"); n != 0 {
		t.Errorf("%d partial files left in cache dir after drain", n)
	}
}

// TestShutdownDeadline: a job that outlives the drain deadline is
// abandoned and Shutdown reports the context error instead of hanging.
func TestShutdownDeadline(t *testing.T) {
	s, ts := testServer(t, Config{JobWorkers: 1})
	never := make(chan struct{}) // job blocks until worker ctx cancels
	s.runSweep = slowSweep(never)
	code, body := post(t, ts.URL+"/v1/runs", `{"Workload":"bfs","Shrink":16}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	var j struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	// Wait until the job is running: a still-queued job would be canceled
	// by the drain and Shutdown would return nil instead of timing out.
	waitState(t, ts, j.ID, JobRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Shutdown = %v, want DeadlineExceeded", err)
	}
}

func waitState(t *testing.T, ts *httptest.Server, id string, want JobState) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		_, body := get(t, ts.URL+"/v1/jobs/"+id)
		var j struct {
			State JobState `json:"state"`
		}
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatal(err)
		}
		if j.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", id, j.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitDraining(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never entered draining state")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMetricsCounters: /metrics is the one export of the daemon's
// counters: it parses, and carries the job, disk-tier and per-state job
// series; GET /debug/vars is not served.
func TestMetricsCounters(t *testing.T) {
	_, ts := testServer(t, Config{CacheDir: t.TempDir()})
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	samples, err := metrics.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics is not valid Prometheus text: %v", err)
	}
	have := map[string]bool{}
	for _, s := range samples {
		have[s.Name+s.Labels["state"]] = true
	}
	for _, k := range []string{"hmserved_jobs_submitted_total", "hmserved_cache_disk_entries"} {
		if !have[k] {
			t.Errorf("/metrics missing %s", k)
		}
	}
	for _, st := range []JobState{JobQueued, JobRunning, JobDone, JobFailed, JobCanceled} {
		if !have["hmserved_jobs"+string(st)] {
			t.Errorf("/metrics missing hmserved_jobs{state=%q}", st)
		}
	}
	if code, _ := get(t, ts.URL+"/debug/vars"); code != http.StatusNotFound {
		t.Errorf("/debug/vars: status %d, want 404", code)
	}
}

// BenchmarkServeFigureRoundTrip measures the HTTP round-trip latency of a
// fully cached figure request — the daemon's hot serving path (job dedup,
// no simulation). Run via `make bench-serve`.
func BenchmarkServeFigureRoundTrip(b *testing.B) {
	s, err := New(Config{CacheDir: b.TempDir(), Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	url := ts.URL + "/v1/figures/fig2a?shrink=16&workloads=bfs"
	warm, err := http.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	if warm.StatusCode != http.StatusOK {
		b.Fatalf("warmup status %d", warm.StatusCode)
	}
	io.Copy(io.Discard, warm.Body)
	warm.Body.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || n == 0 {
			b.Fatalf("status %d, %d bytes", resp.StatusCode, n)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/sec")
}
