package cluster

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hetsim/internal/experiments"
	"hetsim/internal/serve"
)

// testWorker spins up one real hmserved worker (no disk tier) behind an
// optional handler wrapper, returning its base URL.
func testWorker(t *testing.T, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	s, err := serve.New(serve.Config{Logger: discard()})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}

func discard() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// testConfig is a fast-failing coordinator config for tests.
func testConfig(urls ...string) Config {
	return Config{
		Workers:           urls,
		RequestTimeout:    30 * time.Second,
		Retries:           1,
		BackoffBase:       time.Millisecond,
		BackoffMax:        10 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  time.Second,
		EvictAfter:        2,
		Logger:            discard(),
	}
}

func newCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// fig2aOpts is the standing test sweep: 3 workloads x 5 bandwidth scales =
// 15 distinct configs, enough to shard across a small fleet.
func fig2aOpts() experiments.Options {
	return experiments.Options{Shrink: 16, Workloads: []string{"bfs", "stencil", "lbm"}}
}

// fleetFigure renders id across the fleet, against a fresh result cache so
// no earlier render can feed it, and fails the test unless its encoding is
// byte-identical to a purely local render's.
func fleetFigure(t *testing.T, c *Coordinator, id string, opts experiments.Options) experiments.Figure {
	t.Helper()
	opts.Cache = experiments.NewResultCache()
	fig, err := c.Figure(id, opts)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := experiments.ByID(id)
	opts.Cache = experiments.NewResultCache()
	local, err := fn(opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EncodeFigure(fig)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := EncodeFigure(local); !bytes.Equal(got, want) {
		t.Fatalf("%s differs between the fleet render and a local one:\nfleet %s\nlocal %s", id, got, want)
	}
	return fig
}

// TestClusterFigureByteIdentity is the acceptance scenario: a sweep
// dispatched across two in-process hmserved workers produces figure output
// byte-identical to a purely local run, with every simulation actually
// served by the fleet and both workers participating.
func TestClusterFigureByteIdentity(t *testing.T) {
	w1 := testWorker(t, nil)
	w2 := testWorker(t, nil)
	c := newCoordinator(t, testConfig(w1.URL, w2.URL))

	fig := fleetFigure(t, c, "fig2a", fig2aOpts())
	if fig.ID != "fig2a" || fig.Sweep.Remote != 15 {
		t.Errorf("fleet render: id %s, %d remote runs (want 15): %+v", fig.ID, fig.Sweep.Remote, fig.Sweep)
	}
	st := c.Stats()
	if st.Remote != 15 || st.LocalFallbacks != 0 {
		t.Errorf("stats = %+v, want 15 remote, 0 local fallbacks", st)
	}
	m := c.MetricsMap()
	var perWorker []float64
	for k, v := range m {
		if strings.HasPrefix(k, "cluster_worker_jobs_total{") {
			perWorker = append(perWorker, v)
		}
	}
	if len(perWorker) != 2 || perWorker[0] == 0 || perWorker[1] == 0 {
		t.Errorf("per-worker jobs = %v, want both workers to serve a shard", perWorker)
	}

	// A re-render through the coordinator's cache simulates nothing new.
	if _, err := c.Figure("fig2a", fig2aOpts()); err != nil {
		t.Fatal(err)
	}
	if st2 := c.Stats(); st2.Dispatches != st.Dispatches+15 {
		// fleetFigure used a fresh cache; this render fills the
		// coordinator's own, so it dispatched each config exactly once.
		t.Errorf("dispatches went %d -> %d, want +15", st.Dispatches, st2.Dispatches)
	}
}

// killable aborts every connection once armed, and arms itself after a
// fixed number of cluster-run requests — a worker that dies mid-sweep.
type killable struct {
	h         http.Handler
	dead      atomic.Bool
	runs      atomic.Int64
	killAfter int64
}

func (k *killable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/v1/cluster/run") &&
		k.runs.Add(1) > k.killAfter {
		k.dead.Store(true)
	}
	if k.dead.Load() {
		panic(http.ErrAbortHandler) // drops the connection mid-flight
	}
	k.h.ServeHTTP(w, r)
}

// TestWorkerDeathFailover: one of two workers dies partway through the
// sweep. Its shard is retried, failed over to the survivor, and the merged
// figure is still byte-identical to a local run.
func TestWorkerDeathFailover(t *testing.T) {
	k := &killable{killAfter: 2}
	w1 := testWorker(t, func(h http.Handler) http.Handler { k.h = h; return k })
	w2 := testWorker(t, nil)
	c := newCoordinator(t, testConfig(w1.URL, w2.URL))

	fig := fleetFigure(t, c, "fig2a", fig2aOpts())
	if fig.Sweep.Remote != 15 {
		t.Errorf("fleet served %d of 15 runs after worker death", fig.Sweep.Remote)
	}
	st := c.Stats()
	if !k.dead.Load() {
		t.Fatal("worker was never killed; sweep too small to reach it?")
	}
	if st.Failovers == 0 {
		t.Errorf("stats = %+v, want failovers > 0 after a worker death", st)
	}
	if st.LocalFallbacks != 0 {
		t.Errorf("%d configs fell back locally; survivor should have absorbed the shard", st.LocalFallbacks)
	}
}

// TestAllWorkersDeadLocalFallback: with the whole fleet unreachable, every
// config gracefully falls back to local simulation and the figure is
// byte-identical to a plain local render.
func TestAllWorkersDeadLocalFallback(t *testing.T) {
	cfg := testConfig("http://127.0.0.1:1", "http://127.0.0.1:2")
	c := newCoordinator(t, cfg)
	fig := fleetFigure(t, c, "fig2a", experiments.Options{Shrink: 16, Workloads: []string{"bfs"}})
	st := c.Stats()
	if st.Remote != 0 || st.LocalFallbacks != 5 {
		t.Errorf("stats = %+v, want 0 remote and 5 local fallbacks", st)
	}
	if fig.Sweep.Remote != 0 || fig.Sweep.Runs != 5 {
		t.Errorf("sweep = %+v, want 5 local runs", fig.Sweep)
	}
}

// slowOnce delays the first cluster-run request past the dispatch timeout;
// later requests pass through untouched.
type slowOnce struct {
	h       http.Handler
	delay   time.Duration
	tripped atomic.Bool
}

func (s *slowOnce) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/v1/cluster/run") && !s.tripped.Swap(true) {
		time.Sleep(s.delay)
	}
	s.h.ServeHTTP(w, r)
}

// TestSlowWorkerRetry: a request that exceeds the per-request timeout is
// retried (with backoff) on the same worker and succeeds, with no local
// fallback.
func TestSlowWorkerRetry(t *testing.T) {
	so := &slowOnce{delay: 4 * time.Second}
	w1 := testWorker(t, func(h http.Handler) http.Handler { so.h = h; return so })
	cfg := testConfig(w1.URL)
	// The timeout must be shorter than the injected delay but long enough
	// for a race-instrumented simulation: retries test dispatch logic, not
	// simulator speed. Even if a retry times out too, the worker-side job
	// keeps running and a later attempt picks its cached result up.
	cfg.RequestTimeout = time.Second
	cfg.Retries = 3
	cfg.EvictAfter = 10 // timeouts must not evict the only worker
	c := newCoordinator(t, cfg)

	rc := experiments.RunConfig{Workload: "bfs", Shrink: 16}
	key, ok := experiments.ConfigKey(rc)
	if !ok {
		t.Fatal("config not cacheable")
	}
	start := time.Now()
	res, ok := c.Run(nil, key, rc)
	if !ok {
		t.Fatalf("dispatch fell back locally (stats %+v)", c.Stats())
	}
	if res.Perf <= 0 {
		t.Errorf("bad remote result: %+v", res)
	}
	if st := c.Stats(); st.Retries == 0 {
		t.Errorf("stats = %+v, want at least one retry after the slow request (took %s)", st, time.Since(start))
	}
}

// TestHeartbeatEvictionRevival: a worker that starts failing health checks
// is evicted from routing after EvictAfter consecutive probes and revived
// once it recovers; while the fleet is empty, dispatch declines to local.
func TestHeartbeatEvictionRevival(t *testing.T) {
	var unhealthy atomic.Bool
	w1 := testWorker(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if unhealthy.Load() {
				http.Error(w, "sick", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	c := newCoordinator(t, testConfig(w1.URL))

	unhealthy.Store(true)
	waitFor(t, "eviction", func() bool { _, alive := c.Workers(); return alive == 0 })
	rc := experiments.RunConfig{Workload: "bfs", Shrink: 16}
	key, _ := experiments.ConfigKey(rc)
	if _, ok := c.Run(nil, key, rc); ok {
		t.Error("dispatch succeeded against an evicted fleet")
	}
	if st := c.Stats(); st.Evictions == 0 || st.LocalFallbacks == 0 {
		t.Errorf("stats = %+v, want an eviction and a local fallback", st)
	}

	unhealthy.Store(false)
	waitFor(t, "revival", func() bool { _, alive := c.Workers(); return alive == 1 })
	if st := c.Stats(); st.Revivals == 0 {
		t.Errorf("stats = %+v, want a revival", st)
	}
	if _, ok := c.Run(nil, key, rc); !ok {
		t.Error("dispatch still declined after revival")
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRendezvousAffinity: ranking is deterministic per key, spreads keys
// across the fleet, and removing a worker leaves the relative order of the
// survivors unchanged (so their cached shards stay put).
func TestRendezvousAffinity(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1", "http://c:1"}
	cfg3 := testConfig(urls...)
	cfg3.HeartbeatInterval = time.Hour // inert: these URLs don't resolve
	c3 := newCoordinator(t, cfg3)
	cfg2 := testConfig(urls[0], urls[2]) // worker b removed
	cfg2.HeartbeatInterval = time.Hour
	c2 := newCoordinator(t, cfg2)

	firstChoice := map[string]int{}
	for i := 0; i < 64; i++ {
		key := strings.Repeat("k", i+1)
		r1 := c3.rank(key)
		r2 := c3.rank(key)
		for j := range r1 {
			if r1[j] != r2[j] {
				t.Fatalf("rank not deterministic for key %d", i)
			}
		}
		firstChoice[r1[0].url]++

		// Consistency: dropping b must not reorder a and c.
		var survivors []string
		for _, w := range r1 {
			if w.url != urls[1] {
				survivors = append(survivors, w.url)
			}
		}
		pair := c2.rank(key)
		for j := range pair {
			if pair[j].url != survivors[j] {
				t.Fatalf("key %d: survivor order changed after removing a worker: %v vs %v",
					i, []string{pair[0].url, pair[1].url}, survivors)
			}
		}
	}
	for _, u := range urls {
		if firstChoice[u] == 0 {
			t.Errorf("worker %s never preferred across 64 keys: %v", u, firstChoice)
		}
	}
}

// TestBackoffDelay: delays grow exponentially, stay within [half, full),
// and cap at max.
func TestBackoffDelay(t *testing.T) {
	base, max := 100*time.Millisecond, time.Second
	for attempt := 0; attempt < 8; attempt++ {
		want := base << attempt
		if want > max {
			want = max
		}
		for i := 0; i < 32; i++ {
			d := backoffDelay(attempt, base, max)
			if d < want/2 || d >= want {
				t.Fatalf("attempt %d: delay %s outside [%s, %s)", attempt, d, want/2, want)
			}
		}
	}
}
