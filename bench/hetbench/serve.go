package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"hetsim/internal/cluster"
	"hetsim/internal/experiments"
	"hetsim/internal/serve"
	"hetsim/internal/telemetry"
)

// serveCluster runs an in-process hmserved coordinator over two
// in-process hmserved workers. Cold: one figure request to each of a few
// fresh fleets, which simulates on the workers through cluster dispatch.
// Warm: two closed-loop clients repeat the request against the last
// fleet, which answers from its finished job without simulating.
type serveCluster struct {
	assembly
	p     params
	path  string // the figure request
	opts  experiments.Options
	cold  []byte // first cold response body
	fleet *fleet // the fleet the warm phase uses

	mu           sync.Mutex
	accesses     uint64 // simulated by the fleet
	okDispatches int
	dispatch     []float64 // Coordinator.Run, ms (traced phase only)
	handler      []float64 // front Server.Handler, µs (traced phase only)
	remoteOK     int       // successful dispatches of the first traced cold request
	fallbacks    uint64    // coordinator Stats of the traced fleets
	retries      uint64
	timing       bool
}

func (w *serveCluster) setup() error {
	wls := []string{"bfs", "stencil", "sgemm", "comd"}
	w.opts = experiments.Options{Shrink: 8, Workers: 2}
	if w.p.quick {
		wls, w.opts.Shrink = []string{"bfs", "sgemm"}, 32
	}
	rng := rand.New(rand.NewSource(w.p.seed))
	rng.Shuffle(len(wls), func(i, j int) { wls[i], wls[j] = wls[j], wls[i] })
	w.opts.Workloads = wls
	w.path = fmt.Sprintf("/v1/figures/fig3?shrink=%d&workloads=%s", w.opts.Shrink, strings.Join(wls, ","))

	cfgs, err := bwAwareConfigs(experiments.Options{Workloads: wls, Shrink: w.opts.Shrink, Dataset: dataset(defaultSeed)})
	if err != nil {
		return err
	}
	if err := w.assembleDistinct(cfgs); err != nil {
		return err
	}
	f, err := w.startFleet(nil)
	if err != nil {
		return err
	}
	f.close()
	return nil
}

// fleet is one coordinator daemon in front of two worker daemons, each on
// its own httptest listener and disk cache.
type fleet struct {
	dir     string
	workers []*serve.Server
	servers []*httptest.Server
	coord   *cluster.Coordinator
	front   *serve.Server
	url     string
	client  *http.Client
}

func discardLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

func (w *serveCluster) startFleet(rec *telemetry.Recorder) (*fleet, error) {
	dir, err := os.MkdirTemp("", "hetbench-fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir, client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
	var urls []string
	for i := 0; i < 2; i++ {
		s, err := serve.New(serve.Config{
			CacheDir: filepath.Join(dir, fmt.Sprintf("worker%d", i)), SimWorkers: 1, Logger: discardLogger(),
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, s)
		ts := httptest.NewServer(s.Handler())
		f.servers = append(f.servers, ts)
		urls = append(urls, ts.URL)
	}
	f.coord, err = cluster.New(cluster.Config{Workers: urls, Logger: discardLogger()})
	if err != nil {
		f.close()
		return nil, err
	}
	remote := func(sp *telemetry.Span, key string, rc experiments.RunConfig) (experiments.Result, bool) {
		t0 := time.Now()
		res, ok := f.coord.Run(sp, key, rc)
		w.observe(func() {
			if ok {
				w.accesses += res.Accesses
				w.okDispatches++
			}
			if w.timing {
				w.dispatch = append(w.dispatch, float64(time.Since(t0))/1e6)
			}
		})
		return res, ok
	}
	f.front, err = serve.New(serve.Config{SimWorkers: 2, Remote: remote, Telemetry: rec, Logger: discardLogger()})
	if err != nil {
		f.close()
		return nil, err
	}
	h := f.front.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(rw, r)
		w.observe(func() {
			if w.timing {
				w.handler = append(w.handler, float64(time.Since(t0))/1e3)
			}
		})
	}))
	f.servers = append(f.servers, ts)
	f.url = ts.URL
	return f, nil
}

func (w *serveCluster) observe(fn func()) {
	w.mu.Lock()
	fn()
	w.mu.Unlock()
}

// close stops the fleet, front first, and removes its disk caches.
func (f *fleet) close() {
	f.client.CloseIdleConnections()
	for i := len(f.servers) - 1; i >= 0; i-- {
		f.servers[i].Close()
	}
	if f.front != nil {
		f.front.Close()
	}
	if f.coord != nil {
		f.coord.Close()
	}
	for _, s := range f.workers {
		s.Close()
	}
	os.RemoveAll(f.dir)
}

// get sends the figure request, traced under sp, and returns the body; a
// non-200 answer is an error.
func (f *fleet) get(path string, sp *telemetry.Span) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, f.url+path, nil)
	if err != nil {
		return nil, err
	}
	telemetry.InjectHeader(req.Header, sp)
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// coldFleets is how many fresh fleets an untraced phase sends the cold
// request to; a traced run's two phases send it to one each.
func (w *serveCluster) coldFleets() int {
	if w.p.quick || w.p.trace {
		return 1
	}
	return 3
}

func (w *serveCluster) measure(ph *phase) error {
	w.observe(func() { w.timing = ph.tr != nil })
	if w.fleet != nil {
		w.fleet.close()
		w.fleet = nil
	}
	for i := 0; i < w.coldFleets(); i++ {
		ph.cal.sample()
		f, err := w.startFleet(ph.tr.recorder())
		if err != nil {
			return err
		}
		ph.tr.beginPass("cold")
		sp := ph.tr.span("bench.request")
		w.mu.Lock()
		acc0, ok0 := w.accesses, w.okDispatches
		w.mu.Unlock()
		t0 := time.Now()
		body, err := f.get(w.path, sp)
		d := time.Since(t0)
		sp.End()
		ph.tr.endPass()
		ph.passes = append(ph.passes, d.Seconds())
		ph.simWall += d
		w.mu.Lock()
		ph.accesses += w.accesses - acc0
		if ph.tr != nil && i == 0 {
			w.remoteOK = w.okDispatches - ok0
		}
		w.mu.Unlock()
		problem := ""
		switch {
		case err != nil:
			problem = fmt.Sprintf("cold request: %v", err)
		case w.cold == nil:
			w.cold = body
		case !bytes.Equal(body, w.cold):
			problem = "cold response differs from the first cold response"
		}
		ph.attempt(problem)
		if ph.tr != nil {
			st := f.coord.Stats()
			w.fallbacks += st.LocalFallbacks
			w.retries += st.Retries
		}
		if i < w.coldFleets()-1 {
			f.close()
		} else {
			w.fleet = f
		}
	}
	if w.cold == nil {
		return fmt.Errorf("no cold response")
	}

	// Warm: two closed-loop clients, each sending its next request when
	// the previous one returns, for the rest of the budget.
	ph.tr.beginPass("warm")
	defer ph.tr.endPass()
	minRequests := 20
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < minRequests || time.Since(ph.start) < ph.budget; n++ {
				sp := ph.tr.span("bench.request")
				r0 := time.Now()
				body, err := w.fleet.get(w.path, sp)
				d := time.Since(r0)
				sp.End()
				problem := ""
				if err != nil {
					problem = fmt.Sprintf("warm request: %v", err)
				} else if !bytes.Equal(body, w.cold) {
					problem = "warm response differs from the cold response"
				}
				ph.addOp(d, problem)
			}
		}()
	}
	wg.Wait()
	ph.opsWall = time.Since(t0)
	ph.cal.sample()
	return nil
}

// finish stops the last fleet and checks that the fleet's figure is the
// one a local render produces.
func (w *serveCluster) finish(c *checks) {
	if w.fleet != nil {
		w.fleet.close()
		w.fleet = nil
	}
	fn, _ := experiments.ByID("fig3")
	opts := w.opts
	opts.Cache = experiments.NewResultCache()
	fig, err := fn(opts)
	if err != nil {
		c.fail("local render: %v", err)
		return
	}
	local, err := cluster.EncodeFigure(fig)
	if err != nil {
		c.fail("local render: %v", err)
		return
	}
	if !bytes.Equal(local, bytes.TrimSpace(w.cold)) {
		c.fail("cold cluster figure differs from a local render")
	}
}

func (w *serveCluster) digest() string { return sha(w.cold) }

func (w *serveCluster) replayConfigs() []experiments.RunConfig {
	cfgs, _ := bwAwareConfigs(experiments.Options{Workloads: w.opts.Workloads, Shrink: w.opts.Shrink, Dataset: dataset(defaultSeed)})
	return cfgs
}

func (w *serveCluster) layerMetrics() map[string]float64 {
	m := w.assembly.layerMetrics()
	w.mu.Lock()
	defer w.mu.Unlock()
	m["serve.handler_us"] = median(w.handler)
	m["cluster.dispatch_ms"] = median(w.dispatch)
	m["cluster.remote_ok"] = float64(w.remoteOK)
	m["cluster.local_fallbacks"] = float64(w.fallbacks)
	m["cluster.retries"] = float64(w.retries)
	return m
}
