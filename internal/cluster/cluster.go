// Package cluster shards simulation sweeps across a fleet of hmserved
// workers and merges the results deterministically.
//
// A Coordinator holds a registry of worker base URLs. Each cacheable
// RunConfig is routed by rendezvous hashing over its canonical content
// hash (experiments.ConfigKey), so the same config always prefers the same
// worker — and therefore hits that worker's two-tier result cache — no
// matter which client dispatches it or in what order. Dispatch is pushed
// over the worker's synchronous POST /v1/cluster/run endpoint with a
// per-request timeout, bounded in-flight requests per worker, retries with
// exponential backoff plus jitter, and failover down the hash order when a
// worker stays unreachable. When every worker is down (or the response is
// a deterministic simulation failure), the coordinator declines the config
// and the caller's executor runs it locally — the fleet can only add
// capacity, never availability risk.
//
// Liveness is tracked by periodic /healthz heartbeats: a worker that fails
// EvictAfter consecutive probes (or dispatch transports) is evicted from
// routing until a later heartbeat revives it. A draining worker answers
// 503 on both paths, so shutdowns hand their shard over gracefully.
//
// Consistency guarantee: a Result is a deterministic function of its
// canonical config and survives a JSON round trip bit-exactly (the same
// property the persistent disk cache relies on), so any mix of local runs,
// remote runs, retries, and failovers reassembles — per input index, by
// the pool executor — into output byte-identical to a purely local run.
// EncodeFigure is the timing-free figure encoding the guarantee is stated
// over: this package's tests compare fleet and local renders through it,
// and cmd/hme2e's cluster scenario compares their CSVs on real binaries.
package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"hetsim/internal/experiments"
	"hetsim/internal/experiments/pool"
	"hetsim/internal/metrics"
)

// Config tunes a Coordinator. Zero values get the documented defaults.
type Config struct {
	// Workers is the fleet: hmserved base URLs (e.g. "http://host:8080").
	// Required, fixed for the coordinator's lifetime.
	Workers []string
	// RequestTimeout bounds one dispatch attempt, queue wait included
	// (default 5m — figure-grade simulations are slow at full fidelity).
	RequestTimeout time.Duration
	// Retries is how many times a failed attempt is retried on the same
	// worker before failing over (default 2).
	Retries int
	// BackoffBase and BackoffMax shape the exponential retry backoff
	// (defaults 100ms and 5s); actual delays are jittered.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxInFlight bounds concurrent dispatches per worker (default 4).
	MaxInFlight int
	// HeartbeatInterval is the /healthz probe period (default 2s);
	// HeartbeatTimeout bounds one probe (default 1s).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// EvictAfter is how many consecutive failed probes or dispatch
	// transports evict a worker from routing (default 3). Evicted workers
	// keep being probed and rejoin on the first success.
	EvictAfter int
	// HTTPClient overrides the transport (default: a plain http.Client;
	// per-attempt deadlines come from RequestTimeout contexts).
	HTTPClient *http.Client
	// Logger receives dispatch and liveness logs (default: slog default).
	Logger *slog.Logger
}

func (c *Config) setDefaults() {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Minute
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 2 * time.Second
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = time.Second
	}
	if c.EvictAfter <= 0 {
		c.EvictAfter = 3
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
}

// worker is one registry entry: routing identity, in-flight bound, and
// liveness plus per-worker counters (guarded by mu).
type worker struct {
	url string
	sem chan struct{} // in-flight dispatch slots

	mu          sync.Mutex
	alive       bool
	consecFails int
	jobs        uint64 // successful remote runs
	errors      uint64 // failed attempts (transport, timeout, bad status)
	retries     uint64
	lat         metrics.Histogram // successful-dispatch latency, microseconds
}

func (w *worker) isAlive() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.alive
}

// Coordinator routes configs across the fleet. Create with New; Close
// stops the heartbeat loop. The Run method is an experiments.RemoteRunner
// and is safe for concurrent use.
type Coordinator struct {
	cfg     Config
	log     *slog.Logger
	client  *http.Client
	workers []*worker
	// cache backs Figure renders so a coordinator's figure results stay
	// private to it (and to keep verification runs honest; see figure.go).
	cache *pool.Cache[experiments.Result]

	stopc chan struct{}
	wg    sync.WaitGroup

	mu             sync.Mutex
	dispatches     uint64 // Run calls
	remoteOK       uint64 // configs served by the fleet
	localFallbacks uint64 // configs declined back to local execution
	totalRetries   uint64
	failovers      uint64 // advances past the first-choice worker
	evictions      uint64
	revivals       uint64
	heartbeats     uint64
	heartbeatFails uint64
}

// New builds a Coordinator over the given fleet and starts its heartbeat
// loop. Call Close to stop it.
func New(cfg Config) (*Coordinator, error) {
	cfg.setDefaults()
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers configured")
	}
	c := &Coordinator{
		cfg:    cfg,
		log:    cfg.Logger,
		client: cfg.HTTPClient,
		cache:  experiments.NewResultCache(),
		stopc:  make(chan struct{}),
	}
	seen := map[string]bool{}
	for _, u := range cfg.Workers {
		u = strings.TrimSuffix(strings.TrimSpace(u), "/")
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		c.workers = append(c.workers, &worker{
			url:   u,
			sem:   make(chan struct{}, cfg.MaxInFlight),
			alive: true, // optimistic: dispatch failures and probes correct it
		})
	}
	if len(c.workers) == 0 {
		return nil, fmt.Errorf("cluster: no usable worker URLs in %v", cfg.Workers)
	}
	c.wg.Add(1)
	go c.heartbeatLoop()
	return c, nil
}

// Close stops the heartbeat loop. In-flight dispatches finish normally.
func (c *Coordinator) Close() {
	close(c.stopc)
	c.wg.Wait()
}

// Workers reports the registry size and how many members are currently
// routable.
func (c *Coordinator) Workers() (total, alive int) {
	for _, w := range c.workers {
		if w.isAlive() {
			alive++
		}
	}
	return len(c.workers), alive
}

// heartbeatLoop probes every worker's /healthz on a fixed period,
// evicting after EvictAfter consecutive failures and reviving on success.
func (c *Coordinator) heartbeatLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.stopc:
			return
		case <-tick.C:
			var wg sync.WaitGroup
			for _, w := range c.workers {
				wg.Add(1)
				go func(w *worker) {
					defer wg.Done()
					c.probe(w)
				}(w)
			}
			wg.Wait()
		}
	}
}

// probe performs one liveness check. Any non-200 (including a draining
// worker's 503) counts as a failure: either way the worker must not
// receive new shards.
func (c *Coordinator) probe(w *worker) {
	c.mu.Lock()
	c.heartbeats++
	c.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HeartbeatTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/healthz", nil)
	if err != nil {
		c.markFailure(w, err)
		return
	}
	resp, err := c.client.Do(req)
	if err == nil {
		drainBody(resp)
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz status %d", resp.StatusCode)
		}
	}
	if err != nil {
		c.mu.Lock()
		c.heartbeatFails++
		c.mu.Unlock()
		c.markFailure(w, err)
		return
	}
	c.markSuccess(w)
}

// markFailure records a failed probe or dispatch transport, evicting the
// worker once EvictAfter consecutive failures accumulate.
func (c *Coordinator) markFailure(w *worker, cause error) {
	w.mu.Lock()
	w.consecFails++
	evict := w.alive && w.consecFails >= c.cfg.EvictAfter
	if evict {
		w.alive = false
	}
	fails := w.consecFails
	w.mu.Unlock()
	if evict {
		c.mu.Lock()
		c.evictions++
		c.mu.Unlock()
		c.log.Warn("cluster: worker evicted", "worker", w.url, "consecutive_failures", fails, "cause", cause)
	}
}

// markSuccess resets the failure streak, reviving an evicted worker.
func (c *Coordinator) markSuccess(w *worker) {
	w.mu.Lock()
	w.consecFails = 0
	revive := !w.alive
	if revive {
		w.alive = true
	}
	w.mu.Unlock()
	if revive {
		c.mu.Lock()
		c.revivals++
		c.mu.Unlock()
		c.log.Info("cluster: worker revived", "worker", w.url)
	}
}
