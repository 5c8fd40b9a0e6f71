// Package pool provides the deterministic worker-pool executor behind
// every figure sweep in package experiments. A sweep is an embarrassingly
// parallel list of independent discrete-event simulations; Pool.MapSpan runs
// such a list across a fixed number of worker goroutines while preserving
// the exact semantics of a sequential loop:
//
//   - deterministic ordering: results land at the index of their input
//     config regardless of completion order, so the output is a pure
//     function of the input list;
//   - per-run panic recovery: a panicking run becomes that index's error
//     (with its stack) instead of killing the process;
//   - error collection: every failing index is reported, not just the
//     first;
//   - result caching: configs that share a caller-provided canonical key
//     are executed once per Cache, with duplicates — including concurrent
//     ones — served the same result (singleflight).
//
// The cache can be shared across MapSpan calls and across Pools, which is how
// the experiment harness simulates the LOCAL/INTERLEAVE/BW-AWARE baselines
// shared by Figures 2-7 only once per process. Cached values are returned
// by shallow copy: callers must treat results as immutable.
package pool

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"hetsim/internal/telemetry"
)

// Stats summarizes the work a MapSpan call performed.
type Stats struct {
	Total     int // configs submitted
	Executed  int // runs actually simulated (locally or via Offload)
	CacheHits int // configs served from the cache (in-memory or backend)
	Offloaded int // executed runs satisfied by Offload (subset of Executed)
	Errors    int // configs that finished with an error
	Panics    int // runs that panicked (counted in Errors too)
	Workers   int // worker goroutines used
	Wall      time.Duration
	// Cached records, per input index, whether results[i] was served from
	// the cache rather than executed, so callers can attribute per-result
	// costs (e.g. simulated event counts) to executed runs only.
	Cached []bool
}

// entry is one singleflight cache slot: the first worker to claim a key
// fills it and closes done; everyone else waits on done and reads it.
type entry[R any] struct {
	done chan struct{}
	val  R
	err  error
}

// Backend is an optional second storage tier under a Cache: a persistent
// or shared store of completed results keyed by the same canonical hash.
// The in-memory entry map remains the first tier (and the default, with a
// nil Backend); on a miss there, the filling goroutine consults the
// backend before running, and writes successful results back to it.
//
// Both calls happen inside the singleflight fill — concurrent requests for
// one key wait on the fill rather than racing to the backend — so an
// arbitrarily slow Backend (disk, network) costs latency but can never
// break dedup: Get and Run are each invoked at most once per key per
// Cache. Implementations must be safe for concurrent use and must treat
// Get misses as cheap (they are on every first simulation).
type Backend[R any] interface {
	// Get returns the stored result for key, if present.
	Get(key string) (R, bool)
	// Put stores a successful result under key. Best effort: a Put that
	// fails internally must simply drop the value, not panic.
	Put(key string, val R)
}

// Cache is a shared, concurrency-safe result cache keyed by canonical
// config strings. The zero value is not usable; call NewCache.
type Cache[R any] struct {
	mu      sync.Mutex
	entries map[string]*entry[R]
	backend Backend[R]
}

// NewCache returns an empty cache, shareable across Pools.
func NewCache[R any]() *Cache[R] {
	return &Cache[R]{entries: make(map[string]*entry[R])}
}

// SetBackend layers a second-tier store under the in-memory cache. Call it
// before the cache is shared; entries already resident stay in memory.
func (c *Cache[R]) SetBackend(b Backend[R]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.backend = b
}

// Len reports how many results (including in-flight ones) the cache holds.
func (c *Cache[R]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Pool executes config lists through worker goroutines. Run is required;
// everything else has useful zero-value behavior.
type Pool[C, R any] struct {
	// Run executes one config. It must be safe for concurrent use and
	// deterministic in its config (the determinism guarantee of MapSpan is
	// exactly the determinism of Run). The span is the run's telemetry
	// scope — nil unless MapSpan was handed a parent span and telemetry is
	// active — and implementations may attach attributes or child spans to
	// it; it must never influence the result.
	Run func(sp *telemetry.Span, cfg C) (R, error)
	// Key returns the canonical cache key for a config, or ok=false for
	// configs that must not be cached. Nil disables caching entirely.
	Key func(C) (key string, ok bool)
	// Cache holds results across MapSpan calls. If nil and Key is set, the
	// Pool lazily creates a private cache on first use.
	Cache *Cache[R]
	// Offload, when set, is consulted for each cacheable config after the
	// cache tiers miss and before Run: it may compute the result elsewhere
	// (e.g. on a remote worker fleet), returning ok=false to fall back to
	// the local Run. It is invoked inside the singleflight fill — at most
	// once per key per Cache, with duplicates parked on the fill — and its
	// successful results are written back to the Backend exactly like local
	// runs. Uncacheable configs (Key ok=false, or no Key) never offload:
	// without a canonical identity there is nothing to route or verify.
	// Offload must be safe for concurrent use, and to preserve MapSpan's
	// determinism guarantee it must return results bit-identical to Run's
	// (the cluster layer asserts this end to end). The span is the
	// attempt's telemetry scope (nil when telemetry is off) and must never
	// influence the result.
	Offload func(sp *telemetry.Span, key string, cfg C) (R, bool)
	// Workers caps concurrent runs; <= 0 means runtime.GOMAXPROCS(0).
	Workers int

	initOnce sync.Once // guards lazy Cache creation
}

func (p *Pool[C, R]) workers(n int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// MapSpan runs every config and returns the results in input order:
// results[i] always corresponds to cfgs[i], no matter which worker
// finished it or whether it came from the cache. The returned error joins
// the failures of every failing index (nil if all succeeded); results at
// failing indices are zero values.
//
// parent is the telemetry scope: when it is a live span, each config's
// lifecycle stages — the cache tier that satisfied it (memory, disk,
// fleet) and the local run — are recorded as child spans, one timeline
// lane per worker goroutine, plus a final merge span covering the
// index-ordered result assembly. A nil parent (or disabled telemetry)
// records nothing: spans are nil and every telemetry call is a no-op.
// Results are unaffected either way.
func (p *Pool[C, R]) MapSpan(parent *telemetry.Span, cfgs []C) ([]R, Stats, error) {
	start := time.Now()
	n := len(cfgs)
	results := make([]R, n)
	errs := make([]error, n)
	st := Stats{Total: n, Workers: p.workers(n)}
	if n == 0 {
		return results, st, nil
	}

	p.initOnce.Do(func() {
		if p.Cache == nil && p.Key != nil {
			p.Cache = NewCache[R]()
		}
	})
	cache := p.Cache

	st.Cached = make([]bool, n)
	var mu sync.Mutex // guards st counters
	finish := func(cached, offloaded, panicked bool, err error) {
		mu.Lock()
		defer mu.Unlock()
		if cached {
			st.CacheHits++
		} else {
			st.Executed++
		}
		if offloaded {
			st.Offloaded++
		}
		if err != nil {
			st.Errors++
		}
		if panicked {
			st.Panics++
		}
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < st.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lane := ""
			if parent != nil {
				lane = fmt.Sprintf("pool-%d", w)
			}
			for i := range idx {
				val, err, cached, offloaded, panicked := p.one(parent, lane, i, cache, cfgs[i])
				results[i], errs[i], st.Cached[i] = val, err, cached
				finish(cached, offloaded, panicked, err)
			}
		}(w)
	}
	for i := range cfgs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	msp := parent.Child("merge")
	st.Wall = time.Since(start)
	var joined []error
	for i, err := range errs {
		if err != nil {
			joined = append(joined, fmt.Errorf("config %d: %w", i, err))
		}
	}
	if msp != nil {
		msp.SetAttr("total", st.Total)
		msp.SetAttr("executed", st.Executed)
		msp.SetAttr("cache_hits", st.CacheHits)
		msp.SetAttr("errors", st.Errors)
		msp.End()
	}
	return results, st, errors.Join(joined...)
}

// stage opens one lifecycle child span on a worker's lane (nil-safe).
func stage(parent *telemetry.Span, lane, name string, idx int) *telemetry.Span {
	sp := parent.Child(name)
	if sp != nil {
		sp.SetLane(lane)
		sp.SetAttr("idx", idx)
	}
	return sp
}

// one executes a single config, consulting the cache when possible.
func (p *Pool[C, R]) one(parent *telemetry.Span, lane string, i int, cache *Cache[R], cfg C) (val R, err error, cached, offloaded, panicked bool) {
	if p.Key == nil || cache == nil {
		val, err, panicked = p.runStage(parent, lane, i, cfg)
		return val, err, false, false, panicked
	}
	key, ok := p.Key(cfg)
	if !ok {
		val, err, panicked = p.runStage(parent, lane, i, cfg)
		return val, err, false, false, panicked
	}
	cache.mu.Lock()
	e, hit := cache.entries[key]
	var backend Backend[R]
	if !hit {
		e = &entry[R]{done: make(chan struct{})}
		cache.entries[key] = e
		backend = cache.backend
	}
	cache.mu.Unlock()
	if hit {
		// A waiter never fills an entry, and a filler never waits, so
		// this cannot deadlock: every wait chain ends at a running fill.
		sp := stage(parent, lane, "cache.memory", i)
		<-e.done
		sp.End()
		return e.val, e.err, true, false, false
	}
	// Filling goroutine: the backend lookup, the offload attempt, and the
	// run all happen here, with every duplicate request parked on e.done,
	// so a slow backend or remote worker delays this key without admitting
	// duplicate Gets, offloads, or runs.
	if backend != nil {
		sp := stage(parent, lane, "cache.disk", i)
		v, ok := backend.Get(key)
		sp.SetAttr("hit", ok)
		sp.End()
		if ok {
			e.val = v
			close(e.done)
			return e.val, nil, true, false, false
		}
	}
	if p.Offload != nil {
		sp := stage(parent, lane, "cache.fleet", i)
		v, ok := p.Offload(sp, key, cfg)
		sp.SetAttr("hit", ok)
		sp.End()
		if ok {
			e.val = v
			if backend != nil {
				backend.Put(key, e.val)
			}
			close(e.done)
			return e.val, nil, false, true, false
		}
	}
	e.val, e.err, panicked = p.runStage(parent, lane, i, cfg)
	if e.err == nil && backend != nil {
		// Persist before publishing: once a result is observable, it is
		// durable, so a drained shutdown cannot strand completed work.
		backend.Put(key, e.val)
	}
	close(e.done)
	return e.val, e.err, false, false, panicked
}

// runStage wraps a local run in its telemetry span.
func (p *Pool[C, R]) runStage(parent *telemetry.Span, lane string, i int, cfg C) (val R, err error, panicked bool) {
	sp := stage(parent, lane, "run", i)
	val, err, panicked = p.safeRun(sp, cfg)
	if sp != nil {
		sp.SetAttr("err", err != nil)
		sp.End()
	}
	return val, err, panicked
}

// safeRun invokes Run with panic recovery, converting a panic into an
// error that carries the panic value and stack.
func (p *Pool[C, R]) safeRun(sp *telemetry.Span, cfg C) (val R, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			err = fmt.Errorf("pool: run panicked: %v\n%s", r, debug.Stack())
		}
	}()
	val, err = p.Run(sp, cfg)
	return val, err, false
}
