package pool

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetsim/internal/telemetry"
)

// TestMapOrdering: results land at the index of their input regardless of
// completion order. Later configs finish first (they sleep less).
func TestMapOrdering(t *testing.T) {
	n := 32
	cfgs := make([]int, n)
	for i := range cfgs {
		cfgs[i] = i
	}
	p := &Pool[int, string]{
		Workers: 8,
		Run: func(_ *telemetry.Span, i int) (string, error) {
			time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
			return fmt.Sprintf("r%d", i), nil
		},
	}
	res, st, err := p.MapSpan(nil, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if want := fmt.Sprintf("r%d", i); r != want {
			t.Errorf("res[%d] = %q, want %q", i, r, want)
		}
	}
	if st.Executed != n || st.CacheHits != 0 || st.Total != n {
		t.Errorf("stats = %+v, want %d executed", st, n)
	}
}

// TestMapPanicRecovery: a panicking run becomes that index's error; other
// runs complete normally.
func TestMapPanicRecovery(t *testing.T) {
	p := &Pool[int, int]{
		Workers: 4,
		Run: func(_ *telemetry.Span, i int) (int, error) {
			if i == 2 {
				panic("boom")
			}
			return i * 10, nil
		},
	}
	res, st, err := p.MapSpan(nil, []int{0, 1, 2, 3})
	if err == nil {
		t.Fatal("want error from panicking run")
	}
	if !strings.Contains(err.Error(), "config 2") || !strings.Contains(err.Error(), "boom") {
		t.Errorf("error %q should name config 2 and the panic value", err)
	}
	if res[0] != 0 || res[1] != 10 || res[3] != 30 {
		t.Errorf("healthy results corrupted: %v", res)
	}
	if st.Panics != 1 || st.Errors != 1 {
		t.Errorf("stats = %+v, want 1 panic, 1 error", st)
	}
}

// TestMapErrorCollection: every failing index is reported, not just the
// first.
func TestMapErrorCollection(t *testing.T) {
	sentinel := errors.New("bad cfg")
	p := &Pool[int, int]{
		Workers: 2,
		Run: func(_ *telemetry.Span, i int) (int, error) {
			if i%2 == 1 {
				return 0, fmt.Errorf("%w %d", sentinel, i)
			}
			return i, nil
		},
	}
	_, st, err := p.MapSpan(nil, []int{0, 1, 2, 3, 4, 5})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	for _, idx := range []string{"config 1", "config 3", "config 5"} {
		if !strings.Contains(err.Error(), idx) {
			t.Errorf("error %q missing %q", err, idx)
		}
	}
	if st.Errors != 3 {
		t.Errorf("Errors = %d, want 3", st.Errors)
	}
}

// TestMapCacheDedup: duplicate keys are executed once even when submitted
// concurrently in one batch, and a shared Cache carries across MapSpan calls
// and across Pools.
func TestMapCacheDedup(t *testing.T) {
	var executions atomic.Int64
	cache := NewCache[int]()
	newPool := func() *Pool[int, int] {
		return &Pool[int, int]{
			Workers: 8,
			Cache:   cache,
			Key:     func(i int) (string, bool) { return fmt.Sprintf("k%d", i%3), true },
			Run: func(_ *telemetry.Span, i int) (int, error) {
				executions.Add(1)
				time.Sleep(time.Millisecond)
				return (i % 3) * 100, nil
			},
		}
	}
	cfgs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8} // keys k0,k1,k2 three times each
	res, st, err := p0Map(t, newPool(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if got := executions.Load(); got != 3 {
		t.Errorf("executed %d runs, want 3 (one per distinct key)", got)
	}
	if st.Executed != 3 || st.CacheHits != 6 {
		t.Errorf("stats = %+v, want 3 executed + 6 hits", st)
	}
	for i, r := range res {
		if want := (i % 3) * 100; r != want {
			t.Errorf("res[%d] = %d, want %d", i, r, want)
		}
	}

	// A different Pool sharing the Cache sees only hits.
	_, st2, err := p0Map(t, newPool(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Executed != 0 || st2.CacheHits != len(cfgs) {
		t.Errorf("second pool stats = %+v, want all cache hits", st2)
	}
	if cache.Len() != 3 {
		t.Errorf("cache holds %d entries, want 3", cache.Len())
	}
}

func p0Map(t *testing.T, p *Pool[int, int], cfgs []int) ([]int, Stats, error) {
	t.Helper()
	return p.MapSpan(nil, cfgs)
}

// TestMapUncacheable: Key returning ok=false forces execution every time.
func TestMapUncacheable(t *testing.T) {
	var executions atomic.Int64
	p := &Pool[int, int]{
		Workers: 4,
		Key:     func(int) (string, bool) { return "", false },
		Run: func(_ *telemetry.Span, i int) (int, error) {
			executions.Add(1)
			return i, nil
		},
	}
	if _, st, err := p.MapSpan(nil, []int{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	} else if st.CacheHits != 0 || executions.Load() != 4 {
		t.Errorf("uncacheable configs were cached: %+v, %d executions", st, executions.Load())
	}
}

// TestMapCachedErrors: an error result is cached like any other, so
// duplicates of a failing config fail identically without re-running.
func TestMapCachedErrors(t *testing.T) {
	var executions atomic.Int64
	p := &Pool[int, int]{
		Workers: 1,
		Key:     func(i int) (string, bool) { return "same", true },
		Run: func(_ *telemetry.Span, i int) (int, error) {
			executions.Add(1)
			return 0, errors.New("always fails")
		},
	}
	_, st, err := p.MapSpan(nil, []int{1, 2, 3})
	if err == nil {
		t.Fatal("want error")
	}
	if executions.Load() != 1 {
		t.Errorf("failing config re-executed %d times, want 1", executions.Load())
	}
	if st.Errors != 3 {
		t.Errorf("Errors = %d, want 3 (error replayed to duplicates)", st.Errors)
	}
}

// TestMapEmptyAndDefaults: empty input, zero Workers (GOMAXPROCS default).
func TestMapEmptyAndDefaults(t *testing.T) {
	p := &Pool[int, int]{Run: func(_ *telemetry.Span, i int) (int, error) { return i, nil }}
	res, st, err := p.MapSpan(nil, nil)
	if err != nil || len(res) != 0 || st.Total != 0 {
		t.Fatalf("empty map: res=%v st=%+v err=%v", res, st, err)
	}
	if _, st, _ := p.MapSpan(nil, []int{1, 2}); st.Workers < 1 {
		t.Errorf("workers = %d, want >= 1", st.Workers)
	}
}

// TestMapOffload: the Offload hook runs inside the singleflight fill — at
// most once per distinct key — after the backend misses, its results are
// written back to the backend, and ok=false falls back to the local Run.
func TestMapOffload(t *testing.T) {
	backend := &slowBackend{store: map[string]int{}}
	cache := NewCache[int]()
	cache.SetBackend(backend)
	var offloads, executions atomic.Int64
	p := &Pool[int, int]{
		Workers: 8,
		Cache:   cache,
		Key:     func(i int) (string, bool) { return fmt.Sprintf("k%d", i%3), true },
		Offload: func(_ *telemetry.Span, key string, i int) (int, bool) {
			offloads.Add(1)
			if i%3 == 2 {
				return 0, false // declined: this key must run locally
			}
			return (i % 3) * 100, true
		},
		Run: func(_ *telemetry.Span, i int) (int, error) {
			executions.Add(1)
			return (i % 3) * 100, nil
		},
	}
	cfgs := make([]int, 12)
	for i := range cfgs {
		cfgs[i] = i
	}
	res, st, err := p.MapSpan(nil, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if want := (i % 3) * 100; r != want {
			t.Errorf("res[%d] = %d, want %d", i, r, want)
		}
	}
	if got := offloads.Load(); got != 3 {
		t.Errorf("Offload called %d times, want 3 (once per key)", got)
	}
	if got := executions.Load(); got != 1 {
		t.Errorf("executed %d local runs, want 1 (the declined key)", got)
	}
	if st.Offloaded != 2 || st.Executed != 3 || st.CacheHits != 9 {
		t.Errorf("stats = %+v, want 2 offloaded of 3 executed + 9 hits", st)
	}
	// Offloaded results are persisted to the backend like local runs.
	if got := backend.puts.Load(); got != 3 {
		t.Errorf("backend.Put called %d times, want 3", got)
	}
}

// TestMapOffloadUncacheable: configs without a canonical key never offload —
// there is no identity to route by.
func TestMapOffloadUncacheable(t *testing.T) {
	var offloads atomic.Int64
	p := &Pool[int, int]{
		Workers: 2,
		Key:     func(int) (string, bool) { return "", false },
		Offload: func(*telemetry.Span, string, int) (int, bool) { offloads.Add(1); return 0, true },
		Run:     func(_ *telemetry.Span, i int) (int, error) { return i, nil },
	}
	if _, st, err := p.MapSpan(nil, []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	} else if st.Offloaded != 0 || offloads.Load() != 0 {
		t.Errorf("uncacheable configs offloaded: %+v, %d calls", st, offloads.Load())
	}
}

// slowBackend is a deliberately slow second tier that counts its calls, for
// proving the singleflight guarantee of the Backend contract: Get and Run
// are each invoked at most once per key no matter how many concurrent
// duplicates arrive.
type slowBackend struct {
	delay time.Duration
	mu    sync.Mutex
	store map[string]int
	gets  atomic.Int64
	puts  atomic.Int64
}

func (b *slowBackend) Get(key string) (int, bool) {
	b.gets.Add(1)
	time.Sleep(b.delay)
	b.mu.Lock()
	defer b.mu.Unlock()
	v, ok := b.store[key]
	return v, ok
}

func (b *slowBackend) Put(key string, val int) {
	b.puts.Add(1)
	time.Sleep(b.delay)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.store[key] = val
}

// TestBackendSingleflight: an arbitrarily slow Backend cannot break dedup.
// 24 concurrent requests for 3 keys against a backend that sleeps on every
// call must produce exactly 3 backend Gets, 3 runs, and 3 Puts — duplicates
// wait on the in-memory fill rather than racing to the backend.
func TestBackendSingleflight(t *testing.T) {
	backend := &slowBackend{delay: 20 * time.Millisecond, store: map[string]int{}}
	cache := NewCache[int]()
	cache.SetBackend(backend)
	var executions atomic.Int64
	p := &Pool[int, int]{
		Workers: 16,
		Cache:   cache,
		Key:     func(i int) (string, bool) { return fmt.Sprintf("k%d", i%3), true },
		Run: func(_ *telemetry.Span, i int) (int, error) {
			executions.Add(1)
			return (i % 3) * 100, nil
		},
	}
	cfgs := make([]int, 24)
	for i := range cfgs {
		cfgs[i] = i
	}
	res, st, err := p.MapSpan(nil, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if want := (i % 3) * 100; r != want {
			t.Errorf("res[%d] = %d, want %d", i, r, want)
		}
	}
	if got := backend.gets.Load(); got != 3 {
		t.Errorf("backend.Get called %d times, want 3 (once per key)", got)
	}
	if got := executions.Load(); got != 3 {
		t.Errorf("executed %d runs, want 3", got)
	}
	if got := backend.puts.Load(); got != 3 {
		t.Errorf("backend.Put called %d times, want 3", got)
	}
	if st.Executed != 3 || st.CacheHits != 21 {
		t.Errorf("stats = %+v, want 3 executed + 21 hits", st)
	}

	// A fresh Cache over the now-populated backend: everything is a backend
	// hit, no runs, and still one Get per key.
	backend.gets.Store(0)
	backend.puts.Store(0)
	executions.Store(0)
	cache2 := NewCache[int]()
	cache2.SetBackend(backend)
	p2 := &Pool[int, int]{
		Workers: 16,
		Cache:   cache2,
		Key:     p.Key,
		Run:     p.Run,
	}
	res2, st2, err := p2.MapSpan(nil, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res2 {
		if want := (i % 3) * 100; r != want {
			t.Errorf("backend-served res[%d] = %d, want %d", i, r, want)
		}
	}
	if executions.Load() != 0 {
		t.Errorf("%d runs executed with a warm backend, want 0", executions.Load())
	}
	if got := backend.gets.Load(); got != 3 {
		t.Errorf("warm backend.Get called %d times, want 3", got)
	}
	if backend.puts.Load() != 0 {
		t.Errorf("backend hits were re-Put (%d Puts)", backend.puts.Load())
	}
	if st2.Executed != 0 || st2.CacheHits != 24 {
		t.Errorf("warm stats = %+v, want all 24 cached", st2)
	}
	for i, c := range st2.Cached {
		if !c {
			t.Errorf("Cached[%d] = false, want true for a backend hit", i)
		}
	}
}
