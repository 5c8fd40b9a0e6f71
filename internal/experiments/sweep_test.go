package experiments

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetsim/internal/memsys"
	"hetsim/internal/telemetry"
)

// mixedPolicyConfigs is a sweep list spanning every deterministic policy
// family, two workloads, and non-default seeds/capacities — the
// worst-case surface for a parallelism-induced nondeterminism bug.
func mixedPolicyConfigs(t *testing.T) []RunConfig {
	t.Helper()
	var cfgs []RunConfig
	for _, wl := range []string{"bfs", "stencil"} {
		base := RunConfig{Workload: wl, Shrink: 16}
		local := base
		local.Policy = LocalPolicy
		inter := base
		inter.Policy = InterleavePolicy
		bw := base
		bw.Policy = BWAwarePolicy
		bw.Seed = 7
		ratio := base
		ratio.Policy = RatioPolicy
		ratio.PercentCO = 30
		capped := base
		capped.Policy = BWAwarePolicy
		capped.BOCapacityFrac = 0.5
		cfgs = append(cfgs, local, inter, bw, ratio, capped)
	}
	return cfgs
}

// TestSweepDeterminism: pool dispatch with workers=1 and workers=N yields
// bit-identical Result slices for a mixed-policy config list. Isolated
// executors keep the shared cache from trivially satisfying the test.
func TestSweepDeterminism(t *testing.T) {
	cfgs := mixedPolicyConfigs(t)
	serial, err := NewIsolatedExecutor(1).Map(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewIsolatedExecutor(8).Map(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("config %d (%s/%s): workers=1 and workers=8 results differ",
				i, cfgs[i].Workload, cfgs[i].Policy)
		}
	}
}

// TestSweepCache: duplicate configs in one batch are simulated once and
// served identical results; a second batch is answered entirely from the
// cache. Differences Run ignores (a BW-AWARE run carrying ProfileCounts,
// an explicit default seed) must share the cache slot.
func TestSweepCache(t *testing.T) {
	e := NewIsolatedExecutor(4)
	rc := RunConfig{Workload: "bfs", Policy: BWAwarePolicy, Shrink: 16}
	equivalent := rc
	equivalent.Seed = 42                         // Run's default seed
	equivalent.ProfileCounts = []uint64{1, 2, 3} // ignored unless OraclePolicy
	distinct := rc
	distinct.Seed = 7

	cfgs := []RunConfig{rc, rc, equivalent, rc, distinct}
	res, err := e.Map(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Runs != 2 {
		t.Errorf("executed %d runs, want 2 (rc-equivalents dedup to one, distinct seed is second)", st.Runs)
	}
	if st.CacheHits != 3 {
		t.Errorf("cache hits = %d, want 3", st.CacheHits)
	}
	for _, i := range []int{1, 2, 3} {
		if !reflect.DeepEqual(res[0], res[i]) {
			t.Errorf("duplicate config %d got a different result than config 0", i)
		}
	}
	if reflect.DeepEqual(res[0], res[4]) {
		t.Error("distinct seed shared a result with the default seed")
	}

	// Second batch: everything already cached.
	e2 := e.Stats()
	if _, err := e.Map(cfgs[:4]); err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if after.Runs != e2.Runs {
		t.Errorf("second batch executed %d new runs, want 0", after.Runs-e2.Runs)
	}
	if after.CacheHits != e2.CacheHits+4 {
		t.Errorf("second batch cache hits = %d, want 4", after.CacheHits-e2.CacheHits)
	}
}

// TestSweepUncacheableKey: trace-recording configs must bypass the cache.
func TestSweepUncacheableKey(t *testing.T) {
	rc := RunConfig{Workload: "bfs", Policy: LocalPolicy, Shrink: 16}
	if _, ok := canonicalKey(rc); !ok {
		t.Fatal("plain config should be cacheable")
	}
	rc.traceWriter = nil
	k1, _ := canonicalKey(rc)
	rc.Shrink = 8
	k2, _ := canonicalKey(rc)
	if k1 == k2 {
		t.Error("different shrink collided on one cache key")
	}
}

// TestSweepParallelSpeedup: a 2-worker executor really runs two configs of
// the Figure 2a grid at once. The first run to start holds until a second
// one has started, so a pool that dispatched serially would fail the test
// on any host instead of merely being slow; wall-clock speedup is only
// logged, since on a small shared host the serial and parallel timings
// overlap.
func TestSweepParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timed test")
	}
	opts := Options{Workloads: []string{"bfs", "stencil", "lbm", "hotspot"}, Shrink: 8}
	cfgs := fig2aConfigs(opts, memsys.Table1Config()) // 4 workloads x 5 bandwidth scales

	measure := func(e *Executor) time.Duration {
		start := time.Now()
		if _, err := e.Map(cfgs); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	serial := measure(NewIsolatedExecutor(1))

	e := NewIsolatedExecutor(2)
	var inflight, peak atomic.Int32
	second := make(chan struct{})
	var once sync.Once
	run := e.p.Run
	e.p.Run = func(sp *telemetry.Span, rc RunConfig) (Result, error) {
		n := inflight.Add(1)
		defer inflight.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		if n >= 2 {
			once.Do(func() { close(second) })
		}
		select {
		case <-second:
		case <-time.After(30 * time.Second):
			once.Do(func() { close(second) }) // serial pool: let the rest run
		}
		return run(sp, rc)
	}
	parallel := measure(e)
	t.Logf("Fig2a grid (%d runs): serial %v, parallel %v (%.1fx, 2 workers, GOMAXPROCS %d)",
		len(cfgs), serial, parallel, float64(serial)/float64(parallel), runtime.GOMAXPROCS(0))
	if got := peak.Load(); got < 2 {
		t.Errorf("2-worker sweep ran at most %d config at a time, want 2", got)
	}
}

// BenchmarkFig2aSweepSerial and ...Parallel record the figure-sweep
// scaling headline: the same Fig2a grid through one worker vs GOMAXPROCS.
func BenchmarkFig2aSweepSerial(b *testing.B)   { benchFig2aSweep(b, 1) }
func BenchmarkFig2aSweepParallel(b *testing.B) { benchFig2aSweep(b, 0) }

func benchFig2aSweep(b *testing.B, workers int) {
	opts := Options{Workloads: []string{"bfs", "stencil", "lbm", "hotspot"}, Shrink: 8}
	cfgs := fig2aConfigs(opts, memsys.Table1Config())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewIsolatedExecutor(workers)
		if _, err := e.Map(cfgs); err != nil {
			b.Fatal(err)
		}
	}
}
