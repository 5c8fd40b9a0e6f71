package pool

import (
	"fmt"
	"sync"
	"testing"

	"hetsim/internal/telemetry"
)

// TestMapSpanRecordsLifecycle: a traced sweep records one run span per
// executed config, cache.memory spans for singleflight waiters, and a
// merge span — all on worker lanes, all under one trace ID. Run with
// -race this doubles as the concurrency check for the span recorder and
// its histograms under a parallel pooled sweep.
func TestMapSpanRecordsLifecycle(t *testing.T) {
	rec := telemetry.NewRecorder()
	rec.SetEnabled(true)
	root := rec.Trace("").Start(nil, "sweep")

	p := &Pool[int, int]{
		Workers: 4,
		Key:     func(i int) (string, bool) { return fmt.Sprintf("k%d", i%4), true },
		Run:     func(_ *telemetry.Span, i int) (int, error) { return i, nil },
	}
	n := 32
	cfgs := make([]int, n)
	for i := range cfgs {
		cfgs[i] = i
	}
	_, st, err := p.MapSpan(root, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	byName := map[string]int{}
	lanes := map[string]bool{}
	for _, r := range rec.Records() {
		byName[r.Name]++
		if r.TraceID != root.TraceID() {
			t.Fatalf("span %q on trace %q, want %q", r.Name, r.TraceID, root.TraceID())
		}
		if r.Lane != "" {
			lanes[r.Lane] = true
		}
	}
	if byName["run"] != st.Executed {
		t.Errorf("run spans = %d, want executed %d", byName["run"], st.Executed)
	}
	if byName["cache.memory"] != st.CacheHits {
		t.Errorf("cache.memory spans = %d, want cache hits %d", byName["cache.memory"], st.CacheHits)
	}
	if byName["merge"] != 1 {
		t.Errorf("merge spans = %d, want 1", byName["merge"])
	}
	if len(lanes) == 0 {
		t.Error("no worker lanes recorded")
	}
}

// TestMapSpanOffloadAndDiskSpans: the disk and fleet cache tiers get their
// own spans when consulted.
func TestMapSpanOffloadAndDiskSpans(t *testing.T) {
	rec := telemetry.NewRecorder()
	rec.SetEnabled(true)
	root := rec.Trace("").Start(nil, "sweep")

	cache := NewCache[int]()
	cache.SetBackend(mapBackend[int]{})
	p := &Pool[int, int]{
		Workers: 2,
		Key:     func(i int) (string, bool) { return fmt.Sprintf("k%d", i), true },
		Cache:   cache,
		Offload: func(sp *telemetry.Span, key string, i int) (int, bool) { return i, true },
		Run: func(_ *telemetry.Span, i int) (int, error) {
			t.Error("local run despite offload")
			return 0, nil
		},
	}
	if _, _, err := p.MapSpan(root, []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	root.End()

	byName := map[string]int{}
	for _, r := range rec.Records() {
		byName[r.Name]++
	}
	if byName["cache.disk"] != 3 || byName["cache.fleet"] != 3 {
		t.Errorf("tier spans = disk:%d fleet:%d, want 3 each", byName["cache.disk"], byName["cache.fleet"])
	}
}

// mapBackend is an always-missing in-memory Backend for tier-span tests.
type mapBackend[R any] struct{}

func (mapBackend[R]) Get(string) (R, bool) { var z R; return z, false }
func (mapBackend[R]) Put(string, R)        {}

// TestMapDisabledTelemetryRecordsNothing: MapSpan with a nil parent
// against a live recorder, and with a disabled one, must both leave the
// recorder empty — the disabled path is the default and must stay free.
func TestMapDisabledTelemetryRecordsNothing(t *testing.T) {
	rec := telemetry.NewRecorder()
	p := &Pool[int, int]{
		Workers: 4,
		Run:     func(_ *telemetry.Span, i int) (int, error) { return i, nil },
	}

	// Disabled recorder: Start yields nil, MapSpan sees a nil parent.
	root := rec.Trace("").Start(nil, "sweep")
	if root != nil {
		t.Fatal("disabled recorder produced a live span")
	}
	if _, _, err := p.MapSpan(root, []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}

	// A nil parent never records, even with recording on elsewhere.
	rec.SetEnabled(true)
	if _, _, err := p.MapSpan(nil, []int{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if n := rec.SpanCount(); n != 0 {
		t.Errorf("recorder buffered %d spans, want 0", n)
	}
}

// TestMapSpanConcurrentPools: several traced sweeps sharing one recorder —
// the -race check for concurrent MapSpan instrumentation across pools.
func TestMapSpanConcurrentPools(t *testing.T) {
	rec := telemetry.NewRecorder()
	rec.SetEnabled(true)

	var wg sync.WaitGroup
	const sweeps = 4
	for s := 0; s < sweeps; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			root := rec.Trace("").Start(nil, "sweep")
			p := &Pool[int, int]{
				Workers: 3,
				Run:     func(_ *telemetry.Span, i int) (int, error) { return i * s, nil },
			}
			cfgs := []int{1, 2, 3, 4, 5, 6}
			if _, _, err := p.MapSpan(root, cfgs); err != nil {
				t.Error(err)
			}
			root.End()
		}(s)
	}
	wg.Wait()

	// 4 sweeps x (6 runs + 1 merge + 1 root).
	if n := rec.SpanCount(); n != sweeps*8 {
		t.Errorf("recorder buffered %d spans, want %d", n, sweeps*8)
	}
}
