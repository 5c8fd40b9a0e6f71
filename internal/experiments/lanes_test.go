package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"hetsim/internal/migrate"
	"hetsim/internal/topology"
	"hetsim/internal/trace"
)

// encodeResult renders a Result to its canonical wire bytes (the same JSON
// the persistent cache stores), so byte equality means every field —
// including histogram internals and float sums — is bit-identical.
func encodeResult(t *testing.T, r Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return b
}

// laneRun executes rc directly (no cache — a cached lanes=1 result would
// satisfy a laned request and defeat the comparison).
func laneRun(t *testing.T, rc RunConfig) []byte {
	t.Helper()
	res, err := Run(rc)
	if err != nil {
		t.Fatalf("run (lanes=%d): %v", rc.Lanes, err)
	}
	return encodeResult(t, res)
}

// TestLaneDeterminism is the tentpole's acceptance gate: on every topology
// preset, simulating with 2, 4, and 8 event lanes must produce Results
// byte-identical to the sequential run. Runs go through Run directly, never
// the cache, so each lane count is genuinely simulated.
func TestLaneDeterminism(t *testing.T) {
	for _, preset := range []string{"k40-ddr4", "gh200", "cxl-expansion"} {
		top, err := topology.Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		for _, wl := range []string{"bfs", "stencil"} {
			base := RunConfig{
				Workload: wl,
				Policy:   BWAwarePolicy,
				Mem:      top.MemsysConfig(),
				Shrink:   16,
			}
			base.Lanes = 1
			want := laneRun(t, base)
			for _, lanes := range []int{2, 4, 8} {
				rc := base
				rc.Lanes = lanes
				if got := laneRun(t, rc); !bytes.Equal(got, want) {
					t.Errorf("%s/%s: lanes=%d result diverged from lanes=1 (%d vs %d bytes)",
						preset, wl, lanes, len(got), len(want))
				}
			}
		}
	}
}

// TestLaneDeterminismReplay is the replay row of the lane suite: one
// recorded bfs trace, replayed under BW-AWARE on every preset, must give
// byte-identical Results at 1, 2, 4 and 8 lanes. Replays run through the
// same assembly as Run, so they size every pool of the topology.
func TestLaneDeterminismReplay(t *testing.T) {
	events := recordEvents(t, RunConfig{Workload: "bfs", Policy: BWAwarePolicy, Shrink: 16})
	replay := trace.ReplayConfig{Warps: 64, AccessesPerPhase: 8, MLP: 8}
	for _, preset := range []string{"k40-ddr4", "gh200", "cxl-expansion"} {
		top, err := topology.Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for _, lanes := range []int{1, 2, 4, 8} {
			res, err := RunTrace(events, RunConfig{Policy: BWAwarePolicy, Mem: top.MemsysConfig(), Lanes: lanes}, replay)
			if err != nil {
				t.Fatalf("%s lanes=%d: %v", preset, lanes, err)
			}
			got := encodeResult(t, res)
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Errorf("%s: replay at lanes=%d diverged from lanes=1 (%d vs %d bytes)",
					preset, lanes, len(got), len(want))
			}
		}
	}
}

// TestLaneRatioExtremesDeterminism covers the placement extremes on every
// preset: PercentCO 0 and 100 funnel all traffic into a single pool, which
// on cxl-expansion means two channels absorb everything and the slice MSHRs
// run full. That shape once deadlocked (a stalled request was never woken
// when the retry of another hit in the just-filled L2 — see
// cache.TestMSHRStallNoStarvation); it must both complete and stay
// byte-identical across lane counts.
func TestLaneRatioExtremesDeterminism(t *testing.T) {
	for _, preset := range []string{"k40-ddr4", "gh200", "cxl-expansion"} {
		top, err := topology.Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		for _, pc := range []int{0, 100} {
			base := RunConfig{
				Workload:  "bfs",
				Policy:    RatioPolicy,
				PercentCO: pc,
				Mem:       top.MemsysConfig(),
				Shrink:    16,
			}
			base.Lanes = 1
			want := laneRun(t, base)
			rc := base
			rc.Lanes = 8
			if got := laneRun(t, rc); !bytes.Equal(got, want) {
				t.Errorf("%s/ratio %dC: lanes=8 result diverged from lanes=1", preset, pc)
			}
		}
	}
}

// TestLaneFigureByteIdentical renders a figure at lanes=8 and lanes=1
// through isolated caches and requires identical text, CSV, and headline
// bytes — the figure-level form of the acceptance criterion.
func TestLaneFigureByteIdentical(t *testing.T) {
	for _, preset := range []string{"", "gh200", "cxl-expansion"} {
		opts := Options{
			Shrink:    16,
			Workloads: []string{"bfs", "stencil"},
			Topology:  preset,
			Cache:     NewResultCache(),
			Lanes:     1,
		}
		seq, err := Fig2a(opts)
		if err != nil {
			t.Fatalf("%q lanes=1: %v", preset, err)
		}
		opts.Cache = NewResultCache()
		opts.Lanes = 8
		laned, err := Fig2a(opts)
		if err != nil {
			t.Fatalf("%q lanes=8: %v", preset, err)
		}
		if got, want := laned.Table.String(), seq.Table.String(); got != want {
			t.Errorf("%q: figure text diverged at lanes=8:\n got %q\nwant %q", preset, got, want)
		}
		if got, want := laned.Table.CSV(), seq.Table.CSV(); got != want {
			t.Errorf("%q: figure CSV diverged at lanes=8", preset)
		}
		if got, want := fmt.Sprint(laned.Headline), fmt.Sprint(seq.Headline); got != want {
			t.Errorf("%q: headlines diverged at lanes=8:\n got %v\nwant %v", preset, got, want)
		}
	}
}

// TestLaneCacheKeyIgnoresLanes pins the cache-identity contract: because
// laned output is byte-identical, RunConfig.Lanes must not influence the
// canonical key — a cached sequential result satisfies a laned request.
func TestLaneCacheKeyIgnoresLanes(t *testing.T) {
	rc := RunConfig{Workload: "bfs", Policy: BWAwarePolicy, Shrink: 16}
	k0, ok0 := canonicalKey(rc)
	rc.Lanes = 8
	k8, ok8 := canonicalKey(rc)
	if !ok0 || !ok8 {
		t.Fatal("configs unexpectedly uncacheable")
	}
	if k0 != k8 {
		t.Errorf("canonical key depends on Lanes: %s vs %s", k0, k8)
	}
}

// TestLaneFallbackSequential: features that need a single thread (here,
// migration) must silently fall back to one lane and still match the
// sequential run byte for byte.
func TestLaneFallbackSequential(t *testing.T) {
	mig := migrate.DefaultConfig()
	base := RunConfig{
		Workload:       "bfs",
		Policy:         RatioPolicy,
		PercentCO:      50,
		BOCapacityFrac: 0.1,
		Migration:      &mig,
		Shrink:         16,
	}
	want := laneRun(t, base)
	rc := base
	rc.Lanes = 8
	if got := laneRun(t, rc); !bytes.Equal(got, want) {
		t.Error("migration run with Lanes=8 diverged from sequential (fallback should force one lane)")
	}
}
