package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"hetsim/internal/cache"
	"hetsim/internal/memsys"
	"hetsim/internal/migrate"
	"hetsim/internal/obs"
	"hetsim/internal/telemetry"
	"hetsim/internal/tlb"
	"hetsim/internal/topology"
	"hetsim/internal/trace"
)

// A finished run hands its hardware to the next: runTraced releases the
// memory system (slices, L2 tag arrays, MSHR files, DRAM channels, access
// records, page tables of counts and states), the GPU (SMs, L1s, warp
// contexts), the page table and the engine, and each constructor resets
// what it takes. A reused part must simulate exactly like a new one,
// whatever ran on it before. The tests below run the same runs after
// different predecessors and require byte-equal results.

// handOverRun is one run of a hand-over sequence. run returns the result's
// JSON, followed by the probe's series for a probed run.
type handOverRun struct {
	name string
	run  func() (string, error)
}

// handOverRuns is a sequence that changes every part's geometry or mode
// from one run to the next: three topologies with 12, 24 and 14 channel
// slices and 16- and 32-bank DRAM, an L2-less system, two runs in a row
// with Random L2 replacement, a TLB with 64 kB pages, online migration,
// CPU co-traffic, ORACLE, a probed run and a trace replay, over workloads
// with sequential, Zipf and gather patterns.
func handOverRuns(t *testing.T) []handOverRun {
	t.Helper()
	preset := func(name string) memsys.Config {
		tp, err := topology.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		return tp.MemsysConfig()
	}
	noL2 := memsys.Table1Config()
	noL2.DisableL2 = true
	randomL2 := memsys.Table1Config()
	randomL2.L2Replace = cache.Random
	gh200, cxl := preset("gh200"), preset("cxl-expansion")
	mig := migrate.DefaultConfig()
	pageTLB := tlb.DefaultConfig()

	prof, err := Run(RunConfig{Workload: "histo", Policy: LocalPolicy, Shrink: 16})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, _, err := RecordTrace(RunConfig{Workload: "hotspot", Policy: LocalPolicy, Shrink: 16}, &buf); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}

	plain := func(rc RunConfig) func() (string, error) {
		return func() (string, error) { return marshalResult(Run(rc)) }
	}
	cfgs := []struct {
		name string
		rc   RunConfig
	}{
		{"bfs k40-ddr4", RunConfig{Workload: "bfs", Policy: BWAwarePolicy}},
		{"xsbench gh200", RunConfig{Workload: "xsbench", Policy: LocalPolicy, Mem: gh200}},
		{"lbm cxl-expansion migration", RunConfig{Workload: "lbm", Policy: BWAwarePolicy, Mem: cxl, BOCapacityFrac: 0.1, Migration: &mig}},
		{"spmv no L2", RunConfig{Workload: "spmv", Policy: InterleavePolicy, Mem: noL2}},
		{"mummergpu random L2", RunConfig{Workload: "mummergpu", Policy: BWAwarePolicy, Mem: randomL2}},
		{"kmeans random L2", RunConfig{Workload: "kmeans", Policy: LocalPolicy, Mem: randomL2}},
		{"nbody TLB 64k pages", RunConfig{Workload: "nbody", Policy: RatioPolicy, PercentCO: 30, TLB: &pageTLB, PageSize: 64 << 10}},
		{"histo oracle 10%", RunConfig{Workload: "histo", Policy: OraclePolicy, ProfileCounts: prof.PageCounts, BOCapacityFrac: 0.1}},
		{"phased CPU traffic", RunConfig{Workload: "phased", Policy: BWAwarePolicy, CPUTrafficGBps: 40}},
		{"sgemm gh200", RunConfig{Workload: "sgemm", Policy: BWAwarePolicy, Mem: gh200}},
	}
	var runs []handOverRun
	for _, c := range cfgs {
		c.rc.Shrink = 16
		runs = append(runs, handOverRun{c.name, plain(c.rc)})
	}
	runs = append(runs,
		handOverRun{"stencil probed", func() (string, error) {
			p, err := obs.New(obs.Config{Interval: 2000, MaxSamples: 512})
			if err != nil {
				return "", err
			}
			s, err := marshalResult(Run(RunConfig{Workload: "stencil", Policy: BWAwarePolicy, Shrink: 16}.WithProbe(p)))
			if err != nil {
				return "", err
			}
			// The next run takes the parts the probed run released; the
			// probe took its last sample inside its run, so its series
			// stays as it was.
			before := p.Snapshot()
			if _, err := Run(RunConfig{Workload: "lbm", Policy: LocalPolicy, Shrink: 16}); err != nil {
				return "", err
			}
			after := p.Snapshot()
			if !reflect.DeepEqual(before, after) {
				return "", fmt.Errorf("the probe's series changed when a later run reused its run's parts")
			}
			series, err := json.Marshal(after)
			return s + "\n" + string(series), err
		}},
		handOverRun{"hotspot trace replay on cxl-expansion", func() (string, error) {
			return marshalResult(RunTrace(events, RunConfig{Policy: BWAwarePolicy, Mem: cxl},
				trace.ReplayConfig{Warps: 64, AccessesPerPhase: 8, MLP: 8}))
		}},
	)
	return runs
}

func marshalResult(res Result, err error) (string, error) {
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(res)
	return string(b), err
}

// runInOrder runs runs[i] for each i of order on one goroutine and
// returns the outputs indexed like runs.
func runInOrder(t *testing.T, runs []handOverRun, order []int) []string {
	t.Helper()
	out := make([]string, len(runs))
	for _, i := range order {
		s, err := runs[i].run()
		if err != nil {
			t.Fatalf("%s: %v", runs[i].name, err)
		}
		out[i] = s
	}
	return out
}

func forwardOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

func reverseOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = n - 1 - i
	}
	return order
}

func requireSameOutputs(t *testing.T, pass string, runs []handOverRun, want, got []string) {
	t.Helper()
	for i := range runs {
		if got[i] != want[i] {
			t.Errorf("%s: %s differs from the forward pass:\n got %.300s\nwant %.300s", pass, runs[i].name, got[i], want[i])
		}
	}
}

// TestHandOverMixedSequence runs handOverRuns forward and reversed on one
// goroutine, then on four goroutines at once, each from its own starting
// point, so parts also pass between goroutines. Every output, the probed
// run's series included, must equal the forward pass's. The probed run
// also checks that its series is unchanged after a later run reuses its
// parts; in the concurrent pass, other runs hold those parts while it
// reads the series, which the race detector checks.
func TestHandOverMixedSequence(t *testing.T) {
	runs := handOverRuns(t)
	n := len(runs)
	forward := runInOrder(t, runs, forwardOrder(n))
	requireSameOutputs(t, "reversed", runs, forward, runInOrder(t, runs, reverseOrder(n)))

	const goroutines = 4
	got := make([][]string, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = make([]string, n)
			for k := range n {
				i := (k + g*n/goroutines) % n
				if got[g][i], errs[g] = runs[i].run(); errs[g] != nil {
					errs[g] = fmt.Errorf("%s: %w", runs[i].name, errs[g])
					return
				}
			}
		}()
	}
	wg.Wait()
	for g := range goroutines {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		requireSameOutputs(t, fmt.Sprintf("goroutine %d of %d", g, goroutines), runs, forward, got[g])
	}
}

// TestHandOverFigureConfigs records the runs every figure simulates at
// Shrink 16 on one worker (the cacheable ones, which an executor offers to
// its remote runner), with their outputs, then runs them again in reverse
// order: each must give the same Result JSON after either neighbour.
func TestHandOverFigureConfigs(t *testing.T) {
	var runs []handOverRun
	var forward []string
	var mu sync.Mutex
	opts := Options{
		Shrink:    16,
		Workloads: []string{"bfs", "lbm"},
		Workers:   1,
		Cache:     NewResultCache(),
		Remote: func(_ *telemetry.Span, key string, rc RunConfig) (Result, bool) {
			res, err := Run(rc)
			s, merr := marshalResult(res, err)
			mu.Lock()
			defer mu.Unlock()
			runs = append(runs, handOverRun{key[:12], func() (string, error) { return marshalResult(Run(rc)) }})
			forward = append(forward, s)
			return res, err == nil && merr == nil
		},
	}
	for _, id := range IDs() {
		fn, _ := ByID(id)
		if _, err := fn(opts); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if len(runs) < 100 {
		t.Fatalf("recorded %d figure runs, want at least 100", len(runs))
	}
	requireSameOutputs(t, "reversed", runs, forward, runInOrder(t, runs, reverseOrder(len(runs))))
}
