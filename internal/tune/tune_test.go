package tune

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"hetsim/internal/experiments"
	"hetsim/internal/telemetry"
)

// quickProblem is the test search: coarse enough that a full tune (search
// + reference + oracle) runs in well under a second.
func quickProblem() Problem {
	return Problem{Workload: "bfs", Shrink: 64}
}

func mustRun(t *testing.T, p Problem, o Options) Report {
	t.Helper()
	rep, err := Run(p, o)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// wire renders the report exactly as the HTTP layer ships it; determinism
// tests compare these bytes.
func wire(t *testing.T, rep Report) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSpaceDeterministic: the candidate grid is a fixed enumeration — its
// order is each candidate's identity for sampling and tie-breaking.
func TestSpaceDeterministic(t *testing.T) {
	a, b := Space(), Space()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Space() is not stable across calls")
	}
	if len(a) != 36 {
		t.Fatalf("Space() = %d candidates, want 36 (9 placements x 4 migrations)", len(a))
	}
	for _, c := range a {
		if err := c.Validate(); err != nil {
			t.Errorf("space candidate %s invalid: %v", c.Spec(), err)
		}
	}
}

// TestSampleDeterministic: seeded sampling picks the same ascending subset
// every time, and a budget covering the space returns every index.
func TestSampleDeterministic(t *testing.T) {
	a := sample(5, 36, 1)
	if !reflect.DeepEqual(a, sample(5, 36, 1)) {
		t.Fatal("sample is not deterministic for a fixed seed")
	}
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1] {
			t.Fatalf("sample not strictly ascending: %v", a)
		}
	}
	if reflect.DeepEqual(a, sample(5, 36, 2)) {
		t.Fatal("different seeds selected the same subset (suspicious)")
	}
	if got := sample(40, 36, 1); len(got) != 36 || got[0] != 0 || got[35] != 35 {
		t.Fatalf("over-budget sample should return the full space, got %v", got)
	}
}

// TestParamsSpec pins the canonical candidate labels reports use.
func TestParamsSpec(t *testing.T) {
	cases := []struct {
		c    Params
		want string
	}{
		{Params{Policy: PolicyBWAware, Migrate: "off"}, "bw-aware+off"},
		{Params{Policy: PolicyInterleave}, "interleave+off"},
		{Params{Policy: PolicyRatio, RatioPct: 25, Migrate: "on"}, "ratio-25+on"},
		{Params{Policy: PolicyAnnotated, HintFrac: 0.1, Migrate: "policy=ewma"}, "annotated-0.1+policy=ewma"},
	}
	for _, tc := range cases {
		if got := tc.c.Spec(); got != tc.want {
			t.Errorf("Spec(%+v) = %q, want %q", tc.c, got, tc.want)
		}
	}
}

// TestValidateErrors: bad problems and options are rejected with errors
// naming the valid options (the CLI exits 2 and the daemon answers 422
// with these verbatim).
func TestValidateErrors(t *testing.T) {
	ok := quickProblem()
	cases := []struct {
		name string
		p    Problem
		o    Options
		want string // substring of the error
	}{
		{"unknown workload", Problem{Workload: "nope"}, Options{}, "nope"},
		{"unknown topology", Problem{Workload: "bfs", Topology: "vax"}, Options{}, "vax"},
		{"unknown dataset", Problem{Workload: "bfs", Dataset: "huge"}, Options{}, "have train"},
		{"bad capacity", Problem{Workload: "bfs", CapacityFrac: 1.5}, Options{}, "capacity"},
		{"unknown strategy", ok, Options{Strategy: "anneal"}, "have grid halving"},
		{"bad budget", ok, Options{Budget: -3}, "budget"},
	}
	for _, tc := range cases {
		err := Validate(tc.p, tc.o)
		if err == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if err := Validate(ok, Options{}); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}
}

// TestStrategies: both built-ins are listed and resolvable; "" selects the
// default.
func TestStrategies(t *testing.T) {
	if got := Strategies(); !reflect.DeepEqual(got, []string{"grid", "halving"}) {
		t.Fatalf("Strategies() = %v", got)
	}
	for _, name := range []string{"", "grid", "halving"} {
		if !Known(name) {
			t.Errorf("Known(%q) = false", name)
		}
	}
	if Known("anneal") {
		t.Error(`Known("anneal") = true`)
	}
}

// TestGridIsOneRung: grid evaluates its whole sample once, at rung 0 and
// the final shrink, and keeps exactly one entry: the best perf, ties going
// to the lower space index (the trace lists the sample in space order).
func TestGridIsOneRung(t *testing.T) {
	p := quickProblem()
	rep := mustRun(t, p, Options{Strategy: "grid", Budget: 5, Workers: 2, Cache: experiments.NewResultCache()})
	if len(rep.Trace) != 5 {
		t.Fatalf("grid trace has %d entries for budget 5, want 5", len(rep.Trace))
	}
	kept := -1
	for i, e := range rep.Trace {
		if e.Rung != 0 || e.Shrink != p.Shrink {
			t.Errorf("entry %d at rung %d, shrink %d; want rung 0, shrink %d", i, e.Rung, e.Shrink, p.Shrink)
		}
		if e.Kept {
			if kept >= 0 {
				t.Fatalf("entries %d and %d both kept", kept, i)
			}
			kept = i
		}
	}
	if kept < 0 {
		t.Fatal("no entry kept")
	}
	for i, e := range rep.Trace {
		if e.Perf > rep.Trace[kept].Perf || i < kept && e.Perf == rep.Trace[kept].Perf {
			t.Errorf("kept entry %d (perf %g), but entry %d has perf %g", kept, rep.Trace[kept].Perf, i, e.Perf)
		}
	}
}

// TestDeterminismAcrossWorkers: the same search on 1, 8 and 4 workers
// yields byte-identical wire reports (isolated caches keep one variant
// from serving another's results).
func TestDeterminismAcrossWorkers(t *testing.T) {
	for _, strategy := range Strategies() {
		base := mustRun(t, quickProblem(), Options{
			Strategy: strategy, Budget: 5, Workers: 1,
			Cache: experiments.NewResultCache(),
		})
		want := wire(t, base)
		variants := []Options{
			{Strategy: strategy, Budget: 5, Workers: 8, Cache: experiments.NewResultCache()},
			{Strategy: strategy, Budget: 5, Workers: 4, Cache: experiments.NewResultCache()},
		}
		for i, o := range variants {
			rep := mustRun(t, quickProblem(), o)
			if got := wire(t, rep); got != want {
				t.Errorf("%s variant %d: report differs from 1-worker baseline\n got %s\nwant %s",
					strategy, i, got, want)
			}
			if rep.Text() != base.Text() {
				t.Errorf("%s variant %d: rendered text differs", strategy, i)
			}
		}
		if base.Evals == 0 || base.Evals > 5 {
			t.Errorf("%s: %d evals for budget 5", strategy, base.Evals)
		}
		if base.TunedPerf < base.DefaultPerf {
			t.Errorf("%s: tuned %.2f regressed below default %.2f", strategy, base.TunedPerf, base.DefaultPerf)
		}
		if base.GapRecovered < 0 || base.GapRecovered > 1 {
			t.Errorf("%s: gap recovered %.3f outside [0, 1]", strategy, base.GapRecovered)
		}
	}
}

// TestDeterminismLocalVsCluster: dispatching evaluations through a
// RemoteRunner (the cluster path) is invisible in the report.
func TestDeterminismLocalVsCluster(t *testing.T) {
	local := mustRun(t, quickProblem(), Options{
		Budget: 5, Workers: 4, Cache: experiments.NewResultCache(),
	})

	var served atomic.Int64
	remote := func(sp *telemetry.Span, key string, rc experiments.RunConfig) (experiments.Result, bool) {
		res, err := experiments.Run(rc)
		if err != nil {
			return experiments.Result{}, false
		}
		served.Add(1)
		return res, true
	}
	cluster := mustRun(t, quickProblem(), Options{
		Budget: 5, Workers: 4, Cache: experiments.NewResultCache(), Remote: remote,
	})

	if wire(t, local) != wire(t, cluster) {
		t.Error("cluster-dispatched report differs from the local one")
	}
	if served.Load() == 0 {
		t.Error("remote runner was never consulted")
	}
	if cluster.Sweep.Remote == 0 {
		t.Error("sweep stats recorded no remote executions")
	}
}

// TestWarmCacheDeterminism: re-tuning against a warm cache returns the
// identical report with (nearly) every evaluation served from cache.
func TestWarmCacheDeterminism(t *testing.T) {
	cache := experiments.NewResultCache()
	cold := mustRun(t, quickProblem(), Options{Budget: 5, Workers: 4, Cache: cache})
	warm := mustRun(t, quickProblem(), Options{Budget: 5, Workers: 4, Cache: cache})
	if wire(t, cold) != wire(t, warm) {
		t.Error("warm-cache report differs from the cold one")
	}
	if warm.Sweep.CacheHits == 0 {
		t.Error("warm re-tune hit the cache zero times")
	}
	if warm.Sweep.Runs != 0 {
		t.Errorf("warm re-tune re-simulated %d configs", warm.Sweep.Runs)
	}
}

// BenchmarkTuneSearch measures one cold halving search end to end (fresh
// cache per iteration, so nothing is amortized away).
func BenchmarkTuneSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := Run(quickProblem(), Options{
			Budget: 5, Workers: 4, Cache: experiments.NewResultCache(),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
