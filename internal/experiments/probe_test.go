package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"hetsim/internal/migrate"
	"hetsim/internal/obs"
	"hetsim/internal/topology"
)

func probeRC(t *testing.T, preset string) RunConfig {
	t.Helper()
	topo, err := topology.Preset(preset)
	if err != nil {
		t.Fatal(err)
	}
	return RunConfig{
		Workload: "bfs",
		Policy:   BWAwarePolicy,
		Shrink:   64,
		Mem:      topo.MemsysConfig(),
	}
}

func resultJSON(t *testing.T, res Result) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The flight recorder must never change what it observes: Result JSON is
// byte-identical with the probe on vs off, on every topology preset.
func TestProbeResultByteIdentity(t *testing.T) {
	for _, preset := range topology.Names() {
		t.Run(preset, func(t *testing.T) {
			rc := probeRC(t, preset)
			plain, err := Run(rc)
			if err != nil {
				t.Fatal(err)
			}
			p, err := obs.New(obs.Config{Interval: 200, MaxSamples: 1024})
			if err != nil {
				t.Fatal(err)
			}
			probed, err := Run(rc.WithProbe(p))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resultJSON(t, plain), resultJSON(t, probed)) {
				t.Fatalf("probe changed the Result:\noff: %s\non:  %s",
					resultJSON(t, plain), resultJSON(t, probed))
			}
			if s := p.Snapshot(); !s.Final || len(s.Rows) < 2 {
				t.Fatalf("probe recorded %d rows, final=%v; want >= 2 final rows", len(s.Rows), s.Final)
			}
		})
	}
}

// Same identity under a migrating run (extra columns, write-back
// machinery).
func TestProbeResultByteIdentityMigration(t *testing.T) {
	rc := probeRC(t, "cxl-expansion")
	mig := migrate.DefaultConfig()
	mig.EpochCycles = 500
	rc.Migration = &mig
	plain, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := obs.New(obs.Config{Interval: 500, MaxSamples: 1024})
	if err != nil {
		t.Fatal(err)
	}
	probed, err := Run(rc.WithProbe(p))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultJSON(t, plain), resultJSON(t, probed)) {
		t.Fatal("probe changed a migrating run's Result")
	}
	cols := p.Snapshot().Columns
	found := false
	for _, c := range cols {
		if c == "mig.promotions" {
			found = true
		}
	}
	if !found {
		t.Fatalf("migrating run's series lacks mig columns: %v", cols)
	}
}

// Executor.WithProbe dispatches every config uncached, tags each series
// with a stable label, and feeds the sink concurrently-safely.
func TestExecutorWithProbe(t *testing.T) {
	cfgs := []RunConfig{probeRC(t, "k40-ddr4"), probeRC(t, "gh200")}
	var mu sync.Mutex
	got := map[string]obs.Snapshot{}
	e := NewIsolatedExecutor(2).WithProbe(obs.Config{Interval: 500, MaxSamples: 256},
		func(label string, snap obs.Snapshot) {
			mu.Lock()
			got[label] = snap
			mu.Unlock()
		})
	res, err := e.Map(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || len(got) != 2 {
		t.Fatalf("%d results, %d series; want 2 and 2", len(res), len(got))
	}
	for label, snap := range got {
		if !strings.HasPrefix(label, "bfs.BW-AWARE.") {
			t.Errorf("label = %q, want bfs.BW-AWARE.<key8>", label)
		}
		if !snap.Final || len(snap.Rows) == 0 {
			t.Errorf("series %q incomplete: final=%v rows=%d", label, snap.Final, len(snap.Rows))
		}
	}
	// Probed configs are uncacheable: a second Map must execute them again.
	st := e.Stats()
	if st.CacheHits != 0 || st.Runs != 2 {
		t.Fatalf("stats after probed map = %+v, want 2 runs, 0 hits", st)
	}
	if _, err := e.Map(cfgs); err != nil {
		t.Fatal(err)
	}
	if st = e.Stats(); st.CacheHits != 0 || st.Runs != 4 {
		t.Fatalf("stats after repeat = %+v, want 4 runs, 0 hits", st)
	}
}

// figdyn's table and headlines are a deterministic function of its config:
// identical for any worker count.
func TestFigDynDeterministic(t *testing.T) {
	render := func(workers int) string {
		fig, err := FigDyn(Options{Shrink: 16, Workers: workers, Cache: NewResultCache()})
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(fig.Headline))
		for k := range fig.Headline {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		b.WriteString(fig.Table.CSV())
		for _, k := range keys {
			fmt.Fprintf(&b, "%s=%v\n", k, fig.Headline[k])
		}
		for _, n := range fig.Notes {
			b.WriteString(n + "\n")
		}
		return b.String()
	}
	base := render(1)
	if got := render(4); got != base {
		t.Errorf("figdyn differs across worker counts:\n%s\nvs\n%s", base, got)
	}
	if !strings.Contains(base, "counter") || !strings.Contains(base, "ewma") {
		t.Fatalf("figdyn table missing policy arms:\n%s", base)
	}
}

// Options.Probe reaches figure sweeps through Options.executor.
func TestOptionsProbeSink(t *testing.T) {
	var mu sync.Mutex
	labels := []string{}
	o := Options{
		Workloads: []string{"bfs"},
		Shrink:    64,
		Probe:     &obs.Config{Interval: 1000, MaxSamples: 64},
		ProbeSink: func(label string, snap obs.Snapshot) {
			mu.Lock()
			labels = append(labels, label)
			mu.Unlock()
		},
	}
	if _, err := Fig2a(o); err != nil {
		t.Fatal(err)
	}
	if len(labels) == 0 {
		t.Fatal("figure sweep produced no probe series")
	}
}
