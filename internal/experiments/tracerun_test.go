package experiments

import (
	"bytes"
	"io"
	"testing"

	"hetsim/internal/migrate"
	"hetsim/internal/topology"
	"hetsim/internal/trace"
)

func TestRecordAndReplayTrace(t *testing.T) {
	var buf bytes.Buffer
	res, n, err := RecordTrace(RunConfig{Workload: "hotspot", Policy: LocalPolicy, Shrink: 16}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no events recorded")
	}
	// The recorder taps below the L1: events = L1 misses.
	if n != res.GPUStats.L1Misses {
		t.Fatalf("recorded %d events, want %d (L1 misses)", n, res.GPUStats.L1Misses)
	}

	r, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(events)) != n {
		t.Fatalf("decoded %d events, want %d", len(events), n)
	}

	replay := trace.ReplayConfig{Warps: 64, AccessesPerPhase: 8, MLP: 8}
	local, err := RunTrace(events, RunConfig{Policy: LocalPolicy}, replay)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := RunTrace(events, RunConfig{Policy: BWAwarePolicy}, replay)
	if err != nil {
		t.Fatal(err)
	}
	if local.Cycles <= 0 || bw.Cycles <= 0 {
		t.Fatal("degenerate replay")
	}
	// The recorded workload is bandwidth-bound; the ordering must survive
	// the replay.
	if bw.Perf <= local.Perf {
		t.Fatalf("replayed BW-AWARE (%.1f) did not beat LOCAL (%.1f)", bw.Perf, local.Perf)
	}
	if bw.BOServed < 0.6 || bw.BOServed > 0.8 {
		t.Fatalf("replayed BW-AWARE BOServed = %.3f", bw.BOServed)
	}
}

func TestRunTraceErrors(t *testing.T) {
	if _, err := RunTrace(nil, RunConfig{Policy: LocalPolicy}, trace.ReplayConfig{Warps: 1, AccessesPerPhase: 1}); err == nil {
		t.Fatal("empty trace accepted")
	}
	ev := []trace.Event{{VA: 0}}
	if _, err := RunTrace(ev, RunConfig{Policy: HintedPolicy}, trace.ReplayConfig{Warps: 1, AccessesPerPhase: 1}); err == nil {
		t.Fatal("annotated policy accepted for trace replay")
	}
	if _, err := RunTrace(ev, RunConfig{Policy: LocalPolicy}, trace.ReplayConfig{}); err == nil {
		t.Fatal("invalid replay config accepted")
	}
}

func TestRunTraceOracle(t *testing.T) {
	var buf bytes.Buffer
	_, _, err := RecordTrace(RunConfig{Workload: "xsbench", Policy: LocalPolicy, Shrink: 16}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := trace.NewReader(&buf)
	events, _ := trace.ReadAll(r)
	replay := trace.ReplayConfig{Warps: 64, AccessesPerPhase: 8, MLP: 8}
	// Profile pass: replay once to get page counts.
	prof, err := RunTrace(events, RunConfig{Policy: LocalPolicy}, replay)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := RunTrace(events, RunConfig{Policy: BWAwarePolicy, BOCapacityFrac: 0.1}, replay)
	if err != nil {
		t.Fatal(err)
	}
	orc, err := RunTrace(events, RunConfig{Policy: OraclePolicy, ProfileCounts: prof.PageCounts, BOCapacityFrac: 0.1}, replay)
	if err != nil {
		t.Fatal(err)
	}
	if orc.Perf < bw.Perf {
		t.Fatalf("trace oracle (%.1f) below BW-AWARE (%.1f)", orc.Perf, bw.Perf)
	}
}

// TestRecordTraceMatchesRun: recording is transparent — a traced run's
// Report JSON is byte-identical to the untraced run's, including a
// migration run on a three-pool topology.
func TestRecordTraceMatchesRun(t *testing.T) {
	memOf := func(name string) RunConfig {
		top, err := topology.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		return RunConfig{Mem: top.MemsysConfig(), Policy: BWAwarePolicy, Shrink: 16}
	}
	var cases []RunConfig
	for _, wl := range []string{"hotspot", "xsbench", "sgemm"} {
		rc := memOf("k40-ddr4")
		rc.Workload = wl
		cases = append(cases, rc)
	}
	mig := migrate.DefaultConfig()
	rc := memOf("cxl-expansion")
	rc.Workload, rc.BOCapacityFrac, rc.Migration = "bfs", 0.1, &mig
	cases = append(cases, rc)

	reportJSON := func(res Result) []byte {
		var buf bytes.Buffer
		if err := NewReport(res).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, rc := range cases {
		plain, err := Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		traced, n, err := RecordTrace(rc, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatalf("%s: no events recorded", rc.Workload)
		}
		if got, want := reportJSON(traced), reportJSON(plain); !bytes.Equal(got, want) {
			t.Errorf("%s (migration %v): traced report differs from untraced\n got %s\nwant %s",
				rc.Workload, rc.Migration != nil, got, want)
		}
	}
}

// recordEvents records rc's post-L1 access stream and decodes it.
func recordEvents(t *testing.T, rc RunConfig) []trace.Event {
	t.Helper()
	var buf bytes.Buffer
	if _, _, err := RecordTrace(rc, &buf); err != nil {
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
	return events
}

// TestRunTraceOracleHonoursCapacity: the trace oracle plans against the
// capacity the replay's zones are sized with, so at 10% BO capacity every
// page it assigns to BO fits and no placement falls back.
func TestRunTraceOracleHonoursCapacity(t *testing.T) {
	replay := trace.ReplayConfig{Warps: 64, AccessesPerPhase: 8, MLP: 8}
	for _, wl := range []string{"hotspot", "bfs", "xsbench", "sgemm"} {
		events := recordEvents(t, RunConfig{Workload: wl, Policy: LocalPolicy, Shrink: 16})
		prof, err := RunTrace(events, RunConfig{Policy: LocalPolicy}, replay)
		if err != nil {
			t.Fatal(err)
		}
		orc, err := RunTrace(events, RunConfig{Policy: OraclePolicy, ProfileCounts: prof.PageCounts, BOCapacityFrac: 0.1}, replay)
		if err != nil {
			t.Fatal(err)
		}
		if orc.Place.Fallbacks != 0 {
			t.Errorf("%s: trace oracle at 10%% capacity had %d placement fallbacks, want 0", wl, orc.Place.Fallbacks)
		}
	}
}

// TestRunTraceMigration: a replay honours RunConfig.Migration — the
// engine runs its epochs over the replayed stream.
func TestRunTraceMigration(t *testing.T) {
	events := recordEvents(t, RunConfig{Workload: "lbm", Policy: LocalPolicy, Shrink: 2})
	mig := migrate.DefaultConfig()
	res, err := RunTrace(events, RunConfig{Policy: BWAwarePolicy, BOCapacityFrac: 0.1, Migration: &mig},
		trace.ReplayConfig{Warps: 64, AccessesPerPhase: 8, MLP: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Migration.Epochs == 0 {
		t.Errorf("migration replay ran no epochs (%d cycles)", res.Cycles)
	}
}
