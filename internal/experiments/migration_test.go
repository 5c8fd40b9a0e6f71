package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"hetsim/internal/migrate"
	"hetsim/internal/topology"
)

// TestSweepCountsMigratedPages: the sweep stats sum the pages the executed
// runs migrated (and from there the /metrics export does).
func TestSweepCountsMigratedPages(t *testing.T) {
	mig := migrate.DefaultConfig()
	cfgs := []RunConfig{
		{Workload: "bfs", Policy: BWAwarePolicy, Shrink: 16},
		{Workload: "bfs", Policy: BWAwarePolicy, BOCapacityFrac: 0.1, Migration: &mig, Shrink: 16},
	}
	e := NewIsolatedExecutor(2)
	res, err := e.Map(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.MigratedPages != res[1].Mem.MigratedPages {
		t.Errorf("sweep MigratedPages = %d, want the migration run's %d",
			st.MigratedPages, res[1].Mem.MigratedPages)
	}
}

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

// Acceptance gate: a migration-disabled run must be byte-identical to
// today's figures — Options.Migrate "off" (and "") change nothing.
func TestMigrationDisabledByteIdentical(t *testing.T) {
	base := Options{Shrink: 16, Workloads: []string{"bfs", "stencil"}, Cache: NewResultCache()}
	def, err := Fig2a(base)
	if err != nil {
		t.Fatal(err)
	}
	off := base
	off.Cache = NewResultCache()
	off.Migrate = "off"
	got, err := Fig2a(off)
	if err != nil {
		t.Fatal(err)
	}
	if got.Table.String() != def.Table.String() || got.Table.CSV() != def.Table.CSV() {
		t.Error("Migrate=\"off\" changed figure bytes")
	}
}

// Options.migration resolves the spec + policy override for the figures
// that grow a migration arm; bad specs must surface as figure errors.
func TestOptionsMigration(t *testing.T) {
	cfg, err := (Options{}).migration()
	if err != nil {
		t.Fatal(err)
	}
	if def := migrate.DefaultConfig(); cfg != def {
		t.Errorf("empty options resolved %+v, want defaults", cfg)
	}
	cfg, err = (Options{Migrate: "epoch=1000", MigratePolicy: "ewma"}).migration()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.EpochCycles != 1000 || cfg.Policy != migrate.PolicyEWMA {
		t.Errorf("override not applied: %+v", cfg)
	}
	if _, err := (Options{Migrate: "epoch=-5"}).migration(); err == nil {
		t.Error("negative epoch accepted")
	}
	// Migration, the resolver behind both, leaves migration off unless the
	// spec or a policy turns it on, and checks the pair as one.
	for _, o := range []Options{{}, {Migrate: "off"}} {
		if cfg, err := o.Migration(); cfg != nil || err != nil {
			t.Errorf("%+v resolved to %+v, %v; want migration off", o, cfg, err)
		}
	}
	if cfg, err := (Options{Migrate: "off", MigratePolicy: "ewma"}).Migration(); err != nil || cfg == nil || cfg.Policy != migrate.PolicyEWMA {
		t.Errorf("a policy alone resolved to %+v, %v; want the defaults with ewma", cfg, err)
	}
	if _, err := (Options{Migrate: "alpha=0"}).Migration(); err != nil {
		t.Errorf("alpha=0 under the counter classifier rejected: %v", err)
	}
	if _, err := (Options{Migrate: "alpha=0", MigratePolicy: "ewma"}).Migration(); err == nil {
		t.Error("alpha=0 under an ewma override accepted")
	}
	if _, err := FigMigration(Options{Shrink: 16, Workloads: []string{"bfs"}, Migrate: "minheat=0"}); err == nil {
		t.Error("FigMigration accepted an invalid migration spec")
	}
}

// FigMigTopo end to end: three presets, both classifiers plus the oracle
// arm, headline ratios present and positive for each preset.
func TestFigMigTopo(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-topology migration sweep is slow")
	}
	fig, err := FigMigTopo(Options{Shrink: 16, Workloads: []string{"bfs"}})
	if err != nil {
		t.Fatal(err)
	}
	if fig.Table.Rows() != 3 {
		t.Fatalf("rows = %d, want 3 (one per preset)", fig.Table.Rows())
	}
	for _, preset := range []string{"k40-ddr4", "gh200", "cxl-expansion"} {
		for _, h := range []string{"counter_vs_bwaware_", "ewma_vs_bwaware_", "oracle_vs_bwaware_"} {
			v, ok := fig.Headline[h+preset]
			if !ok {
				t.Errorf("missing headline %s%s", h, preset)
				continue
			}
			if v <= 0 {
				t.Errorf("headline %s%s = %g, want > 0", h, preset, v)
			}
		}
	}
}

// TestMigrationResultsPinned pins the SHA-256 of the full Result JSON (the
// bytes the persistent cache stores) of representative migration runs.
// hetbench's golden digests hash the report, which omits PageCounts and the
// migration engine's counters, so a change to the epoch's ranking or to the
// memory system's page-state bookkeeping could move those fields unseen;
// these digests cover every field. They were captured before the migration
// path was rebuilt around one page-state table and heap-selected epochs.
func TestMigrationResultsPinned(t *testing.T) {
	cxl, err := topology.Preset("cxl-expansion")
	if err != nil {
		t.Fatal(err)
	}
	tiered := func(wl, policy string) RunConfig {
		mc := migrate.DefaultConfig()
		mc.Policy = policy
		return RunConfig{Workload: wl, Policy: BWAwarePolicy, Mem: cxl.MemsysConfig(),
			BOCapacityFrac: 0.1, Migration: &mc, Shrink: 4}
	}
	on, err := migrate.ParseSpec("on")
	if err != nil {
		t.Fatal(err)
	}
	noWB, err := migrate.ParseSpec("policy=ewma,wb=0,cooldown=0")
	if err != nil {
		t.Fatal(err)
	}
	ewmaNoWB := tiered("xsbench", migrate.PolicyEWMA)
	ewmaNoWB.Migration = noWB
	cases := []struct {
		name string
		rc   RunConfig
		want string
	}{
		{"bfs-counter", tiered("bfs", migrate.PolicyCounter),
			"20f92f17cfec5ebe78b704bdf5ef055e0bd943461cbcc4cfa9c6d1decaab6fb9"},
		{"bfs-ewma", tiered("bfs", migrate.PolicyEWMA),
			"166f973c3c9f7445bbd1421f760d976acb1d5ff5d8cdc13b849695b60413fc6d"},
		{"xsbench-counter", tiered("xsbench", migrate.PolicyCounter),
			"3ee9f79ef6c1c7bb1113458f967d565a0070f7d4d645e24f038d539a58771b08"},
		{"xsbench-ewma", tiered("xsbench", migrate.PolicyEWMA),
			"092938fa6e6436b8581c5e4fb6cf5edaf520c5e60b95dee4917a5294607575ed"},
		{"lbm-counter", tiered("lbm", migrate.PolicyCounter),
			"5fde1d8c53b3593add8731ec30fd256abc31b3293bb69e1612db484a9041929a"},
		{"lbm-ewma", tiered("lbm", migrate.PolicyEWMA),
			"08a3c16808f15f34bf354815adcab84bdcbf29e6bdaf37ec36e51899fcb617cb"},
		{"k40-bfs-on", RunConfig{Workload: "bfs", Policy: BWAwarePolicy, BOCapacityFrac: 0.1, Migration: on, Shrink: 4},
			"bed219c820e707da387b98ddebd8cfebe1fe21695f4aef56050998e765aad75d"},
		{"xsbench-ewma-wb0-cooldown0", ewmaNoWB,
			"6173aaf3a87e7536732fdb3a9363419dab404a6b0ba2b3bd7f583c1733bcaa11"},
	}
	for _, c := range cases {
		res, err := Run(c.rc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Migration.Promotions+res.Migration.Demotions == 0 {
			t.Errorf("%s: no page moved (%+v)", c.name, res.Migration)
		}
		sum := sha256.Sum256(encodeResult(t, res))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: Result digest = %s, want %s", c.name, got, c.want)
		}
	}
}
