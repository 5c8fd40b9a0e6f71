package obs_test

import (
	"slices"
	"testing"

	"hetsim/internal/gpu"
	"hetsim/internal/memsys"
	"hetsim/internal/obs"
	"hetsim/internal/sim"
	"hetsim/internal/vm"
)

// build assembles the smallest real simulator stack a probe can attach to:
// the Table 1 memory system, an empty address space, an idle GPU.
func build(t *testing.T) (*sim.World, *memsys.System, *gpu.GPU) {
	t.Helper()
	cfg := memsys.Table1Config()
	world := sim.NewWorld(1, memsys.LaneLookahead(cfg))
	space := vm.NewSpace(vm.DefaultPageSize, []vm.ZoneConfig{
		{Name: "BO", CapacityPages: 64},
		{Name: "CO", CapacityPages: 64},
	})
	mem, err := memsys.New(world.Engine(), space, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := gpu.New(world.Engine(), mem, gpu.Table1Config())
	return world, mem, g
}

func TestAttachColumns(t *testing.T) {
	world, mem, g := build(t)
	p, err := obs.New(obs.Config{Interval: 100, MaxSamples: 16})
	if err != nil {
		t.Fatal(err)
	}
	p.Attach(world, mem, nil, g)
	cols := p.Snapshot().Columns
	if cols[0] != "time_cycles" {
		t.Fatalf("columns start with %q", cols[0])
	}
	for _, want := range []string{
		"util.gddr5", "pages.gddr5", "bytes.gddr5",
		"util.ddr4", "pages.ddr4", "bytes.ddr4",
		"ic.bytes", // DDR4 sits behind the interconnect hop
		"mshr.used", "mshr.stalled", "mshr.full_stalls",
		"wb.depth", "wb.queued", "wb.drained",
		"warps_done", "warps_live", "events",
	} {
		if !slices.Contains(cols, want) {
			t.Errorf("columns missing %q (got %v)", want, cols)
		}
	}
	// No migration engine attached: no mig columns.
	for _, c := range cols {
		if len(c) >= 4 && c[:4] == "mig." {
			t.Errorf("unexpected migration column %q without an engine", c)
		}
	}
}

func TestSampleZeroAlloc(t *testing.T) {
	world, mem, g := build(t)
	p, err := obs.New(obs.Config{Interval: 100, MaxSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	p.Attach(world, mem, nil, g)
	tm := sim.Time(0)
	allocs := testing.AllocsPerRun(200, func() {
		p.RecordForTest(tm)
		tm += 100
	})
	if allocs != 0 {
		t.Fatalf("sampling allocates %g objects per barrier, want 0", allocs)
	}
}

func TestDrainedRunFinalizes(t *testing.T) {
	world, mem, g := build(t)
	p, err := obs.New(obs.Config{Interval: 100, MaxSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	p.Attach(world, mem, nil, g)
	world.Run() // nothing scheduled: drains immediately
	s := p.Snapshot()
	if !s.Final {
		t.Fatal("series not finalized after Run")
	}
	if len(s.Rows) != 1 || s.Rows[0][0] != 0 {
		t.Fatalf("rows = %v, want the single end-of-run sample at t=0", s.Rows)
	}
}

func TestAttachTwicePanics(t *testing.T) {
	world, mem, g := build(t)
	p, err := obs.New(obs.Config{Interval: 100, MaxSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	p.Attach(world, mem, nil, g)
	defer func() {
		if recover() == nil {
			t.Fatal("second Attach did not panic")
		}
	}()
	p.Attach(world, mem, nil, g)
}
