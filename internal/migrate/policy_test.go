package migrate

import (
	"fmt"
	"testing"

	"hetsim/internal/memsys"
	"hetsim/internal/sim"
	"hetsim/internal/topology"
	"hetsim/internal/vm"
)

// buildTiered builds a three-pool system from the cxl-expansion preset,
// with per-zone page capacities overridden by caps (default unlimited).
func buildTiered(t testing.TB, caps map[vm.ZoneID]int) (*sim.Engine, *vm.Space, *memsys.System) {
	t.Helper()
	topo, err := topology.Preset("cxl-expansion")
	if err != nil {
		t.Fatal(err)
	}
	cfg := topo.MemsysConfig()
	maxZone := 0
	for _, z := range cfg.Zones {
		if int(z.Zone) > maxZone {
			maxZone = int(z.Zone)
		}
	}
	zcfgs := make([]vm.ZoneConfig, maxZone+1)
	for i := range zcfgs {
		zcfgs[i] = vm.ZoneConfig{Name: fmt.Sprintf("z%d", i), CapacityPages: vm.Unlimited}
	}
	for _, z := range cfg.Zones {
		cp := vm.Unlimited
		if c, ok := caps[z.Zone]; ok {
			cp = c
		}
		zcfgs[z.Zone] = vm.ZoneConfig{Name: z.Name, CapacityPages: cp}
	}
	eng := sim.New()
	space := vm.NewSpace(vm.DefaultPageSize, zcfgs)
	sys, err := memsys.New(eng, space, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, space, sys
}

// A hot page in the slowest pool of a three-tier topology must climb the
// bandwidth order one hop per epoch: CXL → DDR → GDDR across two epochs.
func TestCounterMultiTierPromotionChain(t *testing.T) {
	eng, space, sys := buildTiered(t, nil)
	cfg := DefaultConfig()
	cfg.EpochCycles = 1000
	cfg.MinHeat = 2
	cfg.CooldownEpochs = 0
	cfg.LockCycles = 0
	m, err := New(eng, sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	order := m.Order()
	if len(order) != 3 {
		t.Fatalf("order has %d pools, want 3", len(order))
	}
	m.Start()

	if err := space.MapPage(0, order[2]); err != nil {
		t.Fatal(err)
	}
	touch := func() {
		for i := 0; i < 8; i++ {
			sys.Access(uint64(i)*128, false, func() {})
		}
	}

	touch()
	eng.RunUntil(1500)
	if z, _ := space.PageZone(0); z != order[1] {
		t.Fatalf("after epoch 1 page in zone %d, want middle tier %d", z, order[1])
	}
	touch()
	eng.RunUntil(2500)
	if z, _ := space.PageZone(0); z != order[0] {
		t.Fatalf("after epoch 2 page in zone %d, want fastest tier %d", z, order[0])
	}
	if got := m.Stats().Promotions; got != 2 {
		t.Fatalf("Promotions = %d, want 2 (one hop per epoch)", got)
	}
}

// The ewma policy's watermark drain: a capacity-bounded pool filled above
// its high watermark sheds its coldest pages one hop down the order until
// it reaches the low watermark. Demotions go through the bounded
// asynchronous write-back buffer; once it fills, the rest block.
func TestEWMAWatermarkDrain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = PolicyEWMA
	cfg.EpochCycles = 1000
	cfg.CooldownEpochs = 0
	cfg.HighWatermark = 0.8
	cfg.LowWatermark = 0.5
	cfg.PagesPerEpoch = 16
	cfg.WriteBackPages = 4

	// We don't know which pool is fastest until the engine derives the
	// order, so build once to discover it, then build the real system with
	// that pool capacity-bounded.
	eng0, _, sys0 := buildTiered(t, nil)
	probe, err := New(eng0, sys0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fastest, mid := probe.Order()[0], probe.Order()[1]

	eng, space, sys := buildTiered(t, map[vm.ZoneID]int{fastest: 10})
	m, err := New(eng, sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	epochs := 0
	m.Active = func() bool { epochs++; return epochs <= 2 }
	m.Start()
	for vp := uint64(0); vp < 10; vp++ {
		if err := space.MapPage(vp, fastest); err != nil {
			t.Fatal(err)
		}
	}
	// Touch one line so the page-count table (and thus Delta) is non-empty.
	sys.Access(0, false, func() {})

	eng.RunUntil(1500)
	if used := space.ZoneUsed(fastest); used != 5 {
		t.Fatalf("fastest pool used = %d after drain, want 5 (low watermark)", used)
	}
	if used := space.ZoneUsed(mid); used != 5 {
		t.Fatalf("middle pool used = %d, want the 5 demoted pages", used)
	}
	st := m.Stats()
	if st.Demotions != 5 {
		t.Fatalf("Demotions = %d, want 5", st.Demotions)
	}
	if st.Promotions != 0 {
		t.Fatalf("Promotions = %d, want 0 (no page clears MinHeat)", st.Promotions)
	}
	if st.AsyncWriteBacks != 4 || st.WriteBackStalls != 1 {
		t.Fatalf("async/stalls = %d/%d, want 4/1 (buffer holds 4)", st.AsyncWriteBacks, st.WriteBackStalls)
	}
	eng.Run()
	if got := sys.Stats().WriteBacksDrained; got != 4 {
		t.Fatalf("WriteBacksDrained = %d, want 4", got)
	}
}

// EWMA history: a page hammered in epoch 1 but idle in epoch 2 must still
// be promoted on its smoothed heat once the tier above has headroom.
func TestEWMAHistoryCarriesHeat(t *testing.T) {
	eng, space, sys := buildTiered(t, nil)
	cfg := DefaultConfig()
	cfg.Policy = PolicyEWMA
	cfg.EpochCycles = 1000
	cfg.CooldownEpochs = 0
	cfg.MinHeat = 3
	cfg.EWMAAlpha = 0.5
	m, err := New(eng, sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	order := m.Order()
	m.Start()
	if err := space.MapPage(0, order[1]); err != nil {
		t.Fatal(err)
	}
	// 16 DRAM accesses in epoch 1: heat after the epoch is 8, and with no
	// further traffic it decays 8 → 4 → 2, staying above MinHeat=3 for one
	// idle epoch.
	for i := 0; i < 16; i++ {
		sys.Access(uint64(i)*128, false, func() {})
	}
	eng.RunUntil(2500) // two epochs, traffic only in the first
	if z, _ := space.PageZone(0); z != order[0] {
		t.Fatalf("page in zone %d, want fastest %d (promoted on history)", z, order[0])
	}
	if got := m.Stats().Promotions; got == 0 {
		t.Fatal("no promotions recorded")
	}
}

// Cooldown must also suppress re-moves within the same epoch pass: a page
// promoted by the (mid, slow) pair may not be picked up again by a later
// pair until the cooldown expires.
func TestCooldownBlocksImmediateRemove(t *testing.T) {
	eng, space, sys := buildTiered(t, nil)
	cfg := DefaultConfig()
	cfg.EpochCycles = 1000
	cfg.MinHeat = 2
	cfg.CooldownEpochs = 3
	cfg.LockCycles = 0
	m, err := New(eng, sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	order := m.Order()
	m.Start()
	if err := space.MapPage(0, order[2]); err != nil {
		t.Fatal(err)
	}
	touch := func() {
		for i := 0; i < 8; i++ {
			sys.Access(uint64(i)*128, false, func() {})
		}
	}
	touch()
	eng.RunUntil(1500)
	if z, _ := space.PageZone(0); z != order[1] {
		t.Fatalf("page in zone %d after epoch 1, want middle tier", z)
	}
	// Epochs 2 and 3 fall inside the cooldown window: the page must stay.
	touch()
	eng.RunUntil(2500)
	touch()
	eng.RunUntil(3500)
	if z, _ := space.PageZone(0); z != order[1] {
		t.Fatalf("page moved during cooldown to zone %d", z)
	}
	if got := m.Stats().Promotions; got != 1 {
		t.Fatalf("Promotions = %d during cooldown, want 1", got)
	}
}

// nopHandler is a completion handler that ignores the completion.
type nopHandler struct{}

func (nopHandler) OnEvent(uint64) {}

// TestEpochSteadyStateAllocFree: once its buffers are warm, an epoch
// allocates nothing — neither passes that keep moving pages (remaps,
// locks, write-back drains) nor the engine's own epoch, which also reads
// the page counts and differences them.
func TestEpochSteadyStateAllocFree(t *testing.T) {
	const pages = 4096
	_, _, probe := buildTiered(t, nil)
	fastest := bandwidthOrder(probe.Config())[0]
	for _, policy := range PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			// A fastest pool holding a quarter of the pages, with odd and
			// even pages hot by turns, keeps pages moving every pass (ewma
			// without history, so its heat follows the turns).
			m, eng, _ := epochFixture(t, policy, pages, map[vm.ZoneID]int{fastest: pages / 4})
			m.cfg.EWMAAlpha = 1
			var turns [2][]uint64
			for i := range turns {
				turns[i] = make([]uint64, pages)
				for vp := i; vp < pages; vp += 2 {
					turns[i][vp] = 100
				}
			}
			moving := func() {
				m.stats.Epochs++
				m.pass(turns[m.stats.Epochs%2])
				eng.RunUntil(eng.Now() + m.cfg.EpochCycles) // drain write-backs
			}
			for i := 0; i < 32; i++ {
				moving()
			}
			before := m.Stats()
			if n := testing.AllocsPerRun(20, moving); n != 0 {
				t.Errorf("moving pass allocates %v times, want 0", n)
			}
			if after := m.Stats(); after.Promotions+after.Demotions == before.Promotions+before.Demotions {
				t.Errorf("measured passes moved no page (%+v)", after)
			}

			// The engine's epochs over real page counts.
			for vp := uint64(0); vp < pages; vp++ {
				m.mem.AccessH(nil, vp*vm.DefaultPageSize, false, nil, nopHandler{}, 0)
			}
			m.Start()
			epoch := func() { eng.RunUntil(eng.Now() + m.cfg.EpochCycles) }
			for i := 0; i < 4; i++ {
				epoch()
			}
			if n := testing.AllocsPerRun(20, epoch); n != 0 {
				t.Errorf("engine epoch allocates %v times, want 0", n)
			}
		})
	}
}

// Under deferred mapping (every experiments run), a page mapped on first
// touch waits for a window edge before it enters the page table, and the
// first Remap of an epoch commits it early. The
// epoch's one page-table scan runs before that Remap, so a later tier pair
// must rescan to see the page, exactly as a per-pair scan did. Here the
// fastest pair's promotion commits a pending page in the full middle pool;
// it is then that pool's coldest resident (lowest page number among equal
// heats), so it is the victim the slow tier's second hot page displaces.
func TestEpochSeesMappingsCommittedMidPass(t *testing.T) {
	_, _, probe := buildTiered(t, nil)
	order := bandwidthOrder(probe.Config())
	eng, space, sys := buildTiered(t, map[vm.ZoneID]int{order[1]: 3})
	cfg := DefaultConfig()
	cfg.EpochCycles = 1000
	cfg.MinHeat = 2
	m, err := New(eng, sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const hotMid, pending, hotSlowA, coldMid, hotSlowB = 0, 1, 2, 3, 4
	for _, p := range []struct {
		vp   uint64
		tier int
	}{{hotMid, 1}, {hotSlowA, 2}, {coldMid, 1}, {hotSlowB, 2}} {
		if err := space.MapPage(p.vp, order[p.tier]); err != nil {
			t.Fatal(err)
		}
	}
	space.SetDeferred(true)
	if err := space.MapPage(pending, order[1]); err != nil {
		t.Fatal(err)
	}
	for _, vp := range []uint64{hotMid, hotSlowA, hotSlowB} {
		for i := uint64(0); i < 8; i++ {
			sys.AccessH(nil, vp*vm.DefaultPageSize+i*128, false, nil, nopHandler{}, 0)
		}
	}
	epochs := 0
	m.Active = func() bool { epochs++; return epochs <= 1 }
	m.Start()
	eng.Run()

	want := map[uint64]vm.ZoneID{
		hotMid: order[0], pending: order[2], hotSlowA: order[1], coldMid: order[1], hotSlowB: order[1],
	}
	for vp, z := range want {
		if got, ok := space.PageZone(vp); !ok || got != z {
			t.Errorf("page %d in zone %d (mapped %v), want %d", vp, got, ok, z)
		}
	}
	if st := m.Stats(); st.Promotions != 3 || st.Demotions != 1 {
		t.Errorf("stats %+v, want 3 promotions and 1 demotion", st)
	}
}
