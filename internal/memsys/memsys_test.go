package memsys

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hetsim/internal/cache"
	"hetsim/internal/sim"
	"hetsim/internal/vm"
)

func buildSystem(t *testing.T, cfg Config, boPages, coPages int) (*sim.Engine, *vm.Space, *System) {
	t.Helper()
	eng := sim.New()
	space := vm.NewSpace(vm.DefaultPageSize, []vm.ZoneConfig{
		{Name: "BO", CapacityPages: boPages},
		{Name: "CO", CapacityPages: coPages},
	})
	sys, err := New(eng, space, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, space, sys
}

func TestTable1ConfigValid(t *testing.T) {
	cfg := Table1Config()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bo := cfg.ZoneBandwidthGBps(vm.ZoneBO)
	if math.Abs(bo-200) > 1e-9 {
		t.Fatalf("BO bandwidth = %g GB/s, want 200", bo)
	}
	co := cfg.ZoneBandwidthGBps(vm.ZoneCO)
	if math.Abs(co-80) > 1e-9 {
		t.Fatalf("CO bandwidth = %g GB/s, want 80", co)
	}
	if cfg.ZoneBandwidthGBps(vm.ZoneID(5)) != 0 {
		t.Fatal("unknown zone bandwidth not 0")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
		want string // substring of the expected error
	}{
		{"bad line", func(c *Config) { c.LineBytes = 100 }, "LineBytes"},
		{"interleave < line", func(c *Config) { c.InterleaveBytes = 64 }, "InterleaveBytes"},
		{"zero mshr", func(c *Config) { c.MSHRsPerSlice = 0 }, "MSHRsPerSlice"},
		{"negative global latency", func(c *Config) { c.GlobalExtraLatency = -1 }, "GlobalExtraLatency"},
		{"no zones", func(c *Config) { c.Zones = nil }, "no zones"},
		{"too many zones", func(c *Config) {
			for i := len(c.Zones); i <= vm.MaxZones; i++ {
				z := c.Zones[0]
				z.Zone, z.Name = vm.ZoneID(i), fmt.Sprint("zone", i)
				c.Zones = append(c.Zones, z)
			}
		}, "ID"},
		{"zone ID out of range", func(c *Config) { c.Zones[1].Zone = vm.MaxZones }, "ID"},
		{"duplicate zone IDs", func(c *Config) { c.Zones[1].Zone = c.Zones[0].Zone }, "zone ID"},
		{"empty zone name", func(c *Config) { c.Zones[1].Name = "" }, "name"},
		{"duplicate zone names", func(c *Config) { c.Zones[1].Name = c.Zones[0].Name }, "duplicate"},
		{"zero channels", func(c *Config) { c.Zones[0].Channels = 0 }, "channels"},
		{"negative channels", func(c *Config) { c.Zones[1].Channels = -4 }, "channels"},
		{"negative hop", func(c *Config) { c.Zones[1].ExtraLatency = -1 }, "hop"},
		{"zero bandwidth", func(c *Config) { c.Zones[0].DRAM.BytesPerCycle = 0 }, "BytesPerCycle"},
		{"zero banks", func(c *Config) { c.Zones[0].DRAM.Banks = 0 }, "Banks"},
		{"zero row bytes", func(c *Config) { c.Zones[1].DRAM.RowBytes = 0 }, "RowBytes"},
		{"bad dram", func(c *Config) { c.Zones[0].DRAM.BurstBytes = 0 }, "BurstBytes"},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			cfg := Table1Config()
			m.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted bad config")
			}
			if !strings.Contains(err.Error(), m.want) {
				t.Errorf("error %q does not mention %q", err, m.want)
			}
		})
	}
	if err := Table1Config().Validate(); err != nil {
		t.Fatalf("Table1Config rejected: %v", err)
	}
}

func TestScaleAndSetBandwidth(t *testing.T) {
	cfg := Table1Config()
	cfg.ScaleZoneBandwidth(vm.ZoneBO, 2)
	if got := cfg.ZoneBandwidthGBps(vm.ZoneBO); math.Abs(got-400) > 1e-9 {
		t.Fatalf("scaled BO bandwidth = %g, want 400", got)
	}
	cfg.SetZoneBandwidthGBps(vm.ZoneCO, 160)
	if got := cfg.ZoneBandwidthGBps(vm.ZoneCO); math.Abs(got-160) > 1e-9 {
		t.Fatalf("set CO bandwidth = %g, want 160", got)
	}
}

func TestAccessCompletes(t *testing.T) {
	eng, space, sys := buildSystem(t, Table1Config(), 16, 16)
	if err := space.MapPage(0, vm.ZoneBO); err != nil {
		t.Fatal(err)
	}
	doneAt := sim.Time(-1)
	sys.Access(64, false, func() { doneAt = eng.Now() })
	eng.Run()
	if doneAt < 0 {
		t.Fatal("access never completed")
	}
	// Cold access: L2 latency + DRAM activate+CAS+burst, no hop for BO.
	if doneAt < 20 || doneAt > 200 {
		t.Fatalf("BO cold access latency = %d, want a plausible 20..200", doneAt)
	}
	if sys.Stats().Accesses != 1 {
		t.Fatalf("Accesses = %d, want 1", sys.Stats().Accesses)
	}
}

func TestCOAccessSlowerByHop(t *testing.T) {
	cfg := Table1Config()
	eng, space, sys := buildSystem(t, cfg, 16, 16)
	space.MapPage(0, vm.ZoneBO)
	space.MapPage(1, vm.ZoneCO)

	var boDone, coDone sim.Time
	sys.Access(0, false, func() { boDone = eng.Now() })
	sys.Access(vm.DefaultPageSize, false, func() { coDone = eng.Now() })
	eng.Run()
	if coDone-boDone < 100 {
		t.Fatalf("CO latency %d not >= BO latency %d + 100-cycle hop", coDone, boDone)
	}
}

func TestL2HitFastPath(t *testing.T) {
	eng, space, sys := buildSystem(t, Table1Config(), 16, 16)
	space.MapPage(0, vm.ZoneBO)
	var first, second sim.Time
	sys.Access(0, false, func() {
		first = eng.Now()
		sys.Access(0, false, func() { second = eng.Now() })
	})
	eng.Run()
	hitLat := second - first
	if hitLat != sys.Config().L2Latency {
		t.Fatalf("L2 hit latency = %d, want %d", hitLat, sys.Config().L2Latency)
	}
	if sys.Stats().PerZone[vm.ZoneBO].L2Hits != 1 {
		t.Fatalf("L2Hits = %d, want 1", sys.Stats().PerZone[vm.ZoneBO].L2Hits)
	}
}

func TestGlobalExtraLatency(t *testing.T) {
	base := Table1Config()
	slow := Table1Config()
	slow.GlobalExtraLatency = 300

	engA, spA, sysA := buildSystem(t, base, 16, 16)
	spA.MapPage(0, vm.ZoneBO)
	var doneA sim.Time
	sysA.Access(0, false, func() { doneA = engA.Now() })
	engA.Run()

	engB, spB, sysB := buildSystem(t, slow, 16, 16)
	spB.MapPage(0, vm.ZoneBO)
	var doneB sim.Time
	sysB.Access(0, false, func() { doneB = engB.Now() })
	engB.Run()

	if doneB-doneA != 300 {
		t.Fatalf("latency knob added %d cycles, want 300", doneB-doneA)
	}
}

func TestUnmappedAccessPanics(t *testing.T) {
	_, _, sys := buildSystem(t, Table1Config(), 16, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("unmapped access did not panic")
		}
	}()
	sys.Access(0, false, func() {})
}

func TestPageCountsTrackDRAMAccesses(t *testing.T) {
	eng, space, sys := buildSystem(t, Table1Config(), 64, 64)
	for p := uint64(0); p < 2; p++ {
		space.MapPage(p, vm.ZoneBO)
	}
	// Two distinct lines on page 0 (two DRAM accesses), then re-touch the
	// first line (L2 hit, not counted).
	done := 0
	cb := func() { done++ }
	sys.Access(0, false, cb)
	sys.Access(128, false, cb)
	eng.Run()
	sys.Access(0, false, cb)
	eng.Run()
	if done != 3 {
		t.Fatalf("completed %d accesses, want 3", done)
	}
	counts := sys.PageCounts()
	if counts[0] != 2 {
		t.Fatalf("page 0 count = %d, want 2 (L2 hit must not count)", counts[0])
	}
}

// Saturating one zone with traffic must deliver roughly its configured
// aggregate bandwidth.
func zoneThroughput(t *testing.T, z vm.ZoneID, nreq int) float64 {
	t.Helper()
	cfg := Table1Config()
	eng, space, sys := buildSystem(t, cfg, vm.Unlimited, vm.Unlimited)
	// Working set far larger than aggregate L2 (1 MB for BO) so the
	// measurement is DRAM-bound, not cache-inflated.
	pages := 4096
	for p := 0; p < pages; p++ {
		if err := space.MapPage(uint64(p), z); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(9))
	remaining := nreq
	var inject func()
	outstanding := 0
	const window = 512 // plenty of MLP to saturate
	inject = func() {
		for outstanding < window && remaining > 0 {
			va := uint64(rng.Intn(pages*vm.DefaultPageSize/128)) * 128
			outstanding++
			remaining--
			sys.Access(va, false, func() {
				outstanding--
				inject()
			})
		}
	}
	inject()
	end := eng.Run()
	bytes := float64(nreq * cfg.LineBytes)
	gbps := bytes / float64(end) * CoreClockGHz
	return gbps
}

func TestBOZoneSaturatesNear200GBps(t *testing.T) {
	got := zoneThroughput(t, vm.ZoneBO, 40000)
	// The ~6% of accesses that hit the 1 MB aggregate L2 push measured
	// throughput slightly above the 200 GB/s DRAM peak.
	if got < 170 || got > 215 {
		t.Fatalf("BO saturated throughput = %.1f GB/s, want ~200", got)
	}
}

func TestCOZoneSaturatesNear80GBps(t *testing.T) {
	got := zoneThroughput(t, vm.ZoneCO, 20000)
	if got < 55 || got > 85 {
		t.Fatalf("CO saturated throughput = %.1f GB/s, want ~60-80", got)
	}
}

func TestZoneServiceFraction(t *testing.T) {
	eng, space, sys := buildSystem(t, Table1Config(), 64, 64)
	space.MapPage(0, vm.ZoneBO)
	space.MapPage(1, vm.ZoneCO)
	for i := 0; i < 3; i++ {
		sys.Access(uint64(i)*128, false, func() {})
	}
	sys.Access(vm.DefaultPageSize, false, func() {})
	eng.Run()
	if got := sys.ZoneServiceFraction(vm.ZoneBO); math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("BO service fraction = %g, want 0.75", got)
	}
}

func TestChannelSpreading(t *testing.T) {
	// Sequential lines must spread across all 8 BO channels.
	eng, space, sys := buildSystem(t, Table1Config(), 64, 64)
	for p := uint64(0); p < 8; p++ {
		space.MapPage(p, vm.ZoneBO)
	}
	for i := 0; i < 128; i++ {
		sys.Access(uint64(i)*256, false, func() {})
	}
	eng.Run()
	for ch := 0; ch < 8; ch++ {
		_, _, ds := sys.SliceStats(vm.ZoneBO, ch)
		if ds.Reads == 0 {
			t.Fatalf("channel %d received no traffic", ch)
		}
	}
}

func TestMSHRBackpressureEventuallyDrains(t *testing.T) {
	cfg := Table1Config()
	cfg.MSHRsPerSlice = 2 // force Full outcomes
	cfg.Zones = cfg.Zones[:1]
	cfg.Zones[0].Channels = 1
	eng, space, sys := buildSystem(t, cfg, vm.Unlimited, vm.Unlimited)
	for p := uint64(0); p < 32; p++ {
		space.MapPage(p, vm.ZoneBO)
	}
	const n = 500
	done := 0
	for i := 0; i < n; i++ {
		va := uint64(i) * 128 * 17 % (32 * vm.DefaultPageSize)
		va -= va % 128
		sys.Access(va, false, func() { done++ })
	}
	eng.Run()
	if done != n {
		t.Fatalf("only %d/%d accesses completed under MSHR pressure", done, n)
	}
	_, ms, _ := sys.SliceStats(vm.ZoneBO, 0)
	if ms.FullStall == 0 {
		t.Fatal("expected MSHR Full stalls with 2 entries")
	}
	if st := sys.Stats(); st.Accesses != n {
		t.Fatalf("Accesses = %d after retries, want %d (no double counting)", st.Accesses, n)
	}
}

func TestAvgLatencyPositive(t *testing.T) {
	eng, space, sys := buildSystem(t, Table1Config(), 16, 16)
	space.MapPage(0, vm.ZoneBO)
	sys.Access(0, false, func() {})
	eng.Run()
	if sys.Stats().AvgLatency() <= 0 {
		t.Fatal("AvgLatency not positive after an access")
	}
	var empty Stats
	if empty.AvgLatency() != 0 {
		t.Fatal("empty AvgLatency not 0")
	}
}

func TestDisableL2(t *testing.T) {
	cfg := Table1Config()
	cfg.DisableL2 = true
	eng, space, sys := buildSystem(t, cfg, 64, 64)
	space.MapPage(0, vm.ZoneBO)
	done := 0
	// The same line twice: without an L2 both accesses hit DRAM.
	sys.Access(0, false, func() { done++ })
	eng.Run()
	sys.Access(0, false, func() { done++ })
	eng.Run()
	if done != 2 {
		t.Fatalf("completed %d accesses, want 2", done)
	}
	st := sys.Stats()
	if st.PerZone[vm.ZoneBO].L2Hits != 0 {
		t.Fatal("L2 hits recorded with L2 disabled")
	}
	if st.PerZone[vm.ZoneBO].DRAMReads != 2 {
		t.Fatalf("DRAMReads = %d, want 2 (no cache filter)", st.PerZone[vm.ZoneBO].DRAMReads)
	}
	if got := sys.PageCounts()[0]; got != 2 {
		t.Fatalf("page count = %d, want 2 without cache filtering", got)
	}
}

func TestDisableL2StillMergesInFlight(t *testing.T) {
	cfg := Table1Config()
	cfg.DisableL2 = true
	eng, space, sys := buildSystem(t, cfg, 64, 64)
	space.MapPage(0, vm.ZoneBO)
	done := 0
	// Two concurrent accesses to one line: the MSHR must merge them into
	// one DRAM fill even without an L2.
	sys.Access(0, false, func() { done++ })
	sys.Access(0, false, func() { done++ })
	eng.Run()
	if done != 2 {
		t.Fatalf("completed %d, want 2", done)
	}
	if got := sys.Stats().PerZone[vm.ZoneBO].DRAMReads; got != 1 {
		t.Fatalf("DRAMReads = %d, want 1 (merged)", got)
	}
}

func TestEnergyMetering(t *testing.T) {
	eng, space, sys := buildSystem(t, Table1Config(), 64, 64)
	space.MapPage(0, vm.ZoneBO)
	space.MapPage(1, vm.ZoneCO)
	sys.Access(0, false, func() {})
	sys.Access(vm.DefaultPageSize, false, func() {})
	eng.Run()
	boNJ := sys.ZoneEnergyNJ(vm.ZoneBO)
	coNJ := sys.ZoneEnergyNJ(vm.ZoneCO)
	if boNJ <= 0 || coNJ <= 0 {
		t.Fatalf("energy not metered: BO=%g CO=%g", boNJ, coNJ)
	}
	// GDDR5 costs more per access than DDR4 at equal traffic.
	if boNJ <= coNJ {
		t.Fatalf("BO energy %g nJ not above CO energy %g nJ", boNJ, coNJ)
	}
	if got := sys.TotalEnergyNJ(); got != boNJ+coNJ {
		t.Fatalf("TotalEnergyNJ = %g, want %g", got, boNJ+coNJ)
	}
	for _, z := range []vm.ZoneID{7, vm.MaxZones, 255} {
		if sys.ZoneEnergyNJ(z) != 0 {
			t.Fatalf("unknown zone %d energy not 0", z)
		}
	}
}

func TestBackgroundTrafficConsumesBandwidth(t *testing.T) {
	// Saturate CO with GPU traffic, with and without CPU co-traffic; the
	// co-traffic must slow the GPU stream down.
	run := func(withCPU bool) sim.Time {
		cfg := Table1Config()
		eng, space, sys := buildSystem(t, cfg, vm.Unlimited, vm.Unlimited)
		for p := 0; p < 2048; p++ {
			space.MapPage(uint64(p), vm.ZoneCO)
		}
		active := true
		if withCPU {
			bg := NewBackgroundTraffic(sys, vm.ZoneCO, 40, 1)
			bg.Active = func() bool { return active }
			bg.Start()
		}
		rng := rand.New(rand.NewSource(5))
		remaining := 10000
		outstanding := 0
		var end sim.Time
		var inject func()
		inject = func() {
			for outstanding < 256 && remaining > 0 {
				va := uint64(rng.Intn(2048*4096/128)) * 128
				outstanding++
				remaining--
				sys.Access(va, false, func() {
					outstanding--
					if remaining == 0 && outstanding == 0 {
						end = eng.Now()
						active = false
					}
					inject()
				})
			}
		}
		inject()
		eng.Run()
		return end
	}
	base := run(false)
	loaded := run(true)
	// 40 GB/s of co-traffic on an 80 GB/s pool: expect a large slowdown.
	if float64(loaded) < 1.3*float64(base) {
		t.Fatalf("co-traffic slowdown = %.2fx, want >= 1.3x (base %d, loaded %d)",
			float64(loaded)/float64(base), base, loaded)
	}
}

func TestBackgroundTrafficStopsWhenInactive(t *testing.T) {
	cfg := Table1Config()
	eng, _, sys := buildSystem(t, cfg, 16, 16)
	bg := NewBackgroundTraffic(sys, vm.ZoneCO, 20, 2)
	ticks := 0
	bg.Active = func() bool { ticks++; return ticks <= 3 }
	bg.Start()
	eng.Run()
	if eng.Pending() != 0 {
		t.Fatal("injector left events queued")
	}
	if bg.Injected() != 3 {
		t.Fatalf("Injected = %d, want 3", bg.Injected())
	}
}

func TestLockPageDelaysAndExpires(t *testing.T) {
	eng, space, sys := buildSystem(t, Table1Config(), 16, 16)
	space.MapPage(0, vm.ZoneBO)
	sys.LockPage(0, 500)
	var done sim.Time
	sys.Access(0, false, func() { done = eng.Now() })
	eng.Run()
	if done < 500 {
		t.Fatalf("locked access completed at %d, want >= 500", done)
	}
	// Lock expired: second access sees no extra delay.
	start := eng.Now()
	var done2 sim.Time
	sys.Access(0, false, func() { done2 = eng.Now() })
	eng.Run()
	if done2-start > 100 {
		t.Fatalf("expired lock still delayed access by %d", done2-start)
	}
}

func TestLockPageKeepsLatestDeadline(t *testing.T) {
	eng, space, sys := buildSystem(t, Table1Config(), 16, 16)
	space.MapPage(0, vm.ZoneBO)
	sys.LockPage(0, 800)
	sys.LockPage(0, 300) // earlier deadline must not shorten the lock
	var done sim.Time
	sys.Access(0, false, func() { done = eng.Now() })
	eng.Run()
	if done < 800 {
		t.Fatalf("access completed at %d, want >= 800 (longest lock wins)", done)
	}
}

// TestEpochPageCountsIsolated: PageCounts returns a snapshot the caller
// owns, so a migration epoch can keep it to diff against the next one.
func TestEpochPageCountsIsolated(t *testing.T) {
	eng, space, sys := buildSystem(t, Table1Config(), 16, 16)
	space.MapPage(0, vm.ZoneBO)
	sys.Access(0, false, func() {})
	eng.Run()
	snap := sys.PageCounts()
	if snap[0] != 1 {
		t.Fatalf("snapshot count = %d, want 1", snap[0])
	}
	snap[0] = 99
	if sys.PageCounts()[0] != 1 {
		t.Fatal("PageCounts aliased live storage")
	}
}

// countHandler is a minimal long-lived completion handler for AccessH.
type countHandler struct{ n int }

func (c *countHandler) OnEvent(arg uint64) { c.n++ }

// TestAccessHMatchesAccess: Access (closure completion, no translation
// cache) must produce the same completion time and counters as AccessH
// with a handler and a translation cache.
func TestAccessHMatchesAccess(t *testing.T) {
	run := func(fast bool) (sim.Time, Stats) {
		eng, space, sys := buildSystem(t, Table1Config(), 64, 64)
		for p := uint64(0); p < 8; p++ {
			if err := space.MapPage(p, vm.ZoneBO); err != nil {
				t.Fatal(err)
			}
		}
		var tc vm.TransCache
		h := &countHandler{}
		n := 0
		for i := 0; i < 50; i++ {
			va := uint64(i%8)*vm.DefaultPageSize + uint64(i%32)*128
			if fast {
				sys.AccessH(nil, va, i%5 == 0, &tc, h, 0)
			} else {
				sys.Access(va, i%5 == 0, func() { n++ })
			}
		}
		end := eng.Run()
		if fast && h.n != 50 {
			t.Fatalf("fast path completed %d accesses, want 50", h.n)
		}
		if !fast && n != 50 {
			t.Fatalf("closure path completed %d accesses, want 50", n)
		}
		return end, sys.Stats()
	}
	endA, statsA := run(false)
	endB, statsB := run(true)
	if endA != endB {
		t.Fatalf("completion time differs: Access=%d AccessH=%d", endA, endB)
	}
	if !reflect.DeepEqual(statsA, statsB) {
		t.Fatalf("stats differ:\nAccess:  %+v\nAccessH: %+v", statsA, statsB)
	}
}

// TestAccessSteadyStateAllocFree: once the record pool, MSHR slots, and
// page-count slice are warm, driving accesses through AccessH performs no
// per-access heap allocations.
func TestAccessSteadyStateAllocFree(t *testing.T) {
	eng, space, sys := buildSystem(t, Table1Config(), 64, 64)
	for p := uint64(0); p < 16; p++ {
		if err := space.MapPage(p, vm.ZoneBO); err != nil {
			t.Fatal(err)
		}
	}
	var tc vm.TransCache
	h := &countHandler{}
	warm := func() {
		for i := 0; i < 64; i++ {
			sys.AccessH(nil, uint64(i%16)*vm.DefaultPageSize+uint64(i%32)*128, i%7 == 0, &tc, h, 0)
		}
		eng.Run()
	}
	warm()
	avg := testing.AllocsPerRun(200, warm)
	// The only remaining allocation sources are amortized growths (event
	// heap, MSHR map, histogram buckets) that settle during warm-up.
	if avg > 0.5 {
		t.Fatalf("steady-state AccessH burst allocates %.2f objects per 64 accesses, want ~0", avg)
	}
}

// TestReleasedSystemServesLikeNew: a system built right after another
// released its parts — L2s holding dirty lines, MSHR counters set, DRAM
// rows open, access records pooled, pages counted and locked — serves an
// access stream exactly like a system built with the pool emptied first:
// the same completion time, counters, page counts and energy. The rounds
// change the channel count, the MSHR capacity, the L2 (Random replacement,
// none) and the DRAM banks, so parts are reused, dropped and added.
func TestReleasedSystemServesLikeNew(t *testing.T) {
	cfgs := []Config{Table1Config(), Table1Config(), Table1Config(), Table1Config()}
	cfgs[1].MSHRsPerSlice, cfgs[1].L2Replace = 2, cache.Random
	cfgs[1].Zones = cfgs[1].Zones[:1]
	cfgs[2].DisableL2 = true
	cfgs[3].Zones = slices.Clone(cfgs[3].Zones)
	cfgs[3].Zones[1].Channels, cfgs[3].Zones[1].DRAM.Banks = 6, 32
	run := func(cfg Config) (*System, sim.Time, string) {
		eng, space, sys := buildSystem(t, cfg, vm.Unlimited, vm.Unlimited)
		for p := uint64(0); p < 64; p++ {
			if err := space.MapPage(p, vm.ZoneID(p%uint64(len(cfg.Zones)))); err != nil {
				t.Fatal(err)
			}
		}
		sys.LockPage(7, 300)
		done := 0
		for i := 0; i < 2000; i++ {
			va := uint64(i*37%64)*vm.DefaultPageSize + uint64(i%32)*128
			sys.Access(va, i%3 == 0, func() { done++ })
		}
		end := eng.Run()
		var perSlice []string
		for _, zc := range cfg.Zones {
			for ch := 0; ch < zc.Channels; ch++ {
				cs, ms, ds := sys.SliceStats(zc.Zone, ch)
				perSlice = append(perSlice, fmt.Sprint(cs, ms, ds))
			}
		}
		return sys, end, fmt.Sprint(done, sys.Stats(), sys.PageCounts(), sys.TotalEnergyNJ(), perSlice)
	}
	for round := range 2 * len(cfgs) {
		cfg := cfgs[round%len(cfgs)]
		sys, end, got := run(cfg)
		for spares.Get() != nil {
		}
		_, wantEnd, want := run(cfg)
		if end != wantEnd || got != want {
			t.Fatalf("round %d: ended at %d with\n%s\na new system ended at %d with\n%s", round, end, got, wantEnd, want)
		}
		sys.Release()
	}
}
