// Package memsys assembles a simulated heterogeneous memory system from N
// memory pools (zones): per-pool DRAM channels fronted by memory-side L2
// slices with MSHR files, a per-pool interconnect hop (the PCIe-era
// fixed-latency hop of the paper, or a C2C/CXL link in newer topologies),
// and the virtual-memory translation layer. Table1Config is the paper's
// two-pool instance; internal/topology's presets are Configs too. The
// package exposes one operation to the GPU model — AccessH — and per-page
// DRAM access counts to the profiler.
package memsys

import (
	"fmt"
	"sync"

	"hetsim/internal/cache"
	"hetsim/internal/dram"
	"hetsim/internal/metrics"
	"hetsim/internal/sim"
	"hetsim/internal/vm"
)

// CoreClockGHz is the simulated GPU core clock (Table 1: 1.4 GHz); it
// converts GB/s bandwidth figures into bytes/cycle.
const CoreClockGHz = 1.4

// BytesPerCycle converts a GB/s figure to bytes per core cycle.
func BytesPerCycle(gbps float64) float64 { return gbps / CoreClockGHz }

// ZoneConfig describes the hardware of one memory pool (zone).
type ZoneConfig struct {
	Zone     vm.ZoneID
	Name     string
	Channels int
	DRAM     dram.Config
	// ExtraLatency is added to every access to this zone — the interconnect
	// hop between the GPU and the pool (100 cycles for the paper's
	// CPU-attached pool; a C2C or CXL link cost in newer topologies).
	ExtraLatency sim.Time
	// CapacityBytes bounds the pool's capacity; 0 means unlimited. The
	// experiment runner converts it to a page budget for the allocator and
	// the capacity-constrained oracle.
	CapacityBytes uint64
}

// Config describes the whole memory system.
type Config struct {
	LineBytes       int // cache line and DRAM burst size
	InterleaveBytes int // channel interleave granularity
	L2SliceBytes    int // L2 capacity per DRAM channel
	L2Ways          int
	L2Latency       sim.Time // L2 lookup latency (charged to every access)
	L2Replace       cache.Replacement
	// DisableL2 removes the memory-side L2 entirely (MSHRs still merge
	// duplicate in-flight fills) — the cache-filter ablation: page hotness
	// is defined post-cache, so removing the L2 changes which pages look
	// hot as well as performance.
	DisableL2     bool
	MSHRsPerSlice int
	// GlobalExtraLatency is added to every memory access regardless of
	// zone — the Figure 2b latency-sensitivity knob.
	GlobalExtraLatency sim.Time
	Zones              []ZoneConfig
}

// Table1Config returns the paper's simulated memory system: 8 GDDR5
// channels totalling 200 GB/s on the GPU, 4 DDR4 channels totalling
// 80 GB/s on the CPU behind a 100-cycle hop, 128 kB of memory-side L2
// with 128 MSHRs per channel, 128 B lines. It is the one definition of
// Table 1's memory system: the "k40-ddr4" topology preset returns it, and
// the other presets replace or extend its zones.
func Table1Config() Config {
	gddr5 := dram.Config{
		Timing:        dram.Table1Timing(),
		Banks:         16,
		RowBytes:      2048,
		BytesPerCycle: BytesPerCycle(25), // 25 GB/s x 8 channels = 200 GB/s
		BurstBytes:    128,
		Energy:        dram.GDDR5Energy(),
	}
	ddr4 := dram.Config{
		Timing:        dram.Table1Timing(),
		Banks:         16,
		RowBytes:      2048,
		BytesPerCycle: BytesPerCycle(20), // 20 GB/s x 4 channels = 80 GB/s
		BurstBytes:    128,
		Energy:        dram.DDR4Energy(),
	}
	return Config{
		LineBytes:       128,
		InterleaveBytes: 256,
		L2SliceBytes:    128 << 10,
		L2Ways:          8,
		L2Latency:       20,
		MSHRsPerSlice:   128,
		Zones: []ZoneConfig{
			{Zone: vm.ZoneBO, Name: "GDDR5", Channels: 8, DRAM: gddr5},
			{Zone: vm.ZoneCO, Name: "DDR4", Channels: 4, DRAM: ddr4, ExtraLatency: 100},
		},
	}
}

// Clone returns a deep copy of the configuration: mutating the copy's
// Zones (e.g. via ScaleZoneBandwidth) never aliases the original. Figure
// sweeps that perturb a shared base topology rely on this.
func (c Config) Clone() Config {
	out := c
	out.Zones = make([]ZoneConfig, len(c.Zones))
	copy(out.Zones, c.Zones)
	return out
}

// ZoneBandwidthGBps reports the aggregate bandwidth of zone z in GB/s.
func (c Config) ZoneBandwidthGBps(z vm.ZoneID) float64 {
	for _, zc := range c.Zones {
		if zc.Zone == z {
			return zc.DRAM.BytesPerCycle * float64(zc.Channels) * CoreClockGHz
		}
	}
	return 0
}

// ScaleZoneBandwidth multiplies zone z's per-channel bandwidth by f —
// the Figure 2a / Figure 5 sweep knob. f must be positive.
func (c *Config) ScaleZoneBandwidth(z vm.ZoneID, f float64) {
	if f <= 0 {
		panic(fmt.Sprintf("memsys: bandwidth scale %g not positive", f))
	}
	for i := range c.Zones {
		if c.Zones[i].Zone == z {
			c.Zones[i].DRAM.BytesPerCycle *= f
		}
	}
}

// SetZoneBandwidthGBps sets zone z's aggregate bandwidth, spread evenly
// over its channels.
func (c *Config) SetZoneBandwidthGBps(z vm.ZoneID, gbps float64) {
	if gbps <= 0 {
		panic(fmt.Sprintf("memsys: bandwidth %g not positive", gbps))
	}
	for i := range c.Zones {
		if c.Zones[i].Zone == z {
			c.Zones[i].DRAM.BytesPerCycle = BytesPerCycle(gbps / float64(c.Zones[i].Channels))
		}
	}
}

// Validate reports configuration errors: bad line or interleave sizes,
// no MSHRs, a negative latency adder, no zones, and per zone an
// out-of-range or repeated ID (so at most vm.MaxZones zones), a missing
// or repeated name, a non-positive channel count, a negative hop or
// invalid DRAM.
func (c Config) Validate() error {
	switch {
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("memsys: LineBytes %d must be a positive power of two", c.LineBytes)
	case c.InterleaveBytes < c.LineBytes || c.InterleaveBytes&(c.InterleaveBytes-1) != 0:
		return fmt.Errorf("memsys: InterleaveBytes %d must be a power of two >= LineBytes", c.InterleaveBytes)
	case c.MSHRsPerSlice <= 0:
		return fmt.Errorf("memsys: MSHRsPerSlice %d must be positive", c.MSHRsPerSlice)
	case c.GlobalExtraLatency < 0:
		return fmt.Errorf("memsys: GlobalExtraLatency %d negative", c.GlobalExtraLatency)
	case len(c.Zones) == 0:
		return fmt.Errorf("memsys: no zones")
	}
	var ids [vm.MaxZones]bool
	names := make(map[string]bool, len(c.Zones))
	for _, z := range c.Zones {
		switch {
		case z.Zone >= vm.MaxZones:
			return fmt.Errorf("memsys: zone %q has ID %d, want < %d", z.Name, z.Zone, vm.MaxZones)
		case ids[z.Zone]:
			return fmt.Errorf("memsys: zone %q repeats zone ID %d", z.Name, z.Zone)
		case z.Name == "":
			return fmt.Errorf("memsys: zone %d has no name", z.Zone)
		case names[z.Name]:
			return fmt.Errorf("memsys: duplicate zone name %q", z.Name)
		case z.Channels <= 0:
			return fmt.Errorf("memsys: zone %q has %d channels", z.Name, z.Channels)
		case z.ExtraLatency < 0:
			return fmt.Errorf("memsys: zone %q hop latency %d negative", z.Name, z.ExtraLatency)
		}
		ids[z.Zone], names[z.Name] = true, true
		if err := z.DRAM.Validate(); err != nil {
			return fmt.Errorf("memsys: zone %q: %w", z.Name, err)
		}
	}
	return nil
}

// ZoneStats aggregates traffic counters for one zone.
type ZoneStats struct {
	Accesses   uint64 // post-L1 accesses routed to this zone
	L2Hits     uint64
	DRAMReads  uint64
	DRAMWrites uint64
	BytesMoved uint64
}

// Stats aggregates memory-system counters.
type Stats struct {
	Accesses      uint64 // total post-L1 accesses
	TotalLatency  sim.Time
	MigratedPages uint64
	// Write-back buffer counters: demotions accepted into the bounded
	// asynchronous buffer, drains completed, and accesses that touched a
	// page while its old copy was still draining (PagePendingWriteBack —
	// such accesses proceed without stalling, unlike migration locks).
	WriteBacksQueued  uint64
	WriteBacksDrained uint64
	WriteBackAccesses uint64
	// Latency is the round-trip latency distribution (log-bucketed).
	Latency metrics.Histogram
	PerZone [vm.MaxZones]ZoneStats
}

// AvgLatency reports mean round-trip latency per access in cycles.
func (s Stats) AvgLatency() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.TotalLatency) / float64(s.Accesses)
}

// sliceStats is one channel slice's counters; Stats() merges them in
// configuration order.
type sliceStats struct {
	ZoneStats
	TotalLatency sim.Time
	Latency      metrics.Histogram
}

type slice struct {
	l2   *cache.Cache
	mshr *cache.MSHR
	dram *dram.Channel
	act  *sim.Actor // the slice's actor: it schedules every slice event
	st   sliceStats
}

type zoneHW struct {
	cfg    ZoneConfig
	slices []*slice
}

// System is the simulated memory system below the SM L1s.
type System struct {
	cfg Config
	eng *sim.Engine
	os  *sim.Actor // root actor: page faults resolve through it
	// hop is the modelled request/return interconnect stage between an SM
	// and an L2 slice (half the L2 pipeline latency). It is the minimum
	// latency of any cross-actor message and therefore the world's window
	// size; see LaneLookahead.
	hop   sim.Time
	space *vm.Space
	// zones is indexed by zone ID; nil marks a zone the config omits.
	zones [vm.MaxZones]*zoneHW
	// stats holds the migration traffic counters; per-channel traffic
	// lives in each slice's counters and is merged on read.
	stats Stats

	// freeAcc heads the freelist of pooled access records; records cycle
	// between it and the event queue / MSHR waiter lists.
	freeAcc *access
	// pageCounts[vpage] counts the accesses the channel slices served from
	// DRAM (post L1+L2 filtering at miss granularity) — the paper's page
	// hotness metric.
	pageCounts []uint64

	// FaultHandler, when set, is invoked on access to an unmapped page
	// (first-touch placement). It runs as a root-actor event, one hop
	// after the access (see begin). It must map the page or return an
	// error; a nil handler makes unmapped accesses panic (eager mode).
	FaultHandler func(vpage uint64) error

	// pages is the page-state table, indexed by virtual page: each page's
	// migration-lock deadline and write-back flag (see PageState). It grows
	// like the vm page table, but only when a migration locks or enqueues a
	// page, so a run without migration keeps it empty and pays one length
	// check per access. wb is the bounded asynchronous write-back buffer for
	// demotions (see ConfigureWriteBack). Both change only in migration
	// runs.
	pages []pageEntry
	wb    *writeBackBuf

	// spare is the box the system's parts came in, kept to hand them on
	// (Release); nil for a system built from new parts.
	spare *parts
}

// parts is the hardware a released System hands to the next New: its
// channel slices in configuration order, the freelist of its access
// records, and the storage of its page-count and page-state tables.
type parts struct {
	slices     []*slice
	freeAcc    *access
	pageCounts []uint64
	pages      []pageEntry
}

// spares holds released part sets. Each New takes at most one whole set,
// so a run's spare is never kept beside the parts that replace it.
var spares sync.Pool // of *parts

// New assembles a memory system over an engine and an address space. The
// engine's World gains one actor per DRAM channel, in zone configuration
// order — construction order is part of the canonical event schedule. The
// system is built in the parts a released system handed on (Release), if
// there are any, and otherwise from new ones; either way it simulates
// alike.
func New(eng *sim.Engine, space *vm.Space, cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := sim.WorldOf(eng)
	s := &System{
		cfg:   cfg,
		eng:   eng,
		os:    w.Root(),
		hop:   cfg.L2Latency / 2,
		space: space,
	}
	var spare []*slice
	if p, _ := spares.Get().(*parts); p != nil {
		// Slices this config does not take are dropped with the list.
		s.spare, spare, p.slices = p, p.slices, nil
		s.pageCounts, s.pages = p.pageCounts[:0], p.pages[:0]
		s.freeAcc = p.freeAcc
		for a := s.freeAcc; a != nil; a = a.next {
			a.sys = s
		}
	}
	for _, zc := range cfg.Zones {
		hw := &zoneHW{cfg: zc}
		for i := 0; i < zc.Channels; i++ {
			var sl *slice
			if len(spare) > 0 {
				sl, spare = spare[0], spare[1:]
			} else {
				sl = new(slice)
			}
			sl.reset(w.NewActor(), cfg, zc.DRAM, i)
			hw.slices = append(hw.slices, sl)
		}
		s.zones[zc.Zone] = hw
	}
	return s, nil
}

// reset makes sl channel i of a zone with DRAM config dc under cfg, for
// actor act, reusing its L2 tag array, MSHR file and DRAM channel where
// they fit (see cache.Reuse, cache.ReuseMSHR and dram.ReuseChannel) and
// zeroing its counters.
func (sl *slice) reset(act *sim.Actor, cfg Config, dc dram.Config, i int) {
	var l2 *cache.Cache
	if !cfg.DisableL2 {
		l2 = cache.Reuse(sl.l2, cache.Config{
			SizeBytes: cfg.L2SliceBytes,
			LineBytes: cfg.LineBytes,
			Ways:      cfg.L2Ways,
			Replace:   cfg.L2Replace,
			Seed:      int64(i),
		})
	}
	*sl = slice{
		l2:   l2,
		mshr: cache.ReuseMSHR(sl.mshr, cfg.MSHRsPerSlice),
		dram: dram.ReuseChannel(sl.dram, dc),
		act:  act,
	}
}

// Release hands the system's hardware to the next New, which resets every
// part it takes: the channel slices with their L2 tag arrays, MSHR files
// and DRAM channels, the pooled access records (re-pointed at the new
// system), and the storage of the page-count and page-state tables. Call
// it once the run has drained and every counter has been read; the system
// must not be used afterwards.
func (s *System) Release() {
	p := s.spare
	if p == nil {
		p = new(parts)
	}
	for _, zc := range s.cfg.Zones {
		for _, sl := range s.zones[zc.Zone].slices {
			sl.act = nil // the world is not handed on with the slice
			p.slices = append(p.slices, sl)
		}
	}
	p.freeAcc, p.pageCounts, p.pages = s.freeAcc, s.pageCounts, s.pages
	*s = System{}
	spares.Put(p)
}

// LaneLookahead returns the lookahead the memory system supports under
// cfg, the window size of its world: the minimum latency of any message
// between an SM and a channel slice. The name survives from parallel event
// lanes, which were removed; the benchmark harness under bench/ calls it,
// so it keeps the name until that harness changes.
func LaneLookahead(cfg Config) sim.Time { return cfg.L2Latency / 2 }

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Stats merges the per-slice counters, in configuration order, with the
// migration counters and returns the combined copy.
func (s *System) Stats() Stats {
	out := s.stats
	for _, zc := range s.cfg.Zones {
		pz := &out.PerZone[zc.Zone]
		for _, sl := range s.zones[zc.Zone].slices {
			st := &sl.st
			out.Accesses += st.Accesses
			out.TotalLatency += st.TotalLatency
			out.Latency.Merge(&st.Latency)
			pz.Accesses += st.Accesses
			pz.L2Hits += st.L2Hits
			pz.DRAMReads += st.DRAMReads
			pz.DRAMWrites += st.DRAMWrites
			pz.BytesMoved += st.BytesMoved
		}
	}
	return out
}

// PageCounts returns the per-virtual-page DRAM access counts accumulated
// so far in a fresh slice that the caller owns.
func (s *System) PageCounts() []uint64 { return s.PageCountsInto(nil) }

// PageCountsInto writes the per-virtual-page DRAM access counts accumulated
// so far into dst, reusing its storage when it is large enough, and
// returns the result. Migration epochs read their counts through it
// without allocating.
func (s *System) PageCountsInto(dst []uint64) []uint64 {
	n := len(s.pageCounts)
	if dst == nil || cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	copy(dst, s.pageCounts)
	return dst
}

// ZoneServiceFraction reports the fraction of post-L1 accesses served by
// zone z — the quantity BW-AWARE placement balances.
func (s *System) ZoneServiceFraction(z vm.ZoneID) float64 {
	st := s.Stats()
	if st.Accesses == 0 {
		return 0
	}
	return float64(st.PerZone[z].Accesses) / float64(st.Accesses)
}

// ZoneEnergyNJ reports zone z's accumulated DRAM access energy in
// nanojoules.
func (s *System) ZoneEnergyNJ(z vm.ZoneID) float64 {
	hw := s.zoneHW(z)
	if hw == nil {
		return 0
	}
	var nj float64
	for _, sl := range hw.slices {
		nj += sl.dram.EnergyNJ()
	}
	return nj
}

// TotalEnergyNJ reports the whole memory system's access energy. Zones are
// summed in configuration order so the floating-point result is
// deterministic run to run.
func (s *System) TotalEnergyNJ() float64 {
	var nj float64
	for _, zc := range s.cfg.Zones {
		nj += s.ZoneEnergyNJ(zc.Zone)
	}
	return nj
}

// SliceStats exposes one channel's component statistics for ablation
// studies and tests.
func (s *System) SliceStats(z vm.ZoneID, channel int) (cache.Stats, cache.MSHRStats, dram.Stats) {
	sl := s.zones[z].slices[channel]
	var cs cache.Stats
	if sl.l2 != nil {
		cs = sl.l2.Stats()
	}
	return cs, sl.mshr.Stats(), sl.dram.Stats()
}

// zoneHW returns zone z's hardware, or nil when the config omits z.
func (s *System) zoneHW(z vm.ZoneID) *zoneHW {
	if int(z) >= len(s.zones) {
		return nil
	}
	return s.zones[z]
}

// route picks the slice and channel-local address for a physical address.
func (s *System) route(pa uint64) (*zoneHW, *slice, uint64) {
	z := vm.ZoneOfPA(pa)
	hw := s.zones[z]
	if hw == nil {
		panic(fmt.Sprintf("memsys: access to unconfigured zone %d (pa=%#x)", z, pa))
	}
	local := vm.ZoneOffset(pa)
	il := uint64(s.cfg.InterleaveBytes)
	nch := uint64(len(hw.slices))
	chunk := local / il
	ch := chunk % nch
	chLocal := (chunk/nch)*il + local%il
	return hw, hw.slices[ch], chLocal
}

// access is one pooled in-flight request record. It carries a post-L1
// access through every stage — migration-lock wait, L2 slice arrival, DRAM
// fill, data return — as a sim.Handler driven by step codes, so the whole
// hot path schedules events and registers MSHR waiters without allocating.
// Records are recycled through System.freeAcc when the completion fires.
type access struct {
	sys    *System
	hw     *zoneHW
	sl     *slice
	src    *sim.Actor // requester's actor: it receives the completion
	va     uint64
	chAddr uint64
	vpage  uint64
	write  bool
	start  sim.Time
	h      sim.Handler // completion
	harg   uint64
	next   *access // freelist link
}

// Step codes for access.OnEvent. Each step is addressed to a fixed actor:
// retry and complete to the requester, arrive and fill to the slice, fault
// to the root. Crossings between actors go through Sends, whose minimum
// delay (the hop) is the world's lookahead.
const (
	stepRetryLock = iota // lock released / fault resolved; re-enter translation
	stepArrive           // request reached the L2 slice
	stepFill             // DRAM line fill completed
	stepComplete         // data returned; fire the caller's completion
	stepFault            // unmapped page reached the OS (root actor)
)

func (a *access) OnEvent(arg uint64) {
	s := a.sys
	switch arg {
	case stepRetryLock:
		s.begin(a, nil)
	case stepArrive:
		s.sliceAccess(a)
	case stepFill:
		sl := a.sl
		now := sl.act.Now()
		if sl.l2 != nil {
			victim := sl.l2.Insert(a.chAddr, a.write)
			if victim.Valid && victim.Dirty {
				// Write back the victim; fire-and-forget timing-wise
				// but it occupies DRAM bandwidth.
				sl.dram.Access(now, victim.LineAddr*uint64(s.cfg.LineBytes), true)
				sl.st.DRAMWrites++
			}
		}
		sl.mshr.Fill(a.chAddr/uint64(s.cfg.LineBytes), now)
	case stepComplete:
		a.h.OnEvent(a.harg)
		s.putAccess(a)
	case stepFault:
		// Root actor: map the page unless an earlier fault already did (or
		// reserved a pending mapping awaiting the next window flush), then
		// bounce the requester back into translation. The reply delay is
		// at least one window, so a deferred mapping is committed before
		// the retry translates.
		if !s.space.MappedOrPending(a.vpage) {
			if err := s.FaultHandler(a.vpage); err != nil {
				panic(fmt.Sprintf("memsys: page fault for va %#x failed: %v", a.va, err))
			}
		}
		s.os.SendAfter(a.src, s.faultHop(), a, stepRetryLock)
	}
}

// OnFill implements cache.FillWaiter: the line's data is available at the
// slice at t; the requester sees it after the return hop plus the zone's
// interconnect latency. Latency is accounted here, at the slice — the
// completion time is fully determined at fill time.
func (a *access) OnFill(t sim.Time) {
	s := a.sys
	complete := t + s.hop + a.hw.cfg.ExtraLatency
	lat := complete - a.start
	a.sl.st.TotalLatency += lat
	a.sl.st.Latency.Observe(uint64(lat))
	a.sl.act.Send(a.src, complete, a, stepComplete)
}

// Retry implements cache.Retrier: re-attempt the whole slice access after a
// full MSHR file freed an entry; the line may now hit. This attempt's
// accounting is undone so the retry counts once.
func (a *access) Retry() {
	st := &a.sl.st
	st.Accesses--
	st.BytesMoved -= uint64(a.sys.cfg.LineBytes)
	a.sys.uncountPage(a.vpage)
	a.sys.sliceAccess(a)
}

func (s *System) getAccess(src *sim.Actor) *access {
	a := s.freeAcc
	if a == nil {
		a = &access{sys: s}
	} else {
		s.freeAcc = a.next
		a.next = nil
	}
	a.src = src
	return a
}

func (s *System) putAccess(a *access) {
	a.h, a.hw, a.sl, a.src = nil, nil, nil, nil
	a.next = s.freeAcc
	s.freeAcc = a
}

// faultHop is the delay of each leg of the fault round trip. It is at
// least one full window, so the retry always lands after the barrier that
// commits the deferred mapping.
func (s *System) faultHop() sim.Time {
	if s.hop < 1 {
		return 1
	}
	return s.hop
}

// funcHandler adapts a completion closure to sim.Handler. A func value is
// pointer-shaped, so the conversion does not allocate.
type funcHandler func()

func (f funcHandler) OnEvent(uint64) { f() }

// Access is AccessH from the root actor with a closure completion: done
// fires at data-return time.
func (s *System) Access(va uint64, write bool, done func()) {
	s.AccessH(s.os, va, write, nil, funcHandler(done), 0)
}

// AccessH sends one post-L1 memory access for virtual address va into the
// memory system at the requester's current time; h.OnEvent(arg) fires at
// the completion (data return) time. src is the requester's actor (e.g.
// the issuing SM's); nil means the root actor. tc, when non-nil, is a
// caller-owned one-entry translation cache (typically per SM) consulted
// before the page table. AccessH must be called at src's time — from src's
// own event handlers or from setup code.
//
// AccessH panics on unmapped addresses when no FaultHandler is set: the
// runtime maps all pages at allocation time or on first touch, so a miss
// is a simulator bug. Accesses to a page being migrated are deferred until
// the move completes, then re-translated (the page has a new physical
// address).
func (s *System) AccessH(src *sim.Actor, va uint64, write bool, tc *vm.TransCache, h sim.Handler, arg uint64) {
	if src == nil {
		src = s.os
	}
	a := s.getAccess(src)
	a.va, a.write, a.h, a.harg = va, write, h, arg
	s.begin(a, tc)
}

// begin runs the pre-slice stages for the requester: migration-lock check,
// translation (unmapped pages detour to the OS through the root actor and
// re-enter here), routing, and the flight to the L2 slice.
func (s *System) begin(a *access, tc *vm.TransCache) {
	src := a.src
	now := src.Now()
	vpage := s.space.PageOf(a.va)
	a.vpage = vpage
	switch st, until := s.state(vpage, now); st {
	case PagePendingMigration:
		src.After(until-now, a, stepRetryLock)
		return
	case PagePendingWriteBack:
		// The page is already remapped and readable at its new address, so
		// the access proceeds — only count it. Only migration runs reach
		// this state.
		s.stats.WriteBackAccesses++
	}
	pa, ok := s.space.TranslateCached(tc, a.va)
	if !ok && s.FaultHandler != nil {
		// First-touch fault: resolve through the root actor. Page-table
		// commits happen only at window edges, so translation re-runs on
		// the reply rather than inline.
		src.SendAfter(s.os, s.faultHop(), a, stepFault)
		return
	}
	if !ok {
		panic(fmt.Sprintf("memsys: access to unmapped va %#x", a.va))
	}
	a.hw, a.sl, a.chAddr = s.route(pa)
	a.start = now

	// The request reaches the L2 slice after the front half of the L2
	// pipeline latency plus the global latency knob; the back half (the
	// hop) and the zone's interconnect latency are charged on the return
	// (see OnFill). The round-trip total is unchanged from the sequential
	// model: L2Latency + GlobalExtraLatency + ExtraLatency.
	arrive := now + s.cfg.L2Latency - s.hop + s.cfg.GlobalExtraLatency
	src.Send(a.sl.act, arrive, a, stepArrive)
}

func (s *System) sliceAccess(a *access) {
	sl := a.sl
	st := &sl.st
	st.Accesses++
	st.BytesMoved += uint64(s.cfg.LineBytes)

	if sl.l2 != nil && sl.l2.Lookup(a.chAddr, a.write) {
		st.L2Hits++
		a.OnFill(sl.act.Now())
		return
	}

	// L2 miss: this access will be served from DRAM — the paper's page
	// hotness event ("the number of accesses to that page that are served
	// from DRAM"). Merged misses share a fill but still count: they were
	// not absorbed by cache capacity.
	s.countPage(a.vpage)

	line := a.chAddr / uint64(s.cfg.LineBytes)
	switch sl.mshr.Allocate(line, a) {
	case cache.Allocated:
		doneT := sl.dram.Access(sl.act.Now(), a.chAddr, false) // line fill is a read
		st.DRAMReads++
		sl.act.At(doneT, a, stepFill)
	case cache.Merged:
		// Ride the in-flight fill.
	case cache.Full:
		sl.mshr.Stall(line, a)
	}
}

func (s *System) countPage(vpage uint64) {
	if vpage >= uint64(len(s.pageCounts)) {
		s.pageCounts = grow(s.pageCounts, vpage)
	}
	s.pageCounts[vpage]++
}

func (s *System) uncountPage(vpage uint64) {
	if c := s.pageCounts; vpage < uint64(len(c)) && c[vpage] > 0 {
		c[vpage]--
	}
}

// grow extends s with zero entries to cover index i. Capacity grows
// geometrically, so ascending indices (first touches, say) cost amortized
// O(1) each instead of a copy of the slice every time.
func grow[T any](s []T, i uint64) []T {
	if i < uint64(len(s)) {
		return s
	}
	return append(s, make([]T, i+1-uint64(len(s)))...)
}
