package memsys

import (
	"hetsim/internal/sim"
	"hetsim/internal/vm"
)

// Flight-recorder sampling surface. The full Stats() merge allocates (it
// clones latency histograms), which a probe taking a sample at every
// window edge cannot afford; the accessors below fill caller-owned
// storage with the scalar counters a time series needs and nothing else.

// PoolProbe is one memory pool's probe reading: the cumulative traffic
// counters merged across the pool's channel slices (plus the migration
// traffic charged to the pool) and the instantaneous MSHR
// occupancy and stall-queue depth.
type PoolProbe struct {
	Zone       vm.ZoneID
	Accesses   uint64
	DRAMReads  uint64
	DRAMWrites uint64
	BytesMoved uint64
	BusyCycles sim.Time // data-bus occupied cycles, summed over channels
	Channels   int

	MSHRUsed    int    // entries currently live, summed over slices
	MSHRStalled int    // requests currently parked on a full file
	FullStalls  uint64 // cumulative full-file stall events
}

// FillPoolProbes fills one PoolProbe per configured zone, in configuration
// order (the same order Stats merges in). It writes min(len(out), len(zones)) entries and
// performs no allocations.
func (s *System) FillPoolProbes(out []PoolProbe) {
	for i, zc := range s.cfg.Zones {
		if i >= len(out) {
			return
		}
		p := &out[i]
		*p = PoolProbe{Zone: zc.Zone, Channels: zc.Channels}
		root := &s.stats.PerZone[zc.Zone]
		p.DRAMReads = root.DRAMReads
		p.DRAMWrites = root.DRAMWrites
		p.BytesMoved = root.BytesMoved
		p.Accesses = root.Accesses
		for _, sl := range s.zones[zc.Zone].slices {
			p.Accesses += sl.st.Accesses
			p.DRAMReads += sl.st.DRAMReads
			p.DRAMWrites += sl.st.DRAMWrites
			p.BytesMoved += sl.st.BytesMoved
			p.BusyCycles += sl.dram.Stats().BusyCycles
			p.MSHRUsed += sl.mshr.Used()
			p.MSHRStalled += sl.mshr.Stalled()
			p.FullStalls += sl.mshr.Stats().FullStall
		}
	}
}

// ProbeCounters is the cross-pool slice of a probe sample: write-back
// buffer state and migration traffic.
type ProbeCounters struct {
	WriteBackDepth    int // pages queued in the async write-back buffer now
	WriteBacksQueued  uint64
	WriteBacksDrained uint64
	WriteBackAccesses uint64
	MigratedPages     uint64
}

// ProbeCounters returns the current cross-pool counters without merging
// the per-slice shards (allocation-free).
func (s *System) ProbeCounters() ProbeCounters {
	pc := ProbeCounters{
		WriteBacksQueued:  s.stats.WriteBacksQueued,
		WriteBacksDrained: s.stats.WriteBacksDrained,
		WriteBackAccesses: s.stats.WriteBackAccesses,
		MigratedPages:     s.stats.MigratedPages,
	}
	if s.wb != nil {
		pc.WriteBackDepth = len(s.wb.queue)
	}
	return pc
}
