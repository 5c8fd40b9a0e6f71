// Package dram models DRAM channel and bank timing. A Config describes one
// channel of any memory pool in a topology — the paper's Table 1 pair (a
// bandwidth-optimized GDDR5-like pool at 8×25 GB/s and a capacity-optimized
// DDR4-like pool at 4×20 GB/s, both with RCD=RP=12, RC=40, CL=WR=12), or
// newer technologies such as HBM3, LPDDR5X, and CXL-attached DRAM (see
// internal/topology for named multi-pool presets).
//
// The model is timing-calculating rather than event-driven: Channel.Access
// is called with the request arrival time and returns the completion time,
// updating internal bank-state and data-bus occupancy. Bandwidth is enforced
// by serializing bursts on the per-channel data bus; latency is produced by
// open-page bank timing (row hits pay CAS only, misses pay
// precharge+activate+CAS, and consecutive activates to one bank respect
// tRC). Under load the completion times stretch out exactly as a queueing
// model would, so sustained throughput converges to the configured peak
// bandwidth.
package dram

import (
	"fmt"

	"hetsim/internal/sim"
)

// Timing holds DRAM command timings in GPU core cycles. The paper's Table 1
// lists them in DRAM cycles; at the simulated 1.4 GHz core clock the
// conversion factor is ~1, so we adopt them directly, as the paper's
// qualitative results depend on their ratios rather than absolute values.
type Timing struct {
	RCD int // row-to-column delay (activate -> read/write)
	RP  int // row precharge
	RC  int // activate-to-activate on one bank
	CL  int // CAS latency
	WR  int // write recovery
	// REFI and RFC model all-bank refresh: every REFI cycles the channel
	// is blocked for RFC cycles. Zero REFI disables refresh (the paper's
	// configuration omits it; the refresh ablation bench enables it).
	REFI int
	RFC  int
}

// Table1Timing is the timing configuration from Table 1 of the paper.
func Table1Timing() Timing { return Timing{RCD: 12, RP: 12, RC: 40, CL: 12, WR: 12} }

// Config describes one DRAM channel.
type Config struct {
	Timing        Timing
	Banks         int     // banks per channel
	RowBytes      int     // row (page) size in bytes
	BytesPerCycle float64 // peak data-bus bandwidth, bytes per core cycle
	BurstBytes    int     // transfer granularity (cache line size)
	// Energy is the per-operation energy model; the zero value meters
	// nothing, which is fine for purely performance studies.
	Energy EnergyConfig
}

// Validate reports an error if the configuration is not usable.
func (c Config) Validate() error {
	switch {
	case c.Banks <= 0:
		return fmt.Errorf("dram: Banks = %d, must be positive", c.Banks)
	case c.RowBytes <= 0:
		return fmt.Errorf("dram: RowBytes = %d, must be positive", c.RowBytes)
	case c.BytesPerCycle <= 0:
		return fmt.Errorf("dram: BytesPerCycle = %g, must be positive", c.BytesPerCycle)
	case c.BurstBytes <= 0:
		return fmt.Errorf("dram: BurstBytes = %d, must be positive", c.BurstBytes)
	}
	return nil
}

// burstCycles is the data-bus occupancy of one burst in core cycles,
// rounded up for latency purposes (at least 1). Bus *occupancy* accounting
// uses the exact fractional value so sustained bandwidth matches the
// configured figure instead of losing up to a cycle per burst to
// quantization.
func (c Config) burstCycles() sim.Time {
	cycles := float64(c.BurstBytes) / c.BytesPerCycle
	t := sim.Time(cycles)
	if float64(t) < cycles {
		t++
	}
	if t < 1 {
		t = 1
	}
	return t
}

func (c Config) burstFrac() float64 { return float64(c.BurstBytes) / c.BytesPerCycle }

type bank struct {
	openRow      int64 // -1 = closed
	lastActivate sim.Time
	readyAt      sim.Time // earliest next column command
}

// Stats aggregates channel activity counters.
type Stats struct {
	Reads         uint64
	Writes        uint64
	RowHits       uint64
	RowMisses     uint64 // activate to a closed bank
	RowConfl      uint64 // activate requiring precharge of another row
	BytesMoved    uint64
	BusyCycles    sim.Time // data-bus occupied cycles
	RefreshStalls uint64   // accesses delayed by an all-bank refresh
}

// RowHitRate reports the fraction of accesses that hit in an open row.
func (s Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses + s.RowConfl
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// Channel is a single DRAM channel with open-page banks and a shared data
// bus. It is not safe for concurrent use; the simulation is single-threaded.
type Channel struct {
	cfg       Config
	burst     sim.Time
	burstFrac float64
	banks     []bank
	busFree   float64 // fractional cycles: exact bandwidth accounting
	stats     Stats
	energyNJ  float64
}

// NewChannel returns a channel for cfg. It panics on an invalid
// configuration, which always indicates a programming error in the caller.
func NewChannel(cfg Config) *Channel { return ReuseChannel(nil, cfg) }

// ReuseChannel returns a channel for cfg that times exactly like
// NewChannel(cfg). When old's bank array can hold cfg.Banks banks, the
// channel is old, reset: every bank closed with no pending tRC window, the
// bus free, the counters and energy zeroed. Otherwise old is dropped and a
// new channel is built. old must not be used afterwards.
func ReuseChannel(old *Channel, cfg Config) *Channel {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	var banks []bank
	if old != nil && cap(old.banks) >= cfg.Banks {
		banks = old.banks[:cfg.Banks]
	} else {
		old, banks = new(Channel), make([]bank, cfg.Banks)
	}
	for i := range banks {
		// A fresh bank has no pending tRC window.
		banks[i] = bank{openRow: -1, lastActivate: -sim.Time(cfg.Timing.RC)}
	}
	*old = Channel{cfg: cfg, burst: cfg.burstCycles(), burstFrac: cfg.burstFrac(), banks: banks}
	return old
}

// Stats returns a copy of the accumulated counters.
func (ch *Channel) Stats() Stats { return ch.stats }

// BusFree reports when the data bus next becomes free (rounded up to a
// whole cycle). Useful for tests and for back-pressure heuristics.
func (ch *Channel) BusFree() sim.Time { return sim.Time(ch.busFree + 0.999999) }

// Access services one burst-sized request addressed within this channel and
// returns the time its data transfer completes. addr is the
// channel-local byte address (the caller has already stripped channel
// interleaving bits). now is the request arrival time.
func (ch *Channel) Access(now sim.Time, addr uint64, write bool) sim.Time {
	row := int64(addr / uint64(ch.cfg.RowBytes))
	b := &ch.banks[int(row)%ch.cfg.Banks]
	row /= int64(ch.cfg.Banks) // distinct rows map to distinct bank-local rows

	// Reserve a data-bus slot in arrival order. A real FR-FCFS controller
	// reorders requests to keep the bus busy while a bank is unavailable,
	// so we do not let bank timing hold the bus slot hostage: the bus
	// reserves at full rate, and bank readiness only delays this
	// request's completion. Bank-bound streams (one hot bank) are still
	// throttled through the tRC/readyAt chain below.
	// All-bank refresh blocks the channel for RFC cycles every REFI.
	if t := ch.cfg.Timing; t.REFI > 0 {
		window := now - now%sim.Time(t.REFI)
		if now < window+sim.Time(t.RFC) {
			now = window + sim.Time(t.RFC)
			ch.stats.RefreshStalls++
		}
	}

	busStartF := ch.busFree
	if f := float64(now); f > busStartF {
		busStartF = f
	}
	ch.busFree = busStartF + ch.burstFrac
	ch.stats.BusyCycles += ch.burst
	busStart := sim.Time(busStartF)

	cmd := maxTime(now, b.readyAt)
	activated := false

	t := ch.cfg.Timing
	var dataReady sim.Time
	switch {
	case b.openRow == row:
		ch.stats.RowHits++
		dataReady = cmd + sim.Time(t.CL)
	case b.openRow == -1:
		ch.stats.RowMisses++
		activated = true
		cmd = maxTime(cmd, b.lastActivate+sim.Time(t.RC))
		b.lastActivate = cmd
		dataReady = cmd + sim.Time(t.RCD+t.CL)
	default:
		ch.stats.RowConfl++
		activated = true
		cmd = maxTime(cmd+sim.Time(t.RP), b.lastActivate+sim.Time(t.RC))
		b.lastActivate = cmd
		dataReady = cmd + sim.Time(t.RCD+t.CL)
	}
	b.openRow = row

	done := maxTime(busStart, dataReady) + ch.burst

	// The bank can accept its next column command once this transfer
	// completes; writes additionally pay write recovery.
	b.readyAt = done
	if write {
		b.readyAt += sim.Time(t.WR)
		ch.stats.Writes++
	} else {
		ch.stats.Reads++
	}
	ch.stats.BytesMoved += uint64(ch.cfg.BurstBytes)
	ch.energyNJ += ch.cfg.Energy.accessEnergyNJ(ch.cfg.BurstBytes, write, activated)

	return done
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}
