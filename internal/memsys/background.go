package memsys

import (
	"math/rand"

	"hetsim/internal/sim"
	"hetsim/internal/vm"
)

// BackgroundTraffic injects CPU-side memory traffic directly into one
// zone's DRAM channels, modelling a host process sharing the
// capacity-optimized pool with the GPU (§2.2: "data placement policies
// combined with bandwidth-asymmetric memories can have significant impact
// on GPU, and possibly CPU, performance"). The injected stream bypasses
// the GPU-side counters (it is not GPU traffic) but consumes real channel
// bandwidth, so placement policies that lean on the shared pool feel the
// contention. Used by the FigCPU extension experiment.
type BackgroundTraffic struct {
	sys  *System
	zone vm.ZoneID
	rng  *rand.Rand
	// interval between injected line transfers, derived from the rate.
	interval sim.Time
	// Active gates rescheduling so the event queue can drain when the
	// foreground application finishes.
	Active   func() bool
	injected uint64
}

// NewBackgroundTraffic builds an injector pushing gbps of line-sized reads
// into zone. Rates that round below one line per cycle interval are
// clamped to one line per cycle.
func NewBackgroundTraffic(sys *System, zone vm.ZoneID, gbps float64, seed int64) *BackgroundTraffic {
	lineBytes := float64(sys.cfg.LineBytes)
	bytesPerCycle := BytesPerCycle(gbps)
	interval := sim.Time(lineBytes / bytesPerCycle)
	if interval < 1 {
		interval = 1
	}
	return &BackgroundTraffic{
		sys:      sys,
		zone:     zone,
		rng:      rand.New(rand.NewSource(seed + 99)),
		interval: interval,
		Active:   func() bool { return true },
	}
}

// Injected reports how many line transfers have been issued.
func (b *BackgroundTraffic) Injected() uint64 { return b.injected }

// Start schedules the first injection on the root actor.
func (b *BackgroundTraffic) Start() { b.sys.os.After(b.interval, injectTick{b}, 0) }

// injectTick is the injector's sim.Handler. It keeps OnEvent off
// BackgroundTraffic's public method set; being pointer-shaped, it
// schedules without allocating.
type injectTick struct{ b *BackgroundTraffic }

func (t injectTick) OnEvent(uint64) { t.b.tick() }

// tick injects one line transfer and schedules the next.
func (b *BackgroundTraffic) tick() {
	if !b.Active() {
		return
	}
	hw := b.sys.zones[b.zone]
	if hw != nil && len(hw.slices) > 0 {
		sl := hw.slices[b.rng.Intn(len(hw.slices))]
		// CPU traffic goes straight to DRAM (it has its own caches on the
		// host side; what the GPU feels is the bus occupancy).
		addr := uint64(b.rng.Int63n(1<<26)) &^ uint64(b.sys.cfg.LineBytes-1)
		sl.dram.Access(b.sys.os.Now(), addr, b.rng.Intn(4) == 0)
		b.injected++
	}
	b.sys.os.After(b.interval, injectTick{b}, 0)
}
