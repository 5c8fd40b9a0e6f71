// Package topology describes N-pool heterogeneous memory systems as data.
//
// The paper evaluates one fixed two-pool machine (Table 1: a
// bandwidth-optimized GDDR5 pool plus a capacity-optimized DDR4 pool
// behind a fixed-latency interconnect hop), but its central argument —
// place pages in proportion to pool bandwidth — is topology-agnostic
// (§3.1: "this policy will generalize to an optimal policy where there
// are more than two technologies"). This package is that generalization's
// configuration surface: a Topology lists K pools, each declaring its
// capacity, channel count, per-channel bandwidth, DRAM timing and energy
// parameters, and the interconnect hop that separates it from the GPU.
//
// A Topology compiles into MemsysConfig: the hardware description
// (internal/memsys) — channels, timings, hop latencies, capacities — that
// the memory system simulates. The placement policies' System Bandwidth
// Information Table (internal/core) is derived from that config by
// experiments.SBITFor, the discovery step the paper assigns to ACPI or
// the GPU runtime, so every run reads one SBIT derivation.
//
// Pool order is significant: pool i becomes vm.ZoneID(i), and pool 0 is by
// convention the GPU-attached, highest-bandwidth pool (what the paper calls
// BO). Every preset follows this convention, so zone 0 statistics (e.g.
// Result.BOServed) mean "the GPU-local pool" under any topology.
//
// Named presets (see presets.go and TOPOLOGIES.md): "k40-ddr4" is the
// paper's Table 1 system and compiles to a memsys.Config deep-equal to
// memsys.Table1Config(), so its figures — and its simulation cache keys —
// are byte-identical to the defaults; "gh200" models a Grace-Hopper-class
// superchip (HBM3 + LPDDR5X over a coherent C2C link, ~8:1 bandwidth
// ratio); "cxl-expansion" adds a third, slower CXL.mem tier to the paper's
// pair.
package topology

import (
	"fmt"

	"hetsim/internal/dram"
	"hetsim/internal/memsys"
	"hetsim/internal/sim"
	"hetsim/internal/vm"
)

// HopKind classifies the interconnect between the GPU and one memory pool.
// The kind is descriptive (documentation, tables); the simulated cost is
// Hop.LatencyCycles.
type HopKind int

// Interconnect generations, oldest to newest.
const (
	// HopLocal is GPU-attached memory: no hop at all.
	HopLocal HopKind = iota
	// HopPCIe is the paper-era fixed-latency hop to CPU-attached memory
	// (Table 1 charges 100 GPU cycles each way, folded into one constant).
	HopPCIe
	// HopC2C is a cache-coherent chip-to-chip link (NVLink-C2C class):
	// still a latency adder, but far below a PCIe round trip.
	HopC2C
	// HopCXL is a CXL.mem expansion device: DRAM behind a CXL controller,
	// the highest-latency tier.
	HopCXL
)

func (k HopKind) String() string {
	switch k {
	case HopLocal:
		return "local"
	case HopPCIe:
		return "pcie"
	case HopC2C:
		return "c2c"
	case HopCXL:
		return "cxl"
	default:
		return fmt.Sprintf("HopKind(%d)", int(k))
	}
}

// Hop is the interconnect between the GPU and one pool.
type Hop struct {
	Kind HopKind
	// LatencyCycles is added to every access to the pool, in GPU core
	// cycles (1.4 GHz) — the simulated cost of the hop.
	LatencyCycles int
}

// Pool describes one memory pool of a topology.
type Pool struct {
	// Name labels the pool in tables and stats (e.g. "GDDR5", "HBM3").
	// Names must be unique within a topology.
	Name string
	// Channels is the number of independent DRAM channels (each fronted by
	// its own memory-side L2 slice and MSHR file, as in Table 1).
	Channels int
	// ChannelGBps is the peak bandwidth of one channel; the pool's
	// aggregate bandwidth is Channels × ChannelGBps.
	ChannelGBps float64
	// CapacityBytes bounds the pool's capacity; 0 means unlimited. The
	// paper's capacity studies constrain pool 0 as a fraction of the
	// workload footprint instead (RunConfig.BOCapacityFrac); both
	// constraints apply, whichever is tighter.
	CapacityBytes uint64
	// Timing holds the pool's DRAM command timings.
	Timing dram.Timing
	// Banks per channel and row-buffer size, for the open-page bank model.
	Banks    int
	RowBytes int
	// Energy is the per-operation access energy model.
	Energy dram.EnergyConfig
	// Hop is the interconnect between the GPU and this pool.
	Hop Hop
}

// BandwidthGBps is the pool's aggregate peak bandwidth.
func (p Pool) BandwidthGBps() float64 { return p.ChannelGBps * float64(p.Channels) }

// Topology is an N-pool heterogeneous memory system. The zero values of
// the system-level fields default to the paper's Table 1 parameters, so a
// Topology normally only needs Name and Pools.
type Topology struct {
	// Name identifies the topology (preset name, cache-key component for
	// the serving layer's figure requests).
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Pools, in zone order: Pools[i] becomes vm.ZoneID(i). Pool 0 should
	// be the GPU-attached, highest-bandwidth pool.
	Pools []Pool

	// System-level parameters; zero means the Table 1 value.
	LineBytes       int // cache line / DRAM burst size (default 128)
	InterleaveBytes int // channel interleave granularity (default 256)
	L2SliceBytes    int // memory-side L2 per channel (default 128 kB)
	L2Ways          int // L2 associativity (default 8)
	L2Latency       int // L2 pipeline latency in cycles (default 20)
	MSHRsPerSlice   int // MSHR entries per L2 slice (default 128)
}

func defInt(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

// Validate reports configuration errors: no pools, more pools than the
// address encoding supports, missing or duplicate pool names, non-positive
// channel counts or bandwidths, and invalid DRAM geometry.
func (t Topology) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("topology: empty topology name")
	}
	if len(t.Pools) == 0 {
		return fmt.Errorf("topology %q: no pools", t.Name)
	}
	if len(t.Pools) > vm.MaxZones {
		return fmt.Errorf("topology %q: %d pools, max %d (PA zone bits)", t.Name, len(t.Pools), vm.MaxZones)
	}
	seen := make(map[string]bool, len(t.Pools))
	for i, p := range t.Pools {
		if p.Name == "" {
			return fmt.Errorf("topology %q: pool %d has no name", t.Name, i)
		}
		if seen[p.Name] {
			return fmt.Errorf("topology %q: duplicate pool name %q", t.Name, p.Name)
		}
		seen[p.Name] = true
		if p.Channels <= 0 {
			return fmt.Errorf("topology %q: pool %q has %d channels, must be positive", t.Name, p.Name, p.Channels)
		}
		if p.ChannelGBps <= 0 {
			return fmt.Errorf("topology %q: pool %q channel bandwidth %g GB/s, must be positive", t.Name, p.Name, p.ChannelGBps)
		}
		if p.Banks <= 0 {
			return fmt.Errorf("topology %q: pool %q has %d banks, must be positive", t.Name, p.Name, p.Banks)
		}
		if p.RowBytes <= 0 {
			return fmt.Errorf("topology %q: pool %q row size %d, must be positive", t.Name, p.Name, p.RowBytes)
		}
		if p.Hop.LatencyCycles < 0 {
			return fmt.Errorf("topology %q: pool %q hop latency %d negative", t.Name, p.Name, p.Hop.LatencyCycles)
		}
	}
	return nil
}

// MemsysConfig compiles the topology into the simulator's hardware
// description. Pool i maps to vm.ZoneID(i); zero-valued system parameters
// take the Table 1 defaults, so K40DDR4().MemsysConfig() is deep-equal to
// memsys.Table1Config() (the byte-identity guarantee for the paper's
// system).
func (t Topology) MemsysConfig() memsys.Config {
	cfg := memsys.Config{
		LineBytes:       defInt(t.LineBytes, 128),
		InterleaveBytes: defInt(t.InterleaveBytes, 256),
		L2SliceBytes:    defInt(t.L2SliceBytes, 128<<10),
		L2Ways:          defInt(t.L2Ways, 8),
		L2Latency:       sim.Time(defInt(t.L2Latency, 20)),
		MSHRsPerSlice:   defInt(t.MSHRsPerSlice, 128),
	}
	for i, p := range t.Pools {
		cfg.Zones = append(cfg.Zones, memsys.ZoneConfig{
			Zone:     vm.ZoneID(i),
			Name:     p.Name,
			Channels: p.Channels,
			DRAM: dram.Config{
				Timing:        p.Timing,
				Banks:         p.Banks,
				RowBytes:      p.RowBytes,
				BytesPerCycle: memsys.BytesPerCycle(p.ChannelGBps),
				BurstBytes:    cfg.LineBytes,
				Energy:        p.Energy,
			},
			ExtraLatency:  sim.Time(p.Hop.LatencyCycles),
			CapacityBytes: p.CapacityBytes,
		})
	}
	return cfg
}

// BWRatio is the paper's headline asymmetry metric: pool 0's bandwidth
// over the combined bandwidth of every other pool (Table 1's system is
// 200/80 = 2.5; a GH200-class system is ~8).
func (t Topology) BWRatio() float64 {
	if len(t.Pools) < 2 {
		return 0
	}
	var rest float64
	for _, p := range t.Pools[1:] {
		rest += p.BandwidthGBps()
	}
	if rest == 0 {
		return 0
	}
	return t.Pools[0].BandwidthGBps() / rest
}
