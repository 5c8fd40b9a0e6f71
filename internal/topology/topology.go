// Package topology names the memory systems a run can simulate.
//
// The paper evaluates one fixed two-pool machine (Table 1: a
// bandwidth-optimized GDDR5 pool plus a capacity-optimized DDR4 pool
// behind a fixed-latency interconnect hop), but its central argument —
// place pages in proportion to pool bandwidth — is topology-agnostic
// (§3.1: "this policy will generalize to an optimal policy where there
// are more than two technologies"). A Topology is a preset name plus the
// memsys.Config it stands for: one zone per pool, each with its channels,
// per-channel bandwidth, DRAM timing, energy, capacity and interconnect
// hop. The placement policies' System Bandwidth Information Table
// (internal/core) is derived from that config by experiments.SBITFor, the
// discovery step the paper assigns to ACPI or the GPU runtime, so every
// run reads one SBIT derivation.
//
// Zone 0 is by convention the GPU-attached, highest-bandwidth pool (what
// the paper calls BO). Every preset follows this convention, so zone 0
// statistics (e.g. Result.BOServed) mean "the GPU-local pool" under any
// topology.
//
// Named presets (see presets.go and TOPOLOGIES.md): "k40-ddr4" is the
// paper's Table 1 system, memsys.Table1Config() itself, so its figures —
// and its simulation cache keys — are byte-identical to the defaults;
// "gh200" models a Grace-Hopper-class superchip (HBM3 + LPDDR5X over a
// coherent C2C link, ~8:1 bandwidth ratio); "cxl-expansion" adds a third,
// slower CXL.mem tier to the paper's pair.
package topology

import "hetsim/internal/memsys"

// Topology is a named heterogeneous memory system.
type Topology struct {
	// Name identifies the topology (preset name, cache-key component for
	// the serving layer's figure requests).
	Name string
	// Mem is the hardware the memory system simulates. Zones[0] should be
	// the GPU-attached, highest-bandwidth pool.
	Mem memsys.Config
}

// MemsysConfig returns the topology's memory system as an independent
// copy: mutating its zones never changes t.
func (t Topology) MemsysConfig() memsys.Config { return t.Mem.Clone() }

// BWRatio is the paper's headline asymmetry metric: pool 0's bandwidth
// over the combined bandwidth of every other pool (Table 1's system is
// 200/80 = 2.5; a GH200-class system is ~8).
func (t Topology) BWRatio() float64 {
	zones := t.Mem.Zones
	if len(zones) < 2 {
		return 0
	}
	var rest float64
	for _, z := range zones[1:] {
		rest += t.Mem.ZoneBandwidthGBps(z.Zone)
	}
	if rest == 0 {
		return 0
	}
	return t.Mem.ZoneBandwidthGBps(zones[0].Zone) / rest
}
