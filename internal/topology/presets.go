package topology

import (
	"fmt"
	"sort"

	"hetsim/internal/dram"
	"hetsim/internal/memsys"
	"hetsim/internal/vm"
)

// K40DDR4 is the paper's evaluation system (Table 1): a Kepler-class GPU
// with 8 channels of GDDR5 (200 GB/s aggregate) plus 4 channels of
// DDR4-class capacity-optimized memory (80 GB/s) behind a fixed 100-cycle
// interconnect hop — a 2.5:1 bandwidth ratio. Its memory system is
// memsys.Table1Config(), so figures and cache keys under this preset are
// byte-identical to the repo's defaults.
func K40DDR4() Topology {
	return Topology{Name: "k40-ddr4", Mem: memsys.Table1Config()}
}

// GH200 models a Grace-Hopper-class superchip per the first-look
// characterization in PAPERS.md: ~4 TB/s of GPU-attached HBM3 (96 GB) plus
// ~500 GB/s of CPU-attached LPDDR5X (480 GB) joined by the cache-coherent
// NVLink-C2C interconnect (60 cycles) — an ~8:1 bandwidth ratio, 3.2× the
// paper's 2.5:1, with a far cheaper hop than the PCIe era's. Lines, L2
// slices and MSHRs are Table 1's.
func GH200() Topology {
	mem := memsys.Table1Config()
	mem.Zones = []memsys.ZoneConfig{
		{
			Zone: vm.ZoneBO, Name: "HBM3", Channels: 16,
			DRAM:          presetDRAM(250, 32, dram.HBM3Energy()),
			CapacityBytes: 96 << 30,
		},
		{
			Zone: vm.ZoneCO, Name: "LPDDR5X", Channels: 8,
			DRAM:          presetDRAM(62.5, 16, dram.LPDDR5XEnergy()),
			ExtraLatency:  60,
			CapacityBytes: 480 << 30,
		},
	}
	return Topology{Name: "gh200", Mem: mem}
}

// CXLExpansion is the paper's two-pool system plus a third, slower tier: a
// CXL.mem expansion device (~64 GB/s, ~1 TB) behind a ~250-cycle
// controller+link hop — the "pool set" framing of the heterogeneous memory
// pool tuning work in PAPERS.md. BW-AWARE placement degrades gracefully
// here: the CXL pool's bandwidth share is small, so it mostly absorbs
// capacity overflow rather than hot traffic.
func CXLExpansion() Topology {
	mem := memsys.Table1Config()
	mem.Zones = append(mem.Zones, memsys.ZoneConfig{
		Zone: 2, Name: "CXL-DRAM", Channels: 2,
		DRAM:          presetDRAM(32, 16, dram.CXLDRAMEnergy()),
		ExtraLatency:  250,
		CapacityBytes: 1 << 40,
	})
	return Topology{Name: "cxl-expansion", Mem: mem}
}

// presetDRAM is one preset channel's DRAM: Table 1 timing, 2 kB rows
// and 128 B bursts, with the given per-channel bandwidth in GB/s, bank
// count and access energy.
func presetDRAM(channelGBps float64, banks int, energy dram.EnergyConfig) dram.Config {
	return dram.Config{
		Timing:        dram.Table1Timing(),
		Banks:         banks,
		RowBytes:      2048,
		BytesPerCycle: memsys.BytesPerCycle(channelGBps),
		BurstBytes:    128,
		Energy:        energy,
	}
}

// presets maps preset names to constructors. Constructed lazily so callers
// always get an independent value they may mutate.
var presets = map[string]func() Topology{
	"k40-ddr4":      K40DDR4,
	"gh200":         GH200,
	"cxl-expansion": CXLExpansion,
}

// Names lists the available preset names, sorted.
func Names() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Preset returns the named topology, or an error listing the available
// presets when the name is unknown (CLIs surface this at startup with
// exit status 2). The empty name selects "k40-ddr4", the paper's Table 1
// machine, so an unset -topology needs no special case.
func Preset(name string) (Topology, error) {
	if name == "" {
		name = "k40-ddr4"
	}
	mk, ok := presets[name]
	if !ok {
		return Topology{}, fmt.Errorf("unknown topology %q (available: %v)", name, Names())
	}
	return mk(), nil
}
