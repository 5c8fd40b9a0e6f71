package topology

import (
	"fmt"
	"sort"

	"hetsim/internal/dram"
)

// K40DDR4 is the paper's evaluation system (Table 1): a Kepler-class GPU
// with 8 channels of GDDR5 (200 GB/s aggregate) plus 4 channels of
// DDR4-class capacity-optimized memory (80 GB/s) behind a fixed 100-cycle
// interconnect hop — a 2.5:1 bandwidth ratio. Its MemsysConfig() is
// deep-equal to memsys.Table1Config(), so figures and cache keys under this
// preset are byte-identical to the repo's defaults.
func K40DDR4() Topology {
	return Topology{
		Name:        "k40-ddr4",
		Description: "the paper's Table 1 system: GDDR5 200 GB/s + DDR4 80 GB/s over a fixed-latency (PCIe-era) hop",
		Pools: []Pool{
			{
				Name:        "GDDR5",
				Channels:    8,
				ChannelGBps: 25,
				Timing:      dram.Table1Timing(),
				Banks:       16,
				RowBytes:    2048,
				Energy:      dram.GDDR5Energy(),
				Hop:         Hop{Kind: HopLocal},
			},
			{
				Name:        "DDR4",
				Channels:    4,
				ChannelGBps: 20,
				Timing:      dram.Table1Timing(),
				Banks:       16,
				RowBytes:    2048,
				Energy:      dram.DDR4Energy(),
				Hop:         Hop{Kind: HopPCIe, LatencyCycles: 100},
			},
		},
	}
}

// GH200 models a Grace-Hopper-class superchip per the first-look
// characterization in PAPERS.md: ~4 TB/s of GPU-attached HBM3 (96 GB) plus
// ~500 GB/s of CPU-attached LPDDR5X (480 GB) joined by the cache-coherent
// NVLink-C2C interconnect — an ~8:1 bandwidth ratio, 3.2× the paper's
// 2.5:1, with a far cheaper hop than the PCIe era's.
func GH200() Topology {
	return Topology{
		Name:        "gh200",
		Description: "Grace-Hopper-class superchip: HBM3 4 TB/s (96 GB) + LPDDR5X 500 GB/s (480 GB) over coherent NVLink-C2C",
		Pools: []Pool{
			{
				Name:          "HBM3",
				Channels:      16,
				ChannelGBps:   250,
				CapacityBytes: 96 << 30,
				Timing:        dram.Table1Timing(),
				Banks:         32,
				RowBytes:      2048,
				Energy:        dram.HBM3Energy(),
				Hop:           Hop{Kind: HopLocal},
			},
			{
				Name:          "LPDDR5X",
				Channels:      8,
				ChannelGBps:   62.5,
				CapacityBytes: 480 << 30,
				Timing:        dram.Table1Timing(),
				Banks:         16,
				RowBytes:      2048,
				Energy:        dram.LPDDR5XEnergy(),
				Hop:           Hop{Kind: HopC2C, LatencyCycles: 60},
			},
		},
	}
}

// CXLExpansion is the paper's two-pool system plus a third, slower tier: a
// CXL.mem expansion device (~64 GB/s, ~1 TB) behind a ~250-cycle
// controller+link hop — the "pool set" framing of the heterogeneous memory
// pool tuning work in PAPERS.md. BW-AWARE placement degrades gracefully
// here: the CXL pool's bandwidth share is small, so it mostly absorbs
// capacity overflow rather than hot traffic.
func CXLExpansion() Topology {
	k40 := K40DDR4()
	return Topology{
		Name:        "cxl-expansion",
		Description: "the paper's GDDR5+DDR4 pair plus a 64 GB/s, 1 TB CXL.mem expansion tier",
		Pools: append(k40.Pools, Pool{
			Name:          "CXL-DRAM",
			Channels:      2,
			ChannelGBps:   32,
			CapacityBytes: 1 << 40,
			Timing:        dram.Table1Timing(),
			Banks:         16,
			RowBytes:      2048,
			Energy:        dram.CXLDRAMEnergy(),
			Hop:           Hop{Kind: HopCXL, LatencyCycles: 250},
		}),
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
