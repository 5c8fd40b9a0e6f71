package heteromem_test

import (
	"fmt"
	"log"

	"hetsim"
	"hetsim/internal/dram"
	"hetsim/internal/memsys"
)

// Running one workload under the paper's BW-AWARE policy.
func ExampleRun() {
	res, err := heteromem.Run(heteromem.RunConfig{
		Workload: "stencil",
		Policy:   heteromem.BWAware,
		Shrink:   16, // quick demo fidelity
	})
	if err != nil {
		log.Fatal(err)
	}
	// The policy spreads pages at the 200:80 bandwidth ratio, so the BO
	// pool serves ~71% of traffic.
	fmt.Printf("policy=%s BO-served=%.0f%%\n", res.Policy, res.BOServed*100)
	// Output: policy=BW-AWARE BO-served=71%
}

// Defining your own topology (TOPOLOGIES.md): the paper's Table 1 memory
// system with its two pools replaced by an accelerator card's, HBM2e on
// package and DDR5 across PCIe 5.
func ExampleRunConfig_customTopology() {
	channel := func(gbps float64, banks int, energy dram.EnergyConfig) dram.Config {
		return dram.Config{
			Timing: dram.Table1Timing(), Banks: banks, RowBytes: 2048,
			BytesPerCycle: memsys.BytesPerCycle(gbps), BurstBytes: 128,
			Energy: energy,
		}
	}
	mem := memsys.Table1Config() // keeps Table 1's lines, L2 slices and MSHRs
	mem.Zones = []memsys.ZoneConfig{
		{Zone: 0, Name: "HBM2e", Channels: 8, DRAM: channel(115, 32, dram.HBM3Energy()),
			CapacityBytes: 16 << 30},
		{Zone: 1, Name: "DDR5", Channels: 4, DRAM: channel(38.4, 16, dram.DDR4Energy()),
			ExtraLatency: 140}, // 100 ns at 1.4 GHz
	}
	if err := mem.Validate(); err != nil {
		log.Fatal(err)
	}
	res, err := heteromem.Run(heteromem.RunConfig{
		Workload: "bfs",
		Policy:   heteromem.BWAware,
		Shrink:   16,
		Mem:      mem,
	})
	if err != nil {
		log.Fatal(err)
	}
	// 920 of 1073.6 GB/s is in HBM2e, so BW-AWARE places ~86% of pages
	// there and HBM2e serves most of the traffic.
	fmt.Printf("BW-AWARE on hbm2e-ddr5: pool 0 serves %.0f%%\n", res.BOServed*100)
	// Output: BW-AWARE on hbm2e-ddr5: pool 0 serves 84%
}

// The GetAllocation hint computation of Figure 9: three annotated
// structures on a machine whose BO pool holds only 2000 bytes.
func ExampleComputeHints() {
	sizes := []uint64{400, 1600, 1000}
	hotness := []float64{2, 3, 1}
	hints, err := heteromem.ComputeHints(sizes, hotness, 2000, 200.0/280.0)
	if err != nil {
		log.Fatal(err)
	}
	for i, h := range hints {
		fmt.Printf("cudaMalloc #%d -> %s\n", i, h)
	}
	// Output:
	// cudaMalloc #0 -> BO
	// cudaMalloc #1 -> BO
	// cudaMalloc #2 -> BW
}

// Regenerating a figure from the paper.
func ExampleFigure() {
	fig, err := heteromem.Figure("fig1", heteromem.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d systems, desktop BW ratio %.1fx\n",
		fig.ID, fig.Table.Rows(), fig.Headline["desktop_ratio"])
	// Output: fig1: 3 systems, desktop BW ratio 2.5x
}

// Profiling a workload and reading its page CDF (the Figure 6 analysis).
func ExampleProfile() {
	res, err := heteromem.Profile("xsbench", heteromem.TrainDataset(), 16)
	if err != nil {
		log.Fatal(err)
	}
	cdf := heteromem.PageCDF(res)
	fmt.Printf("xsbench is skewed: hottest 10%% of pages carry >50%% of traffic: %v\n",
		cdf.AccessFracFromHottest(0.10) > 0.5)
	// Output: xsbench is skewed: hottest 10% of pages carry >50% of traffic: true
}
