// Benchmarks regenerating each of the paper's tables and figures, plus
// ablations of the design choices called out in DESIGN.md §7.
//
// Each figure bench runs its experiment at reduced fidelity (Shrink) so
// `go test -bench=.` completes in minutes; the headline statistics are
// attached to the benchmark output via ReportMetric so runs double as a
// regression record. Full-fidelity reproduction is `hmexp all` (see
// EXPERIMENTS.md for recorded results).
package heteromem

import (
	"strconv"
	"testing"

	"hetsim/internal/cache"
	"hetsim/internal/experiments"
	"hetsim/internal/memsys"
	"hetsim/internal/migrate"
	"hetsim/internal/sim"
	"hetsim/internal/tlb"
)

// benchShrink trades fidelity for bench runtime.
const benchShrink = 8

// benchWorkloads is a representative slice of the 19: two bandwidth-bound
// (one skewed, one streaming), the latency-sensitive and compute-bound
// controls.
var benchWorkloads = []string{"bfs", "stencil", "sgemm", "comd"}

func reportHeadline(b *testing.B, fig Fig, keys ...string) {
	b.Helper()
	for _, k := range keys {
		if v, ok := fig.Headline[k]; ok {
			b.ReportMetric(v, k)
		}
	}
}

// benchFigure renders figure id b.N times, each against a fresh result
// cache, so every iteration simulates the figure cold rather than reading
// what the first one left in the process-wide cache.
func benchFigure(b *testing.B, id string, opts Options, keys ...string) {
	b.Helper()
	var fig Fig
	var err error
	for i := 0; i < b.N; i++ {
		opts.Cache = experiments.NewResultCache()
		fig, err = Figure(id, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportHeadline(b, fig, keys...)
}

// BenchmarkTable1Config regenerates the system-configuration table.
func BenchmarkTable1Config(b *testing.B) {
	benchFigure(b, "table1", Options{})
}

// BenchmarkFig1BWRatios regenerates the motivation figure's bandwidth
// ratios for HPC, desktop, and mobile systems.
func BenchmarkFig1BWRatios(b *testing.B) {
	benchFigure(b, "fig1", Options{}, "desktop_ratio", "hpc_ratio", "mobile_ratio")
}

// BenchmarkFig2aBandwidthSensitivity reproduces the bandwidth-scaling
// study.
func BenchmarkFig2aBandwidthSensitivity(b *testing.B) {
	benchFigure(b, "fig2a", Options{Workloads: benchWorkloads, Shrink: benchShrink},
		"geomean_2x", "bfs_2x", "comd_2x")
}

// BenchmarkFig2bLatencySensitivity reproduces the latency-scaling study.
func BenchmarkFig2bLatencySensitivity(b *testing.B) {
	benchFigure(b, "fig2b", Options{Workloads: benchWorkloads, Shrink: benchShrink},
		"geomean_400", "sgemm_400")
}

// BenchmarkFig3PlacementRatio reproduces the xC-yB sweep and the
// LOCAL/INTERLEAVE/BW-AWARE comparison.
func BenchmarkFig3PlacementRatio(b *testing.B) {
	benchFigure(b, "fig3", Options{Workloads: benchWorkloads, Shrink: benchShrink},
		"bwaware_vs_local", "bwaware_vs_interleave")
}

// BenchmarkFig4CapacityConstraint reproduces the BO-capacity sweep.
func BenchmarkFig4CapacityConstraint(b *testing.B) {
	benchFigure(b, "fig4", Options{Workloads: []string{"bfs", "lbm"}, Shrink: benchShrink},
		"geomean_at_70pct", "geomean_at_10pct")
}

// BenchmarkFig5BWRatioSensitivity reproduces the CO-bandwidth sweep.
func BenchmarkFig5BWRatioSensitivity(b *testing.B) {
	benchFigure(b, "fig5", Options{Workloads: []string{"stencil", "bfs"}, Shrink: benchShrink},
		"bwaware_at_5", "bwaware_at_200", "interleave_at_200")
}

// BenchmarkFig6PageCDF reproduces the page-access CDF study.
func BenchmarkFig6PageCDF(b *testing.B) {
	benchFigure(b, "fig6", Options{Workloads: []string{"bfs", "xsbench", "hotspot"}, Shrink: benchShrink},
		"bfs_hot10", "xsbench_hot10", "bfs_skew")
}

// BenchmarkFig7StructureMap reproduces the per-structure hotness analysis.
func BenchmarkFig7StructureMap(b *testing.B) {
	benchFigure(b, "fig7", Options{Shrink: benchShrink},
		"bfs_top3_access", "bfs_top3_footprint")
}

// BenchmarkFig8Oracle reproduces the oracle placement study.
func BenchmarkFig8Oracle(b *testing.B) {
	benchFigure(b, "fig8", Options{Workloads: []string{"bfs", "needle"}, Shrink: benchShrink},
		"oracle10_vs_bw10", "oracle10_vs_unconstrained")
}

// BenchmarkFig10Annotated reproduces the annotated-placement comparison.
func BenchmarkFig10Annotated(b *testing.B) {
	benchFigure(b, "fig10", Options{Workloads: []string{"bfs", "xsbench"}, Shrink: benchShrink},
		"annotated_vs_interleave", "annotated_vs_bwaware", "annotated_vs_oracle")
}

// BenchmarkFig11DatasetSensitivity reproduces the train-vs-test robustness
// study.
func BenchmarkFig11DatasetSensitivity(b *testing.B) {
	benchFigure(b, "fig11", Options{Workloads: []string{"xsbench"}, Shrink: benchShrink},
		"trained_vs_oracle", "cross_vs_oracle")
}

// --- Ablations (DESIGN.md §7) -------------------------------------------

func benchRun(b *testing.B, rc RunConfig) Result {
	b.Helper()
	var res Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = Run(rc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Perf, "perf")
	b.ReportMetric(res.Mem.AvgLatency(), "avg_latency")
	return res
}

// BenchmarkAblationMSHR quantifies §3.2.1's claim that 128 MSHRs per L2
// slice suffice to hide the interconnect hop: sweep the MSHR count under
// BW-AWARE placement.
func BenchmarkAblationMSHR(b *testing.B) {
	for _, n := range []int{16, 32, 64, 128, 256} {
		b.Run(benchName("mshr", n), func(b *testing.B) {
			cfg := memsys.Table1Config()
			cfg.MSHRsPerSlice = n
			benchRun(b, RunConfig{Workload: "stencil", Policy: BWAware, Mem: cfg, Shrink: benchShrink})
		})
	}
}

// BenchmarkAblationHop sweeps the GPU-CPU interconnect latency, isolating
// how much of INTERLEAVE's loss comes from the hop versus bandwidth
// oversubscription.
func BenchmarkAblationHop(b *testing.B) {
	for _, hop := range []int64{0, 100, 400} {
		b.Run(benchName("hop", int(hop)), func(b *testing.B) {
			cfg := memsys.Table1Config()
			cfg.Zones[1].ExtraLatency = sim.Time(hop)
			benchRun(b, RunConfig{Workload: "bfs", Policy: BWAware, Mem: cfg, Shrink: benchShrink})
		})
	}
}

// BenchmarkAblationPlacementMoment compares eager (cudaMalloc-time)
// placement against first-touch demand paging under a 50% capacity
// constraint, where allocation-order bias matters most (bfs allocates its
// hot structures last).
func BenchmarkAblationPlacementMoment(b *testing.B) {
	for _, eager := range []bool{false, true} {
		name := "first-touch"
		if eager {
			name = "eager"
		}
		b.Run(name, func(b *testing.B) {
			benchRun(b, RunConfig{
				Workload: "bfs", Policy: BWAware,
				BOCapacityFrac: 0.5, EagerPlacement: eager, Shrink: benchShrink,
			})
		})
	}
}

// BenchmarkAblationPageSize measures oracle placement quality as the OS
// page size grows: coarser pages blur hot/cold separation.
func BenchmarkAblationPageSize(b *testing.B) {
	for _, ps := range []uint64{4096, 16384, 65536} {
		b.Run(benchName("page", int(ps)), func(b *testing.B) {
			var res Result
			for i := 0; i < b.N; i++ {
				prof, err := Run(RunConfig{Workload: "bfs", Policy: Local, PageSize: ps, Shrink: benchShrink})
				if err != nil {
					b.Fatal(err)
				}
				res, err = Run(RunConfig{
					Workload: "bfs", Policy: Oracle, ProfileCounts: prof.PageCounts,
					BOCapacityFrac: 0.1, PageSize: ps, Shrink: benchShrink,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Perf, "perf")
		})
	}
}

// BenchmarkAblationRatioConvergence compares the paper's random-draw
// BW-AWARE implementation against a deterministic 30C-70B round-robin-like
// split (Interleave is the 50/50 case); the random draw must converge to
// the same service ratio.
func BenchmarkAblationRatioConvergence(b *testing.B) {
	for _, seed := range []int64{1, 7, 1234} {
		b.Run(benchName("seed", int(seed)), func(b *testing.B) {
			res := benchRun(b, RunConfig{Workload: "stencil", Policy: BWAware, Seed: seed, Shrink: benchShrink})
			b.ReportMetric(res.BOServed, "bo_served")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed (simulated
// cycles per wall second) on a saturating workload — the engineering
// metric for the substrate itself.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := Run(RunConfig{Workload: "lbm", Policy: BWAware, Shrink: 4})
		if err != nil {
			b.Fatal(err)
		}
		cycles += int64(res.Cycles)
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim_cycles/op")
}

// BenchmarkSimulatorThroughputLanes is BenchmarkSimulatorThroughput at
// several lane counts: the same saturating run split across parallel event
// lanes. Results are byte-identical per lane count (the lane determinism
// suite asserts it); the events/sec spread is the tentpole's speedup
// measurement and is meaningful only on a multi-core host.
func BenchmarkSimulatorThroughputLanes(b *testing.B) {
	for _, lanes := range []int{1, 2, 4, 8} {
		b.Run(benchName("lanes", lanes), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				res, err := Run(RunConfig{Workload: "lbm", Policy: BWAware, Shrink: 4, Lanes: lanes})
				if err != nil {
					b.Fatal(err)
				}
				cycles += int64(res.Cycles)
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "sim_cycles/op")
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + strconv.Itoa(v)
}

// BenchmarkAblationL2 removes the memory-side L2: page hotness is defined
// post-cache (§4), so the cache filter shapes both performance and the
// profile the oracle/annotations consume.
func BenchmarkAblationL2(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "with-l2"
		if disable {
			name = "no-l2"
		}
		b.Run(name, func(b *testing.B) {
			cfg := memsys.Table1Config()
			cfg.DisableL2 = disable
			benchRun(b, RunConfig{Workload: "xsbench", Policy: BWAware, Mem: cfg, Shrink: benchShrink})
		})
	}
}

// BenchmarkAblationL2Replacement sweeps the L2 victim policy.
func BenchmarkAblationL2Replacement(b *testing.B) {
	for _, rep := range []cache.Replacement{cache.LRU, cache.FIFO, cache.Random} {
		b.Run(rep.String(), func(b *testing.B) {
			cfg := memsys.Table1Config()
			cfg.L2Replace = rep
			benchRun(b, RunConfig{Workload: "xsbench", Policy: BWAware, Mem: cfg, Shrink: benchShrink})
		})
	}
}

// BenchmarkMigration measures the dynamic-migration engine against plain
// BW-AWARE under the 10% capacity constraint (the §5.5 extension).
func BenchmarkMigration(b *testing.B) {
	for _, withMig := range []bool{false, true} {
		name := "bw-aware"
		if withMig {
			name = "bw-aware+migration"
		}
		b.Run(name, func(b *testing.B) {
			rc := RunConfig{Workload: "bfs", Policy: BWAware, BOCapacityFrac: 0.1, Shrink: benchShrink}
			if withMig {
				cfg := migrate.DefaultConfig()
				rc.Migration = &cfg
			}
			res := benchRun(b, rc)
			b.ReportMetric(float64(res.Mem.MigratedPages), "migrated_pages")
		})
	}
}

// BenchmarkEnergy reports DRAM access energy per policy (the figenergy
// extension): BW-AWARE should win energy-delay product.
func BenchmarkEnergy(b *testing.B) {
	for _, pk := range []PolicyKind{Local, Interleave, BWAware} {
		b.Run(pk.String(), func(b *testing.B) {
			res := benchRun(b, RunConfig{Workload: "stencil", Policy: pk, Shrink: benchShrink})
			b.ReportMetric(res.EnergyNJ/1e6, "energy_mJ")
			b.ReportMetric(res.EnergyNJ*float64(res.Cycles)/1e12, "edp")
		})
	}
}

// BenchmarkAblationRefresh enables all-bank DRAM refresh (tREFI/tRFC),
// which the paper's configuration omits, and measures the bandwidth cost.
func BenchmarkAblationRefresh(b *testing.B) {
	for _, refresh := range []bool{false, true} {
		name := "no-refresh"
		if refresh {
			name = "refresh"
		}
		b.Run(name, func(b *testing.B) {
			cfg := memsys.Table1Config()
			if refresh {
				for i := range cfg.Zones {
					// ~tREFI 7.8us, tRFC 350ns at 1.4 GHz.
					cfg.Zones[i].DRAM.Timing.REFI = 10920
					cfg.Zones[i].DRAM.Timing.RFC = 490
				}
			}
			benchRun(b, RunConfig{Workload: "stencil", Policy: BWAware, Mem: cfg, Shrink: benchShrink})
		})
	}
}

// BenchmarkAblationTLB compares translation-free execution (the paper's
// substrate) against per-SM TLBs with 4 kB pages.
func BenchmarkAblationTLB(b *testing.B) {
	for _, withTLB := range []bool{false, true} {
		name := "no-tlb"
		if withTLB {
			name = "tlb-64"
		}
		b.Run(name, func(b *testing.B) {
			rc := RunConfig{Workload: "xsbench", Policy: BWAware, Shrink: benchShrink}
			if withTLB {
				tc := tlb.DefaultConfig()
				rc.TLB = &tc
			}
			benchRun(b, rc)
		})
	}
}

// BenchmarkCPUCoTraffic measures policy robustness under host contention
// on the CO pool (the figcpu extension).
func BenchmarkCPUCoTraffic(b *testing.B) {
	for _, gbps := range []float64{0, 20, 40} {
		b.Run("cpu="+strconv.FormatFloat(gbps, 'f', 0, 64)+"GBps", func(b *testing.B) {
			benchRun(b, RunConfig{Workload: "stencil", Policy: BWAware, CPUTrafficGBps: gbps, Shrink: benchShrink})
		})
	}
}
