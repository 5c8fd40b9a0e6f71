// Command hmprof is the profiling tool of §5.1: it runs a workload with
// page- and structure-level access tracking and reports the data a
// programmer needs to annotate allocations — the per-structure hotness
// table (Figure 7), the page CDF summary (Figure 6), and the placement
// hints GetAllocation would derive for a given BO capacity.
//
// Example:
//
//	hmprof -workload bfs -capacity 0.1
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"hetsim"
	"hetsim/internal/metrics"
	"hetsim/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "bfs", "workload to profile")
		dataset  = flag.String("dataset", "train", "input dataset")
		capacity = flag.Float64("capacity", 0.1, "BO capacity fraction used for hint derivation")
		shrink   = flag.Int("shrink", 1, "divide simulated work for quick runs")
	)
	flag.Parse()

	ds, err := workloads.DatasetByName(*dataset)
	if err != nil {
		fatal(err)
	}

	res, err := heteromem.Profile(*workload, ds, *shrink)
	if err != nil {
		fatal(err)
	}

	stats := heteromem.StructureProfile(res)
	sort.SliceStable(stats, func(i, j int) bool { return stats[i].Hotness > stats[j].Hotness })
	tb := metrics.NewTable(fmt.Sprintf("Structure profile: %s (%s)", *workload, ds.Name),
		"structure", "size(KB)", "footprint%", "access%", "hotness/byte")
	for _, st := range stats {
		tb.AddRow(st.Alloc.Label, st.Alloc.Size>>10, st.FootprintFrac*100, st.AccessFrac*100, st.Hotness)
	}
	fmt.Print(tb)

	cdf := heteromem.PageCDF(res)
	fmt.Printf("\nPage CDF summary (%d pages, %d DRAM accesses):\n", len(cdf.Counts), cdf.Total)
	for _, f := range []float64{0.01, 0.05, 0.10, 0.20, 0.50} {
		fmt.Printf("  hottest %4.0f%% of pages -> %5.1f%% of traffic\n", f*100, cdf.AccessFracFromHottest(f)*100)
	}
	fmt.Printf("  skew coefficient: %.3f\n", cdf.Skewness())

	hints, err := heteromem.AnnotatedHints(*workload, ds, ds, *capacity, *shrink)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nGetAllocation hints at %.0f%% BO capacity (allocation order):\n", *capacity*100)
	for i, a := range res.Allocations {
		fmt.Printf("  cudaMalloc(%-24s %8d KB) -> %s\n", a.Label+",", a.Size>>10, hints[i])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hmprof:", err)
	os.Exit(1)
}
