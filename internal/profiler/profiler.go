// Package profiler reproduces the paper's GPU memory profiling toolchain
// (§4.1, §5.1): given per-page DRAM access counts collected by the memory
// system (the paper's definition of hotness: "the number of accesses to
// that page that are served from DRAM") and the runtime's allocation table
// (the analogue of instrumented cudaMalloc call sites), it produces
//
//   - the page-level bandwidth cumulative distribution function of
//     Figure 6 (pages sorted hot to cold),
//   - the per-data-structure hotness map of Figure 7, and
//   - the hotness vector consumed by gpurt.GetAllocation for
//     annotation-based placement (Figures 9 and 10).
package profiler

import (
	"fmt"
	"sort"

	"hetsim/internal/gpurt"
)

// PageProfile is a snapshot of per-virtual-page DRAM access counts.
type PageProfile struct {
	Counts []uint64
	Total  uint64
}

// FromCounts copies counts into a profile.
func FromCounts(counts []uint64) PageProfile {
	p := PageProfile{Counts: append([]uint64(nil), counts...)}
	for _, c := range counts {
		p.Total += c
	}
	return p
}

// CDFPoint is one point of the Figure 6 curve: after including the hottest
// PageFrac of pages, AccessFrac of all DRAM accesses are covered.
type CDFPoint struct {
	PageFrac   float64
	AccessFrac float64
}

// CDF returns the bandwidth cumulative distribution over pages sorted from
// most to least accessed, one point per page. Pages with zero accesses are
// included (they stretch the tail flat, exactly as in the paper's plots of
// allocated-but-never-touched ranges).
func (p PageProfile) CDF() []CDFPoint {
	n := len(p.Counts)
	if n == 0 {
		return nil
	}
	sorted := append([]uint64(nil), p.Counts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	pts := make([]CDFPoint, n)
	var cum uint64
	for i, c := range sorted {
		cum += c
		af := 0.0
		if p.Total > 0 {
			af = float64(cum) / float64(p.Total)
		}
		pts[i] = CDFPoint{
			PageFrac:   float64(i+1) / float64(n),
			AccessFrac: af,
		}
	}
	return pts
}

// AccessFracFromHottest reports what fraction of DRAM accesses come from
// the hottest pageFrac of pages — the paper's skew headline ("for bfs and
// xsbench, over 60% of the memory bandwidth stems from within only 10% of
// the pages").
func (p PageProfile) AccessFracFromHottest(pageFrac float64) float64 {
	if pageFrac <= 0 || len(p.Counts) == 0 || p.Total == 0 {
		return 0
	}
	if pageFrac > 1 {
		pageFrac = 1
	}
	sorted := append([]uint64(nil), p.Counts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	k := int(pageFrac * float64(len(sorted)))
	if k < 1 {
		k = 1
	}
	var cum uint64
	for _, c := range sorted[:k] {
		cum += c
	}
	return float64(cum) / float64(p.Total)
}

// Skewness summarizes CDF non-linearity in [0,1): 0 for a perfectly
// uniform access distribution, approaching 1 when all traffic concentrates
// in a vanishing fraction of pages. It is twice the area between the CDF
// and the uniform diagonal (a Gini coefficient over pages).
func (p PageProfile) Skewness() float64 {
	pts := p.CDF()
	if len(pts) == 0 || p.Total == 0 {
		return 0
	}
	area := 0.0
	prev := CDFPoint{}
	for _, pt := range pts {
		// Trapezoid of (CDF - diagonal) over this page step.
		area += ((pt.AccessFrac - pt.PageFrac) + (prev.AccessFrac - prev.PageFrac)) / 2 * (pt.PageFrac - prev.PageFrac)
		prev = pt
	}
	return 2 * area
}

// StructureStat is the per-data-structure line of the Figure 7 analysis.
type StructureStat struct {
	Alloc         gpurt.Allocation
	Accesses      uint64
	Hotness       float64 // DRAM accesses per byte — the annotation value
	AccessFrac    float64 // share of all DRAM accesses
	FootprintFrac float64 // share of the application footprint
}

// ProfileAllocations maps page counts back onto the allocations that own
// the pages, the reverse mapping the paper builds from instrumented
// cudaMalloc call sites.
func ProfileAllocations(counts []uint64, allocs []gpurt.Allocation, pageSize uint64) []StructureStat {
	stats := make([]StructureStat, len(allocs))
	ps := pageSize
	var total uint64
	var footprint uint64
	for i, a := range allocs {
		stats[i].Alloc = a
		footprint += a.Size
		first := a.Base / ps
		for p := 0; p < a.Pages(ps); p++ {
			vp := first + uint64(p)
			if vp < uint64(len(counts)) {
				stats[i].Accesses += counts[vp]
			}
		}
		total += stats[i].Accesses
	}
	for i := range stats {
		if stats[i].Alloc.Size > 0 {
			stats[i].Hotness = float64(stats[i].Accesses) / float64(stats[i].Alloc.Size)
		}
		if total > 0 {
			stats[i].AccessFrac = float64(stats[i].Accesses) / float64(total)
		}
		if footprint > 0 {
			stats[i].FootprintFrac = float64(stats[i].Alloc.Size) / float64(footprint)
		}
	}
	return stats
}

// HotnessVector extracts per-allocation hotness in program allocation
// order — the hotness[] array a programmer would paste into the annotated
// program of Figure 9.
func HotnessVector(stats []StructureStat) []float64 {
	v := make([]float64, len(stats))
	for _, s := range stats {
		if s.Alloc.ID < 0 || s.Alloc.ID >= len(v) {
			panic(fmt.Sprintf("profiler: allocation ID %d out of range", s.Alloc.ID))
		}
		v[s.Alloc.ID] = s.Hotness
	}
	return v
}

// SizeVector extracts per-allocation sizes in program allocation order —
// Figure 9's size[] array.
func SizeVector(stats []StructureStat) []uint64 {
	v := make([]uint64, len(stats))
	for _, s := range stats {
		v[s.Alloc.ID] = s.Alloc.Size
	}
	return v
}
