package core

import (
	"fmt"
	"sort"
)

// AllocationInfo is one program annotation: the size of a data-structure
// allocation and its relative hotness (DRAM accesses per byte, or any
// consistent relative scale; the paper's Figure 9 example uses small
// integers). Annotations are supplied in program allocation order.
type AllocationInfo struct {
	Size    uint64
	Hotness float64
}

// ComputeHints is the paper's GetAllocation runtime routine (§5.3): given
// per-allocation sizes and hotness plus the machine's BO capacity, compute
// a placement hint per allocation.
//
// Semantics from the paper:
//   - If BW-AWARE placement can be used without capacity constraint — the
//     BO bandwidth share of the total footprint fits in BO — every
//     allocation gets HintBW "irrespective of the hotness of the data
//     structures".
//   - Otherwise, allocations are considered hottest-first and assigned to
//     BO while they fit ("calculating the total number of identified data
//     structures from [1:N] that will fit within the bandwidth-optimized
//     memory before it exhausts the BO capacity"); the rest go to CO.
//
// boCapacity is in bytes; boShare is the SBIT bandwidth share of the BO
// zone (e.g. 200/280 for Table 1).
func ComputeHints(allocs []AllocationInfo, boCapacity uint64, boShare float64) ([]Hint, error) {
	if boShare < 0 || boShare > 1 {
		return nil, fmt.Errorf("core: boShare %g outside [0,1]", boShare)
	}
	var footprint uint64
	for i, a := range allocs {
		if a.Hotness < 0 {
			return nil, fmt.Errorf("core: allocation %d hotness %g negative", i, a.Hotness)
		}
		footprint += a.Size
	}
	hints := make([]Hint, len(allocs))
	if footprint == 0 {
		return hints, nil
	}

	// Unconstrained: BW-AWARE needs boShare of the footprint in BO.
	if uint64(boShare*float64(footprint)) <= boCapacity {
		for i := range hints {
			hints[i] = HintBW
		}
		return hints, nil
	}

	// Capacity constrained: hottest structures into BO until it fills.
	order := make([]int, len(allocs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return allocs[order[i]].Hotness > allocs[order[j]].Hotness
	})
	remaining := boCapacity
	for _, idx := range order {
		switch {
		case allocs[idx].Size <= remaining:
			hints[idx] = HintBO
			remaining -= allocs[idx].Size
		case allocs[idx].Hotness > 0:
			// Structures that do not fit whole fall back to BW-AWARE
			// spreading rather than being pinned to CO. The paper pins
			// non-fitting structures to CO; under demand (first-touch)
			// paging that discards BO capacity the unhinted baseline
			// would have captured for the structure's hot pages, letting
			// annotated placement lose to plain BW-AWARE. Spreading keeps
			// annotated placement at least as good as the baseline while
			// the BO pins still capture whole hot structures.
			hints[idx] = HintBW
		default:
			// Profiled as never accessed: keep it out of BO entirely.
			hints[idx] = HintCO
		}
	}
	return hints, nil
}
