package core

import (
	"testing"
	"testing/quick"
)

func TestComputeHintsUnconstrained(t *testing.T) {
	// Footprint 1000 bytes; BO share 200/280; needs ~714 bytes of BO.
	allocs := []AllocationInfo{
		{Size: 400, Hotness: 2},
		{Size: 600, Hotness: 3},
	}
	hints, err := ComputeHints(allocs, 800, 200.0/280.0)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hints {
		if h != HintBW {
			t.Fatalf("hint[%d] = %v, want BW (unconstrained)", i, h)
		}
	}
}

func TestComputeHintsConstrainedHottestFirst(t *testing.T) {
	// Figure 9's example: three structures with hotness 2, 3, 1.
	allocs := []AllocationInfo{
		{Size: 400, Hotness: 2},
		{Size: 1600, Hotness: 3},
		{Size: 1000, Hotness: 1},
	}
	// BO holds 2000 bytes: structure 1 (hotness 3, size 1600) fits, then
	// structure 0 (hotness 2, size 400) fits exactly; structure 2 does not
	// fit and falls back to BW-AWARE spreading.
	hints, err := ComputeHints(allocs, 2000, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	want := []Hint{HintBO, HintBO, HintBW}
	for i := range want {
		if hints[i] != want[i] {
			t.Fatalf("hints = %v, want %v", hints, want)
		}
	}
}

func TestComputeHintsSkipsOversized(t *testing.T) {
	allocs := []AllocationInfo{
		{Size: 5000, Hotness: 10}, // hottest but does not fit: spread
		{Size: 1000, Hotness: 1},  // fits
		{Size: 9000, Hotness: 0},  // never accessed: pinned to CO
	}
	hints, err := ComputeHints(allocs, 2000, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if hints[0] != HintBW {
		t.Fatalf("oversized hot structure hint = %v, want BW (spread)", hints[0])
	}
	if hints[1] != HintBO {
		t.Fatalf("cold fitting structure hint = %v, want BO", hints[1])
	}
	if hints[2] != HintCO {
		t.Fatalf("untouched structure hint = %v, want CO", hints[2])
	}
}

func TestComputeHintsEmptyAndErrors(t *testing.T) {
	hints, err := ComputeHints(nil, 100, 0.5)
	if err != nil || len(hints) != 0 {
		t.Fatalf("ComputeHints(nil) = %v, %v", hints, err)
	}
	hints, err = ComputeHints([]AllocationInfo{{Size: 0, Hotness: 1}}, 100, 0.5)
	if err != nil || hints[0] != HintNone {
		t.Fatalf("zero footprint = %v, %v, want [none]", hints, err)
	}
	if _, err := ComputeHints(nil, 100, 1.5); err == nil {
		t.Fatal("boShare > 1 accepted")
	}
	if _, err := ComputeHints([]AllocationInfo{{Size: 1, Hotness: -1}}, 100, 0.5); err == nil {
		t.Fatal("negative hotness accepted")
	}
}

// Property: under capacity constraint, total bytes hinted to BO never
// exceed the BO capacity.
func TestPropertyHintsRespectCapacity(t *testing.T) {
	f := func(sizes []uint16, hotRaw []uint8, capRaw uint16) bool {
		allocs := make([]AllocationInfo, len(sizes))
		for i, s := range sizes {
			h := 1.0
			if i < len(hotRaw) {
				h = float64(hotRaw[i])
			}
			allocs[i] = AllocationInfo{Size: uint64(s), Hotness: h}
		}
		capacity := uint64(capRaw)
		hints, err := ComputeHints(allocs, capacity, 0.7)
		if err != nil {
			return false
		}
		// Unconstrained case: all BW, trivially fine.
		allBW := true
		var boBytes uint64
		for i, h := range hints {
			if h != HintBW {
				allBW = false
			}
			if h == HintBO {
				boBytes += allocs[i].Size
			}
		}
		return allBW || boBytes <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: in the constrained case, any structure hinted to CO while a
// colder structure got BO must not have fit at its turn (greedy order).
func TestPropertyHintsGreedyByHotness(t *testing.T) {
	f := func(n uint8) bool {
		// Equal sizes, strictly decreasing hotness: greedy must pick a
		// prefix of the hotness order.
		count := int(n%20) + 2
		allocs := make([]AllocationInfo, count)
		for i := range allocs {
			allocs[i] = AllocationInfo{Size: 100, Hotness: float64(count - i)}
		}
		capacity := uint64(100 * (count / 2))
		hints, err := ComputeHints(allocs, capacity, 1.0)
		if err != nil {
			return false
		}
		seenSpill := false
		for _, h := range hints {
			if h != HintBO {
				seenSpill = true
			} else if seenSpill {
				return false // BO after a spill violates the prefix property
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
