package profiler

import (
	"math"
	"testing"
	"testing/quick"

	"hetsim/internal/core"
	"hetsim/internal/gpurt"
	"hetsim/internal/vm"
)

func TestFromCounts(t *testing.T) {
	p := FromCounts([]uint64{3, 1, 0, 6})
	if p.Total != 10 {
		t.Fatalf("Total = %d, want 10", p.Total)
	}
	// Copy semantics.
	src := []uint64{1}
	q := FromCounts(src)
	src[0] = 99
	if q.Counts[0] != 1 {
		t.Fatal("FromCounts aliased input")
	}
}

func TestCDFUniform(t *testing.T) {
	p := FromCounts([]uint64{5, 5, 5, 5})
	pts := p.CDF()
	if len(pts) != 4 {
		t.Fatalf("CDF has %d points, want 4", len(pts))
	}
	for i, pt := range pts {
		want := float64(i+1) / 4
		if math.Abs(pt.AccessFrac-want) > 1e-12 || math.Abs(pt.PageFrac-want) > 1e-12 {
			t.Fatalf("uniform CDF point %d = %+v, want diagonal", i, pt)
		}
	}
	if s := p.Skewness(); math.Abs(s) > 1e-9 {
		t.Fatalf("uniform skewness = %g, want 0", s)
	}
}

func TestCDFSkewed(t *testing.T) {
	// One very hot page among ten.
	counts := []uint64{1000, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	p := FromCounts(counts)
	if got := p.AccessFracFromHottest(0.1); got < 0.99 {
		t.Fatalf("hottest 10%% carries %.3f of accesses, want > 0.99", got)
	}
	if s := p.Skewness(); s < 0.7 {
		t.Fatalf("skewness = %.3f, want high for single-hot-page profile", s)
	}
	pts := p.CDF()
	if pts[0].AccessFrac < 0.99 {
		t.Fatalf("first CDF point = %+v, want ~0.99 access fraction", pts[0])
	}
	last := pts[len(pts)-1]
	if math.Abs(last.AccessFrac-1) > 1e-12 || math.Abs(last.PageFrac-1) > 1e-12 {
		t.Fatalf("CDF does not end at (1,1): %+v", last)
	}
}

func TestCDFEmptyAndZeroTotals(t *testing.T) {
	if pts := (PageProfile{}).CDF(); pts != nil {
		t.Fatal("empty profile CDF not nil")
	}
	p := FromCounts([]uint64{0, 0})
	pts := p.CDF()
	if len(pts) != 2 || pts[1].AccessFrac != 0 {
		t.Fatalf("zero-access CDF = %+v", pts)
	}
	if p.AccessFracFromHottest(0.5) != 0 {
		t.Fatal("zero-access hottest fraction not 0")
	}
	if p.Skewness() != 0 {
		t.Fatal("zero-access skewness not 0")
	}
}

func TestAccessFracBounds(t *testing.T) {
	p := FromCounts([]uint64{10, 5})
	if got := p.AccessFracFromHottest(2); math.Abs(got-1) > 1e-12 {
		t.Fatalf("pageFrac>1 = %g, want 1", got)
	}
	if got := p.AccessFracFromHottest(0); got != 0 {
		t.Fatalf("pageFrac=0 = %g, want 0", got)
	}
	// Tiny fraction still includes at least the hottest page.
	if got := p.AccessFracFromHottest(0.0001); got < 10.0/15.0-1e-12 {
		t.Fatalf("tiny fraction = %g, want >= hottest page share", got)
	}
}

func buildRuntime(t *testing.T) *gpurt.Runtime {
	t.Helper()
	space := vm.NewSpace(vm.DefaultPageSize, []vm.ZoneConfig{
		{Name: "BO", CapacityPages: vm.Unlimited},
		{Name: "CO", CapacityPages: vm.Unlimited},
	})
	return gpurt.New(space, core.NewPlacer(space, core.Local{Zone: vm.ZoneBO}, core.Table1SBIT()))
}

func TestProfileStructures(t *testing.T) {
	rt := buildRuntime(t)
	// a: 1 page, b: 2 pages, c: 1 page.
	rt.Malloc("a", vm.DefaultPageSize, core.HintNone)
	rt.Malloc("b", 2*vm.DefaultPageSize, core.HintNone)
	rt.Malloc("c", vm.DefaultPageSize, core.HintNone)

	counts := []uint64{100, 10, 10, 0} // pages 0..3
	stats := ProfileAllocations(counts, rt.Allocations(), vm.DefaultPageSize)
	if len(stats) != 3 {
		t.Fatalf("%d structure stats, want 3", len(stats))
	}
	if stats[0].Accesses != 100 || stats[1].Accesses != 20 || stats[2].Accesses != 0 {
		t.Fatalf("accesses = %d,%d,%d, want 100,20,0",
			stats[0].Accesses, stats[1].Accesses, stats[2].Accesses)
	}
	if math.Abs(stats[0].AccessFrac-100.0/120.0) > 1e-12 {
		t.Fatalf("a AccessFrac = %g", stats[0].AccessFrac)
	}
	if math.Abs(stats[1].FootprintFrac-0.5) > 1e-12 {
		t.Fatalf("b FootprintFrac = %g, want 0.5", stats[1].FootprintFrac)
	}
	// Hotness is per byte: a = 100/4096, b = 20/8192.
	if stats[0].Hotness <= stats[1].Hotness {
		t.Fatal("hotness ordering wrong: a must be hotter than b")
	}
}

func TestProfileStructuresShortCounts(t *testing.T) {
	rt := buildRuntime(t)
	rt.Malloc("a", 2*vm.DefaultPageSize, core.HintNone)
	// counts shorter than the footprint must not panic.
	stats := ProfileAllocations([]uint64{7}, rt.Allocations(), vm.DefaultPageSize)
	if stats[0].Accesses != 7 {
		t.Fatalf("Accesses = %d, want 7", stats[0].Accesses)
	}
}

func TestHotnessAndSizeVectors(t *testing.T) {
	rt := buildRuntime(t)
	rt.Malloc("a", vm.DefaultPageSize, core.HintNone)
	rt.Malloc("b", 2*vm.DefaultPageSize, core.HintNone)
	stats := ProfileAllocations([]uint64{40, 10, 10}, rt.Allocations(), vm.DefaultPageSize)
	hot := HotnessVector(stats)
	if len(hot) != 2 {
		t.Fatalf("vector length = %d, want 2", len(hot))
	}
	if stats[0].Alloc.Size != vm.DefaultPageSize || stats[1].Alloc.Size != 2*vm.DefaultPageSize {
		t.Fatalf("sizes = %d, %d", stats[0].Alloc.Size, stats[1].Alloc.Size)
	}
	if hot[0] <= hot[1] {
		t.Fatalf("hotness = %v, want a hotter than b", hot)
	}
}

// Property: CDF is monotone nondecreasing in both coordinates and ends at
// (1, 1) whenever there is at least one access.
func TestPropertyCDFMonotone(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		counts := make([]uint64, len(raw))
		var total uint64
		for i, r := range raw {
			counts[i] = uint64(r)
			total += uint64(r)
		}
		p := FromCounts(counts)
		pts := p.CDF()
		prev := CDFPoint{}
		for _, pt := range pts {
			if pt.AccessFrac < prev.AccessFrac-1e-12 || pt.PageFrac <= prev.PageFrac-1e-12 {
				return false
			}
			prev = pt
		}
		if total > 0 && math.Abs(prev.AccessFrac-1) > 1e-9 {
			return false
		}
		return math.Abs(prev.PageFrac-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: skewness is within [0, 1) and AccessFracFromHottest is
// monotone in the page fraction.
func TestPropertySkewBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		counts := make([]uint64, len(raw))
		for i, r := range raw {
			counts[i] = uint64(r)
		}
		p := FromCounts(counts)
		s := p.Skewness()
		if s < -1e-9 || s >= 1 {
			return false
		}
		prev := -1.0
		for _, frac := range []float64{0.1, 0.3, 0.5, 0.9, 1.0} {
			v := p.AccessFracFromHottest(frac)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
