package core

import (
	"errors"
	"testing"

	"hetsim/internal/vm"
)

func newSpace(bo, co int) *vm.Space {
	return vm.NewSpace(vm.DefaultPageSize, []vm.ZoneConfig{
		{Name: "BO", CapacityPages: bo},
		{Name: "CO", CapacityPages: co},
	})
}

func TestPlacerHonorsPolicy(t *testing.T) {
	sp := newSpace(10, 10)
	p := NewPlacer(sp, Local{Zone: vm.ZoneBO}, Table1SBIT())
	for i := uint64(0); i < 5; i++ {
		z, err := p.PlacePage(Request{VPage: i})
		if err != nil {
			t.Fatal(err)
		}
		if z != vm.ZoneBO {
			t.Fatalf("page %d placed in %d, want BO", i, z)
		}
	}
	st := p.Stats()
	if st.Total != 5 || st.PagesPerZone[vm.ZoneBO] != 5 || st.Fallbacks != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.ZoneFraction(vm.ZoneBO); got != 1 {
		t.Fatalf("ZoneFraction(BO) = %g, want 1", got)
	}
}

func TestPlacerFallbackOnFull(t *testing.T) {
	sp := newSpace(2, vm.Unlimited)
	p := NewPlacer(sp, Local{Zone: vm.ZoneBO}, Table1SBIT())
	for i := uint64(0); i < 5; i++ {
		if _, err := p.PlacePage(Request{VPage: i}); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.PagesPerZone[vm.ZoneBO] != 2 || st.PagesPerZone[vm.ZoneCO] != 3 {
		t.Fatalf("split = %v, want 2 BO + 3 CO", st.PagesPerZone[:2])
	}
	if st.Fallbacks != 3 {
		t.Fatalf("Fallbacks = %d, want 3", st.Fallbacks)
	}
}

// TestPlacerSpillAllocFree: a capped run spills most of its first touches,
// so placing a page that a full zone refuses allocates nothing once the
// page table covers it.
func TestPlacerSpillAllocFree(t *testing.T) {
	const pages = 100
	sp := newSpace(1, vm.Unlimited)
	p := NewPlacer(sp, Local{Zone: vm.ZoneBO}, Table1SBIT())
	if _, err := p.PlacePage(Request{VPage: pages}); err != nil { // fills BO, grows the table
		t.Fatal(err)
	}
	next := uint64(0)
	avg := testing.AllocsPerRun(pages-1, func() {
		if z, err := p.PlacePage(Request{VPage: next}); err != nil || z != vm.ZoneCO {
			t.Fatalf("page %d: PlacePage = %d, %v; want a spill to CO", next, z, err)
		}
		next++
	})
	if avg != 0 {
		t.Fatalf("a spilled page allocates %.2f objects, want 0", avg)
	}
}

func TestPlacerAllFull(t *testing.T) {
	sp := newSpace(1, 1)
	p := NewPlacer(sp, Local{Zone: vm.ZoneBO}, Table1SBIT())
	p.PlacePage(Request{VPage: 0})
	p.PlacePage(Request{VPage: 1})
	_, err := p.PlacePage(Request{VPage: 2})
	if !errors.Is(err, ErrNoMemory) {
		t.Fatalf("err = %v, want ErrNoMemory", err)
	}
}

func TestPlacerPropagatesNonCapacityErrors(t *testing.T) {
	sp := newSpace(10, 10)
	p := NewPlacer(sp, Local{Zone: vm.ZoneBO}, Table1SBIT())
	if _, err := p.PlacePage(Request{VPage: 0}); err != nil {
		t.Fatal(err)
	}
	_, err := p.PlacePage(Request{VPage: 0}) // double map
	if err == nil || errors.Is(err, ErrNoMemory) {
		t.Fatalf("double-map error = %v, want ErrMapped passthrough", err)
	}
}

func TestPlacerZeroStatsFraction(t *testing.T) {
	var st PlaceStats
	if st.ZoneFraction(vm.ZoneBO) != 0 {
		t.Fatal("empty stats fraction not 0")
	}
}
