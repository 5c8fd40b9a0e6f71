package gpurt

import (
	"strings"
	"testing"

	"hetsim/internal/core"
	"hetsim/internal/vm"
)

func newRuntime(boPages, coPages int, policy core.Policy) *Runtime {
	space := vm.NewSpace(vm.DefaultPageSize, []vm.ZoneConfig{
		{Name: "BO", CapacityPages: boPages},
		{Name: "CO", CapacityPages: coPages},
	})
	return New(space, core.NewPlacer(space, policy, core.Table1SBIT()))
}

func TestMallocLaysOutSequentially(t *testing.T) {
	r := newRuntime(vm.Unlimited, vm.Unlimited, core.Local{Zone: vm.ZoneBO})
	a, err := r.Malloc("a", 100, core.HintNone)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Malloc("b", 5000, core.HintNone)
	if err != nil {
		t.Fatal(err)
	}
	if a.Base != 0 {
		t.Fatalf("first allocation base = %#x, want 0", a.Base)
	}
	if b.Base != vm.DefaultPageSize {
		t.Fatalf("second base = %#x, want one page (page-aligned bump)", b.Base)
	}
	if b.Pages(vm.DefaultPageSize) != 2 {
		t.Fatalf("5000-byte allocation spans %d pages, want 2", b.Pages(vm.DefaultPageSize))
	}
}

func TestMallocZeroSize(t *testing.T) {
	r := newRuntime(10, 10, core.Local{Zone: vm.ZoneBO})
	if _, err := r.Malloc("z", 0, core.HintNone); err == nil {
		t.Fatal("zero-size Malloc succeeded")
	}
}

func TestMallocPlacesAllPages(t *testing.T) {
	r := newRuntime(vm.Unlimited, vm.Unlimited, core.Local{Zone: vm.ZoneBO})
	if _, err := r.Malloc("big", 10*vm.DefaultPageSize, core.HintNone); err != nil {
		t.Fatal(err)
	}
	if got := r.space.MappedPages(); got != 10 {
		t.Fatalf("MappedPages = %d, want 10", got)
	}
	if got := r.space.ZoneUsed(vm.ZoneBO); got != 10 {
		t.Fatalf("ZoneUsed(BO) = %d, want 10", got)
	}
}

// A Malloc hint reaches placement through the allocation, whether pages
// are placed at Malloc (eager) or on their first touch (Fault).
func TestMallocHintsHonored(t *testing.T) {
	for _, firstTouch := range []bool{false, true} {
		r := newRuntime(vm.Unlimited, vm.Unlimited, core.NewHintedZones(core.NewBWAware(core.Table1SBIT(), 1), vm.ZoneBO, vm.ZoneCO))
		r.firstTouch = firstTouch
		a, _ := r.Malloc("pinned-co", 4*vm.DefaultPageSize, core.HintCO)
		for p := uint64(0); p < 4; p++ {
			vpage := a.Base/vm.DefaultPageSize + p
			if firstTouch {
				if err := r.Fault(vpage); err != nil {
					t.Fatal(err)
				}
			}
			z, ok := r.space.PageZone(vpage)
			if !ok || z != vm.ZoneCO {
				t.Fatalf("first touch %v: hinted-CO page %d in zone %d", firstTouch, p, z)
			}
		}
	}
}

func TestMallocSpillsOnFullZone(t *testing.T) {
	r := newRuntime(2, vm.Unlimited, core.Local{Zone: vm.ZoneBO})
	if _, err := r.Malloc("a", 5*vm.DefaultPageSize, core.HintNone); err != nil {
		t.Fatal(err)
	}
	if bo := r.space.ZoneUsed(vm.ZoneBO); bo != 2 {
		t.Fatalf("BO pages = %d, want 2", bo)
	}
	if co := r.space.ZoneUsed(vm.ZoneCO); co != 3 {
		t.Fatalf("CO pages = %d, want 3", co)
	}
}

func TestMallocFailsWhenEverythingFull(t *testing.T) {
	r := newRuntime(1, 1, core.Local{Zone: vm.ZoneBO})
	_, err := r.Malloc("too-big", 3*vm.DefaultPageSize, core.HintNone)
	if err == nil {
		t.Fatal("Malloc succeeded beyond total capacity")
	}
	if !strings.Contains(err.Error(), "too-big") {
		t.Fatalf("error %q does not identify the allocation", err)
	}
}

func TestAllocationAt(t *testing.T) {
	r := newRuntime(vm.Unlimited, vm.Unlimited, core.Local{Zone: vm.ZoneBO})
	a, _ := r.Malloc("a", vm.DefaultPageSize, core.HintNone)
	b, _ := r.Malloc("b", 2*vm.DefaultPageSize, core.HintNone)

	got, ok := r.AllocationAt(a.Base + 10)
	if !ok || got.Label != "a" {
		t.Fatalf("AllocationAt(a+10) = %+v, %v", got, ok)
	}
	got, ok = r.AllocationAt(b.Base + vm.DefaultPageSize)
	if !ok || got.Label != "b" {
		t.Fatalf("AllocationAt(mid-b) = %+v, %v", got, ok)
	}
	if _, ok := r.AllocationAt(b.End() + 100); ok {
		t.Fatal("AllocationAt past the heap returned an allocation")
	}
	got, ok = r.AllocationOfPage(1)
	if !ok || got.Label != "b" {
		t.Fatalf("AllocationOfPage(1) = %+v, %v", got, ok)
	}
}

func TestAllocationsCopy(t *testing.T) {
	r := newRuntime(vm.Unlimited, vm.Unlimited, core.Local{Zone: vm.ZoneBO})
	r.Malloc("a", 1, core.HintNone)
	list := r.Allocations()
	list[0].Label = "mutated"
	if r.Allocations()[0].Label != "a" {
		t.Fatal("Allocations returned aliased storage")
	}
}
