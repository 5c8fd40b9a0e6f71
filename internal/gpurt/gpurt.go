// Package gpurt is the CUDA-runtime analogue of §5.2: a memory allocator
// (Malloc, mirroring cudaMalloc with the paper's added hint argument) that
// assigns virtual address ranges to named data structures and places their
// pages through an OS placement policy at allocation time, plus the
// GetAllocation helper of §5.3 that converts program annotations
// (size + hotness arrays) into machine-appropriate placement hints.
package gpurt

import (
	"fmt"
	"sort"

	"hetsim/internal/core"
	"hetsim/internal/vm"
)

// Allocation is one Malloc'd data structure: the analogue of a cudaMalloc
// call site tracked by the paper's profiler instrumentation.
type Allocation struct {
	ID    int    // ordinal in program allocation order
	Label string // source-level name, e.g. "d_graph_visited"
	Base  uint64 // virtual base address (page aligned)
	Size  uint64 // requested bytes
	Hint  core.Hint
}

// End returns one past the last virtual address of the allocation.
func (a Allocation) End() uint64 { return a.Base + a.Size }

// Pages returns the number of pages the allocation spans.
func (a Allocation) Pages(pageSize uint64) int { return vm.PagesFor(a.Size, pageSize) }

// Runtime binds an address space and a placement policy into a memory
// allocator.
//
// Two placement moments are supported, both "initial placement" in the
// paper's sense (no migration):
//
//   - Eager (New): every page is placed when Malloc runs, modelling a
//     cudaMalloc that commits physical memory immediately. Under capacity
//     pressure this biases BO toward whichever structures the program
//     allocates first.
//   - First-touch (NewFirstTouch): Malloc only reserves the virtual range;
//     pages are placed by Fault when the GPU first accesses them, exactly
//     like Linux demand paging. Hot pages compete for BO in access order,
//     which is what gives BW-AWARE its graceful capacity falloff
//     (Figure 4).
type Runtime struct {
	space      *vm.Space
	placer     *core.Placer
	allocs     []Allocation
	nextVA     uint64
	firstTouch bool
}

// New returns an eager-placement runtime allocating from va 0 upward.
func New(space *vm.Space, placer *core.Placer) *Runtime {
	return &Runtime{space: space, placer: placer}
}

// NewFirstTouch returns a runtime that defers page placement to Fault.
func NewFirstTouch(space *vm.Space, placer *core.Placer) *Runtime {
	return &Runtime{space: space, placer: placer, firstTouch: true}
}

// FirstTouch reports whether the runtime defers placement to first access.
func (r *Runtime) FirstTouch() bool { return r.firstTouch }

// Fault places the page containing vpage on its first touch, using the
// owning allocation's hint. It is the memory system's page-fault handler in
// first-touch mode.
func (r *Runtime) Fault(vpage uint64) error {
	a, ok := r.AllocationOfPage(vpage)
	if !ok {
		return fmt.Errorf("gpurt: fault on vpage %d outside any allocation", vpage)
	}
	_, err := r.placer.PlacePage(core.Request{VPage: vpage, Alloc: a.ID, Hint: a.Hint})
	return err
}

// Space returns the underlying address space.
func (r *Runtime) Space() *vm.Space { return r.space }

// Placer returns the placement engine (for stats).
func (r *Runtime) Placer() *core.Placer { return r.placer }

// Malloc allocates size bytes for the data structure label, placing every
// page through the policy with the given hint. It corresponds to
// cudaMalloc(devPtr, size, hint). A zero size is an error, as in CUDA.
func (r *Runtime) Malloc(label string, size uint64, hint core.Hint) (Allocation, error) {
	if size == 0 {
		return Allocation{}, fmt.Errorf("gpurt: Malloc(%q, 0): zero-size allocation", label)
	}
	ps := r.space.PageSize()
	a := Allocation{
		ID:    len(r.allocs),
		Label: label,
		Base:  r.nextVA,
		Size:  size,
		Hint:  hint,
	}
	pages := vm.PagesFor(size, ps)
	if !r.firstTouch {
		firstPage := a.Base / ps
		for p := 0; p < pages; p++ {
			req := core.Request{VPage: firstPage + uint64(p), Alloc: a.ID, Hint: hint}
			if _, err := r.placer.PlacePage(req); err != nil {
				return Allocation{}, fmt.Errorf("gpurt: Malloc(%q, %d): %w", label, size, err)
			}
		}
	}
	r.nextVA += uint64(pages) * ps
	r.allocs = append(r.allocs, a)
	return a, nil
}

// Allocations returns all allocations in program order. The slice is a
// copy; mutating it does not affect the runtime.
func (r *Runtime) Allocations() []Allocation {
	return append([]Allocation(nil), r.allocs...)
}

// Footprint returns the total allocated bytes.
func (r *Runtime) Footprint() uint64 {
	var f uint64
	for _, a := range r.allocs {
		f += a.Size
	}
	return f
}

// FootprintPages returns the total mapped pages across allocations.
func (r *Runtime) FootprintPages() int {
	ps := r.space.PageSize()
	n := 0
	for _, a := range r.allocs {
		n += a.Pages(ps)
	}
	return n
}

// AllocationAt finds the allocation containing virtual address va. Because
// allocations are assigned from a bump pointer, Base is sorted and a binary
// search suffices.
func (r *Runtime) AllocationAt(va uint64) (Allocation, bool) {
	i := sort.Search(len(r.allocs), func(i int) bool { return r.allocs[i].Base > va })
	if i == 0 {
		return Allocation{}, false
	}
	a := r.allocs[i-1]
	if va < a.End() {
		return a, true
	}
	return Allocation{}, false
}

// AllocationOfPage finds the allocation containing virtual page vpage.
func (r *Runtime) AllocationOfPage(vpage uint64) (Allocation, bool) {
	return r.AllocationAt(vpage * r.space.PageSize())
}

// BOCapacityBytes reports the bandwidth-optimized zone's capacity in bytes
// (for GetAllocation), which may be vm.Unlimited pages.
func (r *Runtime) BOCapacityBytes() uint64 {
	c := r.space.ZoneCapacity(vm.ZoneBO)
	if c == vm.Unlimited {
		return ^uint64(0) / 2
	}
	return uint64(c) * r.space.PageSize()
}

// GetAllocation is the paper's runtime hint computation (Figure 9): given
// the program's annotated sizes and hotness values, in allocation order,
// and the machine's discovered topology (the SBIT), return the hint to pass
// to each Malloc.
func (r *Runtime) GetAllocation(sizes []uint64, hotness []float64, sbit core.SBIT) ([]core.Hint, error) {
	if len(sizes) != len(hotness) {
		return nil, fmt.Errorf("gpurt: GetAllocation: %d sizes but %d hotness values", len(sizes), len(hotness))
	}
	allocs := make([]core.AllocationInfo, len(sizes))
	for i := range sizes {
		allocs[i] = core.AllocationInfo{Size: sizes[i], Hotness: hotness[i]}
	}
	return core.ComputeHints(allocs, r.BOCapacityBytes(), sbit.Share(vm.ZoneBO))
}
