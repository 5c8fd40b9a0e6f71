package vm

import "fmt"

func errMapped(vpage uint64) error {
	return fmt.Errorf("%w: vpage %d", ErrMapped, vpage)
}

// Deferred mapping: the simulator's page-table commits happen at window
// edges (internal/sim World), and every figure's bytes depend on that
// schedule. In deferred mode the OS fault path does not commit mappings
// directly: MapPage reserves the physical page immediately (so per-zone
// capacity and bump addresses are consumed in canonical order) and parks
// the commit on a pending list that FlushPending applies at the next
// window edge. A page becomes visible to translation only after an edge,
// which the fault protocol guarantees happens before the faulting access
// retries one hop later. Committing inline instead would let accesses
// translate earlier and change the schedule.

// pendingMap is one reserved-but-uncommitted mapping.
type pendingMap struct {
	vpage uint64
	pa    uint64
	z     ZoneID
}

// SetDeferred switches deferred-mapping mode on or off. Turning it off
// flushes any pending commits.
func (s *Space) SetDeferred(on bool) {
	if !on {
		s.FlushPending()
	}
	s.deferred = on
	if on && s.pendingSet == nil {
		s.pendingSet = make(map[uint64]struct{})
	}
}

// mapDeferred is MapPage while deferred: allocate now, commit at the next
// FlushPending.
func (s *Space) mapDeferred(vpage uint64, z ZoneID) error {
	if s.MappedOrPending(vpage) {
		return errMapped(vpage)
	}
	pa, err := s.allocPhys(z)
	if err != nil {
		return err
	}
	s.pending = append(s.pending, pendingMap{vpage: vpage, pa: pa, z: z})
	s.pendingSet[vpage] = struct{}{}
	return nil
}

// MappedOrPending reports whether vpage has a committed or pending
// mapping. The OS fault path uses it to dedupe faults for a page whose
// mapping has not reached the table yet.
func (s *Space) MappedOrPending(vpage uint64) bool {
	if vpage < uint64(len(s.mapped)) && s.mapped[vpage] {
		return true
	}
	if s.pendingSet == nil {
		return false
	}
	_, ok := s.pendingSet[vpage]
	return ok
}

// PendingMappings reports how many reserved mappings await the next
// FlushPending. Remap and Unmap flush them first, so a caller that scans the
// page table and then remaps can tell whether its scan missed pages.
func (s *Space) PendingMappings() int { return len(s.pending) }

// FlushPending commits every pending mapping to the page table in reserve
// order. It runs at a window edge, or before or after a run.
func (s *Space) FlushPending() {
	if len(s.pending) == 0 {
		return
	}
	for i := range s.pending {
		p := &s.pending[i]
		s.grow(p.vpage)
		s.table[p.vpage] = p.pa
		s.zoneOf[p.vpage] = p.z
		s.mapped[p.vpage] = true
		delete(s.pendingSet, p.vpage)
	}
	s.pending = s.pending[:0]
}
