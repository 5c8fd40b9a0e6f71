// Package vm models the virtual-memory substrate the paper's placement
// policies act on: 4 kB pages, NUMA memory zones with finite capacity, and
// a per-process page table populated at allocation time.
//
// Pages are placed when they are allocated (the paper studies initial
// placement and explicitly defers migration, §5.5); the optional migration
// extension (internal/migrate) may later remap a page to another zone
// through Remap. Physical addresses encode the owning zone in their top
// bits so the memory system can route a request without a reverse map.
package vm

import (
	"errors"
	"fmt"
)

// DefaultPageSize is the paper's 4 kB page granularity.
const DefaultPageSize = 4096

// ZoneID names a memory zone. The paper's two-pool system uses ZoneBO and
// ZoneCO; the BW-AWARE policy generalizes to more zones, so the substrate
// supports up to MaxZones.
type ZoneID uint8

// The two zones of the paper's heterogeneous memory system.
const (
	// ZoneBO is the bandwidth-optimized, GPU-attached pool (GDDR5-like).
	ZoneBO ZoneID = iota
	// ZoneCO is the capacity/cost-optimized, CPU-attached pool (DDR4-like).
	ZoneCO
)

// MaxZones bounds how many zones a Space may hold (PA encoding reserves 3
// zone bits).
const MaxZones = 8

const (
	zoneShift = 40 // PA bits below the zone field
	zoneMask  = uint64(MaxZones-1) << zoneShift
	offMask   = (uint64(1) << zoneShift) - 1
)

// ZoneSpan is the physical span of one zone in bytes. A zone's frames are
// numbered densely, so a space whose mapped pages span more could number
// frames past it, into the zone field.
const ZoneSpan = 1 << zoneShift

// Unlimited marks a zone with effectively infinite capacity.
const Unlimited = int(^uint(0) >> 1)

// ErrZoneFull reports that a zone has no free pages.
var ErrZoneFull = errors.New("vm: zone full")

// ErrMapped reports that a virtual page is already mapped.
var ErrMapped = errors.New("vm: page already mapped")

// ZoneConfig describes one memory zone.
type ZoneConfig struct {
	Name          string
	CapacityPages int // Unlimited for no constraint
}

type zoneState struct {
	cfg  ZoneConfig
	next uint64 // bump allocator: next free physical page index
}

// Space is one process's address space over a set of zones. The zero value
// is not usable; construct with NewSpace.
type Space struct {
	pageSize  uint64
	pageShift uint // log2(pageSize); divisions on the hot path become shifts
	// gen counts mapping mutations (Remap/Unmap). TransCache entries stamp
	// the generation they were filled under, so any address-space change
	// invalidates every outstanding cache at once.
	gen   uint64
	zones []zoneState
	// table maps dense virtual page numbers to physical page addresses
	// (PA of the page's first byte). Virtual pages are allocated densely
	// from 0 by the runtime, so a slice suffices and keeps translation
	// on the simulator fast path cheap.
	table []uint64
	// zoneOf mirrors table with the owning zone, for profiling.
	zoneOf []ZoneID
	mapped []bool
	// used counts live pages per zone; free holds released physical pages
	// for reuse by Remap/MapPage.
	used [MaxZones]int
	free [MaxZones]freeList
	// Deferred-mapping state (see deferred.go): while deferred, MapPage
	// reserves physical pages immediately but parks the table commit in
	// pending until FlushPending runs at a window barrier.
	deferred   bool
	pending    []pendingMap
	pendingSet map[uint64]struct{}
}

// NewSpace returns an address space over the given zones. pageSize must be
// a power of two; zones must number in [1, MaxZones]. It panics on invalid
// configuration (programming error).
func NewSpace(pageSize uint64, zones []ZoneConfig) *Space {
	if pageSize == 0 || pageSize&(pageSize-1) != 0 {
		panic(fmt.Sprintf("vm: page size %d not a power of two", pageSize))
	}
	if len(zones) == 0 || len(zones) > MaxZones {
		panic(fmt.Sprintf("vm: %d zones, want 1..%d", len(zones), MaxZones))
	}
	zs := make([]zoneState, len(zones))
	for i, z := range zones {
		if z.CapacityPages < 0 {
			panic(fmt.Sprintf("vm: zone %q capacity %d negative", z.Name, z.CapacityPages))
		}
		zs[i] = zoneState{cfg: z}
	}
	shift := uint(0)
	for s := pageSize; s > 1; s >>= 1 {
		shift++
	}
	return &Space{pageSize: pageSize, pageShift: shift, zones: zs}
}

// PageSize returns the page size in bytes.
func (s *Space) PageSize() uint64 { return s.pageSize }

// ZoneCapacity returns the configured capacity of z in pages.
func (s *Space) ZoneCapacity(z ZoneID) int { return s.zones[z].cfg.CapacityPages }

// ZoneUsed returns how many pages are live (mapped) in z.
func (s *Space) ZoneUsed(z ZoneID) int { return s.used[z] }

// ZoneFree reports how many pages remain in z.
func (s *Space) ZoneFree(z ZoneID) int {
	c := s.zones[z].cfg.CapacityPages
	if c == Unlimited {
		return Unlimited
	}
	return c - s.used[z]
}

// MappedPages reports how many virtual pages are mapped.
func (s *Space) MappedPages() int {
	n := 0
	for _, m := range s.mapped {
		if m {
			n++
		}
	}
	return n
}

// PageOf returns the virtual page number containing va.
func (s *Space) PageOf(va uint64) uint64 { return va >> s.pageShift }

// TableSpan returns the exclusive upper bound of virtual page numbers the
// space has ever mapped (the page-table extent): iterating [0, TableSpan)
// with PageZone visits every mapped page, including pages with no access
// history.
func (s *Space) TableSpan() uint64 { return uint64(len(s.table)) }

// MapPage allocates a physical page in zone z and maps virtual page vpage
// to it. It returns ErrZoneFull when z has no free pages and ErrMapped when
// vpage already has a mapping.
func (s *Space) MapPage(vpage uint64, z ZoneID) error {
	if int(z) >= len(s.zones) {
		return fmt.Errorf("vm: zone %d out of range (have %d zones)", z, len(s.zones))
	}
	if s.deferred {
		return s.mapDeferred(vpage, z)
	}
	s.grow(vpage)
	if s.mapped[vpage] {
		return fmt.Errorf("%w: vpage %d", ErrMapped, vpage)
	}
	pa, err := s.allocPhys(z)
	if err != nil {
		return err
	}
	s.table[vpage] = pa
	s.zoneOf[vpage] = z
	s.mapped[vpage] = true
	return nil
}

// grow extends the page table to cover vpage. The length stays exact (it
// is TableSpan); capacity grows geometrically, so ascending first touches
// cost amortized O(1) per page instead of re-copying the table each time.
func (s *Space) grow(vpage uint64) {
	need := int(vpage) + 1
	if need <= len(s.table) {
		return
	}
	s.table = extend(s.table, need)
	s.zoneOf = extend(s.zoneOf, need)
	s.mapped = extend(s.mapped, need)
}

// extend reslices s to length n > len(s), doubling the capacity when it
// must reallocate. Indices in [len, cap) have never been written (the
// table never shrinks), so the zeroed backing from the last growth is
// still intact.
func extend[T any](s []T, n int) []T {
	if n > cap(s) {
		ns := make([]T, len(s), max(n, 2*cap(s)))
		copy(ns, s)
		s = ns
	}
	return s[:n]
}

// Translate maps a virtual address to its physical address. ok is false for
// unmapped addresses.
func (s *Space) Translate(va uint64) (pa uint64, ok bool) {
	vpage := va >> s.pageShift
	if vpage >= uint64(len(s.table)) || !s.mapped[vpage] {
		return 0, false
	}
	return s.table[vpage] | (va & (s.pageSize - 1)), true
}

// TransCache is a one-entry last-page translation cache — a simulator fast
// path, not a modelled TLB (package tlb models translation *costs*; this
// only avoids redundant page-table work and never changes timing). Callers
// keep one per requester (e.g. per SM) and pass it to TranslateCached. The
// zero value is an empty cache.
type TransCache struct {
	vpage  uint64
	paBase uint64
	gen    uint64
	valid  bool
}

// TranslateCached is Translate through a one-entry cache. A hit must agree
// with the current page table: entries are stamped with the space's
// mutation generation, and Remap/Unmap bump it, so a stale entry can never
// be returned. tc may be nil (plain Translate).
func (s *Space) TranslateCached(tc *TransCache, va uint64) (pa uint64, ok bool) {
	vpage := va >> s.pageShift
	off := va & (s.pageSize - 1)
	if tc != nil && tc.valid && tc.vpage == vpage && tc.gen == s.gen {
		return tc.paBase | off, true
	}
	if vpage >= uint64(len(s.table)) || !s.mapped[vpage] {
		return 0, false
	}
	base := s.table[vpage]
	if tc != nil {
		*tc = TransCache{vpage: vpage, paBase: base, gen: s.gen, valid: true}
	}
	return base | off, true
}

// PageZone reports which zone virtual page vpage resides in; ok is false
// when vpage is unmapped.
func (s *Space) PageZone(vpage uint64) (z ZoneID, ok bool) {
	if vpage >= uint64(len(s.mapped)) || !s.mapped[vpage] {
		return 0, false
	}
	return s.zoneOf[vpage], true
}

// ZoneOfPA decodes the zone from a physical address.
func ZoneOfPA(pa uint64) ZoneID { return ZoneID((pa & zoneMask) >> zoneShift) }

// ZoneOffset strips the zone bits, yielding the zone-local byte address.
func ZoneOffset(pa uint64) uint64 { return pa & offMask }

// PagesFor returns how many pages are needed to hold bytes.
func PagesFor(bytes, pageSize uint64) int {
	if bytes == 0 {
		return 0
	}
	return int((bytes + pageSize - 1) / pageSize)
}
