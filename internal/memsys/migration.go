package memsys

import (
	"slices"

	"hetsim/internal/sim"
	"hetsim/internal/vm"
)

// Migration support for the memory system: the paper defers dynamic page
// migration (§5.5) because software moves cost microseconds of lock
// latency and several GB/s of copy bandwidth; package migrate implements
// it as the called-out future work, and these hooks model those costs
// faithfully:
//
//   - InvalidatePage drops a physical page's lines from the owning L2
//     slices (the TLB-shootdown/cache-flush part of a move);
//   - CopyPageTraffic charges the page copy to both zones' DRAM channels
//     plus each zone's interconnect hop, so migrations steal real
//     bandwidth from the application and pay the link crossing;
//   - LockPage delays any access to a virtual page until the move
//     completes (the paper's "several microseconds of latency between
//     invalidation and first re-use");
//   - the bounded write-back buffer (ConfigureWriteBack /
//     EnqueueWriteBack) lets demotions drain asynchronously at DRAM
//     speed, the PENDING_WRITE_BACK state of real GPU page managers.
//
// A virtual page is therefore in one of three states, with distinct lock
// semantics:
//
//	PageValid             — accesses proceed normally;
//	PagePendingMigration  — a blocking move holds the page lock; accesses
//	                        are deferred until the lock expires, then
//	                        re-translated;
//	PagePendingWriteBack  — the page has been remapped and is readable at
//	                        its new address while the old copy drains
//	                        through the write-back buffer; accesses do not
//	                        stall but are counted (WriteBackAccesses).
//
// Each page's state lives in one row of the System's page-state table
// (pageEntry), and only three transitions write it: LockPage sets the lock
// deadline (→ PagePendingMigration until the clock reaches it, then back to
// PageValid with no further write), EnqueueWriteBack raises the write-back
// flag (→ PagePendingWriteBack) and the drain of the page's entry clears it.
// A lock outranks a pending write-back.

// PageState classifies a virtual page's migration status; see the state
// table above.
type PageState int

const (
	PageValid PageState = iota
	PagePendingMigration
	PagePendingWriteBack
)

// pageEntry is one virtual page's row of the page-state table.
type pageEntry struct {
	// lockUntil is the latest migration-lock deadline: the page is
	// PagePendingMigration while the clock is below it.
	lockUntil sim.Time
	// writeBack is set while the page's old copy is queued or draining in
	// the write-back buffer (PagePendingWriteBack).
	writeBack bool
}

// state reads vpage's row of the page-state table at time now, returning
// the page's state and, for PagePendingMigration, its lock deadline. A page
// beyond the table — every page of a run without migration — is PageValid
// after one length check.
func (s *System) state(vpage uint64, now sim.Time) (PageState, sim.Time) {
	if vpage >= uint64(len(s.pages)) {
		return PageValid, 0
	}
	switch e := &s.pages[vpage]; {
	case e.lockUntil > now:
		return PagePendingMigration, e.lockUntil
	case e.writeBack:
		return PagePendingWriteBack, 0
	}
	return PageValid, 0
}

// PageState reports vpage's migration state at the engine's current time.
func (s *System) PageState(vpage uint64) PageState {
	st, _ := s.state(vpage, s.eng.Now())
	return st
}

// InvalidatePage removes every cache line of the physical page starting at
// oldPA from the L2 slices that could hold it, returning how many live
// lines were dropped. Dirty victims are written back to DRAM.
func (s *System) InvalidatePage(oldPA uint64, pageSize uint64) int {
	dropped := 0
	for off := uint64(0); off < pageSize; off += uint64(s.cfg.LineBytes) {
		pa := oldPA + off
		hw, sl, chAddr := s.route(pa)
		if sl.l2 == nil {
			continue
		}
		present, dirty := sl.l2.Invalidate(chAddr)
		if present {
			dropped++
			if dirty {
				sl.dram.Access(s.eng.Now(), chAddr, true)
				s.stats.PerZone[hw.cfg.Zone].DRAMWrites++
			}
		}
	}
	return dropped
}

// CopyPageTraffic models the DRAM traffic of copying one page from oldPA
// to newPA: line-sized reads on the source channel and writes on the
// destination channel. It returns the completion time: the later of the
// two streams plus each pool's interconnect hop (the per-hop transfer cost
// — a CXL → DDR move crosses both links once per page).
func (s *System) CopyPageTraffic(oldPA, newPA, pageSize uint64) sim.Time {
	var done sim.Time
	for off := uint64(0); off < pageSize; off += uint64(s.cfg.LineBytes) {
		srcHW, srcSl, srcAddr := s.route(oldPA + off)
		if t := srcSl.dram.Access(s.eng.Now(), srcAddr, false); t > done {
			done = t
		}
		s.stats.PerZone[srcHW.cfg.Zone].DRAMReads++
		dstHW, dstSl, dstAddr := s.route(newPA + off)
		if t := dstSl.dram.Access(s.eng.Now(), dstAddr, true); t > done {
			done = t
		}
		s.stats.PerZone[dstHW.cfg.Zone].DRAMWrites++
	}
	srcHW, _, _ := s.route(oldPA)
	dstHW, _, _ := s.route(newPA)
	done += srcHW.cfg.ExtraLatency + dstHW.cfg.ExtraLatency
	s.stats.MigratedPages++
	return done
}

// wbEntry is one queued asynchronous demotion: the page has already been
// remapped to newPA; the data still has to drain from oldPA.
type wbEntry struct {
	vpage    uint64
	oldPA    uint64
	newPA    uint64
	pageSize uint64
}

// writeBackBuf is the bounded asynchronous write-back buffer: queued
// demotions drain head-first at DRAM speed while the application keeps
// running (à la a GPU page manager's write_back_buffer). The queue drains
// in place, so once it has held cap entries it never allocates again.
type writeBackBuf struct {
	sys      *System
	cap      int
	queue    []wbEntry
	draining bool
}

// ConfigureWriteBack sizes the asynchronous write-back buffer in pages;
// zero or negative disables it (every demotion then blocks on the copy).
// Call before the run starts.
func (s *System) ConfigureWriteBack(pages int) {
	if pages <= 0 {
		s.wb = nil
		return
	}
	s.wb = &writeBackBuf{sys: s, cap: pages}
}

// EnqueueWriteBack queues one demoted page for asynchronous draining and
// reports whether the buffer accepted it. False — buffer disabled or full
// — means the caller must fall back to a blocking CopyPageTraffic. On
// accept the page enters PagePendingWriteBack until its copy completes;
// the copy traffic is charged when the drain reaches it.
func (s *System) EnqueueWriteBack(vpage, oldPA, newPA, pageSize uint64) bool {
	if s.wb == nil || len(s.wb.queue) >= s.wb.cap {
		return false
	}
	s.wb.queue = append(s.wb.queue, wbEntry{vpage, oldPA, newPA, pageSize})
	s.pages = grow(s.pages, vpage)
	s.pages[vpage].writeBack = true
	s.stats.WriteBacksQueued++
	if !s.wb.draining {
		s.wb.draining = true
		s.drainWriteBack()
	}
	return true
}

// drainWriteBack processes the buffer head: charge its copy traffic now,
// then complete it (OnEvent, on the root actor) when the DRAM streams
// finish. Entries drain serially — the buffer models one copy engine.
func (s *System) drainWriteBack() {
	if len(s.wb.queue) == 0 {
		s.wb.draining = false
		return
	}
	e := s.wb.queue[0]
	done := s.CopyPageTraffic(e.oldPA, e.newPA, e.pageSize)
	d := done - s.eng.Now()
	if d < 1 {
		d = 1
	}
	s.os.After(d, s.wb, 0)
}

// OnEvent implements sim.Handler: the head entry's copy has completed, so
// the page leaves PagePendingWriteBack and the next entry starts draining.
func (b *writeBackBuf) OnEvent(uint64) {
	s := b.sys
	s.stats.WriteBacksDrained++
	s.pages[b.queue[0].vpage].writeBack = false
	b.queue = slices.Delete(b.queue, 0, 1)
	s.drainWriteBack()
}

// LockPage blocks accesses to vpage until t; accesses arriving earlier are
// deferred to t before entering the memory system (PagePendingMigration).
// An earlier deadline never shortens a lock still held; once a lock has
// expired, any later deadline takes effect.
func (s *System) LockPage(vpage uint64, until sim.Time) {
	s.pages = grow(s.pages, vpage)
	if e := &s.pages[vpage]; until > e.lockUntil {
		e.lockUntil = until
	}
}

// Space exposes the address space the system translates through (the
// migration engine remaps pages in it).
func (s *System) Space() *vm.Space { return s.space }
