package memsys

import (
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
//	                        re-translated (LockPage / lockDelay);
//	PagePendingWriteBack  — the page has been remapped and is readable at
//	                        its new address while the old copy drains
//	                        through the write-back buffer; accesses do not
//	                        stall but are counted (WriteBackAccesses).

// PageState classifies a virtual page's migration status; see the state
// table above.
type PageState int

const (
	PageValid PageState = iota
	PagePendingMigration
	PagePendingWriteBack
)

// PageState reports vpage's current migration state at engine time now.
func (s *System) PageState(vpage uint64) PageState {
	if s.locks != nil {
		if until, ok := s.locks[vpage]; ok && until > s.eng.Now() {
			return PagePendingMigration
		}
	}
	if s.wb != nil && s.wb.pending[vpage] {
		return PagePendingWriteBack
	}
	return PageValid
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
// running (à la a GPU page manager's write_back_buffer).
type writeBackBuf struct {
	sys      *System
	cap      int
	queue    []wbEntry
	pending  map[uint64]bool // vpage -> PagePendingWriteBack
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
	s.wb = &writeBackBuf{sys: s, cap: pages, pending: make(map[uint64]bool)}
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
	s.wb.pending[vpage] = true
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
	b.sys.stats.WriteBacksDrained++
	delete(b.pending, b.queue[0].vpage)
	b.queue = b.queue[1:]
	b.sys.drainWriteBack()
}

// LockPage blocks accesses to vpage until t; accesses arriving earlier are
// deferred to t before entering the memory system (PagePendingMigration).
func (s *System) LockPage(vpage uint64, until sim.Time) {
	if s.locks == nil {
		s.locks = make(map[uint64]sim.Time)
	}
	if cur, ok := s.locks[vpage]; !ok || until > cur {
		s.locks[vpage] = until
	}
}

// lockDelay reports how long an access at time now to vpage must wait,
// pruning expired locks. Locks exist only in migration runs, which are
// single-laned; laned runs see a nil map and return immediately.
func (s *System) lockDelay(vpage uint64, now sim.Time) sim.Time {
	if s.locks == nil {
		return 0
	}
	until, ok := s.locks[vpage]
	if !ok {
		return 0
	}
	if until <= now {
		delete(s.locks, vpage)
		return 0
	}
	return until - now
}

// Space exposes the address space the system translates through (the
// migration engine remaps pages in it).
func (s *System) Space() *vm.Space { return s.space }
