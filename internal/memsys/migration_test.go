package memsys

import (
	"testing"

	"hetsim/internal/sim"
	"hetsim/internal/vm"
)

// Expired locks need no pruning: a page's row in the page-state table
// keeps its last deadline, and the state is read against the clock. An
// expired lock must read PageValid, a later lock must not be shadowed by
// the stale deadline, and PageState must report all three states.
func TestLockDelayPrunesExpired(t *testing.T) {
	eng, space, sys := buildSystem(t, Table1Config(), 4, 4)
	space.MapPage(0, vm.ZoneBO)
	space.MapPage(1, vm.ZoneBO)

	if st := sys.PageState(0); st != PageValid {
		t.Fatalf("unlocked page state = %v, want PageValid", st)
	}
	sys.LockPage(0, 100)
	if st, until := sys.state(0, 40); st != PagePendingMigration || until != 100 {
		t.Fatalf("state at t=40 = %v until %d, want PagePendingMigration until 100", st, until)
	}
	if st, _ := sys.state(0, 100); st != PageValid {
		t.Fatalf("state at the deadline = %v, want PageValid", st)
	}
	eng.RunUntil(150)
	if st := sys.PageState(0); st != PageValid {
		t.Fatalf("expired lock reads %v, want PageValid", st)
	}
	// A later lock after expiry takes effect, even with a deadline below
	// one the page held before.
	sys.LockPage(0, 120) // already past: no effect
	if st := sys.PageState(0); st != PageValid {
		t.Fatalf("lock with a past deadline reads %v, want PageValid", st)
	}
	sys.LockPage(0, 200)
	if st, until := sys.state(0, 199); st != PagePendingMigration || until != 200 {
		t.Fatalf("relocked state at t=199 = %v until %d, want PagePendingMigration until 200", st, until)
	}

	// Write-back: page 1 drains through the buffer; a lock outranks the
	// pending write-back, which reads again once the lock expires.
	sys.ConfigureWriteBack(1)
	oldPA, newPA, err := space.Remap(1, vm.ZoneCO)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.EnqueueWriteBack(1, oldPA, newPA, vm.DefaultPageSize) {
		t.Fatal("buffer rejected an entry")
	}
	if st := sys.PageState(1); st != PagePendingWriteBack {
		t.Fatalf("queued page state = %v, want PagePendingWriteBack", st)
	}
	sys.LockPage(1, eng.Now()+1)
	if st := sys.PageState(1); st != PagePendingMigration {
		t.Fatalf("locked queued page state = %v, want PagePendingMigration", st)
	}
	if st, _ := sys.state(1, eng.Now()+1); st != PagePendingWriteBack {
		t.Fatalf("queued page after its lock = %v, want PagePendingWriteBack", st)
	}
	eng.Run()
	for vp := uint64(0); vp < 2; vp++ {
		if st := sys.PageState(vp); st != PageValid {
			t.Fatalf("page %d after the run = %v, want PageValid", vp, st)
		}
	}
}

// Dirty lines dropped by InvalidatePage are written back to DRAM and must
// appear in the owning zone's write counters; clean lines must not.
func TestInvalidatePageDirtyWriteBackAccounting(t *testing.T) {
	eng, space, sys := buildSystem(t, Table1Config(), 4, 4)
	space.MapPage(0, vm.ZoneBO)

	// Dirty four lines (writes), warm two more clean (reads).
	for i := 0; i < 4; i++ {
		sys.Access(uint64(i)*128, true, func() {})
	}
	for i := 4; i < 6; i++ {
		sys.Access(uint64(i)*128, false, func() {})
	}
	eng.Run()

	before := sys.Stats().PerZone[vm.ZoneBO].DRAMWrites
	pa, _ := space.Translate(0)
	if got := sys.InvalidatePage(pa, vm.DefaultPageSize); got != 6 {
		t.Fatalf("InvalidatePage dropped %d lines, want 6", got)
	}
	wrote := sys.Stats().PerZone[vm.ZoneBO].DRAMWrites - before
	if wrote != 4 {
		t.Fatalf("dirty write-backs = %d, want 4 (only dirty victims hit DRAM)", wrote)
	}
	if got := sys.InvalidatePage(pa, vm.DefaultPageSize); got != 0 {
		t.Fatalf("second invalidate dropped %d lines, want 0", got)
	}
}

// The copy completion time must cover both DRAM streams (source reads and
// destination writes across different channels) and each pool's
// interconnect hop: raising one pool's hop latency shifts completion by
// exactly that amount.
func TestCopyPageTrafficCompletionOrdering(t *testing.T) {
	copyDone := func(extra sim.Time) sim.Time {
		cfg := Table1Config()
		for i := range cfg.Zones {
			if cfg.Zones[i].Zone == vm.ZoneCO {
				cfg.Zones[i].ExtraLatency += extra
			}
		}
		_, space, sys := buildSystem(t, cfg, 4, 4)
		space.MapPage(0, vm.ZoneCO)
		oldPA, newPA, err := space.Remap(0, vm.ZoneBO)
		if err != nil {
			t.Fatal(err)
		}
		return sys.CopyPageTraffic(oldPA, newPA, vm.DefaultPageSize)
	}

	base := copyDone(0)
	if base <= 0 {
		t.Fatal("copy completed instantly")
	}
	// One line through the slower CO channel alone must finish before the
	// whole page: completion is ordered after the last line of both streams.
	cfg := Table1Config()
	_, space, sys := buildSystem(t, cfg, 4, 4)
	space.MapPage(0, vm.ZoneCO)
	oldPA, newPA, err := space.Remap(0, vm.ZoneBO)
	if err != nil {
		t.Fatal(err)
	}
	oneLine := sys.CopyPageTraffic(oldPA, newPA, 128)
	if oneLine >= base {
		t.Fatalf("one-line copy (%d) not faster than full page (%d)", oneLine, base)
	}

	// Per-hop cost: +500 cycles on the CO hop appears once in the total.
	slower := copyDone(500)
	if slower != base+500 {
		t.Fatalf("copy with +500 CO hop = %d, want %d", slower, base+500)
	}
}

// The bounded write-back buffer accepts demotions up to its capacity,
// marks them PagePendingWriteBack, and drains them serially; accesses to a
// draining page proceed but are counted.
func TestWriteBackBufferDrains(t *testing.T) {
	eng, space, sys := buildSystem(t, Table1Config(), 4, 4)
	sys.ConfigureWriteBack(2)
	space.MapPage(0, vm.ZoneBO)
	space.MapPage(1, vm.ZoneBO)

	enqueue := func(vpage uint64) {
		oldPA, newPA, err := space.Remap(vpage, vm.ZoneCO)
		if err != nil {
			t.Fatal(err)
		}
		if !sys.EnqueueWriteBack(vpage, oldPA, newPA, vm.DefaultPageSize) {
			t.Fatalf("buffer rejected page %d below capacity", vpage)
		}
	}
	enqueue(0)
	enqueue(1)
	if st := sys.PageState(0); st != PagePendingWriteBack {
		t.Fatalf("PageState(0) = %v, want PagePendingWriteBack", st)
	}

	// An access to a draining page proceeds (page already remapped) and is
	// counted, not stalled.
	completed := false
	sys.Access(0, false, func() { completed = true })
	eng.Run()
	if !completed {
		t.Fatal("access to pending-write-back page never completed")
	}
	st := sys.Stats()
	if st.WriteBackAccesses == 0 {
		t.Fatal("access during drain not counted in WriteBackAccesses")
	}
	if st.WriteBacksQueued != 2 || st.WriteBacksDrained != 2 {
		t.Fatalf("queued/drained = %d/%d, want 2/2", st.WriteBacksQueued, st.WriteBacksDrained)
	}
	if got := sys.PageState(0); got != PageValid {
		t.Fatalf("PageState(0) after drain = %v, want PageValid", got)
	}
	if st.MigratedPages != 2 {
		t.Fatalf("MigratedPages = %d, want 2 (both drained copies)", st.MigratedPages)
	}
}

// A full (or disabled) buffer rejects the enqueue so the caller falls back
// to a blocking copy.
func TestWriteBackBufferFullRejects(t *testing.T) {
	_, space, sys := buildSystem(t, Table1Config(), 4, 4)
	space.MapPage(0, vm.ZoneBO)
	oldPA, newPA, err := space.Remap(0, vm.ZoneCO)
	if err != nil {
		t.Fatal(err)
	}
	if sys.EnqueueWriteBack(0, oldPA, newPA, vm.DefaultPageSize) {
		t.Fatal("disabled buffer accepted an entry")
	}
	sys.ConfigureWriteBack(1)
	if !sys.EnqueueWriteBack(0, oldPA, newPA, vm.DefaultPageSize) {
		t.Fatal("empty buffer rejected an entry")
	}
	if sys.EnqueueWriteBack(1, oldPA, newPA, vm.DefaultPageSize) {
		t.Fatal("full buffer accepted a second entry")
	}
}

// PageState reflects the lock table: locked pages are PagePendingMigration
// until the deadline, PageValid after.
func TestPageStateMigrationLock(t *testing.T) {
	eng, space, sys := buildSystem(t, Table1Config(), 4, 4)
	space.MapPage(0, vm.ZoneBO)
	if st := sys.PageState(0); st != PageValid {
		t.Fatalf("initial state = %v, want PageValid", st)
	}
	sys.LockPage(0, 1000)
	if st := sys.PageState(0); st != PagePendingMigration {
		t.Fatalf("locked state = %v, want PagePendingMigration", st)
	}
	eng.RunUntil(1001)
	if st := sys.PageState(0); st != PageValid {
		t.Fatalf("state after lock expiry = %v, want PageValid", st)
	}
}
