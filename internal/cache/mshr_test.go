package cache

import (
	"testing"
	"testing/quick"

	"hetsim/internal/sim"
)

func TestMSHRAllocateMergeFill(t *testing.T) {
	m := NewMSHR(4)
	var times []sim.Time
	note := func(ts sim.Time) { times = append(times, ts) }

	if got := m.Allocate(10, FillFunc(note)); got != Allocated {
		t.Fatalf("first Allocate = %v, want Allocated", got)
	}
	if got := m.Allocate(10, FillFunc(note)); got != Merged {
		t.Fatalf("second Allocate same line = %v, want Merged", got)
	}
	if m.Used() != 1 {
		t.Fatalf("Used = %d, want 1 (merged miss shares the entry)", m.Used())
	}
	m.Fill(10, 99)
	if len(times) != 2 || times[0] != 99 || times[1] != 99 {
		t.Fatalf("waiters notified %v, want [99 99]", times)
	}
	if m.Used() != 0 {
		t.Fatalf("Used = %d after Fill, want 0", m.Used())
	}
}

func TestMSHRFull(t *testing.T) {
	m := NewMSHR(2)
	m.Allocate(1, FillFunc(func(sim.Time) {}))
	m.Allocate(2, FillFunc(func(sim.Time) {}))
	if got := m.Allocate(3, FillFunc(func(sim.Time) {})); got != Full {
		t.Fatalf("Allocate over capacity = %v, want Full", got)
	}
	// Merging into an existing entry must still work when full.
	if got := m.Allocate(1, FillFunc(func(sim.Time) {})); got != Merged {
		t.Fatalf("merge while full = %v, want Merged", got)
	}
	if got := m.Stats().FullStall; got != 1 {
		t.Fatalf("FullStall = %d, want 1", got)
	}
}

func TestMSHRStallRetryOnFill(t *testing.T) {
	// Retries that re-allocate consume the freed entry: one Fill wakes
	// exactly one of them (the structural hazard holds).
	m := NewMSHR(1)
	m.Allocate(1, FillFunc(func(sim.Time) {}))
	retried := 0
	var realloc RetryFunc
	realloc = func() {
		retried++
		m.Allocate(uint64(100+retried), FillFunc(func(sim.Time) {}))
	}
	m.Stall(2, realloc)
	m.Stall(3, realloc)
	if m.StallDepth() != 2 {
		t.Fatalf("StallDepth = %d, want 2", m.StallDepth())
	}
	m.Fill(1, 50)
	if retried != 1 {
		t.Fatalf("retried %d requests after one Fill, want exactly 1", retried)
	}
	if m.StallDepth() != 1 {
		t.Fatalf("StallDepth = %d after one Fill, want 1", m.StallDepth())
	}
	if m.Used() != 1 {
		t.Fatalf("Used = %d after retry re-allocated, want 1", m.Used())
	}
}

func TestMSHRStallNoStarvation(t *testing.T) {
	// Regression: a woken retry that does NOT re-allocate (it hit in the
	// L2 the fill just populated, or merged into another in-flight fill)
	// leaves the freed entry unused. With the last fill in flight, waking
	// only one stalled request would strand the rest of the queue forever
	// — no future Fill can ever run. Fill must keep waking while entries
	// are free.
	m := NewMSHR(1)
	m.Allocate(1, FillFunc(func(sim.Time) {}))
	retried := 0
	m.Stall(2, RetryFunc(func() { retried++ })) // completes without allocating
	m.Stall(3, RetryFunc(func() { retried++ }))
	m.Stall(4, RetryFunc(func() { retried++ }))
	m.Fill(1, 50) // the last in-flight fill
	if retried != 3 {
		t.Fatalf("retried %d requests after the last Fill, want all 3", retried)
	}
	if m.StallDepth() != 0 {
		t.Fatalf("StallDepth = %d after the last Fill, want 0 (no stranded requests)", m.StallDepth())
	}
}

func TestMSHRFillUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Fill of unknown line did not panic")
		}
	}()
	NewMSHR(1).Fill(42, 0)
}

func TestMSHRZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMSHR(0) did not panic")
		}
	}()
	NewMSHR(0)
}

func TestMSHRPeakUsed(t *testing.T) {
	m := NewMSHR(8)
	for i := uint64(0); i < 5; i++ {
		m.Allocate(i, FillFunc(func(sim.Time) {}))
	}
	m.Fill(0, 1)
	m.Fill(1, 1)
	if got := m.Stats().PeakUsed; got != 5 {
		t.Fatalf("PeakUsed = %d, want 5", got)
	}
}

// Property: every Allocated/Merged waiter is notified exactly once across
// an arbitrary interleaving of allocations and fills.
func TestPropertyAllWaitersNotified(t *testing.T) {
	f := func(lines []uint8) bool {
		m := NewMSHR(256)
		notified := 0
		expected := 0
		live := make(map[uint64]bool)
		for _, l := range lines {
			line := uint64(l % 16)
			if live[line] && l%3 == 0 {
				m.Fill(line, sim.Time(l))
				delete(live, line)
				continue
			}
			switch m.Allocate(line, FillFunc(func(sim.Time) { notified++ })) {
			case Allocated, Merged:
				expected++
				live[line] = true
			}
		}
		for line := range live {
			m.Fill(line, 0)
		}
		return notified == expected && m.Used() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestMSHRSlotRecycling: filling an entry that is not the most recent one
// exercises the swap-delete path; the moved entry must stay reachable and
// recycled slots must serve fresh allocations correctly, including a
// re-entrant Allocate for the just-filled line from inside a waiter.
func TestMSHRSlotRecycling(t *testing.T) {
	m := NewMSHR(4)
	var order []uint64
	waiter := func(line uint64) FillWaiter {
		return FillFunc(func(sim.Time) { order = append(order, line) })
	}
	m.Allocate(1, waiter(1))
	m.Allocate(2, waiter(2))
	m.Allocate(3, waiter(3))
	m.Fill(1, 0) // swap-delete: slot 0 now holds line 3
	m.Fill(3, 0)
	m.Fill(2, 0)
	want := []uint64{1, 3, 2}
	if len(order) != len(want) {
		t.Fatalf("notified %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("notified %v, want %v", order, want)
		}
	}

	// Re-entrant Allocate for the same line from inside a waiter opens a
	// fresh fill without corrupting the snapshot being walked.
	reentered := false
	var second []sim.Time
	m.Allocate(7, FillFunc(func(sim.Time) {
		if got := m.Allocate(7, FillFunc(func(t2 sim.Time) { second = append(second, t2) })); got != Allocated {
			t.Errorf("re-entrant Allocate = %v, want Allocated", got)
		}
		reentered = true
	}))
	m.Allocate(7, FillFunc(func(sim.Time) {}))
	m.Fill(7, 5)
	if !reentered {
		t.Fatal("waiter did not run")
	}
	if m.Used() != 1 {
		t.Fatalf("Used = %d after re-entrant Allocate, want 1", m.Used())
	}
	m.Fill(7, 9)
	if len(second) != 1 || second[0] != 9 {
		t.Fatalf("second-generation waiter saw %v, want [9]", second)
	}
}

// TestMSHRSteadyStateAllocFree: after warm-up, Allocate/Fill cycles with a
// long-lived waiter perform no allocations.
func TestMSHRSteadyStateAllocFree(t *testing.T) {
	m := NewMSHR(16)
	var sink sim.Time
	w := FillFunc(func(t sim.Time) { sink = t })
	for i := uint64(0); i < 16; i++ { // warm every slot's waiter storage
		m.Allocate(i, w)
		m.Allocate(i, w)
	}
	for i := uint64(0); i < 16; i++ {
		m.Fill(i, 1)
	}
	avg := testing.AllocsPerRun(500, func() {
		m.Allocate(3, w)
		m.Allocate(3, w)
		m.Allocate(9, w)
		m.Fill(3, 2)
		m.Fill(9, 2)
	})
	if avg != 0 {
		t.Fatalf("steady-state MSHR cycle allocates %.1f objects, want 0", avg)
	}
	_ = sink
}

// TestMSHRStallQueueUnderBackpressure: with the file permanently full and
// the stall queue never draining, woken requests still come out in FIFO
// order, StallDepth tracks the queue, and the queue's storage stays bounded
// and allocation-free — woken slots are reclaimed without waiting for the
// queue to empty.
func TestMSHRStallQueueUnderBackpressure(t *testing.T) {
	m := NewMSHR(2)
	nop := FillFunc(func(sim.Time) {})
	m.Allocate(0, nop)
	m.Allocate(1, nop)
	next, bad := uint64(2), 0 // stalled lines wake from 2 upward
	rs := make([]fifoRetry, 16)
	stall, fill := uint64(2), uint64(0)
	cycle := func() {
		r := &rs[stall%uint64(len(rs))]
		*r = fifoRetry{m: m, line: stall, next: &next, bad: &bad, w: nop}
		m.Stall(stall, r)
		stall++
		m.Fill(fill, 0) // wakes the oldest stall, which refills the entry
		fill++
	}
	for i := 0; i < 8; i++ { // queue depth 8 after each cycle from here on
		r := &rs[stall%uint64(len(rs))]
		*r = fifoRetry{m: m, line: stall, next: &next, bad: &bad, w: nop}
		m.Stall(stall, r)
		stall++
	}
	for i := 0; i < 1000; i++ {
		cycle()
	}
	if bad != 0 {
		t.Fatalf("%d requests woke out of FIFO order", bad)
	}
	if m.StallDepth() != 8 || m.Stalled() != 8 {
		t.Fatalf("StallDepth = %d, Stalled = %d, want 8", m.StallDepth(), m.Stalled())
	}
	if c := cap(m.stalled); c > 32 {
		t.Fatalf("stall queue capacity grew to %d for a depth of 8", c)
	}
	if avg := testing.AllocsPerRun(500, cycle); avg != 0 {
		t.Fatalf("stall/wake cycle allocates %.1f objects, want 0", avg)
	}
}

// fifoRetry checks that it wakes in line order, then allocates its line.
type fifoRetry struct {
	m    *MSHR
	line uint64
	next *uint64
	bad  *int
	w    FillWaiter
}

func (r *fifoRetry) Retry() {
	if r.line != *r.next {
		*r.bad++
	}
	*r.next++
	r.m.Allocate(r.line, r.w)
}
