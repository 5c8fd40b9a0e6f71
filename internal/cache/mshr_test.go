package cache

import (
	"fmt"
	"math/rand"
	"slices"
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
	if m.Stalled() != 2 {
		t.Fatalf("Stalled = %d, want 2", m.Stalled())
	}
	m.Fill(1, 50)
	if retried != 1 {
		t.Fatalf("retried %d requests after one Fill, want exactly 1", retried)
	}
	if m.Stalled() != 1 {
		t.Fatalf("Stalled = %d after one Fill, want 1", m.Stalled())
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
	if m.Stalled() != 0 {
		t.Fatalf("Stalled = %d after the last Fill, want 0 (no stranded requests)", m.Stalled())
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
// order, Stalled tracks the queue, and the queue's storage stays bounded
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
	if m.Stalled() != 8 {
		t.Fatalf("Stalled = %d, want 8", m.Stalled())
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

// refMSHR is a map-based model of the MSHR file's contract, for
// differential testing: pending lines with their waiters in registration
// order, and a FIFO of stalled requests woken while entries are free.
type refMSHR struct {
	capacity int
	pending  map[uint64][]int // line -> waiter IDs
	stalled  []*diffRetry
	stats    MSHRStats
	log      *[]string
}

func (r *refMSHR) allocate(line uint64, id int) Outcome {
	if ws, ok := r.pending[line]; ok {
		r.pending[line] = append(ws, id)
		r.stats.Merged++
		return Merged
	}
	if len(r.pending) >= r.capacity {
		r.stats.FullStall++
		return Full
	}
	r.pending[line] = []int{id}
	r.stats.Primary++
	r.stats.PeakUsed = max(r.stats.PeakUsed, len(r.pending))
	return Allocated
}

func (r *refMSHR) fill(line uint64, t sim.Time) {
	ws := r.pending[line]
	delete(r.pending, line)
	for _, id := range ws {
		*r.log = append(*r.log, fmt.Sprintf("fill %d @%d", id, t))
	}
	for len(r.stalled) > 0 && len(r.pending) < r.capacity {
		q := r.stalled[0]
		r.stalled = r.stalled[1:]
		*r.log = append(*r.log, fmt.Sprintf("retry %d", q.id))
		if !q.hit && r.allocate(q.line, q.id) == Full {
			r.stalled = append(r.stalled, q)
		}
	}
}

// diffRetry is a stalled request. On wake it either completes without an
// entry (hit: it found its line in the L2) or re-allocates, re-stalling on
// a full file, as memsys does.
type diffRetry struct {
	m    *MSHR
	line uint64
	id   int
	hit  bool
	log  *[]string
}

func (q *diffRetry) Retry() {
	*q.log = append(*q.log, fmt.Sprintf("retry %d", q.id))
	if !q.hit && q.m.Allocate(q.line, logWaiter{q.id, q.log}) == Full {
		q.m.Stall(q.line, q)
	}
}

type logWaiter struct {
	id  int
	log *[]string
}

func (w logWaiter) OnFill(t sim.Time) { *w.log = append(*w.log, fmt.Sprintf("fill %d @%d", w.id, t)) }

// collidingLines returns lines whose home buckets crowd the end of x's
// table and its start, so probe runs wrap around and deletions shift
// entries back across the wrap, plus a few lines with scattered homes.
func collidingLines(x *lineIndex, perHome int) []uint64 {
	n := len(x.buckets)
	want := map[int]int{}
	for _, h := range []int{n - 1, n - 2, 0} {
		want[h] += perHome // n-2 is 0 in a two-bucket table
	}
	var lines []uint64
	for line := uint64(0); len(lines) < 3*perHome; line++ {
		if h := x.home(line); want[h] > 0 {
			want[h]--
			lines = append(lines, line)
		}
	}
	for i := uint64(0); i < 4; i++ {
		lines = append(lines, 1<<40+i*7919)
	}
	return lines
}

// TestMSHRMatchesReferenceModel drives the MSHR file and a map-based model
// with the same random Allocate/Stall/Fill sequences over lines that
// collide in the open-addressed index, and checks after every operation
// that notifications, occupancy, the stall queue, counters and the index
// itself agree.
func TestMSHRMatchesReferenceModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 5, 16, 128} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			checkAgainstRefMSHR(t, NewMSHR(capacity), capacity)
		})
	}
}

// TestReuseMSHRMatchesReferenceModel: a file ReuseMSHR builds in the
// storage of one left mid-run — entries live, requests stalled, waiter
// arrays grown, counters set — with the same, a smaller or a larger
// capacity behaves like a new one against the reference model.
func TestReuseMSHRMatchesReferenceModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 5, 16, 128} {
		for _, prev := range []int{capacity, 3, 256} {
			t.Run(fmt.Sprint(prev, "->", capacity), func(t *testing.T) {
				old := NewMSHR(prev)
				nop := FillFunc(func(sim.Time) {})
				for line := uint64(0); line < uint64(2*prev); line++ {
					for range 3 {
						if old.Allocate(line, nop) == Full {
							old.Stall(line, RetryFunc(func() {}))
						}
					}
				}
				old.Fill(0, 10)
				checkAgainstRefMSHR(t, ReuseMSHR(old, capacity), capacity)
			})
		}
	}
}

// checkAgainstRefMSHR drives m, an empty file of the given capacity, and
// the reference model through one random Allocate/Stall/Fill sequence and
// fails on the first event, outcome or counter that differs.
func checkAgainstRefMSHR(t *testing.T, m *MSHR, capacity int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(capacity)))
	var gotLog, wantLog []string
	ref := &refMSHR{capacity: capacity, pending: map[uint64][]int{}, log: &wantLog}
	lines := collidingLines(&m.index, max(2, capacity/2))
	for op, id, seen := 0, 0, 0; op < 20_000; op++ {
		if len(ref.pending) > 0 && rng.Intn(5) < 2 {
			var live []uint64
			for l := range ref.pending {
				live = append(live, l)
			}
			slices.Sort(live)
			line := live[rng.Intn(len(live))]
			m.Fill(line, sim.Time(op))
			ref.fill(line, sim.Time(op))
		} else {
			id++
			line := lines[rng.Intn(len(lines))]
			got := m.Allocate(line, logWaiter{id, &gotLog})
			if want := ref.allocate(line, id); got != want {
				t.Fatalf("op %d: Allocate(%d) = %v, model says %v", op, line, got, want)
			}
			if got == Full {
				hit := rng.Intn(3) == 0
				m.Stall(line, &diffRetry{m: m, line: line, id: id, hit: hit, log: &gotLog})
				ref.stalled = append(ref.stalled, &diffRetry{line: line, id: id, hit: hit})
			}
		}
		if !slices.Equal(gotLog[seen:], wantLog[seen:]) {
			t.Fatalf("op %d: events diverged:\n got %v\nwant %v", op, gotLog[seen:], wantLog[seen:])
		}
		seen = len(gotLog)
		checkAgainstModel(t, op, m, ref)
	}
}

func checkAgainstModel(t *testing.T, op int, m *MSHR, ref *refMSHR) {
	t.Helper()
	if m.Used() != len(ref.pending) || m.Stalled() != len(ref.stalled) || m.Stats() != ref.stats {
		t.Fatalf("op %d: Used %d Stalled %d Stats %+v, model has %d, %d, %+v",
			op, m.Used(), m.Stalled(), m.Stats(), len(ref.pending), len(ref.stalled), ref.stats)
	}
	occupied := 0
	for _, b := range m.index.buckets {
		if b.ref != 0 {
			occupied++
		}
	}
	if occupied != m.Used() {
		t.Fatalf("op %d: index holds %d lines, %d entries live", op, occupied, m.Used())
	}
	for line, ws := range ref.pending {
		b, ok := m.index.find(line)
		if !ok {
			t.Fatalf("op %d: pending line %d missing from the index", op, line)
		}
		e := m.slots[m.index.buckets[b].slot()]
		if e.line != line || len(e.waiters) != len(ws) {
			t.Fatalf("op %d: line %d maps to an entry for line %d with %d waiters, want %d",
				op, line, e.line, len(e.waiters), len(ws))
		}
	}
}

// TestMSHRCollidingSteadyStateAllocFree: Allocate/Fill cycles over lines
// that share home buckets across the index's wrap-around, filled out of
// allocation order, allocate nothing once warm.
func TestMSHRCollidingSteadyStateAllocFree(t *testing.T) {
	m := NewMSHR(8)
	lines := collidingLines(&m.index, 2)[:8]
	nop := FillFunc(func(sim.Time) {})
	cycle := func() {
		for _, l := range lines {
			m.Allocate(l, nop)
			m.Allocate(l, nop)
		}
		for i := range lines {
			m.Fill(lines[(i*3)%len(lines)], 1)
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("colliding Allocate/Fill cycle allocates %.1f objects, want 0", avg)
	}
	if m.Used() != 0 {
		t.Fatalf("Used = %d after filling every line", m.Used())
	}
}

// BenchmarkMSHRAllocateFill is one miss through a half-full 128-entry file
// (the paper's per-slice MSHR count): Allocate a line, merge a second
// request into it, and Fill the oldest outstanding line.
func BenchmarkMSHRAllocateFill(b *testing.B) {
	const entries, depth = 128, 64
	m := NewMSHR(entries)
	nop := FillFunc(func(sim.Time) {})
	var ring [depth]uint64
	for i := range ring {
		ring[i] = uint64(i) * 3
		m.Allocate(ring[i], nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % depth
		m.Fill(ring[slot], sim.Time(i))
		line := uint64(depth+i) * 3
		m.Allocate(line, nop)
		m.Allocate(line, nop)
		ring[slot] = line
	}
}
