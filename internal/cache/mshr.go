package cache

import (
	"fmt"

	"hetsim/internal/sim"
)

// MSHR is a miss-status holding register file. Each entry tracks one
// outstanding line fill; secondary misses to a pending line merge into the
// existing entry instead of consuming a new one (and instead of issuing a
// duplicate DRAM access), exactly as in the paper's GPGPU-Sim configuration
// (128 entries per L2 slice).
//
// When the file is full, new primary misses must wait: Stall queues the
// request and the owner pops it when an entry frees. The backpressure this
// creates is what couples memory latency to achievable throughput — the
// mechanism behind the paper's observation that enough MSHRs hide the
// interconnect hop to CPU-attached memory (§3.2.1).
//
// The file is built for the simulator's hot path: entries live in a flat
// slot array whose waiter slices are recycled across fills, pending lines
// are found through a fixed-size open-addressed index instead of a Go map,
// and waiters are long-lived FillWaiter values (typically pooled access
// records), so steady-state Allocate/Fill cycles perform no heap
// allocations.
type MSHR struct {
	capacity int
	// index maps a pending line to its slot in [0, used): a linear-probing
	// hash table of power-of-two size >= 2*capacity, so it is at most half
	// full and probe runs stay short.
	index lineIndex
	// slots[:used] are live entries. A freed slot takes the waiter array
	// of the previous Fill (walked), so waiter arrays circulate between
	// slots and re-allocation appends into recycled storage.
	slots  []mshrEntry
	used   int
	walked []FillWaiter
	// stalled[stallHead:] is the FIFO of requests waiting for an entry.
	// Waking advances stallHead instead of shifting the queue; the slice
	// is compacted when it drains, or on growth once half of it is dead.
	stalled   []stalledReq
	stallHead int
	stats     MSHRStats
}

type mshrEntry struct {
	line    uint64
	waiters []FillWaiter
}

// FillWaiter is notified when an outstanding line fill completes. Waiters
// are long-lived objects (pooled request records, test adapters), so
// registering one does not allocate.
type FillWaiter interface {
	OnFill(t sim.Time)
}

// FillFunc adapts a plain function to FillWaiter.
type FillFunc func(sim.Time)

// OnFill implements FillWaiter.
func (f FillFunc) OnFill(t sim.Time) { f(t) }

// Retrier re-attempts an access that stalled on a full MSHR file.
type Retrier interface {
	Retry()
}

// RetryFunc adapts a plain function to Retrier.
type RetryFunc func()

// Retry implements Retrier.
func (f RetryFunc) Retry() { f() }

type stalledReq struct {
	line  uint64
	retry Retrier
}

// MSHRStats counts MSHR file activity.
type MSHRStats struct {
	Primary   uint64 // entry allocations
	Merged    uint64 // secondary misses coalesced into a pending entry
	FullStall uint64 // requests that found the file full
	PeakUsed  int
}

// NewMSHR returns a file with the given entry capacity.
func NewMSHR(capacity int) *MSHR { return ReuseMSHR(nil, capacity) }

// ReuseMSHR returns a file that behaves exactly like NewMSHR(capacity),
// built in old's storage when old is non-nil: the line index is cleared
// (and rebuilt if it is too small for capacity), every slot's waiter list,
// the walked list and the stall FIFO are emptied, and the counters are
// zeroed. The slot and waiter arrays keep their capacity, so a file that
// served a run allocates nothing in the next. old must not be used
// afterwards.
func ReuseMSHR(old *MSHR, capacity int) *MSHR {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: MSHR capacity %d, must be positive", capacity))
	}
	if old == nil {
		return &MSHR{capacity: capacity, index: newLineIndex(capacity, nil)}
	}
	m := old
	for i := range m.slots {
		m.slots[i] = mshrEntry{waiters: m.slots[i].waiters[:0]}
	}
	clear(m.stalled)
	*m = MSHR{
		capacity: capacity,
		index:    newLineIndex(capacity, m.index.buckets),
		slots:    m.slots,
		walked:   m.walked[:0],
		stalled:  m.stalled[:0],
	}
	return m
}

// Used reports how many entries are live.
func (m *MSHR) Used() int { return m.used }

// Stalled reports how many requests are currently queued on a full file —
// the instantaneous backpressure depth, read by flight-recorder probes.
func (m *MSHR) Stalled() int { return len(m.stalled) - m.stallHead }

// Stats returns a copy of the counters.
func (m *MSHR) Stats() MSHRStats { return m.stats }

// Outcome of an Allocate call.
type Outcome int

// Allocate outcomes.
const (
	Allocated Outcome = iota // new entry created; caller must issue the fill
	Merged                   // joined an in-flight fill; do not issue
	Full                     // no entry available; caller must queue via Stall
)

func (o Outcome) String() string {
	switch o {
	case Allocated:
		return "Allocated"
	case Merged:
		return "Merged"
	case Full:
		return "Full"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Allocate registers interest in a line fill. w is invoked with the fill
// completion time when Fill is called for the line. On Full, w is NOT
// registered; the caller should use Stall.
func (m *MSHR) Allocate(line uint64, w FillWaiter) Outcome {
	if b, ok := m.index.find(line); ok {
		i := m.index.buckets[b].slot()
		m.slots[i].waiters = append(m.slots[i].waiters, w)
		m.stats.Merged++
		return Merged
	}
	if m.used >= m.capacity {
		m.stats.FullStall++
		return Full
	}
	if m.used == len(m.slots) {
		m.slots = append(m.slots, mshrEntry{})
	}
	e := &m.slots[m.used]
	e.line = line
	e.waiters = append(e.waiters[:0], w)
	m.index.insert(line, m.used)
	m.used++
	m.stats.Primary++
	if m.used > m.stats.PeakUsed {
		m.stats.PeakUsed = m.used
	}
	return Allocated
}

// Stall queues retry to be invoked when an entry frees. The retry callback
// should re-attempt the whole access (the line may have been filled or
// evicted meanwhile).
func (m *MSHR) Stall(line uint64, retry Retrier) {
	if h := m.stallHead; h > 0 && len(m.stalled) == cap(m.stalled) && h >= len(m.stalled)/2 {
		n := copy(m.stalled, m.stalled[h:])
		clear(m.stalled[n:])
		m.stalled, m.stallHead = m.stalled[:n], 0
	}
	m.stalled = append(m.stalled, stalledReq{line: line, retry: retry})
}

// Fill completes the outstanding fill for line at time t: all merged
// waiters are notified in registration order, the entry frees, and one
// stalled request (if any) is retried. Waiter callbacks may re-enter
// Allocate (a retried access, a scheduled follow-up), but not Fill itself.
func (m *MSHR) Fill(line uint64, t sim.Time) {
	b, ok := m.index.find(line)
	if !ok {
		panic(fmt.Sprintf("cache: Fill for line %#x with no MSHR entry", line))
	}
	// Free the entry before notifying, matching the semantics waiters
	// observe: a re-entrant Allocate for this line opens a fresh fill.
	// The waiter slice leaves the slot file to be walked, and the freed
	// slot takes the previous walk's backing array instead, so such a
	// re-entrant Allocate cannot clobber the walk.
	i := m.index.buckets[b].slot()
	m.used--
	w := m.slots[i].waiters
	if i != m.used {
		// Swap-delete: the last live entry moves into the freed slot.
		m.slots[i] = m.slots[m.used]
		mb, _ := m.index.find(m.slots[i].line)
		m.index.buckets[mb].ref = int32(i) + 1
	}
	m.index.remove(b)
	m.slots[m.used] = mshrEntry{waiters: m.walked[:0]}
	m.walked = w
	for _, fw := range w {
		fw.OnFill(t)
	}
	// Wake stalled requests in FIFO order while entries are free. Waking
	// exactly one per freed entry is not enough: a woken retry that hits
	// in the L2 (the fill just inserted its line) or merges into another
	// in-flight fill does not consume the freed entry, and with no
	// further fills pending the rest of the queue would be stranded
	// forever — observed when a placement ratio funnels all traffic into
	// one pool's few channels. Waking until the file is full again (or
	// the queue drains) closes that hole while preserving the structural
	// hazard: used never exceeds capacity, because a retry can only
	// re-stall when Allocate reports Full, which ends the loop.
	for m.stallHead < len(m.stalled) && m.used < m.capacity {
		next := m.stalled[m.stallHead]
		m.stalled[m.stallHead] = stalledReq{}
		m.stallHead++
		next.retry.Retry()
	}
	if m.stallHead == len(m.stalled) {
		m.stalled, m.stallHead = m.stalled[:0], 0
	}
}

// lineIndex is an open-addressed hash table from line address to MSHR
// slot: linear probing over a power-of-two bucket array, with
// backward-shift deletion so removals leave no tombstones and a lookup
// stops at the first empty bucket.
type lineIndex struct {
	buckets []lineBucket
	mask    int  // len(buckets) - 1
	shift   uint // 64 - log2(len(buckets)), for Fibonacci hashing
}

type lineBucket struct {
	line uint64
	ref  int32 // slot + 1; 0 marks an empty bucket
}

func (b lineBucket) slot() int { return int(b.ref) - 1 }

// newLineIndex returns an empty index for a file of capacity entries, in
// buckets' storage when it is large enough.
func newLineIndex(capacity int, buckets []lineBucket) lineIndex {
	n, shift := 1, uint(64)
	for n < 2*capacity {
		n <<= 1
		shift--
	}
	if cap(buckets) < n {
		buckets = make([]lineBucket, n)
	} else {
		buckets = buckets[:n]
		clear(buckets)
	}
	return lineIndex{buckets: buckets, mask: n - 1, shift: shift}
}

// home is line's preferred bucket. Pending lines are often consecutive, so
// a multiplicative (Fibonacci) hash spreads them; its top bits pick the
// bucket.
func (x *lineIndex) home(line uint64) int {
	return int((line * 0x9e3779b97f4a7c15) >> x.shift)
}

// find returns the bucket holding line, or ok=false.
func (x *lineIndex) find(line uint64) (b int, ok bool) {
	for b = x.home(line); x.buckets[b].ref != 0; b = (b + 1) & x.mask {
		if x.buckets[b].line == line {
			return b, true
		}
	}
	return 0, false
}

// insert adds line, which must be absent, pointing at slot.
func (x *lineIndex) insert(line uint64, slot int) {
	b := x.home(line)
	for x.buckets[b].ref != 0 {
		b = (b + 1) & x.mask
	}
	x.buckets[b] = lineBucket{line: line, ref: int32(slot) + 1}
}

// remove empties bucket b, shifting later members of its probe run back
// so that every remaining line stays reachable from its home bucket.
func (x *lineIndex) remove(b int) {
	for j := (b + 1) & x.mask; x.buckets[j].ref != 0; j = (j + 1) & x.mask {
		// The entry at j may fill the hole at b only if its home is not
		// cyclically within (b, j]: otherwise a lookup would stop at the
		// hole before reaching it.
		if (j-x.home(x.buckets[j].line))&x.mask >= (j-b)&x.mask {
			x.buckets[b] = x.buckets[j]
			b = j
		}
	}
	x.buckets[b] = lineBucket{}
}
