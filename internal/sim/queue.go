package sim

import (
	"math/bits"
	"sync"
)

// Calendar geometry: one bucket per cycle over a window of calSpan cycles,
// with one occupancy bit per bucket. Bandwidth-saturated runs keep most
// pending events (DRAM line fills) 1k-4k cycles ahead, so 4096 cycles puts
// nearly all of them in the calendar and leaves the overflow heap small.
const (
	calSpan  = 1 << 12
	calMask  = calSpan - 1
	calWords = calSpan / 64
)

// node is one slot of the queue's record slab: a queued event plus the slab
// index of the next node in the same bucket (or free list); 0 ends a list.
type node struct {
	ev   scheduled
	next int32
}

// queue is the engine's monotone calendar queue (R. Brown, "Calendar
// Queues", CACM 1988), specialized to a clock that never goes backwards.
//
// Every pending event lives in exactly one of three tiers:
//
//   - cur: the batch at time base, drained from base's bucket and sorted by
//     (src, seq). cur[pos:] are still pending; same-cycle events scheduled
//     while the batch fires are insertion-sorted into it.
//   - the calendar: one intrusive list per cycle in [base, base+calSpan),
//     threaded through the node slab, with an occupancy bitmap so the next
//     non-empty cycle is a bits.TrailingZeros64 scan.
//   - far: a binary min-heap of events at or after base+calSpan. They move
//     into the calendar as base advances.
//
// Each bucket holds a single cycle and the batch is sorted, so pops follow
// the canonical (time, src, seq) order exactly — the same sequence any
// correct priority queue over that strict total order yields. The zero
// value is an empty queue; once the slab, batch and heap have grown to the
// run's peak, pushes and pops allocate nothing. A drained queue hands its
// slab on (handOff), so the next run's queue starts from the last run's
// peak rather than regrowing from empty.
type queue struct {
	n    int  // pending events across all tiers
	base Time // first cycle of the calendar window; no pending event is earlier

	cur []int32 // slab indices of the batch at base, in (src, seq) order
	pos int     // cur[pos:] are pending

	cal  int              // events in calendar buckets
	head [calSpan]int32   // bucket for cycle t is head[t&calMask]
	occ  [calWords]uint64 // bit b set iff bucket b is non-empty

	nodes []node   // record slab; nodes[0] is unused so index 0 means "none"
	free  int32    // free-list head within nodes
	box   *slabBox // what nodes came in through slabs, reused to hand them on

	far []scheduled // overflow min-heap over the canonical order
}

// push enqueues it, which must not be earlier than base: base never
// passes the engine's clock, and At and Send refuse a time before it.
func (q *queue) push(it scheduled) {
	if len(q.nodes) == 0 {
		q.takeSlab()
	}
	q.n++
	switch d := it.at - q.base; {
	case d >= calSpan:
		q.farPush(it)
	case d == 0 && q.pos < len(q.cur):
		q.insertCur(q.alloc(it))
	default:
		q.bucketPush(q.alloc(it))
	}
}

// peek reports the earliest pending time; the queue must be non-empty.
func (q *queue) peek() Time {
	if q.pos < len(q.cur) {
		return q.base
	}
	if q.cal == 0 {
		return q.far[0].at
	}
	return q.scan()
}

// load makes cur[pos] the earliest pending event and reports whether there
// is one at or before last. It is small enough to inline, so draining an
// open batch costs no call.
func (q *queue) load(last Time) bool {
	if q.pos < len(q.cur) {
		return q.base <= last
	}
	return q.refill(last)
}

// refill opens the batch of the earliest pending cycle if it is at or
// before last: it advances base there and drains that cycle's bucket into
// cur in (src, seq) order.
func (q *queue) refill(last Time) bool {
	if q.n == 0 {
		return false
	}
	t := q.peek()
	if t > last {
		return false
	}
	q.advance(t)
	b := int(t) & calMask
	for i := q.head[b]; i != 0; i = q.nodes[i].next {
		q.cur = append(q.cur, i)
	}
	q.head[b] = 0
	q.occ[b>>6] &^= 1 << uint(b&63)
	q.cal -= len(q.cur)
	// Buckets are LIFO lists; reversing restores scheduling order, which
	// leaves the sort little to do (most same-cycle events share a source).
	c := q.cur
	for i, j := 0, len(c)-1; i < j; i, j = i+1, j-1 {
		c[i], c[j] = c[j], c[i]
	}
	for i := 1; i < len(c); i++ {
		x, j := c[i], i
		for ; j > 0 && q.less(x, c[j-1]); j-- {
			c[j] = c[j-1]
		}
		c[j] = x
	}
	return true
}

// take removes and returns cur[pos]; load must have reported true.
func (q *queue) take() scheduled {
	i := q.cur[q.pos]
	q.pos++
	if q.pos == len(q.cur) {
		q.cur, q.pos = q.cur[:0], 0
	}
	q.n--
	return q.release(i)
}

// less orders two same-cycle slab records by (src, seq).
func (q *queue) less(a, b int32) bool {
	x, y := &q.nodes[a].ev, &q.nodes[b].ev
	if x.src != y.src {
		return x.src < y.src
	}
	return x.seq < y.seq
}

// insertCur places slab record i into the pending part of the batch.
func (q *queue) insertCur(i int32) {
	q.cur = append(q.cur, i)
	j := len(q.cur) - 1
	for ; j > q.pos && q.less(i, q.cur[j-1]); j-- {
		q.cur[j] = q.cur[j-1]
	}
	q.cur[j] = i
}

// scan returns the earliest occupied cycle in the calendar (cal > 0).
func (q *queue) scan() Time {
	p := int(q.base) & calMask
	w := p >> 6
	if m := q.occ[w] >> uint(p&63); m != 0 {
		return q.base + Time(bits.TrailingZeros64(m))
	}
	// Wrap around the window; the last probe revisits word w, whose bits
	// at and above p are already known to be clear.
	for k := 1; k <= calWords; k++ {
		wi := (w + k) & (calWords - 1)
		if m := q.occ[wi]; m != 0 {
			b := wi<<6 | bits.TrailingZeros64(m)
			return q.base + Time((b-p)&calMask)
		}
	}
	panic("sim: calendar count disagrees with its occupancy bitmap")
}

// advance moves the window to start at t and pulls overflow events that
// now fall inside it into their buckets.
func (q *queue) advance(t Time) {
	q.base = t
	for len(q.far) > 0 && q.far[0].at-t < calSpan {
		q.bucketPush(q.alloc(q.farPop()))
	}
}

// alloc stores it in a free slab slot and returns the slot's index. The
// queue must have a slab (push takes one).
func (q *queue) alloc(it scheduled) int32 {
	if i := q.free; i != 0 {
		q.free = q.nodes[i].next
		q.nodes[i].ev = it
		return i
	}
	q.nodes = append(q.nodes, node{ev: it})
	return int32(len(q.nodes) - 1)
}

// slabBox carries a drained queue's slab, with its free list, through
// slabs. Every record in it is released, so it holds no callback
// references. A queue keeps the box its slab came in, so handing the slab
// on again allocates nothing.
type slabBox struct {
	nodes []node
	free  int32
}

var slabs sync.Pool // of *slabBox

// takeSlab gives a queue without a slab the one a drained queue handed on,
// if slabs holds one, or else a new slab holding only the unused slot 0.
func (q *queue) takeSlab() {
	if b, _ := slabs.Get().(*slabBox); b != nil {
		q.nodes, q.free, q.box = b.nodes, b.free, b
		b.nodes = nil
		return
	}
	q.nodes = append(q.nodes, node{})
}

// handOffMin is the smallest slab, in records, a drained queue hands on.
// A smaller one regrows in a few appends, and a caller that drains the
// engine after every access would pay more for the hand-over than it
// saves.
const handOffMin = 1 << 10

// handOff passes the slab of a drained queue on to the next queue that
// schedules an event, so each run does not regrow one from empty. The
// queue stays usable: its next push takes a slab again.
func (q *queue) handOff() {
	if q.n != 0 || len(q.nodes) < handOffMin {
		return
	}
	b := q.box
	if b == nil {
		b = &slabBox{}
	}
	b.nodes, b.free = q.nodes, q.free
	q.nodes, q.free, q.box = nil, 0, nil
	slabs.Put(b)
}

// release frees slab slot i and returns the record it held, dropping the
// slot's callback references so finished events can be collected.
func (q *queue) release(i int32) scheduled {
	nd := &q.nodes[i]
	it := nd.ev
	nd.ev = scheduled{}
	nd.next = q.free
	q.free = i
	return it
}

// bucketPush links slab record i into its cycle's bucket.
func (q *queue) bucketPush(i int32) {
	b := int(q.nodes[i].ev.at) & calMask
	q.nodes[i].next = q.head[b]
	q.head[b] = i
	q.occ[b>>6] |= 1 << uint(b&63)
	q.cal++
}

// farPush inserts it into the overflow heap, sifting up with the hole
// technique (move parents down, write the new record once).
func (q *queue) farPush(it scheduled) {
	h := append(q.far, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !it.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
	q.far = h
}

// farPop removes and returns the overflow heap's earliest event.
func (q *queue) farPop() scheduled {
	h := q.far
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = scheduled{}
	h = h[:n]
	q.far = h
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(&h[c]) {
				c = r
			}
			if !h[c].before(&last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	return top
}
