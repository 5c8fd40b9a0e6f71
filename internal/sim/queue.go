package sim

import "math/bits"

// Calendar geometry: one bucket per cycle over a window of calSpan cycles,
// with one occupancy bit per bucket. Bandwidth-saturated runs keep most
// pending events (DRAM line fills) 1k-4k cycles ahead, so 4096 cycles puts
// nearly all of them in the calendar and leaves the overflow heap small.
const (
	calSpan  = 1 << 12
	calMask  = calSpan - 1
	calWords = calSpan / 64
)

// slotMask selects the slot half of a packed src<<32 | slot word.
const slotMask = 1<<32 - 1

// rec is the payload of one queued event, read once, when it fires.
type rec struct {
	h   Handler
	arg uint64
}

// farEvent is one overflow-heap entry: the event's time, its place among
// the overflow pushes, and its packed src<<32 | slot key.
type farEvent struct {
	at  Time
	n   uint64
	key uint64
}

// before orders overflow entries by (time, push order).
func (f *farEvent) before(o *farEvent) bool {
	return f.at < o.at || f.at == o.at && f.n < o.n
}

// queue is the engine's monotone calendar queue (R. Brown, "Calendar
// Queues", CACM 1988), specialized to a clock that never goes backwards.
//
// Every queued event holds one slot: link[slot] is src<<32 | next slot,
// which is all the bucket walk, the batch sort and the free list read,
// and recs[slot] is the (Handler, arg) payload, read once when the event
// fires. Slot 0 is unused, so next slot 0 ends a list. A slot stores no
// time and no sequence number; every pending event is in one of three
// tiers:
//
//   - cur: the batch at time base, as src<<32 | slot keys in source
//     order. cur[pos:] are still pending; same-cycle events scheduled
//     while the batch fires are inserted after every pending key of their
//     source and of lower sources.
//   - the calendar: one list per cycle in [base, base+calSpan), threaded
//     through link, with an occupancy bitmap so the next non-empty cycle
//     is a bits.TrailingZeros64 scan.
//   - far: a binary min-heap of events at or after base+calSpan, ordered
//     by (time, push order). They move into the calendar as base
//     advances.
//
// The fire order is the canonical (time, src, seq), where seq is an
// event's place among its source's scheduling calls, although no slot
// stores seq: each bucket holds a single cycle, and a source's events for
// one cycle reach that cycle's bucket in scheduling order. Those still in
// far when the cycle enters the window arrive first, in push order, when
// the advance that opens the window moves them; any later push for the
// cycle goes to the bucket (or the open batch) directly. Buckets are LIFO
// lists, so a batch is reversed into scheduling order and stably sorted by
// source alone. The zero value is an empty queue; once the slab, batch
// and heap have grown to the run's peak, pushes and pops allocate
// nothing. A released world hands its engine on, queue included
// (World.Release), so the next run's queue starts from the last run's
// peak rather than regrowing from empty.
type queue struct {
	n    int  // pending events across all tiers
	base Time // first cycle of the calendar window; no pending event is earlier

	cur []uint64 // src<<32 | slot keys of the batch at base, in source order
	pos int      // cur[pos:] are pending

	cal  int              // events in calendar buckets
	head [calSpan]uint32  // first slot of the bucket for cycle t, head[t&calMask]
	occ  [calWords]uint64 // bit b set iff bucket b is non-empty

	link []uint64 // per slot: src<<32 | next slot in its bucket or the free list
	recs []rec    // per slot: the payload; h is nil on free slots
	free uint32   // free-list head

	far       []farEvent // overflow min-heap
	farPushes uint64     // overflow pushes so far: the next entry's n
}

// push enqueues h.OnEvent(arg) from src at time at, which must not be
// earlier than base: base never passes the engine's clock, and At and Send
// refuse a time before it.
func (q *queue) push(at Time, src ActorID, h Handler, arg uint64) {
	k := uint64(src)<<32 | uint64(q.alloc(h, arg))
	q.n++
	switch d := at - q.base; {
	case d >= calSpan:
		q.farPush(farEvent{at: at, n: q.farPushes, key: k})
		q.farPushes++
	case d == 0 && q.pos < len(q.cur):
		q.insertCur(k)
	default:
		q.bucketPush(k, int(at)&calMask)
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
// cur in source order.
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
	c := q.cur
	for i := q.head[b]; i != 0; {
		l := q.link[i]
		c = append(c, l&^slotMask|uint64(i))
		i = uint32(l)
	}
	q.head[b] = 0
	q.occ[b>>6] &^= 1 << uint(b&63)
	q.cal -= len(c)
	// Reversing the LIFO list restores scheduling order, which leaves the
	// sort little to do when most of the cycle's events share a source.
	for i, j := 0, len(c)-1; i < j; i, j = i+1, j-1 {
		c[i], c[j] = c[j], c[i]
	}
	for i := 1; i < len(c); i++ {
		x, j := c[i], i
		for ; j > 0 && x>>32 < c[j-1]>>32; j-- {
			c[j] = c[j-1]
		}
		c[j] = x
	}
	q.cur = c
	return true
}

// take removes cur[pos] and returns its payload, which stays in place
// until the next push; load must have reported true. The batch's time is
// base.
func (q *queue) take() *rec {
	i := uint32(q.cur[q.pos])
	q.pos++
	if q.pos == len(q.cur) {
		q.cur, q.pos = q.cur[:0], 0
	}
	q.n--
	q.link[i] = uint64(q.free)
	q.free = i
	return &q.recs[i]
}

// insertCur places key k into the pending part of the batch, after every
// pending key of its source or a lower one.
func (q *queue) insertCur(k uint64) {
	c := append(q.cur, k)
	j := len(c) - 1
	for ; j > q.pos && k>>32 < c[j-1]>>32; j-- {
		c[j] = c[j-1]
	}
	c[j] = k
	q.cur = c
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

// advance moves the window to start at t and moves overflow events that
// now fall inside it into their buckets, in (time, push order).
func (q *queue) advance(t Time) {
	q.base = t
	for len(q.far) > 0 && q.far[0].at-t < calSpan {
		f := q.farPop()
		q.bucketPush(f.key, int(f.at)&calMask)
	}
}

// alloc stores a payload in a free slot and returns the slot.
func (q *queue) alloc(h Handler, arg uint64) uint32 {
	if i := q.free; i != 0 {
		q.free = uint32(q.link[i])
		q.recs[i] = rec{h, arg}
		return i
	}
	if len(q.recs) == 0 {
		q.link, q.recs = append(q.link, 0), append(q.recs, rec{}) // the unused slot 0
	}
	q.link, q.recs = append(q.link, 0), append(q.recs, rec{h, arg})
	return uint32(len(q.recs) - 1)
}

// bucketPush links key k's slot into bucket b.
func (q *queue) bucketPush(k uint64, b int) {
	i := uint32(k)
	q.link[i] = k&^slotMask | uint64(q.head[b])
	q.head[b] = i
	q.occ[b>>6] |= 1 << uint(b&63)
	q.cal++
}

// farPush inserts f into the overflow heap, sifting up with the hole
// technique (move parents down, write the new entry once).
func (q *queue) farPush(f farEvent) {
	h := append(q.far, f)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !f.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = f
	q.far = h
}

// farPop removes and returns the overflow heap's earliest entry.
func (q *queue) farPop() farEvent {
	h := q.far
	top := h[0]
	n := len(h) - 1
	last := h[n]
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
