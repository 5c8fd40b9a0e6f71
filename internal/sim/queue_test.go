package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// refItem / refHeap is a straightforward container/heap priority queue
// over the canonical (time, src, seq) order — the reference the engine's
// calendar queue is cross-checked against.
type refItem struct {
	at  Time
	src ActorID
	seq uint64
	dst int    // program actor index (engine-level reference only)
	arg uint64 // handler argument (engine-level reference only)
}

type refHeap []refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	a, b := &h[i], &h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// checkQueueOps drives the calendar queue and the container/heap reference
// with the op stream encoded in ops (two bytes per op: opcode, parameter)
// and fails on the first divergence in pop order, peek or length. Pushes
// are monotone — never before the last popped time, as the engine's
// past-time panic guarantees.
func checkQueueOps(t *testing.T, ops []byte) {
	t.Helper()
	var q queue
	var ref refHeap
	var now Time
	var seq uint64
	// Each event's argument is its push number, which identifies it: a
	// popped slot holds no time, source or sequence number.
	push := func(at Time, src ActorID) {
		seq++
		q.push(at, src, nil, seq)
		heap.Push(&ref, refItem{at: at, src: src, seq: seq})
	}
	pop := func(op int) {
		got := q.take().arg
		want := heap.Pop(&ref).(refItem)
		if q.base != want.at || got != want.seq {
			t.Fatalf("op %d: pop = push %d at %d, reference = push %d at %d (source %d)",
				op, got, q.base, want.seq, want.at, want.src)
		}
		now = q.base
	}
	for i := 0; i+1 < len(ops); i += 2 {
		op, p := ops[i]%8, int(ops[i+1])
		src := ActorID(p % 5)
		switch op {
		case 0, 1, 2, 3, 7:
			var d Time
			switch p % 4 {
			case 0: // same cycle: lands in the batch if one is open
			case 1: // near: SM issue and L2 hops
				d = Time(1 + p>>2&31)
			case 2: // DRAM fill distance
				d = Time(1000 + p*13%3000)
			case 3: // straddling the calendar span into the overflow heap
				d = calSpan - 32 + Time(p>>2)*Time(1+int(op%4))
			}
			push(now+d, src)
		case 4, 5:
			if q.load(maxTime) {
				pop(i / 2)
			}
		case 6: // RunUntil-style stop at now+p, then resume from there
			last := now + Time(p)
			for q.load(last) {
				pop(i / 2)
			}
			now = last
		}
		if q.n != ref.Len() {
			t.Fatalf("op %d: queue holds %d events, reference %d", i/2, q.n, ref.Len())
		}
		if q.n > 0 && q.peek() != ref[0].at {
			t.Fatalf("op %d: peek = %d, reference %d", i/2, q.peek(), ref[0].at)
		}
	}
	for q.load(maxTime) {
		pop(len(ops) / 2)
	}
	if q.n != 0 || ref.Len() != 0 {
		t.Fatalf("drained queue holds %d events, reference %d", q.n, ref.Len())
	}
}

// TestHeapAgainstReference drives the calendar queue and a container/heap
// reference with identical random monotone op streams — same-cycle inserts
// into an open batch, near and DRAM-distance deltas, deltas beyond the
// calendar span (overflow heap) and RunUntil-style stops — and requires
// identical pop sequences. (src, seq) is
// unique, so the order is strict and any divergence is a queue bug.
func TestHeapAgainstReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2*(2000+rng.Intn(3000)))
		rng.Read(ops)
		checkQueueOps(t, ops)
	}
}

// FuzzEventOrder checks arbitrary op streams against the reference.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 4, 0, 0, 0, 4, 0})
	f.Add([]byte{3, 255, 3, 3, 2, 2, 6, 200, 4, 0, 7, 9, 1, 5})
	f.Add([]byte{2, 6, 0, 1, 4, 0, 0, 3, 0, 2, 5, 0, 5, 0})
	f.Fuzz(checkQueueOps)
}

// TestSourceOrderAcrossTiers pins the invariant the batch order rests on:
// a source's events for one cycle reach that cycle's bucket in scheduling
// order, whichever tier they entered by, so a stable sort on the source
// alone yields the canonical (time, src, seq) order. Three sources
// schedule events for cycle T, out of ID order, three times: while T lies
// beyond the calendar span (the overflow heap, with neighbouring cycles'
// events between them), after T enters the window (its bucket), and while
// T's batch is open (the batch itself). Each firing is checked against
// the container/heap reference.
func TestSourceOrderAcrossTiers(t *testing.T) {
	const T = 3*calSpan + 11
	e := New()
	w := WorldOf(e)
	srcs := []*Actor{w.NewActor(), w.NewActor(), w.NewActor()}
	var ref refHeap
	seqs := map[ActorID]uint64{}
	var h handlerFunc
	sched := func(a *Actor, at Time, arg uint64) {
		seqs[a.id]++
		heap.Push(&ref, refItem{at: at, src: a.id, seq: seqs[a.id], arg: arg})
		a.At(at, h, arg)
	}
	// round has every source schedule two events for T, sources out of ID
	// order, and, when near is set, one for T-1 or T+1 after each.
	round := func(base uint64, near bool) {
		for k, s := range []int{2, 0, 1, 0, 2, 1} {
			sched(srcs[s], T, base+uint64(k))
			if near {
				sched(srcs[s], T-1+2*Time(k%2), base+50+uint64(k))
			}
		}
	}
	const (
		trigger = 1   // fires when T enters the window
		inBatch = 300 // the third round
		fromLow = 400 // source 1 scheduling while source 3's events fire
	)
	fired, opened, lowSent := 0, false, false
	h = func(arg uint64) {
		want := heap.Pop(&ref).(refItem)
		if arg != want.arg || e.Now() != want.at {
			t.Fatalf("firing %d: event %d at %d, reference event %d at %d (source %d)",
				fired, arg, e.Now(), want.arg, want.at, want.src)
		}
		fired++
		switch {
		case arg == trigger:
			// The advance to this cycle moved T's overflow events into
			// their bucket; T+1 is exactly one span ahead and stays.
			if len(e.q.far) != 3 {
				t.Fatalf("overflow heap holds %d events after T entered the window, want T+1's 3", len(e.q.far))
			}
			cal := e.q.cal
			round(200, false)
			if e.q.cal != cal+6 {
				t.Fatalf("calendar grew by %d pushes for T inside the window, want 6", e.q.cal-cal)
			}
		case e.Now() == T && !opened:
			opened = true
			cal, pending := e.q.cal, len(e.q.cur)-e.q.pos
			round(inBatch, false)
			if e.q.cal != cal || len(e.q.cur)-e.q.pos != pending+6 {
				t.Fatal("pushes for T while its batch is open missed the batch")
			}
		case e.Now() == T && want.src == srcs[2].id && !lowSent:
			lowSent = true
			sched(srcs[0], T, fromLow)
		}
	}
	round(100, true)
	sched(w.Root(), T-calSpan+1, trigger)
	if e.q.cal != 0 || len(e.q.far) != 13 {
		t.Fatalf("set-up left %d events in the calendar and %d in the overflow heap, want 0 and 13", e.q.cal, len(e.q.far))
	}
	e.Run()
	if fired != 26 || !lowSent || ref.Len() != 0 {
		t.Fatalf("fired %d events, want 26 with the lower source's send; reference holds %d", fired, ref.Len())
	}
}

// prog is a deterministic event program over a set of actors: each firing
// logs (time, arg) and schedules one or two follow-ups whose delays and
// targets are a pure function of arg. Delays mix same-cycle self events,
// near hops, DRAM-distance fills and overflow-distance events; cross-actor
// sends respect the lookahead. Per-actor budgets bound the run.
const (
	progActors = 6
	progLA     = Time(4)
)

type progStep struct {
	dst   int
	delay Time
	arg   uint64
}

func progNext(self int, arg uint64, out []progStep) []progStep {
	x := arg*0x9e3779b97f4a7c15 + uint64(self)
	x ^= x >> 29
	out = out[:0]
	for j := uint64(0); j <= x%2; j++ {
		y := x >> (8 + 8*j)
		var d Time
		switch y % 8 {
		case 0, 1:
			d = 0
		case 2, 3, 4:
			d = Time(1 + y>>3%31)
		case 5, 6:
			d = Time(1000 + y>>3%3000)
		default:
			d = Time(calSpan + y>>3%5000)
		}
		dst := self
		if y>>20%3 == 0 {
			dst = int(y>>24) % progActors
			if dst != self && d < progLA {
				d += progLA
			}
		}
		out = append(out, progStep{dst: dst, delay: d, arg: arg*31 + j + 1})
	}
	return out
}

type progActor struct {
	self   *Actor
	idx    int
	peers  []*progActor
	budget int
	log    *[]string // the run's global firing log
	steps  []progStep
}

func (p *progActor) OnEvent(arg uint64) {
	rec := fmt.Sprintf("%d@%d/%d", p.idx, p.self.Now(), arg)
	*p.log = append(*p.log, rec)
	if p.budget <= 0 {
		return
	}
	p.budget--
	p.steps = progNext(p.idx, arg, p.steps)
	for _, s := range p.steps {
		dst := p.peers[s.dst]
		if dst == p {
			p.self.After(s.delay, p, s.arg)
		} else {
			p.self.SendAfter(dst.self, s.delay, dst, s.arg)
		}
	}
}

// progSeeds are the initial events: actor index, time, arg.
var progSeeds = [][3]int{{0, 0, 1}, {1, 0, 2}, {2, 3, 3}, {3, 5000, 4}, {4, 7, 5}, {5, 7, 6}, {0, 7, 7}}

// refProg runs the program on the container/heap reference and returns
// its global firing log. After draining to each stops[i] it injects one
// root-context event, as TestEngineAgainstReference does between RunUntil
// calls.
func refProg(budget int, stops []Time) []string {
	var ref refHeap
	seqs := make([]uint64, progActors+1)
	budgets := make([]int, progActors)
	for i := range budgets {
		budgets[i] = budget
	}
	push := func(at Time, src ActorID, dst int, arg uint64) {
		seqs[src]++
		heap.Push(&ref, refItem{at: at, src: src, seq: seqs[src], dst: dst, arg: arg})
	}
	for _, s := range progSeeds {
		push(Time(s[1]), ActorID(s[0]+1), s[0], uint64(s[2]))
	}
	var log []string
	var steps []progStep
	run := func(last Time) {
		for ref.Len() > 0 && ref[0].at <= last {
			it := heap.Pop(&ref).(refItem)
			log = append(log, fmt.Sprintf("%d@%d/%d", it.dst, it.at, it.arg))
			if budgets[it.dst] <= 0 {
				continue
			}
			budgets[it.dst]--
			steps = progNext(it.dst, it.arg, steps)
			for _, s := range steps {
				push(it.at+s.delay, ActorID(it.dst+1), s.dst, s.arg)
			}
		}
	}
	for i, d := range stops {
		run(d)
		push(d+Time(i%3)*calSpan, 0, i%progActors, uint64(1000+i))
	}
	run(maxTime)
	return log
}

// newProg builds the program's actors on w and schedules the seed events.
func newProg(w *World, budget int, log *[]string) []*progActor {
	ps := make([]*progActor, progActors)
	for i := range ps {
		ps[i] = &progActor{self: w.NewActor(), idx: i, budget: budget, log: log}
	}
	for _, p := range ps {
		p.peers = ps
	}
	for _, s := range progSeeds {
		p := ps[s[0]]
		p.self.At(Time(s[1]), p, uint64(s[2]))
	}
	return ps
}

// TestEngineAgainstReference runs the actor program through the real
// engine and requires the reference's schedule: exactly its global firing
// order, driven by RunUntil stops with root-context injections between
// them.
func TestEngineAgainstReference(t *testing.T) {
	const budget = 300
	stops := []Time{0, 5, 900, 4000, 4096, 4097, 9000, 20000}
	want := refProg(budget, stops)
	if len(want) < 1000 {
		t.Fatalf("reference fired only %d events", len(want))
	}

	var got []string
	w := NewWorld(1, progLA)
	ps := newProg(w, budget, &got)
	e := w.Engine()
	for i, d := range stops {
		e.RunUntil(d)
		if e.Now() != d {
			t.Fatalf("RunUntil(%d) left the clock at %d", d, e.Now())
		}
		p := ps[i%progActors]
		w.Root().At(d+Time(i%3)*calSpan, p, uint64(1000+i))
	}
	w.Run()
	if !reflect.DeepEqual(got, want) {
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("RunUntil-driven run diverged at event %d of %d: got %v, want %s",
					i, len(want), got[i:min(len(got), i+3)], want[i])
			}
		}
		t.Fatalf("RunUntil-driven run fired %d extra events", len(got)-len(want))
	}

}

// bigSlab is a schedule size whose drained slab holds more records than
// the actor program of refProg ever has pending.
const bigSlab = 2048

// TestReleasedWorldFiresReferenceSchedule: a world built on the engine a
// released world handed on — its clock, event count and calendar window
// advanced, its slab grown and its free list scrambled by a run whose
// events spanned the calendar and the overflow heap — starts at time 0
// with no events fired and fires the reference schedule. A world with
// events pending keeps its engine.
func TestReleasedWorldFiresReferenceSchedule(t *testing.T) {
	const budget = 300
	want := refProg(budget, nil)
	var p pinger
	pending := NewWorld(1, progLA)
	pending.Root().At(5, &p, 0)
	pending.Release()
	if pending.eng == nil {
		t.Fatal("a world with a pending event gave up its engine")
	}
	// sync.Pool may miss an engine put on another P, and under the race
	// detector drops a quarter of them, so retry until one is handed on.
	for try := 0; try < 50; try++ {
		first := NewWorld(1, progLA)
		for i := range bigSlab {
			first.Root().At(Time(i%calSpan), &p, 0)
			if i%16 == 0 {
				first.Root().At(Time(2*calSpan+i), &p, 0) // overflow heap
			}
		}
		first.Run()
		e := first.eng
		first.Release()
		second := NewWorld(1, progLA)
		if second.eng != e {
			continue
		}
		if second.Now() != 0 || second.Fired() != 0 || second.Front() != Forever {
			t.Fatalf("a world on a handed-on engine starts at %d with %d events fired, front %d", second.Now(), second.Fired(), second.Front())
		}
		if len(e.q.recs) <= bigSlab {
			t.Fatalf("the handed-on engine's slab has %d records, want the drained run's %d and slot 0", len(e.q.recs), bigSlab)
		}
		var got []string
		newProg(second, budget, &got)
		second.Run()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run on a handed-on engine fired %d events, the reference %d, or in another order", len(got), len(want))
		}
		return
	}
	t.Fatal("no world took a handed-on engine in 50 tries")
}

// TestConcurrentRunsShareSlabs runs worlds from four goroutines at once,
// as sweep workers do. Each goroutine drains a large schedule and releases
// its world, then runs the actor program on whatever engine and slab its
// next world takes, which must fire the reference schedule.
func TestConcurrentRunsShareSlabs(t *testing.T) {
	const budget = 300
	want := refProg(budget, nil)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var p pinger
			for r := range 5 {
				big := NewWorld(1, progLA)
				for i := range bigSlab {
					big.Root().At(Time(i), &p, 0)
				}
				big.Run()
				big.Release()
				var got []string
				w := NewWorld(1, progLA)
				newProg(w, budget, &got)
				w.Run()
				if !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d, run %d: fired %d events, the reference %d, or in another order", g, r, len(got), len(want))
					return
				}
				w.Release()
			}
		}()
	}
	wg.Wait()
}

// TestHandlerPathAllocFree: steady-state handler scheduling performs no
// per-event allocations once the queue's slab, batch and overflow heap have
// grown. The warm-up runs three periods of the measured delay pattern, so
// the clock crosses the calendar span many times and lazy growth of any
// tier — including overflow events migrating into buckets — happens before
// measuring.
func TestHandlerPathAllocFree(t *testing.T) {
	e := New()
	root := WorldOf(e).Root()
	var p pinger
	for i := 0; i < 64; i++ {
		root.At(Time(i*97), &p, 0)
	}
	k := 0
	step := func() {
		k++
		root.After(Time(1+k*2909%(2*calSpan)), &p, 1)
		e.drain(e.q.peek())
	}
	for k < 3*2*calSpan {
		step()
	}
	if e.Now() < 4*calSpan {
		t.Fatalf("warm-up reached only t=%d", e.Now())
	}
	avg := testing.AllocsPerRun(1000, step)
	if avg != 0 {
		t.Fatalf("handler path allocates %.1f objects per event, want 0", avg)
	}
}

type pinger struct{ count uint64 }

func (p *pinger) OnEvent(arg uint64) { p.count++ }

// BenchmarkEngineHandler measures the scheduling path on a
// self-rescheduling workload with one event pending, reporting events/sec —
// the engine's headline throughput metric.
func BenchmarkEngineHandler(b *testing.B) {
	e := New()
	r := &resched{self: WorldOf(e).Root(), limit: uint64(b.N)}
	b.ReportAllocs()
	b.ResetTimer()
	r.self.At(0, r, 0)
	e.Run()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

type resched struct {
	self  *Actor
	count uint64
	limit uint64
	rng   uint64
}

func (r *resched) OnEvent(arg uint64) {
	r.count++
	if r.count < r.limit {
		// xorshift keeps the delay stream deterministic and allocation-free.
		r.rng = r.rng*6364136223846793005 + 1442695040888963407
		r.self.After(Time(r.rng%100)+1, r, 0)
	}
}

// BenchmarkEngineMix reproduces the queue shape of a bandwidth-saturated
// run (lbm, BW-AWARE, Shrink 2): about 1.6k events pending; a fifth of the
// reschedules are DRAM line fills 1k-4k cycles ahead and the rest 8-31-cycle
// hops, landing on a 2-cycle grid so each occupied cycle holds about six
// events (the lbm run averages 4.7). Unlike BenchmarkEngineHandler, which keeps one event pending, it
// exposes how scheduling cost grows with queue depth.
func BenchmarkEngineMix(b *testing.B) {
	const pending = 1600
	e := New()
	m := &mixer{self: WorldOf(e).Root(), left: b.N - pending}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < pending && i < b.N; i++ {
		m.schedule()
	}
	e.Run()
	b.ReportMetric(float64(e.Fired())/b.Elapsed().Seconds(), "events/sec")
}

type mixer struct {
	self *Actor
	left int
	rng  uint64
}

// delay draws the next reschedule distance.
func (m *mixer) delay() Time {
	m.rng = m.rng*6364136223846793005 + 1442695040888963407
	r := m.rng >> 33
	d := Time(8 + r%24)
	if r%100 < 20 {
		d = Time(1024 + r%3072)
	}
	return d + d%2
}

func (m *mixer) schedule() { m.self.After(m.delay(), m, 0) }

func (m *mixer) OnEvent(uint64) {
	if m.left > 0 {
		m.left--
		m.schedule()
	}
}

// BenchmarkEngineActors spreads BenchmarkEngineMix's delay mix over the 28
// actors of a k40-ddr4 world (the root, 12 channel slices and 15 SMs):
// every reschedule comes from an actor drawn at random, so each cycle's
// batch interleaves sources and the batch order has work to do, as in
// real runs, which hold 1.6 (sgemm) to 9.2 (xsbench under LOCAL) events
// per occupied cycle at Shrink 1-2. It reports that figure as
// events/cycle.
func BenchmarkEngineActors(b *testing.B) {
	const pending, actors = 1600, 28
	e := New()
	w := WorldOf(e)
	m := &actorMixer{mixer: mixer{left: b.N - pending}, last: -1}
	m.actors = append(m.actors, w.Root())
	for len(m.actors) < actors {
		m.actors = append(m.actors, w.NewActor())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < pending && i < b.N; i++ {
		m.schedule()
	}
	e.Run()
	b.ReportMetric(float64(e.Fired())/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(e.Fired())/float64(m.cycles), "events/cycle")
}

// actorMixer is a mixer whose reschedules come from many actors; it counts
// the cycles its events fire in.
type actorMixer struct {
	mixer
	actors []*Actor
	last   Time
	cycles int
}

func (m *actorMixer) schedule() {
	d := m.delay()
	m.actors[m.rng>>40%uint64(len(m.actors))].After(d, m, 0)
}

func (m *actorMixer) OnEvent(uint64) {
	if now := m.actors[0].Now(); now != m.last {
		m.last = now
		m.cycles++
	}
	if m.left > 0 {
		m.left--
		m.schedule()
	}
}
