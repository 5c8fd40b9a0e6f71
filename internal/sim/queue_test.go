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
	push := func(at Time, src ActorID) {
		seq++
		q.push(scheduled{at: at, src: src, seq: seq})
		heap.Push(&ref, refItem{at: at, src: src, seq: seq})
	}
	pop := func(op int) {
		got := q.take()
		want := heap.Pop(&ref).(refItem)
		if got.at != want.at || got.src != want.src || got.seq != want.seq {
			t.Fatalf("op %d: pop = (%d,%d,%d), reference = (%d,%d,%d)",
				op, got.at, got.src, got.seq, want.at, want.src, want.seq)
		}
		now = got.at
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

// TestRunHandsOnDrainedSlab: World.Run hands a drained queue's record
// slab, free list included, to the next queue that schedules an event,
// and a world running on the handed-on slab fires the reference schedule.
func TestRunHandsOnDrainedSlab(t *testing.T) {
	const budget = 300
	want := refProg(budget, nil)
	var p pinger
	// sync.Pool may miss a slab put on another P, and under the race
	// detector drops a quarter of them, so retry until one is handed on.
	for try := 0; try < 50; try++ {
		first := NewWorld(1, progLA)
		for i := range 2 * handOffMin {
			first.Root().At(Time(i), &p, 0)
		}
		first.Run()
		if first.eng.q.nodes != nil {
			t.Fatal("a drained queue kept its slab")
		}
		var got []string
		second := NewWorld(1, progLA)
		newProg(second, budget, &got)
		if second.eng.q.box == nil {
			continue
		}
		second.Run()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run on a handed-on slab fired %d events, the reference %d, or in another order", len(got), len(want))
		}
		return
	}
	t.Fatal("no queue took a handed-on slab in 50 tries")
}

// TestConcurrentRunsShareSlabs runs worlds from four goroutines at once,
// as sweep workers do. Each goroutine drains a schedule large enough to
// hand its slab on, then runs the actor program on whatever slab its queue
// takes, which must fire the reference schedule.
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
				for i := range 2 * handOffMin {
					big.Root().At(Time(i), &p, 0)
				}
				big.Run()
				var got []string
				w := NewWorld(1, progLA)
				newProg(w, budget, &got)
				w.Run()
				if !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d, run %d: fired %d events, the reference %d, or in another order", g, r, len(got), len(want))
					return
				}
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
		e.Step()
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

func (m *mixer) schedule() {
	m.rng = m.rng*6364136223846793005 + 1442695040888963407
	r := m.rng >> 33
	d := Time(8 + r%24)
	if r%100 < 20 {
		d = Time(1024 + r%3072)
	}
	m.self.After(d+d%2, m, 0)
}

func (m *mixer) OnEvent(uint64) {
	if m.left > 0 {
		m.left--
		m.schedule()
	}
}
