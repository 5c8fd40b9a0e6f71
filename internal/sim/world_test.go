package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// pingPonger bounces messages among a ring of actors with varying hop
// latencies, recording every firing it observes as (time, arg).
type pingPonger struct {
	self  *Actor
	peers []*pingPonger
	la    Time
	log   []string
	hops  int
}

func (p *pingPonger) OnEvent(arg uint64) {
	p.log = append(p.log, fmt.Sprintf("%d/%d", p.self.Now(), arg))
	if p.hops <= 0 {
		return
	}
	p.hops--
	// Self events may be immediate; cross-actor sends respect lookahead.
	p.self.After(Time(arg%3), p, arg+1)
	dst := p.peers[int(arg)%len(p.peers)]
	p.self.SendAfter(dst.self, p.la+Time(arg%5), dst, arg*7+1)
}

// TestWindowGrid: worlds with different positive lookaheads drain the same
// canonical per-actor sequences — the window size changes how often the
// window hooks run, never the schedule.
func TestWindowGrid(t *testing.T) {
	trace := func(la Time) [][]string {
		w := NewWorld(1, la)
		ring := []*pingPonger{
			{self: w.NewActor(), la: 16, hops: 20},
			{self: w.NewActor(), la: 16, hops: 20},
		}
		ring[0].peers = []*pingPonger{ring[1]}
		ring[1].peers = []*pingPonger{ring[0]}
		ring[0].self.At(0, ring[0], 1)
		w.Run()
		return [][]string{ring[0].log, ring[1].log}
	}
	want := trace(1)
	if len(want[0]) == 0 {
		t.Fatal("nothing fired")
	}
	for _, la := range []Time{3, 16} {
		if got := trace(la); !reflect.DeepEqual(got, want) {
			t.Errorf("lookahead %d: schedule diverged\n got %v\nwant %v", la, got, want)
		}
	}
}

type nopHandler struct{}

func (nopHandler) OnEvent(uint64) {}

// TestLookaheadViolationPanics: a cross-actor send inside the window must
// panic — accepted, it could reach its destination before the window hooks
// ran, and a fault retry could translate before its mapping commits.
func TestLookaheadViolationPanics(t *testing.T) {
	w := NewWorld(1, 10)
	a, b := w.NewActor(), w.NewActor()
	var h nopHandler
	a.At(5, handlerFunc(func(uint64) {
		defer func() {
			if recover() == nil {
				t.Error("cross-actor send inside lookahead did not panic")
			}
		}()
		a.Send(b, a.Now()+3, h, 0) // 3 < lookahead 10
	}), 0)
	w.Run()
}

// TestSelfSendIgnoresLookahead: an actor scheduling for itself may use any
// nonnegative delay, including zero.
func TestSelfSendIgnoresLookahead(t *testing.T) {
	w := NewWorld(1, 10)
	a := w.NewActor()
	ran := false
	a.At(5, handlerFunc(func(uint64) {
		a.After(0, handlerFunc(func(uint64) { ran = true }), 0)
	}), 0)
	w.Run()
	if !ran {
		t.Fatal("zero-delay self event did not run")
	}
}

// TestBatchPopFeedback: handlers that schedule more events at the current
// timestamp still fire in exact canonical order — same-cycle arrivals are
// insertion-sorted into the unfired tail of the cycle's batch.
func TestBatchPopFeedback(t *testing.T) {
	e := New()
	root := WorldOf(e).Root()
	var got []int
	var h handlerFunc
	h = func(arg uint64) {
		got = append(got, int(arg))
		if arg < 4 {
			// Same-timestamp follow-up: must fire after every event
			// batched before it, in its own scheduling order.
			root.At(100, h, 100+arg)
		}
	}
	for i := 0; i < 8; i++ {
		root.At(100, h, uint64(i))
	}
	e.Run()
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 100, 101, 102, 103}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batched same-timestamp order = %v, want %v", got, want)
	}
}

// burster fires a fanout of same-timestamp leaf events every 10 cycles
// (arg 1 = burst, 0 = leaf) until limit events have fired.
type burster struct {
	self  *Actor
	count int
	limit int
}

func (b *burster) OnEvent(arg uint64) {
	b.count++
	if arg == 0 || b.count >= b.limit {
		return
	}
	const fanout = 64
	t := b.self.Now() + 10
	for i := 0; i < fanout && b.count+i < b.limit; i++ {
		b.self.At(t, b, 0)
	}
	b.self.At(t, b, 1)
}

// BenchmarkEngineBatch measures same-timestamp batches: many events
// collapse onto shared timestamps, the common shape in SM issue bursts.
func BenchmarkEngineBatch(b *testing.B) {
	e := New()
	r := &burster{self: WorldOf(e).Root(), limit: b.N}
	b.ReportAllocs()
	b.ResetTimer()
	r.self.At(0, r, 1)
	e.Run()
	b.ReportMetric(float64(e.Fired())/b.Elapsed().Seconds(), "events/sec")
}
