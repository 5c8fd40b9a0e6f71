package sim

import (
	"fmt"
	"sync"
)

// ActorID identifies one scheduling source in a World. ID 0 is the root
// context: setup code and components without an actor of their own (the
// OS fault handler, the migration epoch, CPU co-traffic). Model components
// (DRAM channel slices, SMs) allocate IDs 1.. in construction order. The
// canonical event order is keyed by actor ID, not lane index, so the
// schedule — and therefore every figure byte — is independent of the lane
// count.
type ActorID int32

// Actor is a scheduling endpoint pinned to one lane of a World. All events
// an actor schedules for itself run on its own lane; events for other
// actors cross lanes through the window mailbox (Send). An actor's methods
// may be called from its own lane's event handlers or from single-threaded
// setup code before the world runs — never from another lane mid-window.
type Actor struct {
	id  ActorID
	seq uint64
	eng *Engine
	w   *World
}

// ID returns the actor's canonical ordering key.
func (a *Actor) ID() ActorID { return a.id }

// nextSeq returns the actor's next per-source sequence number.
func (a *Actor) nextSeq() uint64 {
	a.seq++
	return a.seq
}

// Lane returns the index of the lane the actor's events run on.
func (a *Actor) Lane() int { return a.eng.lane }

// Now reports the actor's lane-local clock. Within a window, lanes advance
// independently; at barriers all lanes have drained the same window.
func (a *Actor) Now() Time { return a.eng.now }

// At schedules h.OnEvent(arg) on the actor's own lane at absolute time t.
func (a *Actor) At(t Time, h Handler, arg uint64) {
	e := a.eng
	if t < e.now {
		panic(fmt.Sprintf("sim: actor %d event scheduled at %d, before now=%d", a.id, t, e.now))
	}
	e.q.push(scheduled{at: t, src: a.id, seq: a.nextSeq(), dst: a, h: h, arg: arg})
}

// After schedules h.OnEvent(arg) on the actor's own lane d cycles from now.
func (a *Actor) After(d Time, h Handler, arg uint64) { a.At(a.eng.now+d, h, arg) }

// Send schedules h.OnEvent(arg) at absolute time t on dst's lane. Cross-
// lane sends must respect the world's lookahead: t >= Now()+lookahead, so a
// message can never land inside the window that produced it. The check is
// enforced for every lane count — including one — which is how laned and
// sequential runs are kept on the same canonical schedule.
func (a *Actor) Send(dst *Actor, t Time, h Handler, arg uint64) {
	e := a.eng
	w := a.w
	if dst != a && w.lookahead > 0 && t < e.now+w.lookahead {
		panic(fmt.Sprintf("sim: actor %d sends to actor %d at %d, inside lookahead window (now=%d, lookahead=%d)",
			a.id, dst.id, t, e.now, w.lookahead))
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: actor %d send scheduled at %d, before now=%d", a.id, t, e.now))
	}
	it := scheduled{at: t, src: a.id, seq: a.nextSeq(), dst: dst, h: h, arg: arg}
	if dst.eng == e || !w.parallel {
		dst.eng.q.push(it)
		return
	}
	e.out = append(e.out, it)
}

// SendAfter schedules h.OnEvent(arg) on dst's lane d cycles from now.
func (a *Actor) SendAfter(dst *Actor, d Time, h Handler, arg uint64) {
	a.Send(dst, a.eng.now+d, h, arg)
}

// World partitions one simulation across n event lanes. Each lane owns a
// queue and runs a conservative time window [W, W+lookahead) in parallel
// with the others; at the window edge all lanes barrier, cross-lane
// messages buffered in per-lane mailboxes are delivered (the queue order
// restores the canonical (time, source, seq) sequence), window hooks run,
// and the next window starts at the new global minimum pending time.
// Because a cross-lane Send may never target the current window and actors
// never share mutable state within a window, the observable schedule is
// identical to the one-lane run for any lane count.
type World struct {
	lanes     []*Engine
	actors    []*Actor
	lookahead Time
	hooks     []func()
	parallel  bool // true while a multi-lane run is on worker threads
}

// NewWorld creates a world with n event lanes (n < 1 is treated as 1).
// lookahead is the minimum latency of any cross-actor message — for the
// memory system, the interconnect crossing cost — and sets the window
// size. Actor 0 (the root context) lives on lane 0.
func NewWorld(n int, lookahead Time) *World {
	if n < 1 {
		n = 1
	}
	if lookahead < 0 {
		lookahead = 0
	}
	w := &World{lookahead: lookahead}
	w.lanes = make([]*Engine, n)
	for i := range w.lanes {
		w.lanes[i] = &Engine{world: w, lane: i}
	}
	w.NewActor() // actor 0: the root context
	return w
}

// WorldOf returns the world e belongs to, lazily wrapping a standalone
// engine in a one-lane world (lookahead 0, no barriers) so components
// written against the actor API also run on plain engines, e.g. in unit
// tests.
func WorldOf(e *Engine) *World {
	if e.world == nil {
		w := &World{lanes: []*Engine{e}}
		e.world = w
		w.NewActor()
	}
	return e.world
}

// Engine returns lane 0's engine: the root actor's lane and the clock to
// read after Run.
func (w *World) Engine() *Engine { return w.lanes[0] }

// Lanes reports the number of event lanes.
func (w *World) Lanes() int { return len(w.lanes) }

// Root returns actor 0, the root context on lane 0. Components that were
// not given a dedicated actor schedule through it.
func (w *World) Root() *Actor { return w.actors[0] }

// NewActor allocates the next actor ID and assigns it to a lane round-
// robin. Call during construction, in a fixed order: the ID sequence is
// part of the canonical schedule.
func (w *World) NewActor() *Actor {
	id := ActorID(len(w.actors))
	a := &Actor{id: id, eng: w.lanes[int(id)%len(w.lanes)], w: w}
	w.actors = append(w.actors, a)
	return a
}

// OnWindow registers fn to run single-threaded at every window barrier
// (and once before the first window). Hooks are where cross-lane shared
// state may be touched safely: deferred page-table flushes, migration
// epochs, progress probes.
func (w *World) OnWindow(fn func()) { w.hooks = append(w.hooks, fn) }

// Fired reports the total events executed across all lanes.
func (w *World) Fired() uint64 {
	var n uint64
	for _, e := range w.lanes {
		n += e.fired
	}
	return n
}

// FillLaneFired copies each lane's executed-event count into dst (one
// entry per lane, truncating to len(dst)). Allocation-free by design —
// flight-recorder probes call it at every window barrier. Call from
// single-threaded code only (setup, window hooks, or after Run).
func (w *World) FillLaneFired(dst []uint64) {
	for i := range dst {
		if i >= len(w.lanes) {
			return
		}
		dst[i] = w.lanes[i].fired
	}
}

// Front reports the earliest pending event time across all lanes, or
// Forever when every lane has drained. At a window barrier this is the
// next window's start — the global simulated-time frontier: every event
// strictly before it has fired, on any lane count, which is what makes it
// a lane-invariant sampling clock for window hooks (see internal/obs).
// Call from single-threaded code only.
func (w *World) Front() Time {
	front := Forever
	for _, e := range w.lanes {
		if t, ok := e.peekTime(); ok && t < front {
			front = t
		}
	}
	return front
}

// Now reports the latest lane-local clock — at a barrier, the time of the
// globally last event fired so far, which is lane-count-invariant (the
// canonical schedule is). Call from single-threaded code only.
func (w *World) Now() Time {
	var now Time
	for _, e := range w.lanes {
		if e.now > now {
			now = e.now
		}
	}
	return now
}

// Pending reports the total events queued across all lanes.
func (w *World) Pending() int {
	n := 0
	for _, e := range w.lanes {
		n += e.Pending() + len(e.out)
	}
	return n
}

func (w *World) runHooks() {
	for _, fn := range w.hooks {
		fn()
	}
}

// step is the window stride: at least one cycle even with zero lookahead,
// so windowed draining always progresses.
func (w *World) step() Time {
	if w.lookahead < 1 {
		return 1
	}
	return w.lookahead
}

// Run drains every lane and returns the final clock value (the maximum
// over lanes). One lane runs inline; several run on worker threads with a
// barrier per window. A drained lane's event slab goes to the next queue
// that needs one (see queue.handOff).
func (w *World) Run() Time {
	if len(w.lanes) == 1 {
		return w.runSingle()
	}
	return w.runParallel()
}

func (w *World) runSingle() Time {
	e := w.lanes[0]
	step := w.step()
	w.runHooks()
	for t := w.Front(); t != Forever; t = w.Front() {
		e.drain(t + step - 1)
		w.runHooks()
	}
	w.handOffSlabs()
	return e.now
}

// handOffSlabs passes each drained lane's event slab on to the next run.
func (w *World) handOffSlabs() {
	for _, e := range w.lanes {
		e.q.handOff()
	}
}

func (w *World) runParallel() Time {
	n := len(w.lanes)
	step := w.step()
	starts := make([]chan Time, n) // each lane's window end (inclusive)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		starts[i] = make(chan Time, 1)
		go func(e *Engine, ch chan Time) {
			for last := range ch {
				e.drain(last)
				wg.Done()
			}
		}(w.lanes[i], starts[i])
	}
	w.parallel = true
	w.runHooks()
	for {
		// The window start is the global minimum pending time, exactly as
		// in the one-lane drain — the window grid is lane-count-invariant.
		start := w.Front()
		if start == Forever {
			break
		}
		wend := start + step
		wg.Add(n)
		for _, ch := range starts {
			ch <- wend - 1
		}
		wg.Wait()
		// Deliver mailboxes. Every buffered send targets t >= wend (the
		// lookahead check), so delivery order cannot matter for the window
		// just drained; the destination queue restores canonical order.
		for _, e := range w.lanes {
			for i := range e.out {
				it := e.out[i]
				e.out[i] = scheduled{}
				it.dst.eng.q.push(it)
			}
			e.out = e.out[:0]
		}
		w.runHooks()
	}
	w.parallel = false
	for _, ch := range starts {
		close(ch)
	}
	w.handOffSlabs()
	end := Time(0)
	for _, e := range w.lanes {
		if e.now > end {
			end = e.now
		}
	}
	return end
}
