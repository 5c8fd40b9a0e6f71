package sim

import "fmt"

// ActorID identifies one scheduling source in a World. ID 0 is the root
// context: setup code and components without an actor of their own (the
// OS fault handler, the migration epoch, CPU co-traffic). Model components
// (DRAM channel slices, SMs) allocate IDs 1.. in construction order, and
// the canonical event order is keyed by actor ID, so construction order is
// part of the schedule.
type ActorID int32

// Actor is a scheduling endpoint of a World: every event carries the ID of
// the actor that scheduled it. An actor's methods may be called from event
// handlers or from setup code before the world runs.
type Actor struct {
	id  ActorID
	seq uint64
	eng *Engine
	w   *World
}

// nextSeq returns the actor's next per-source sequence number.
func (a *Actor) nextSeq() uint64 {
	a.seq++
	return a.seq
}

// Now reports the world's clock.
func (a *Actor) Now() Time { return a.eng.now }

// At schedules h.OnEvent(arg) at absolute time t.
func (a *Actor) At(t Time, h Handler, arg uint64) {
	e := a.eng
	if t < e.now {
		panic(fmt.Sprintf("sim: actor %d event scheduled at %d, before now=%d", a.id, t, e.now))
	}
	e.q.push(scheduled{at: t, src: a.id, seq: a.nextSeq(), dst: a, h: h, arg: arg})
}

// After schedules h.OnEvent(arg) d cycles from now.
func (a *Actor) After(d Time, h Handler, arg uint64) { a.At(a.eng.now+d, h, arg) }

// Send schedules h.OnEvent(arg) at absolute time t for actor dst. A send to
// another actor must respect the world's lookahead, t >= Now()+lookahead,
// so a message never lands inside the window that produced it: a window
// hook (a deferred page-table commit, say) always runs between a message
// and its reply, which is what the memory system's fault retry relies on.
func (a *Actor) Send(dst *Actor, t Time, h Handler, arg uint64) {
	e := a.eng
	if dst != a && a.w.lookahead > 0 && t < e.now+a.w.lookahead {
		panic(fmt.Sprintf("sim: actor %d sends to actor %d at %d, inside lookahead window (now=%d, lookahead=%d)",
			a.id, dst.id, t, e.now, a.w.lookahead))
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: actor %d send scheduled at %d, before now=%d", a.id, t, e.now))
	}
	e.q.push(scheduled{at: t, src: a.id, seq: a.nextSeq(), dst: dst, h: h, arg: arg})
}

// SendAfter schedules h.OnEvent(arg) for dst d cycles from now.
func (a *Actor) SendAfter(dst *Actor, d Time, h Handler, arg uint64) {
	a.Send(dst, a.eng.now+d, h, arg)
}

// World drains one engine window by window: each window is
// [W, W+lookahead), where W is the earliest pending time, and window hooks
// run at every window edge. The window grid depends only on the schedule,
// so hooks see the same state at the same points in every run of a
// config; deferred page-table commits and the flight recorder's samples
// are placed on it.
type World struct {
	eng       *Engine
	root      *Actor
	next      ActorID // ID of the next actor NewActor allocates
	lookahead Time
	hooks     []func()
}

// NewWorld creates a world whose windows are lookahead cycles wide.
// lookahead is the minimum latency of any cross-actor message: for the
// memory system, the interconnect crossing cost (memsys.LaneLookahead).
// n is ignored: the benchmark harness under bench/ still passes an event
// lane count, and the parameter stays until it stops.
func NewWorld(n int, lookahead Time) *World {
	return newWorld(&Engine{}, max(lookahead, 0))
}

func newWorld(e *Engine, lookahead Time) *World {
	w := &World{eng: e, lookahead: lookahead}
	e.world = w
	w.root = w.NewActor()
	return w
}

// WorldOf returns the world e belongs to, lazily wrapping a standalone
// engine in a world without a lookahead (every window one cycle wide) so
// components written against the actor API also run on plain engines,
// e.g. in unit tests.
func WorldOf(e *Engine) *World {
	if e.world == nil {
		newWorld(e, 0)
	}
	return e.world
}

// Engine returns the world's engine: the clock to read after Run.
func (w *World) Engine() *Engine { return w.eng }

// Root returns actor 0, the root context. Components that were not given
// a dedicated actor schedule through it.
func (w *World) Root() *Actor { return w.root }

// NewActor allocates the next actor ID. Call during construction, in a
// fixed order: the ID sequence is part of the canonical schedule.
func (w *World) NewActor() *Actor {
	a := &Actor{id: w.next, eng: w.eng, w: w}
	w.next++
	return a
}

// OnWindow registers fn to run at every window edge (and once before the
// first window): deferred page-table flushes, migration epochs, progress
// probes.
func (w *World) OnWindow(fn func()) { w.hooks = append(w.hooks, fn) }

// Fired reports the events executed so far.
func (w *World) Fired() uint64 { return w.eng.fired }

// Front reports the earliest pending event time, or Forever when nothing
// is pending. At a window edge this is the next window's start: every
// event strictly before it has fired, which makes it the sampling clock
// of window hooks (see internal/obs).
func (w *World) Front() Time {
	if t, ok := w.eng.peekTime(); ok {
		return t
	}
	return Forever
}

// Now reports the clock: at a window edge, the time of the last event
// fired so far.
func (w *World) Now() Time { return w.eng.now }

func (w *World) runHooks() {
	for _, fn := range w.hooks {
		fn()
	}
}

// Run drains the engine window by window, running the hooks at every
// window edge, and returns the final clock value. The drained queue's
// event slab goes to the next queue that needs one (see queue.handOff).
func (w *World) Run() Time {
	e := w.eng
	// The window stride is at least one cycle even with zero lookahead, so
	// windowed draining always progresses.
	step := max(w.lookahead, 1)
	w.runHooks()
	for t := w.Front(); t != Forever; t = w.Front() {
		e.drain(t + step - 1)
		w.runHooks()
	}
	e.q.handOff()
	return e.now
}
